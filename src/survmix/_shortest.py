"""CSV cells of float64 arrays in Python's shortest round-trip form, computed
for a whole array at once with numpy integer arithmetic.

`fill_cells(words, values)` spells each value as `float.__repr__` does, a
NaN as the empty cell, into a fixed row of uint32 words.  A normal value
goes through Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; the algorithm of Java 19's `Double.toString`): with one
126-bit multiplier g(k) per decimal exponent, three 64×128-bit products
rounded to odd give the value and the two ends of its rounding interval
scaled by 10^-k, and from them the shortest decimal in the interval, the
closest to the value and the even one on a tie, as CPython's dtoa picks
it.  ±0.0 skips the core; ±inf and subnormals are rendered by
`float.__repr__`, one cell at a time.

The digits are laid out as `format_float_short` does in 'r' mode: exponent
form iff the decimal point's position is at most -4 or above 16, a signed
exponent of at least two digits, and ".0" after an integer not in exponent
form.  Each cell is written into a fixed row of `_WIDTH` uint32 words from
tables of 4 and 8 ASCII bytes, with NUL bytes where it holds no character:
leading zeros of the integer part and trailing zeros of the fraction come
from tables that spell them as NULs.  The row's last byte is left to the
caller, which puts the cell's terminator (a delimiter or a line feed)
there; one pass that deletes the NULs then leaves the cells, each followed
by its terminator.
"""

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M52 = _U64((1 << 52) - 1)
_M63 = _U64((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292   # the decimal exponents k a normal double needs


def _flog2pow10(e):
    """floor(log2(10^e)), exact for |e| < 330."""
    return (e * 1741647) >> 19


def _multipliers():
    """g1 and g0 of g(k) = g1·2^63 + g0 for k in [_K_MIN, _K_MAX], where
    10^-k = β·2^r with 2^125 <= β < 2^126 and g(k) = floor(β) + 1."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        g.append((10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1)
    return (np.array([v >> 63 for v in g], dtype=_U64),
            np.array([v & ((1 << 63) - 1) for v in g], dtype=_U64))


_G1, _G0 = _multipliers()
_POW10 = np.array([10 ** i for i in range(20)], dtype=_U64)


def _word_tables():
    """The four ASCII digits of 0..9999 as one uint32 each, in four tables
    one after the other: all digits; leading zeros as NULs (`_LEAD`); the
    same but 0 as "0" (`_UNITS`); trailing zeros as NULs (`_TRAIL`)."""
    d = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    lead = np.logical_or.accumulate(d != 0, axis=1)
    units = lead.copy()
    units[:, 3] = True
    trail = np.logical_or.accumulate(d[:, ::-1] != 0, axis=1)[:, ::-1]
    ascii_ = (d + 48).astype(np.uint8)
    return np.stack([ascii_, ascii_ * lead, ascii_ * units, ascii_ * trail]).view(np.uint32).ravel()


def _eight_bytes(texts):
    """`texts`, each NUL-padded to 8 bytes, one uint64 each."""
    return np.frombuffer(b"".join(t.encode("ascii").ljust(8, b"\0") for t in texts), _U64)


_WORDS = _word_tables()
_LEAD, _UNITS, _TRAIL = 10_000, 20_000, 30_000
# "." with 0-3 zeros and the first fraction digit; last, nothing
_POINT = _eight_bytes([f".{'0' * z}{d}" for z in range(4) for d in range(10)] + [""])
_NO_POINT = 40
# "e" and the exponent x - 400; last, nothing.  At most 5 bytes, so a
# cell's last byte stays free for its terminator.
_EXPONENT = _eight_bytes([f"e{x - 400:+03d}" for x in range(800)] + [""])
_NO_EXPONENT = 800
# A cell's row of uint32 words: sign, integer part (4 words), an empty word
# that aligns the next, point, zeros and first fraction digit (2), rest of
# the fraction (4), exponent and the caller's terminator (2).
_WIDTH = 14


def _mulhi(a1, a0, b1, b0):
    """High 64 bits of the product a·b of a, b < 2^63 given as 32-bit halves."""
    mid = a1 * b0 + (a0 * b0 >> _U64(32))
    mid2 = a0 * b1 + (mid & _M32)
    return a1 * b1 + (mid >> _U64(32)) + (mid2 >> _U64(32))


def _round_to_odd(g, cp):
    """floor(g·cp / 2^127) with its lowest bit set if the floor is inexact
    (Schubfach's rop), for g = g1·2^63 + g0 given as (g1, g1's 32-bit
    halves, g0's 32-bit halves)."""
    g1, g1h, g1l, g0h, g0l = g
    cp1, cp0 = cp >> _U64(32), cp & _M32
    x1 = _mulhi(g0h, g0l, cp1, cp0)
    y1 = _mulhi(g1h, g1l, cp1, cp0)
    z = (g1 * cp >> _U64(1)) + x1      # g1·cp wraps mod 2^64 as intended
    return (y1 + (z >> _U64(63))) | (((z & _M63) + _M63) >> _U64(63))


def _schubfach(bits):
    """(f, k) with f·10^k the shortest decimal that rounds to each of the
    normal doubles `bits` (sign bit clear), closest to it, even on a tie.
    For other bit patterns (f, k) means nothing, but every table index
    and shift stays in range."""
    t = bits & _M52
    bq = bits >> _U64(52)
    c = t | _U64(1 << 52)
    q = bq.astype(np.int64) - 1075
    irregular = (t == 0) & (bq != 1)   # a power of two: the interval below is half as wide
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U64)
    g1, g0 = _G1[k - _K_MIN], _G0[k - _K_MIN]
    g = (g1, g1 >> _U64(32), g1 & _M32, g0 >> _U64(32), g0 & _M32)
    cb = c << _U64(2)
    out = c & _U64(1)   # an odd significand's interval excludes its ends
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - _U64(2) + irregular) << h) + out
    vbr = _round_to_odd(g, (cb + _U64(2)) << h) - out
    s = vb >> _U64(2)
    # one digit shorter: at most one multiple of 10 lies in the interval
    sp10 = s // _U64(10) * _U64(10)
    upin = vbl <= sp10 << _U64(2)
    wpin = (sp10 << _U64(2)) + _U64(40) <= vbr
    # full length: s or s + 1, by the interval, else the closer, else the even
    uin = vbl <= s << _U64(2)
    win = (s << _U64(2)) + _U64(4) <= vbr
    mid = (s << _U64(2)) + _U64(2)
    closer = (vb < mid) | ((vb == mid) & ((s & _U64(1)) == 0))
    pick_t = (uin != win) & win | (uin == win) & ~closer
    short = upin != wpin
    f = (s + pick_t) + (sp10 + _U64(10) * wpin - s - pick_t) * short
    return f, k


def fill_cells(words: np.ndarray, values: np.ndarray) -> None:
    """Spell each float64 of `values` into its row of `_WIDTH` uint32 words
    in `words` (shape `values.shape + (_WIDTH,)`, last axis contiguous, rows
    8-byte aligned, all NUL), as `float.__repr__` spells it, a NaN as no
    character.  A cell's last byte is left NUL for the caller's terminator."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(_U64)
    magnitude = bits & _M63
    normal = (magnitude >= _U64(1 << 52)) & (magnitude < _U64(0x7FF << 52))
    f, e = _schubfach(magnitude)
    f *= normal   # zero becomes 0·10^0; subnormals, inf and NaN are redone below
    e *= normal

    # f·10^e as 17 digits F and the decimal point's position in them
    digits16 = f < _U64(10 ** 16)   # Schubfach's f has 16 or 17 digits
    big = f + f * _U64(9) * digits16
    point = e + 17 - digits16
    expo = (point <= -4) | (point > 16)
    # F split at the point: integer part and 17 fraction digits; exponent
    # form splits it after its first digit
    split = point + (1 - point) * expo
    unit = _POW10[np.minimum(17 - split, 19)]
    whole = big // unit
    frac = (big - whole * unit) * _POW10[np.maximum(split, 0)]

    # 8-digit halves, split in uint64 (numpy 1.x would keep uint32·scalar in uint32)
    ih = whole // _U64(10 ** 8)
    il = (whole - ih * _U64(10 ** 8)).astype(np.uint32)
    ih = ih.astype(np.uint32)
    first = frac // _U64(10 ** 16)
    rest = frac - first * _U64(10 ** 16)
    fh = rest // _U64(10 ** 8)
    fl = (rest - fh * _U64(10 ** 8)).astype(np.uint32)
    fh = fh.astype(np.uint32)
    no_point = expo & (frac == 0)

    slots = words.view(_U64)
    words[..., 0] = (bits >> _U64(63)).astype(np.uint32) * 45
    w3, w1 = ih // 10_000, il // 10_000
    words[..., 1] = _WORDS[w3 + _LEAD]
    words[..., 2] = _WORDS[ih - w3 * 10_000 + _LEAD * (w3 == 0)]
    words[..., 3] = _WORDS[w1 + _LEAD * (ih == 0)]
    words[..., 4] = _WORDS[il - w1 * 10_000 + _UNITS * ((ih == 0) & (w1 == 0))]
    slots[..., 3] = _POINT[np.maximum(-split, 0) * 10 + first.astype(np.int64)
                           + _NO_POINT * no_point]
    w3, w1 = fh // 10_000, fl // 10_000
    w2, w0 = fh - w3 * 10_000, fl - w1 * 10_000
    words[..., 8] = _WORDS[w3 + _TRAIL * ((w2 == 0) & (fl == 0))]
    words[..., 9] = _WORDS[w2 + _TRAIL * (fl == 0)]
    words[..., 10] = _WORDS[w1 + _TRAIL * (w0 == 0)]
    words[..., 11] = _WORDS[w0 + _TRAIL]
    slots[..., 6] = _EXPONENT[(point + 399) * expo + _NO_EXPONENT * ~expo]

    other = ~normal & (magnitude != 0)
    if other.any():
        words[other] = 0
        cells = words.view(np.uint8)
        for at in zip(*np.nonzero(other & ~np.isnan(values))):
            text = float.__repr__(float(values[at])).encode("ascii")
            cells[at][:len(text)] = np.frombuffer(text, np.uint8)
