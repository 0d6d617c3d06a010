"""The row-blocked data path and the Cox likelihood against the whole-table
code they replaced.

Each oracle below is that code, copied as it was: the loader that read the
whole file and transposed it, the writer that rendered every cell at once
through `csv.writer`, SMOTE's m×m×p distance tensor and the Cox likelihood
that held the n×p×p outer products.  Every blocked kernel runs with its block
constant forced to 1, to a small odd value and to more than the input holds,
and must match its oracle byte for byte.  The Cox log-likelihood and score
match theirs byte for byte too; the information, now matrix products, is
held to rounding of the oracle and of exact rational arithmetic.  A dataset
written from rows picked out of its source's rendered bytes must match the
writer's oracle too, and SMOTE's partial neighbour selection must pick what
the full stable sort picked, ties included.  `newton.over_rows`, the one row
sum of every fit, stays within rounding of an exact sum, and it, Cox's
information, the logit and ann fits and a whole logit-and-ann pipeline run
keep their bytes under one OpenBLAS thread and under two.
"""

import csv
import io
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from survmix import cox, dataset, fileio, newton, resampling
from survmix.dataset import (MISSING_CODE, MISSING_TOKENS, ColumnSpec, Dataset,
                             SyntheticSpec, generate_synthetic, load_csv, write_csv)
from survmix.errors import DomainError, ParseError
from survmix.fileio import csv_rows, csv_text, text_cells

from helpers import datasets_equal, row_bytes


# -- oracles ---------------------------------------------------------------------


def oracle_load_csv(data_path, specs):
    rows = list(csv.reader(io.StringIO(Path(data_path).read_text(encoding="utf-8")),
                           delimiter=";"))
    if not rows:
        raise ParseError(f"{data_path}: empty file (missing header row)")
    header, body = rows[0], rows[1:]
    if header != [s.name for s in specs]:
        raise ParseError(
            f"{data_path}: header {header!r} does not match schema names "
            f"{[s.name for s in specs]!r}")
    if set(map(len, body)) - {len(specs)}:
        r, row = next((r, row) for r, row in enumerate(body, start=2)
                      if len(row) != len(specs))
        raise ParseError(f"{data_path}:{r}: expected {len(specs)} fields, got {len(row)}")
    columns = {}
    final_specs = []
    for s, tokens in zip(specs, list(zip(*body)) or [()] * len(specs)):
        if s.kind == "numeric":
            columns[s.name] = oracle_parse_numbers(tokens, data_path, s.name)
            final_specs.append(s)
        else:
            codes, vocab = oracle_parse_levels(tokens, data_path, s)
            columns[s.name] = codes
            final_specs.append(ColumnSpec(s.name, s.kind, s.role, vocab))
    return Dataset(final_specs, columns)


def oracle_parse_numbers(tokens, data_path, name):
    try:
        return np.array([np.nan if tok in MISSING_TOKENS else float(tok) for tok in tokens],
                        dtype=np.float64)
    except ValueError:
        for i, tok in enumerate(tokens):
            if tok not in MISSING_TOKENS:
                try:
                    float(tok)
                except ValueError:
                    raise ParseError(f"{data_path}:{i + 2}: column {name!r}: "
                                     f"cannot parse {tok!r} as a number") from None
        raise


def oracle_parse_levels(tokens, data_path, spec):
    index = {v: i for i, v in enumerate(spec.vocabulary)}
    codes = np.array([MISSING_CODE if tok in MISSING_TOKENS
                      else index.setdefault(tok, len(index)) for tok in tokens],
                     dtype=np.int32)
    vocab = tuple(index)
    declared = len(spec.vocabulary)
    if declared and len(vocab) > declared:
        i = int(np.argmax(codes >= declared))
        raise DomainError(f"{data_path}:{i + 2}: column {spec.name!r}: value {tokens[i]!r} "
                          f"is not in the declared vocabulary")
    for code, level in enumerate(vocab[declared:], start=declared):
        if "|" in level or level.splitlines() != [level]:
            i = int(np.argmax(codes == code))
            raise DomainError(f"{data_path}:{i + 2}: column {spec.name!r}: value {level!r} "
                              f"holds '|' or a line break, which a schema sidecar "
                              f"cannot store")
    return codes, vocab


def oracle_csv_text(header, columns, delimiter):
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*[text_cells(col) for col in columns]))
    return buf.getvalue()


def oracle_write_text(data):
    return oracle_csv_text(data.names, [data.values(n) for n in data.names], ";")


def oracle_distances(z):
    d2 = ((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return d2


def oracle_loglik(prep, beta, ties):
    x, starts, death_rows, d_starts = prep.x, prep.starts, prep.death_rows, prep.d_starts
    d_counts = np.diff(np.append(d_starts, death_rows.size))
    with np.errstate(over="ignore", invalid="ignore"):
        eta = x @ beta
        w = np.exp(eta)
        xw = x * w[:, None]
        outer = xw[:, :, None] * x[:, None, :]
        s0 = cox._suffix_sums(w, starts)
        s1 = cox._suffix_sums(xw, starts)
        s2 = cox._suffix_sums(outer, starts)
        s0d = np.add.reduceat(w[death_rows], d_starts)
        s1d = np.add.reduceat(xw[death_rows], d_starts, axis=0)
        s2d = np.add.reduceat(outer[death_rows], d_starts, axis=0)
        k = len(d_counts)
        gidx = np.repeat(np.arange(k), d_counts)
        m = death_rows.size
        within = np.arange(m) - np.repeat(np.cumsum(d_counts) - d_counts, d_counts)
        if ties == "efron":
            frac = within / np.repeat(d_counts, d_counts)
        else:
            frac = np.zeros(m)
        denom = s0[gidx] - frac * s0d[gidx]
        loglik = float(eta[death_rows].sum() - np.log(denom).sum())
        mean = (s1[gidx] - frac[:, None] * s1d[gidx]) / denom[:, None]
        score = x[death_rows].sum(axis=0) - mean.sum(axis=0)
        shaped = (s2[gidx] - frac[:, None, None] * s2d[gidx]) / denom[:, None, None]
        info = shaped.sum(axis=0) - np.einsum("mi,mj->ij", mean, mean)
    return loglik, score, info


# -- helpers ---------------------------------------------------------------------


def same_dataset(a, b):
    assert a.specs == b.specs
    for name in a.names:
        assert a.column(name).tobytes() == b.column(name).tobytes(), name


def outcome(load, path, specs):
    """The loaded dataset, or the error's type and message."""
    try:
        return load(path, specs)
    except (ParseError, DomainError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(path, specs):
    want = outcome(oracle_load_csv, path, specs)
    got = outcome(load_csv, path, specs)
    if isinstance(want, Dataset):
        assert isinstance(got, Dataset), got
        same_dataset(got, want)
    else:
        assert got == want


def block_sizes(n):
    """Rows per block to force: 1, a small odd value and more than `n`.  The
    block constants count cells, so a test sets them to rows × columns."""
    return (1, 3, n + 10)


AWKWARD = ("a", "semi;colon", 'say "hi"', "two\nlines", "cr\r\nlf", "lone\rcr",
           "ünïcødé €", " padded ", "NAN", "", "NA")


def awkward_text(rng, n_rows, line_end="\n"):
    """A ';' file of one numeric and two categorical columns whose quoted
    cells hold the delimiter, quotes and line breaks."""
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=";", lineterminator=line_end)
    writer.writerow(["x", "c", "d"])
    for _ in range(n_rows):
        x = rng.choice(["", "NA", "1.5", "-0.0", "inf", "1e16", "5e-324", " 2 ", "1_0"])
        writer.writerow([x, rng.choice(AWKWARD), rng.choice(AWKWARD[:3])])
    return buf.getvalue()


AWKWARD_SPECS = (ColumnSpec("x", "numeric"), ColumnSpec("c", "categorical"),
                 ColumnSpec("d", "categorical", "feature", AWKWARD[:3]))


def write_raw(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# -- loader ----------------------------------------------------------------------


class TestLoaderMatchesOracle:
    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
    def test_quoted_cells_and_line_endings(self, tmp_path, monkeypatch, line_end):
        # 3,000 rows run past the reader's 8 KB chunks, so quoted line breaks
        # and CRLF pairs also straddle a chunk edge.
        path = tmp_path / "a.csv"
        write_raw(path, awkward_text(np.random.default_rng(5), 3000, line_end))
        for rows in block_sizes(3000):
            monkeypatch.setattr(fileio, "_BLOCK_CELLS", rows * 3)
            assert_same_outcome(path, AWKWARD_SPECS)

    def test_multi_line_cell_at_every_block_edge(self, tmp_path, monkeypatch):
        # Every third record spans two lines, its quoted CRLF read as "\n".
        cells = [f'"x{i}\r\ny{i};""z"' if i % 3 == 2 else f"v{i}" for i in range(40)]
        path = tmp_path / "q.csv"
        write_raw(path, "c\n" + "".join(cell + "\n" for cell in cells))
        vocab = tuple(f'x{i}\ny{i};"z' if i % 3 == 2 else f"v{i}" for i in range(40))
        for rows in (1, 2, 3, 7, 50):
            monkeypatch.setattr(fileio, "_BLOCK_CELLS", rows * 1)
            for spec in (ColumnSpec("c", "categorical", "feature", vocab),
                         ColumnSpec("c", "categorical")):
                assert_same_outcome(path, (spec,))
            got = load_csv(path, (ColumnSpec("c", "categorical", "feature", vocab),))
            assert got.strings("c").tolist() == list(vocab)

    @pytest.mark.parametrize("fault", ["ragged", "undeclared", "number", "sidecar"])
    def test_fault_in_a_later_block(self, tmp_path, monkeypatch, fault):
        rng = np.random.default_rng(9)
        lines = ["x;c;d"] + [f"{rng.standard_normal()!r};a;{rng.choice(['p', 'q'])}"
                             for _ in range(50)]
        bad = {"ragged": "1.0;a", "undeclared": "1.0;a;zz", "number": "oops;a;p",
               "sidecar": "1.0;b|c;p"}[fault]
        lines[37] = bad
        lines[44] = bad
        path = tmp_path / "f.csv"
        write_raw(path, "\n".join(lines) + "\n")
        specs = (ColumnSpec("x", "numeric"), ColumnSpec("c", "categorical"),
                 ColumnSpec("d", "categorical", "feature", ("p", "q")))
        for rows in block_sizes(50):
            monkeypatch.setattr(fileio, "_BLOCK_CELLS", rows * 3)
            assert isinstance(outcome(load_csv, path, specs), tuple)
            assert_same_outcome(path, specs)

    def test_fault_order_across_blocks(self, tmp_path, monkeypatch):
        # A ragged row outranks any bad cell above it, and a faulty column
        # outranks a later one whatever the rows.
        specs = (ColumnSpec("x", "numeric"), ColumnSpec("y", "numeric"),
                 ColumnSpec("c", "categorical", "feature", ("a",)))
        cases = {
            "ragged_last": ["1;oops;a", "1;2;zz"] + ["1;2;a"] * 20 + ["1;2"],
            "first_column_wins": ["1;oops;a"] * 3 + ["1;2;a"] * 20 + ["bad;2;a"],
            "column_order": ["1;2;zz"] + ["1;2;a"] * 9 + ["1;nope;a"],
        }
        for name, body in cases.items():
            path = tmp_path / f"{name}.csv"
            write_raw(path, "x;y;c\n" + "\n".join(body) + "\n")
            for rows in block_sizes(len(body)):
                monkeypatch.setattr(fileio, "_BLOCK_CELLS", rows * 3)
                assert isinstance(outcome(load_csv, path, specs), tuple)
                assert_same_outcome(path, specs)

    def test_inferred_vocabulary_keeps_first_appearance_across_blocks(self, tmp_path,
                                                                        monkeypatch):
        rng = np.random.default_rng(2)
        levels = [f"l{i}" for i in range(30)]
        path = tmp_path / "v.csv"
        write_raw(path, "c\n" + "".join(f"{rng.choice(levels)}\n" for _ in range(200)))
        for rows in block_sizes(200):
            monkeypatch.setattr(fileio, "_BLOCK_CELLS", rows * 1)
            assert_same_outcome(path, (ColumnSpec("c", "categorical"),))

    @pytest.mark.parametrize("text", ["", "\n", "x\n", "x\r\n\r\n", "y\n1\n"])
    def test_degenerate_files(self, tmp_path, monkeypatch, text):
        path = tmp_path / "e.csv"
        write_raw(path, text)
        for rows in (1, 3):
            monkeypatch.setattr(fileio, "_BLOCK_CELLS", rows * 1)
            assert_same_outcome(path, (ColumnSpec("x", "numeric"),))


# -- writer ----------------------------------------------------------------------

SPECIAL_FLOATS = (np.nan, 0.0, -0.0, np.inf, -np.inf, 1e16, 5e-324, 0.1, -1.5e-7)


def special_dataset(rng, n):
    specs = [ColumnSpec("id", "categorical", "id", tuple(f"r{i}" for i in range(n)))]
    cols = {"id": np.arange(n)}
    for j in range(3):
        specs.append(ColumnSpec(f"x{j}", "numeric"))
        cols[f"x{j}"] = rng.choice(SPECIAL_FLOATS, size=n)
    levels = AWKWARD[:9]
    specs.append(ColumnSpec("c", "categorical", "feature", levels))
    cols["c"] = rng.integers(-1, len(levels), size=n)
    return Dataset(specs, cols)


def one_column_dataset(kind):
    """One column, most of its cells missing: each is written as '""'."""
    if kind == "numeric":
        return Dataset([ColumnSpec("x", "numeric")],
                       {"x": np.array([np.nan, 1.0, np.nan, np.nan, -0.0])})
    return Dataset([ColumnSpec("c", "categorical", "feature", ("a", ";"))],
                   {"c": np.array([-1, 0, -1, 1, -1])})


def dataset_columns(data):
    return [data.column(n) if data.spec(n).kind == "numeric" else data.strings(n)
            for n in data.names]


class TestWriterMatchesOracle:
    @pytest.mark.parametrize("n", [0, 1, 2, 50])
    def test_special_floats_and_awkward_levels(self, tmp_path, monkeypatch, n):
        data = special_dataset(np.random.default_rng(n), n)
        for rows in block_sizes(n):
            monkeypatch.setattr(fileio, "_BLOCK_CELLS", rows * 5)
            write_csv(data, tmp_path / "d.csv")
            assert (tmp_path / "d.csv").read_bytes() == oracle_write_text(data).encode()

    @pytest.mark.parametrize("kind", ["numeric", "categorical"])
    def test_one_column_with_missing_cells(self, tmp_path, monkeypatch, kind):
        data = one_column_dataset(kind)
        for rows in block_sizes(5):
            monkeypatch.setattr(fileio, "_BLOCK_CELLS", rows * 1)
            write_csv(data, tmp_path / "d.csv")
            text = (tmp_path / "d.csv").read_text()
            assert text == oracle_write_text(data)
            assert '""\n' in text
            assert datasets_equal(load_csv(tmp_path / "d.csv", data.specs), data)

    def test_artifact_columns(self, monkeypatch):
        rng = np.random.default_rng(4)
        columns = [rng.choice(SPECIAL_FLOATS, size=30),
                   [rng.choice(AWKWARD) for _ in range(30)],
                   rng.choice(SPECIAL_FLOATS, size=30).tolist(),
                   rng.integers(0, 9, size=30).tolist(),
                   [None if i % 4 else f"g{i}" for i in range(30)]]
        for delimiter in (",", ";"):
            want = oracle_csv_text(("a", "b;", 'c"', "d,", ""), columns, delimiter)
            for rows in block_sizes(30):
                monkeypatch.setattr(fileio, "_BLOCK_CELLS", rows * 5)
                assert csv_text(("a", "b;", 'c"', "d,", ""), columns, delimiter) == want
            for header in ([""], ["x"], []):
                assert csv_text(header, columns[:len(header)], delimiter) == \
                    oracle_csv_text(header, columns[:len(header)], delimiter)


class TestPickedLinesMatchFreshRendering:
    """`write_csv(data, path, source)` writes the rows picked from a source
    from the bytes of that source's rows (`CsvRows`), and renders only rows
    made anew."""

    @staticmethod
    def picks(n):
        rng = np.random.default_rng(n)
        return {"random": rng.permutation(n)[:n // 2 + 1],
                "empty": np.empty(0, dtype=np.intp),
                # SMOTE's with-replacement draw repeats majority rows
                "repeated": np.sort(rng.integers(0, n, size=2 * n))}

    @pytest.mark.parametrize("kind", ["special", "numeric", "categorical"])
    def test_take_rows(self, tmp_path, monkeypatch, kind):
        data = (special_dataset(np.random.default_rng(3), 40) if kind == "special"
                else one_column_dataset(kind))
        for rows in block_sizes(data.n_rows):
            monkeypatch.setattr(fileio, "_BLOCK_CELLS", rows * len(data.names))
            source = write_csv(data, tmp_path / "source.csv")
            assert row_bytes(source) == row_bytes(csv_rows(dataset_columns(data), ";"))
            assert b"".join(row_bytes(source)) == \
                oracle_write_text(data).encode().partition(b"\n")[2]
            for name, index in self.picks(data.n_rows).items():
                picked = data.take_rows(index)
                want = oracle_write_text(picked)
                assert csv_text(picked.names, dataset_columns(picked), ";") == want, name
                rows = write_csv(picked, tmp_path / "picked.csv", source)
                assert (tmp_path / "picked.csv").read_bytes() == want.encode(), name
                assert rows.blocks == source.blocks   # shared, not copied
                assert row_bytes(rows) == [row_bytes(source)[i] for i in index], name
                # a pick of a pick reads the same blocks
                again = picked.take_rows(index[::-1] % max(1, len(index)))
                write_csv(again, tmp_path / "again.csv", rows)
                assert (tmp_path / "again.csv").read_bytes() == \
                    oracle_write_text(again).encode(), name

    def test_rows_made_anew_are_rendered(self, tmp_path):
        rng = np.random.default_rng(8)
        data = special_dataset(rng, 40)
        source = write_csv(data, tmp_path / "source.csv")
        order = rng.integers(0, 40, size=60)
        made = Dataset(data.specs, {n: data.column(n)[order[::-1]] for n in data.names},
                       source_rows=np.where(rng.random(60) < 0.3, -1, order[::-1]))
        rows = write_csv(made, tmp_path / "made.csv", source)
        assert (tmp_path / "made.csv").read_bytes() == oracle_write_text(made).encode()
        assert len(rows.blocks) > len(source.blocks)   # the rows made anew, rendered
        again = made.take_rows(np.arange(59, -1, -3))
        write_csv(again, tmp_path / "again.csv", rows)
        assert (tmp_path / "again.csv").read_bytes() == oracle_write_text(again).encode()

    def test_smote_output_with_replacement(self, tmp_path):
        data = generate_synthetic(SyntheticSpec(n_rows=300, n_numeric=3, n_categorical=1,
                                                minority_fraction=0.2, seed=2))
        awkward = ColumnSpec("cat_00", "categorical", "feature", AWKWARD[:4])
        data = Dataset([awkward if s.name == "cat_00" else s for s in data.specs],
                       {n: data.column(n) for n in data.names})
        source = write_csv(data, tmp_path / "train.csv")
        with pytest.warns(UserWarning, match="with replacement"):
            balanced = resampling.smote(data, resampling.SmoteSpec(under_pct=1000.0, seed=2))
        write_csv(balanced, tmp_path / "balanced.csv", source)
        assert (tmp_path / "balanced.csv").read_bytes() == \
            oracle_write_text(balanced).encode()


# -- SMOTE -----------------------------------------------------------------------


class TestNeighborsMatchOracle:
    @pytest.mark.parametrize("m,p", [(2, 1), (37, 3), (120, 18)])
    def test_distances_and_table(self, monkeypatch, m, p):
        rng = np.random.default_rng(m)
        z = rng.standard_normal((m, p))
        z[1::2] = z[0::2][:m // 2]   # duplicate rows: tied distances
        want = oracle_distances(z)
        k = min(5, m - 1)
        table = np.argsort(want, axis=1, kind="stable")[:, :k]
        for elements in (1, 3 * m * p + 1, m * m * p + 1):
            monkeypatch.setattr(resampling, "_BLOCK_ELEMENTS", elements)
            step = max(1, elements // (m * p))
            got = np.concatenate([resampling._distances(z, lo, min(m, lo + step))
                                  for lo in range(0, m, step)])
            assert got.tobytes() == want.tobytes()
            assert resampling._neighbor_table(z, k).tobytes() == table.tobytes()


def oracle_neighbor_table(z, k):
    """`resampling._neighbor_table` as it stood: a full stable argsort of
    every row of distances."""
    m, p = z.shape
    step = max(1, resampling._BLOCK_ELEMENTS // (m * p))
    table = np.empty((m, k), dtype=np.intp)
    for lo in range(0, m, step):
        d2 = resampling._distances(z, lo, min(m, lo + step))
        table[lo:lo + len(d2)] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return table


def tied_points():
    rng = np.random.default_rng(12)
    z = rng.standard_normal((30, 3))
    z[5] = np.nan   # NaN distances sort last
    return {
        "integer grid": rng.integers(0, 3, size=(60, 2)).astype(float),
        "one integer feature": rng.integers(0, 4, size=(40, 1)).astype(float),
        "all equal": np.zeros((12, 3)),
        "two points": np.array([[0.0], [1.0]]),
        "distinct": rng.standard_normal((50, 4)),
        "duplicated rows": np.repeat(rng.standard_normal((15, 2)), 3, axis=0),
        "a NaN row": z,
    }


@pytest.mark.parametrize("name", sorted(tied_points()))
def test_neighbor_table_keeps_the_full_sort_choice(monkeypatch, name):
    # Ties at the k-th distance are common here, and each must go to the
    # smaller row index, as the full stable sort gives them.
    z = tied_points()[name]
    m, p = z.shape
    for k in range(1, min(6, m)):
        for elements in (1, 3 * m * p + 1, m * m * p + 1):
            monkeypatch.setattr(resampling, "_BLOCK_ELEMENTS", elements)
            assert resampling._neighbor_table(z, k).tolist() == \
                oracle_neighbor_table(z, k).tolist(), (k, elements)


# -- Cox -------------------------------------------------------------------------


def exact_information(prep, w, ties):
    """The observed information in exact rational arithmetic on the float
    weights `w`: Σ over deaths of S2/S0 - S1 S1ᵀ/S0², each risk-set sum less
    Efron's share k/d of the tied deaths' own (none for Breslow)."""
    x = [[Fraction(v) for v in row] for row in prep.x.tolist()]
    w = [Fraction(v) for v in w.tolist()]
    n, p = prep.x.shape
    death_rows = prep.death_rows.tolist()
    info = [[Fraction(0)] * p for _ in range(p)]
    for g, start in enumerate(prep.starts.tolist()):
        tied = [r for r, gi in zip(death_rows, prep.gidx.tolist()) if gi == g]
        for k in range(len(tied)):
            share = Fraction(k, len(tied)) if ties == "efron" else Fraction(0)

            def risk_sum(f):
                return (sum(f(i) for i in range(start, n))
                        - share * sum(f(i) for i in tied))

            s0 = risk_sum(lambda i: w[i])
            s1 = [risk_sum(lambda i: w[i] * x[i][a]) for a in range(p)]
            for a in range(p):
                for b in range(p):
                    s2 = risk_sum(lambda i: w[i] * x[i][a] * x[i][b])
                    info[a][b] += s2 / s0 - s1[a] * s1[b] / (s0 * s0)
    return np.array([[float(v) for v in row] for row in info])


def relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestLoglikMatchesOracle:
    @pytest.mark.parametrize("p", range(1, 9))
    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    def test_bits(self, p, ties):
        # loglik and score bit for bit as the n×p×p oracle; the information
        # as matrix products, so within rounding of the oracle's sums
        rng = np.random.default_rng(p)
        n = 400
        x = rng.standard_normal((n, p))
        x[rng.random((n, p)) < 0.3] = 0.0           # zero products, some -0.0
        durations = rng.integers(1, 60, n).astype(float)   # tied death times
        events = (rng.random(n) < 0.7).astype(int)
        prep = cox._prepare(x, durations, events, ties)
        assert (np.bincount(prep.gidx) > 1).any()
        beta = rng.standard_normal(p) * 0.3
        want = oracle_loglik(prep, beta, ties)
        got = cox._loglik(prep, beta)
        assert float.hex(got[0]) == float.hex(want[0])
        assert got[1].tobytes() == want[1].tobytes()
        assert relative_error(got[2], want[2]) <= 1e-13

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    @pytest.mark.parametrize("scale", [0.0, 0.8])
    def test_information_is_exact_on_small_samples(self, p, ties, scale):
        rng = np.random.default_rng(10 * p + int(10 * scale))
        n = 15
        x = rng.standard_normal((n, p))
        x[rng.random((n, p)) < 0.2] = 0.0
        durations = rng.integers(1, 5, n).astype(float)    # groups of tied deaths
        events = (rng.random(n) < 0.8).astype(int)
        prep = cox._prepare(x, durations, events, ties)
        assert (np.bincount(prep.gidx) > 2).any()
        beta = rng.standard_normal(p) * scale
        info = cox._loglik(prep, beta)[2]
        want = exact_information(prep, np.exp(prep.x @ beta), ties)
        assert relative_error(info, want) <= 1e-14


_INFORMATION_BYTES = """
import sys
import numpy as np
from survmix import cox
for seed in range(8):
    rng = np.random.default_rng(seed)
    n = 20_000 + 1_000 * seed
    x = np.column_stack([rng.random(n) < 0.4, rng.standard_normal(n)]).astype(float)
    durations = rng.integers(1, 400, n).astype(float)
    events = (rng.random(n) < 0.3).astype(int)
    for cols in (x[:, :1], x):
        prep = cox._prepare(cols, durations, events, "efron")
        info = cox._loglik(prep, np.full(cols.shape[1], 0.1))[2]
        sys.stdout.write(info.tobytes().hex())
"""


def bytes_per_blas_thread_count(script):
    # OpenBLAS splits a long dot product among its threads, so a BLAS
    # product would give other bits on a machine with other CPU counts
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cox.__file__).parents[1])] + sys.path))
    return [subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, env=dict(env, OPENBLAS_NUM_THREADS=threads),
                           timeout=120, check=True).stdout
            for threads in ("1", "2")]


def test_information_does_not_follow_the_blas_thread_count():
    out = bytes_per_blas_thread_count(_INFORMATION_BYTES)
    assert out[0] and out[0] == out[1]


_LOGIT_BYTES = """
import json, sys
from survmix.classifiers.logistic import LogitParams, fit_logit
from survmix.dataset import SyntheticSpec, generate_synthetic
for seed in range(2):
    data = generate_synthetic(SyntheticSpec(n_rows=25_000, n_numeric=15, n_categorical=2,
                                            minority_fraction=0.3, seed=seed))
    sys.stdout.write(json.dumps(fit_logit(data, LogitParams()).to_state()))
"""


def test_logit_fit_does_not_follow_the_blas_thread_count():
    # 25k rows, 22 design columns: the score and the Hessian reduce over
    # enough rows that OpenBLAS would share them among two threads
    out = bytes_per_blas_thread_count(_LOGIT_BYTES)
    assert out[0] and out[0] == out[1]


# One column against one, a 1-D right-hand side, the fits' own shapes and up
# to 120 columns, at row counts on both sides of the ~12,000 from which
# OpenBLAS splits a one-column dot product.  A case holds at most 3.2M cells.
OVER_ROWS_SHAPES = ((1, 1), (1, None), (2, 2), (5, 5), (10, 10), (20, 20), (40, 40),
                    (60, 60), (120, 120), (7, 7), (22, 8), (22, 22), (22, None))
OVER_ROWS_ROWS = (2_751, 11_000, 13_000, 25_000, 100_000, 200_000)


def over_rows_cases():
    for cols_a, cols_b in OVER_ROWS_SHAPES:
        for n in OVER_ROWS_ROWS:
            if n * (cols_a + (cols_b or 1)) <= 3_200_000:
                rng = np.random.default_rng([n, cols_a, cols_b or 0])
                b_shape = (n,) if cols_b is None else (n, cols_b)
                yield rng.standard_normal((n, cols_a)), rng.standard_normal(b_shape)


_OVER_ROWS_BYTES = """
import hashlib
from survmix.newton import over_rows
from test_blocked_kernels import over_rows_cases
for a, b in over_rows_cases():
    print(a.shape, b.shape, hashlib.sha256(over_rows(a, b).tobytes()).hexdigest())
"""


def test_over_rows_does_not_follow_the_blas_thread_count():
    out = bytes_per_blas_thread_count(_OVER_ROWS_BYTES)
    assert len(out[0].splitlines()) == 64
    assert out[0] == out[1]


def test_over_rows_is_within_rounding_of_an_exact_sum():
    # Any order of summing n products is within n·eps·Σ|products| of their
    # exact sum (Higham 2002, §3.1), and fsum of the rounded products is
    # within eps/2 of that.  Checked at the corner entries of every case.
    eps = np.finfo(float).eps
    for a, b in over_rows_cases():
        got = newton.over_rows(a, b).reshape(a.shape[1], -1)
        b = b.reshape(len(b), -1)
        for i in {0, a.shape[1] - 1}:
            for j in {0, b.shape[1] - 1}:
                products = (a[:, i] * b[:, j]).tolist()
                bound = len(products) * eps * math.fsum(map(abs, products))
                assert abs(got[i, j] - math.fsum(products)) <= bound, (a.shape, b.shape, i, j)


_ANN_BYTES = """
import json, sys
from survmix.classifiers.neural import AnnParams, fit_ann
from survmix.dataset import SyntheticSpec, generate_synthetic
for seed in range(2):
    data = generate_synthetic(SyntheticSpec(n_rows=25_000, n_numeric=15, n_categorical=2,
                                            minority_fraction=0.3, seed=seed))
    sys.stdout.write(json.dumps(fit_ann(data, AnnParams(epochs=5), seed).to_state()))
"""


def test_ann_fit_does_not_follow_the_blas_thread_count():
    # 25k rows, 22 inputs, 8 hidden units: both weight gradients reduce over
    # enough rows that OpenBLAS would share them among two threads
    out = bytes_per_blas_thread_count(_ANN_BYTES)
    assert out[0] and out[0] == out[1]


_PIPELINE_DIGESTS = """
import hashlib, sys, tempfile
from pathlib import Path
from survmix.cli import main
with tempfile.TemporaryDirectory() as out:
    code = main(["pipeline", "--set", "synthetic.rows=25000", "--set", "synthetic.numeric=15",
                 "--set", "synthetic.minority=0.2", "--set", "train.algorithms=logit,ann",
                 "--seed", "3", "--out", out])
    for path in sorted(Path(out).iterdir()):
        if path.name != "report.json":   # holds the stage timings
            print(path.name, hashlib.sha256(path.read_bytes()).hexdigest())
sys.exit(code)
"""


def test_pipeline_artifacts_do_not_follow_the_blas_thread_count():
    # a 25k-row run (27.8k balanced training rows) fits logit and the ann,
    # then mixes them and runs KM, log-rank and Cox on the predicted groups
    out = bytes_per_blas_thread_count(_PIPELINE_DIGESTS)
    assert len(out[0].splitlines()) == 21
    assert out[0] == out[1]


# -- memory ----------------------------------------------------------------------

_ROUND_TRIP = """
import resource, sys
from survmix.dataset import load_csv, write_csv
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
data = load_csv(sys.argv[1], sys.argv[1][:-4] + ".schema")
write_csv(data, sys.argv[2])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""

# A new process starts with the peak RSS of the one that launched it (Linux
# carries it across fork and exec), so the test's large process launches a
# small interpreter, which launches the one measured.
_RELAY = ("import subprocess, sys; print(subprocess.run(sys.argv[1:], capture_output=True, "
          "text=True, check=True).stdout, end='')")


def test_round_trip_memory_scales_with_blocks(tmp_path):
    # Loading and writing back a 20k-row table may grow a fresh interpreter
    # by less than 4x the file's size (ru_maxrss, in KB on Linux); the
    # whole-table loader alone grew it about 9x.
    data = generate_synthetic(SyntheticSpec(n_rows=20_000, n_numeric=18, seed=1))
    write_csv(data, tmp_path / "t.csv")
    dataset.write_schema(data.specs, tmp_path / "t.schema")
    size_kb = (tmp_path / "t.csv").stat().st_size / 1024
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(dataset.__file__).parents[1])] + sys.path))
    result = subprocess.run(
        [sys.executable, "-c", _RELAY, sys.executable, "-c", _ROUND_TRIP,
         str(tmp_path / "t.csv"), str(tmp_path / "o.csv")],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    growth_kb = int(result.stdout)
    assert (tmp_path / "o.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()
    assert growth_kb < 4 * size_kb, (growth_kb, size_kb)
