"""Newton ascent with step halving, shared by the logistic and Cox fits.

Both fits maximize a concave log-likelihood from beta = 0 (McCullagh and
Nelder 1989; Therneau and Grambsch 2000, §3).  Each iteration solves
information · step = score and takes the full step, halving it up to
`_MAX_HALVINGS` times until the log-likelihood is finite and no lower.  A
point that no halved step improves is the maximum, by concavity.  The ascent
stops there, once the largest score component falls below `score_tol`, or
once an iteration gains at most `loglik_tol · max(1, |loglik|)`.  A
coefficient walking past `_COEF_LIMIT` while the log-likelihood still
improves means separated data and raises `SeparationError`; a singular or
non-finite step raises numpy's `LinAlgError`, which each fit turns into its
own error.

Every fit sums over its rows by `over_rows`: `a.T @ b` over blocks of at most
4,096 and 2**18 // (columns of a × columns of b) rows, added in block order,
so that OpenBLAS computes each on one thread whatever `OPENBLAS_NUM_THREADS`
says (it splits even a one-column dot product from about 12,000 rows).  `@`
warns on overflow, which the fits let run to inf, hence the `errstate`.
"""

from typing import NamedTuple

import numpy as np

from .errors import SeparationError

_MAX_HALVINGS = 30
_COEF_LIMIT = 15.0


def over_rows(a, b):
    """`a.T @ b`, summed block by block in row order (see the module)."""
    cells = a.shape[1] * b[:1].size   # columns of a × columns of b (1 for a vector)
    rows = max(1, min(4096, 2 ** 18 // max(1, cells)))
    with np.errstate(over="ignore", invalid="ignore"):
        total = a[:rows].T @ b[:rows]
        for lo in range(rows, a.shape[0], rows):
            total += a[lo:lo + rows].T @ b[lo:lo + rows]
    return total


def _norm(v):
    return float(np.sqrt(over_rows(v[:, None], v)[0]))


def check_aliased(design: np.ndarray, names) -> list:
    """Names of columns linearly dependent on earlier ones.

    Each column is first divided by its largest magnitude (when that is
    finite and not 0), which keeps the answer the same at any scale: a sum of
    squares of raw cells overflows from about 1e154 and underflows below
    1e-162.
    """
    scale = np.max(np.abs(design), axis=0, initial=0.0)
    design = design / np.where(np.isfinite(scale) & (scale > 0), scale, 1.0)
    basis = np.empty((design.shape[0], 0))
    aliased = []
    for j, name in enumerate(names):
        col = design[:, j]
        resid = col - basis @ over_rows(basis, col)
        norm = _norm(resid)
        if norm <= 1e-8 * max(1.0, _norm(col)):
            aliased.append(name)
        else:
            basis = np.hstack([basis, (resid / norm)[:, None]])
    return aliased


class Ascent(NamedTuple):
    beta: np.ndarray
    loglik: float
    information: np.ndarray
    iterations: int
    converged: bool
    start: tuple            # (loglik, score, information) at beta = 0


def newton_ascent(evaluate, names, max_iter: int, score_tol: float,
                  loglik_tol: float) -> Ascent:
    """Maximize the log-likelihood that `evaluate(beta)` returns, with its
    score and observed information, over one coefficient per name."""
    beta = np.zeros(len(names))
    start = loglik, score, info = evaluate(beta)
    iterations = 0
    converged = np.max(np.abs(score), initial=0.0) < score_tol
    while not converged and iterations < max_iter:
        iterations += 1
        step = np.linalg.solve(info, score)
        if not np.isfinite(step).all():
            raise np.linalg.LinAlgError("non-finite Newton step")
        for half in range(_MAX_HALVINGS + 1):
            candidate = beta + step / 2.0 ** half
            new = evaluate(candidate)
            if np.isfinite(new[0]) and new[0] >= loglik:
                break
        else:
            converged = True
            break
        if new[0] > loglik:
            worst = int(np.argmax(np.abs(candidate)))
            if abs(candidate[worst]) > _COEF_LIMIT:
                raise SeparationError(
                    f"complete separation suspected: coefficient for "
                    f"{names[worst]!r} diverged past |{_COEF_LIMIT}| with the "
                    f"likelihood still improving")
        gain = new[0] - loglik
        beta, (loglik, score, info) = candidate, new
        converged = (np.max(np.abs(score)) < score_tol
                     or gain <= loglik_tol * max(1.0, abs(loglik)))
    return Ascent(beta, loglik, info, iterations, bool(converged), start)
