"""Dense two-phase simplex with Bland's rule.

Solves min c'x subject to A x <= b and 0 <= x <= ub. Problem sizes here are
tiny (tens of variables), so the implementation favors robustness: Bland's
anti-cycling pivot rule throughout, explicit artificial variables, and a hard
iteration cap. Each pivot is one NumPy update of every row with a nonzero
entry in the pivot column, and the entering column is picked with one array
scan; both follow Bland's rule, so the pivot sequence is that of a plain
row-by-row loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float | None


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    rows = tab[:, col] != 0.0
    rows[row] = False
    tab[rows] -= tab[rows, col][:, None] * tab[row]
    basis[row] = col


def _run_phase(tab: np.ndarray, basis: np.ndarray, cost: np.ndarray,
               allowed: np.ndarray, tol: float, max_iter: int) -> str:
    """Bland-rule pivoting to optimality for one phase. Mutates tab/basis."""
    for _ in range(max_iter):
        reduced = cost - cost[basis] @ tab[:, :-1]
        candidates = allowed & (reduced < -tol)
        candidates[basis] = False
        if not candidates.any():
            return OPTIMAL
        entering = int(np.argmax(candidates))  # lowest index (Bland)
        # Ratio test; ties broken by smallest basis index (Bland).
        rows = np.flatnonzero(tab[:, entering] > tol)
        if rows.size == 0:
            return UNBOUNDED
        ratios = tab[rows, -1] / tab[rows, entering]
        leave, best_ratio = rows[0], ratios[0]
        for i, ratio in zip(rows[1:], ratios[1:]):
            if (ratio < best_ratio - tol
                    or (abs(ratio - best_ratio) <= tol
                        and basis[i] < basis[leave])):
                best_ratio, leave = ratio, i
        _pivot(tab, basis, leave, entering)
    raise NumericalFailure(f"simplex did not converge in {max_iter} iterations")


def solve_lp_arrays(c, a_ub, b_ub, upper=None,
                    tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> LpResult:
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a_ub, dtype=float)).copy()
    b = np.asarray(b_ub, dtype=float).copy()
    n = c.size
    bounded = [j for j, u in enumerate(() if upper is None else upper)
               if u is not None and np.isfinite(u)]
    if bounded:
        a = np.vstack([a, np.eye(n)[bounded]])
        b = np.concatenate([b, [float(upper[j]) for j in bounded]])
    m = a.shape[0]

    # Rows with negative rhs become >= rows: surplus minus, artificial plus.
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    n_art = int(neg.sum())

    ncols = n + m + n_art
    tab = np.zeros((m, ncols + 1))
    tab[:, :n] = a
    tab[:, -1] = b
    rows = np.arange(m)
    tab[rows, n + rows] = np.where(neg, -1.0, 1.0)  # surplus or slack
    basis = n + rows
    art_cols = list(range(n + m, ncols))
    basis[neg] = art_cols
    tab[neg, art_cols] = 1.0

    allowed = np.ones(ncols, dtype=bool)
    if n_art:
        phase1 = np.zeros(ncols)
        phase1[art_cols] = 1.0
        status = _run_phase(tab, basis, phase1, allowed, tol, max_iter)
        if status != OPTIMAL:
            return LpResult(status=INFEASIBLE, x=None, objective=None)
        value = phase1[basis] @ tab[:, -1]
        if value > np.sqrt(tol):
            return LpResult(status=INFEASIBLE, x=None, objective=None)
        # Drive any artificial still basic out of the basis.
        for i in range(m):
            if basis[i] in art_cols:
                nonzero = np.flatnonzero(np.abs(tab[i, :n + m]) > tol)
                if nonzero.size:
                    _pivot(tab, basis, i, int(nonzero[0]))
                else:
                    tab[i, :] = 0.0  # redundant row
        allowed[art_cols] = False

    cost = np.zeros(ncols)
    cost[:n] = c
    status = _run_phase(tab, basis, cost, allowed, tol, max_iter)
    if status != OPTIMAL:
        return LpResult(status=UNBOUNDED, x=None, objective=None)
    x = np.zeros(ncols)
    x[basis] = tab[:, -1]
    return LpResult(status=OPTIMAL, x=x[:n].copy(), objective=float(c @ x[:n]))
