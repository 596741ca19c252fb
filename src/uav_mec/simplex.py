"""min c'x subject to A x <= b and 0 <= x <= ub, solved by HiGHS's dual
simplex (`scipy.optimize.linprog(method="highs-ds")`)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import NumericalFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}  # linprog's status codes


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float | None


def solve_lp_arrays(c, a_ub, b_ub, upper=None) -> LpResult:
    """An `upper` entry of None or inf leaves its variable unbounded above."""
    c = np.asarray(c, dtype=float)
    bounds = [(0.0, float(u) if u is not None and np.isfinite(u) else None)
              for u in ([None] * c.size if upper is None else upper)]
    res = linprog(c, A_ub=np.atleast_2d(np.asarray(a_ub, dtype=float)),
                  b_ub=np.asarray(b_ub, dtype=float), bounds=bounds,
                  method="highs-ds")
    status = _STATUS.get(res.status)
    if status is None:
        raise NumericalFailure(f"HiGHS stopped: {res.message}")
    if status != OPTIMAL:
        return LpResult(status=status, x=None, objective=None)
    return LpResult(status=OPTIMAL, x=res.x, objective=float(c @ res.x))
