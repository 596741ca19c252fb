"""min c'x subject to A x <= b and 0 <= x <= ub, solved by HiGHS's dual
simplex (`scipy.optimize.linprog(method="highs-ds")`)."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from .errors import InfeasibleSubproblem, NumericalFailure


def solve_lp_arrays(c, a_ub, b_ub, upper=None) -> tuple[np.ndarray, float]:
    """(x, c'x) at the optimum. Raises InfeasibleSubproblem when HiGHS
    proves the LP infeasible and NumericalFailure on any other non-optimal
    end (unbounded included). An `upper` entry of None or inf leaves its
    variable unbounded above."""
    c = np.asarray(c, dtype=float)
    bounds = [(0.0, float(u) if u is not None and np.isfinite(u) else None)
              for u in ([None] * c.size if upper is None else upper)]
    res = linprog(c, A_ub=np.atleast_2d(np.asarray(a_ub, dtype=float)),
                  b_ub=np.asarray(b_ub, dtype=float), bounds=bounds,
                  method="highs-ds")
    if res.status == 2:
        raise InfeasibleSubproblem("LP is infeasible")
    if res.status != 0:
        raise NumericalFailure(f"HiGHS stopped: {res.message}")
    return res.x, float(c @ res.x)
