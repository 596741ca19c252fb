"""min c'x subject to A x <= b and 0 <= x <= ub, solved by HiGHS's dual
simplex (`scipy.optimize.linprog(method="highs-ds")`). SciPy's optimize
package is imported on the first solve: no solve needs it, only a read of
the LP bound, and its import is most of the package's."""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleSubproblem, NumericalFailure


def solve_lp_arrays(c, a_ub, b_ub, upper=None) -> tuple[np.ndarray, float]:
    """(x, c'x) at the optimum. Raises InfeasibleSubproblem when HiGHS
    proves the LP infeasible and NumericalFailure on any other non-optimal
    end (unbounded included). An `upper` entry of None or inf leaves its
    variable unbounded above."""
    from scipy.optimize import linprog
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
