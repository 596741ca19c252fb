"""The HiGHS LP adapter against hand solutions and scipy's default HiGHS
solve: the optimum as (x, c'x), infeasible and other non-optimal ends as
errors, upper bounds, degenerate instances."""

import numpy as np
import pytest
from scipy.optimize import linprog

from uav_mec import simplex
from uav_mec.errors import InfeasibleSubproblem, NumericalFailure


def solve(c, a, b, upper=None):
    return simplex.solve_lp_arrays(np.array(c, dtype=float),
                                   np.array(a, dtype=float),
                                   np.array(b, dtype=float), upper=upper)


class TestBasics:
    def test_min_with_lower_bound_row(self):
        # min x s.t. x >= 3  (written as -x <= -3)
        _, objective = solve([1.0], [[-1.0]], [-3.0])
        assert objective == pytest.approx(3.0)

    def test_box_maximization(self):
        # min -x - y s.t. x <= 2, y <= 3
        _, objective = solve([-1.0, -1.0], [[1.0, 0.0], [0.0, 1.0]],
                             [2.0, 3.0])
        assert objective == pytest.approx(-5.0)

    def test_upper_bounds_argument(self):
        _, objective = solve([-1.0], np.zeros((1, 1)), [0.0], upper=[4.0])
        assert objective == pytest.approx(-4.0)

    def test_infeasible(self):
        # x <= 1 and x >= 2
        with pytest.raises(InfeasibleSubproblem):
            solve([1.0], [[1.0], [-1.0]], [1.0, -2.0])

    def test_unbounded(self):
        with pytest.raises(NumericalFailure):
            solve([-1.0], [[-1.0]], [0.0])

    def test_solver_failure_raises(self, monkeypatch):
        # Any other HiGHS outcome but optimal (here 4, numerical
        # difficulties) is an error too.
        import scipy.optimize
        from scipy.optimize import OptimizeResult

        # solve_lp_arrays imports linprog from scipy.optimize on each call.
        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *a, **k: OptimizeResult(
                                status=4, message="numerical difficulties",
                                x=None))
        with pytest.raises(NumericalFailure):
            solve([1.0], [[-1.0]], [-3.0])

    def test_degenerate_redundant_rows(self):
        # Textbook 3-variable LP with a duplicated constraint.
        c = [-3.0, -2.0, -1.0]
        a = [[1.0, 1.0, 1.0],
             [1.0, 1.0, 1.0],
             [2.0, 1.0, 0.0]]
        b = [4.0, 4.0, 5.0]
        _, objective = solve(c, a, b)
        # Optimum at x=(1,3,0): objective -9.
        assert objective == pytest.approx(-9.0)


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        c = rng.normal(size=n)
        a = rng.normal(size=(m, n))
        b = rng.uniform(-1.0, 4.0, size=m)
        upper = [float(u) for u in rng.uniform(0.5, 5.0, size=n)]
        ref = linprog(c, A_ub=a, b_ub=b,
                      bounds=[(0.0, u) for u in upper], method="highs")
        if ref.status == 2:
            with pytest.raises(InfeasibleSubproblem):
                solve(c, a, b, upper=upper)
        else:
            assert ref.status == 0
            x, objective = solve(c, a, b, upper=upper)
            assert objective == pytest.approx(ref.fun, abs=1e-7)
            # The reported point is primal feasible and attains the objective.
            assert np.all(x >= -1e-9)
            assert np.all(x <= np.array(upper) + 1e-9)
            assert np.all(a @ x <= b + 1e-7)
            assert float(c @ x) == pytest.approx(objective)


class TestBlandRule:
    """Degenerate LPs on which naive pivot rules cycle or stall (Bland's
    rule is the textbook guard); HiGHS must still end at the optimum."""

    def test_beale_cycling_example_terminates_at_optimum(self):
        # Beale (1955): the largest-coefficient rule cycles on this
        # degenerate LP. Optimum -5/4 at (1, 0, 1, 0).
        x, objective = simplex.solve_lp_arrays(
            np.array([-0.75, 20.0, -0.5, 6.0]),
            np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0]]),
            np.array([0.0, 0.0]), upper=[None, None, 1.0, None])
        assert objective == pytest.approx(-1.25)
        np.testing.assert_allclose(x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_pivot_column_with_zero_rows(self):
        # Each x_k enters through a column that is zero in every bound row
        # but its own, so the pivots leave those rows untouched.
        c = [-1.0, -2.0, -3.0]
        a = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
             [1.0, 1.0, 1.0]]
        x, objective = solve(c, a, [1.0, 2.0, 3.0, 5.0])
        assert objective == pytest.approx(-13.0)  # x = (0, 2, 3)
        np.testing.assert_allclose(x, [0.0, 2.0, 3.0], atol=1e-12)
