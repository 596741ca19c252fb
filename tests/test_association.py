"""Branch-and-bound association against exhaustive enumeration."""

import numpy as np
import pytest

from uav_mec.association import greedy_incumbent, solve_association, _Context
from uav_mec.errors import InfeasibleSubproblem
from uav_mec.oracles import enumerate_associations_at_least_one
from uav_mec.scenario import Position3D

from .conftest import counting, full_association, make_scenario

Q_M = Position3D(500.0, 500.0, 400.0)


def random_instance(seed, n_max=3, i_max=5):
    """Random small scenario; targets are redrawn until initially covered.

    Returns None on the rare draw where no covered spot is found in time.
    """
    from uav_mec.scenario import AxisRect, fov_extents
    from .conftest import DEFAULT_CAMERA

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    i = int(rng.integers(n, i_max + 1))
    suav_xy = [(float(x), float(y))
               for x, y in rng.uniform(200.0, 800.0, size=(n, 2))]
    hfov, vfov = fov_extents(500.0, DEFAULT_CAMERA)
    rects = [AxisRect(x - hfov / 2, x + hfov / 2, y - vfov / 2, y + vfov / 2)
             for x, y in suav_xy]
    target_xy = []
    for _ in range(i):
        for _ in range(100):
            x, y = (float(v) for v in rng.uniform(100.0, 900.0, size=2))
            if any(r.contains(x, y) for r in rects):
                target_xy.append((x, y))
                break
        else:
            return None
    chunks = rng.uniform(1.6e6, 2.5e6, size=n)
    return make_scenario(suav_xy, target_xy, chunk_bits=chunks,
                         n0_cap=max(1, n // 2))


class TestForcedCases:
    def test_single_target_single_cover(self):
        sc = make_scenario([(500.0, 500.0)], [(480.0, 510.0)], n0_cap=1)
        assoc, info = solve_association(sc, np.array([0]), Q_M)
        assert assoc.alpha.tolist() == [[1]]
        assert info.exact

    def test_unique_cover_forced(self):
        sc = make_scenario([(200.0, 200.0), (800.0, 800.0)],
                           [(200.0, 220.0), (810.0, 790.0)], n0_cap=1)
        assoc, info = solve_association(sc, np.zeros(2, dtype=int), Q_M)
        assert assoc.alpha.tolist() == [[1, 0], [0, 1]]
        assert info.exact


class TestGreedyIncumbent:
    @pytest.mark.parametrize("seed", range(10))
    def test_never_beats_bnb(self, seed):
        sc = random_instance(seed)
        if sc is None:
            return
        beta = np.zeros(sc.n_suavs, dtype=int)
        ctx = _Context(sc, beta, Q_M)
        greedy = greedy_incumbent(sc, beta, Q_M)
        from uav_mec.association import _evaluate_full
        greedy_obj, ok = _evaluate_full(ctx, greedy.alpha)
        _, info = solve_association(sc, beta, Q_M)
        assert ok
        assert greedy_obj >= info.objective - 1e-12

    def test_fast_at_default_scale(self, scenario0):
        import time
        beta = np.zeros(scenario0.n_suavs, dtype=int)
        start = time.monotonic()
        greedy_incumbent(scenario0, beta, Q_M)
        assert time.monotonic() - start < 0.05


class TestBnbExactness:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_exhaustive_at_least_one_enumeration(self, seed):
        sc = random_instance(seed)
        if sc is None:
            return
        rng = np.random.default_rng(seed + 1000)
        beta = np.zeros(sc.n_suavs, dtype=int)
        n_off = int(rng.integers(0, sc.n0_cap + 1))
        beta[rng.choice(sc.n_suavs, size=n_off, replace=False)] = 1
        assoc, info = solve_association(sc, beta, Q_M)
        _, oracle_obj = enumerate_associations_at_least_one(sc, beta, Q_M)
        assert info.exact
        assert info.objective == pytest.approx(oracle_obj, rel=1e-12)

    def test_warm_start_does_not_change_result(self):
        sc = random_instance(7)
        assert sc is not None
        beta = np.zeros(sc.n_suavs, dtype=int)
        cold, _ = solve_association(sc, beta, Q_M)
        warm, _ = solve_association(sc, beta, Q_M,
                                    warm_alpha=full_association(sc).alpha)
        from uav_mec.association import _Context, _evaluate_full
        ctx = _Context(sc, beta, Q_M)
        assert _evaluate_full(ctx, cold.alpha)[0] == pytest.approx(
            _evaluate_full(ctx, warm.alpha)[0])

    def test_static_positions_use_initial_geometry(self):
        sc = random_instance(11)
        assert sc is not None
        beta = np.zeros(sc.n_suavs, dtype=int)
        _, info_static = solve_association(sc, beta, Q_M, static_positions=True)
        ctx = _Context(sc, beta, Q_M, static_positions=True)
        _, oracle_obj = enumerate_associations_at_least_one(
            sc, beta, Q_M, static_positions=True)
        assert info_static.objective == pytest.approx(oracle_obj, rel=1e-12)

    def test_energy_infeasible_instance_raises(self):
        sc = make_scenario([(500.0, 500.0)], [(480.0, 510.0)], n0_cap=1,
                           energy_budget_j=1e-4)
        with pytest.raises(InfeasibleSubproblem):
            solve_association(sc, np.array([0]), Q_M)


class TestTimeBudget:
    def test_search_stops_once_the_clock_runs_out(self, monkeypatch):
        import types
        from dataclasses import replace

        from uav_mec import association
        from uav_mec.config import ExperimentConfig
        from uav_mec.scenario import generate_scenario
        sc = generate_scenario(
            replace(ExperimentConfig(), n_suavs=16, n_targets=40), 0)
        reads = []

        def clock():  # the start, then far past any budget
            reads.append(None)
            return 0.0 if len(reads) == 1 else 100.0

        monkeypatch.setattr(association, "time",
                            types.SimpleNamespace(monotonic=clock))
        _, info = solve_association(sc, np.zeros(sc.n_suavs, dtype=int), Q_M,
                                    node_budget=50_000, time_budget_s=1.0)
        assert not info.exact
        # One clock read finds the budget spent; after it, each open level
        # of the search calls its remaining children once and stops.
        assert len(reads) == 2
        assert info.nodes <= 2048 + sc.n_targets * sc.n_suavs


class TestSharedContext:
    def test_one_context_per_solve(self, monkeypatch, scenario0):
        from uav_mec import association
        contexts = counting(monkeypatch, association, "_Context")
        greedy = counting(monkeypatch, association, "greedy_incumbent")
        solve_association(scenario0, np.zeros(scenario0.n_suavs, dtype=int),
                          Q_M, node_budget=10_000)
        assert len(contexts) == 1
        assert len(greedy) == 1  # reached through the module attribute
