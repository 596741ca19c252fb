"""Branch-and-bound and column-cover association against exhaustive
enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uav_mec import association
from uav_mec.association import (greedy_incumbent, solve_association,
                                  _Context, _evaluate_full)
from uav_mec.config import ExperimentConfig
from uav_mec.errors import InfeasibleSubproblem
from uav_mec.oracles import enumerate_associations_at_least_one
from uav_mec.orchestrator import run_scheme
from uav_mec.scenario import Position3D, generate_scenario

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


class TestSharedContext:
    def test_one_context_per_solve(self, monkeypatch, scenario0):
        from uav_mec import association
        contexts = counting(monkeypatch, association, "_Context")
        greedy = counting(monkeypatch, association, "greedy_incumbent")
        solve_association(scenario0, np.zeros(scenario0.n_suavs, dtype=int),
                          Q_M, node_budget=10_000)
        assert len(contexts) == 1
        assert len(greedy) == 1  # reached through the module attribute


def random_offload(sc, seed):
    """The offload decision TestBnbExactness draws for its instance."""
    rng = np.random.default_rng(seed + 1000)
    beta = np.zeros(sc.n_suavs, dtype=int)
    n_off = int(rng.integers(0, sc.n0_cap + 1))
    beta[rng.choice(sc.n_suavs, size=n_off, replace=False)] = 1
    return beta


class TestCoverPath:
    """node_budget=0 gives the DFS no nodes, so the column cover decides."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_exhaustive_at_least_one_enumeration(self, seed):
        sc = random_instance(seed)
        if sc is None:
            return
        beta = random_offload(sc, seed)
        assoc, info = solve_association(sc, beta, Q_M, node_budget=0)
        _, oracle_obj = enumerate_associations_at_least_one(sc, beta, Q_M)
        assert info.exact
        assert info.objective == pytest.approx(oracle_obj, rel=1e-12)
        # The returned association attains the reported objective.
        assert _evaluate_full(_Context(sc, beta, Q_M), assoc.alpha) == (
            info.objective, True)

    def test_static_positions_use_initial_geometry(self):
        sc = random_instance(11)
        assert sc is not None
        beta = np.zeros(sc.n_suavs, dtype=int)
        _, info = solve_association(sc, beta, Q_M, node_budget=0,
                                    static_positions=True)
        _, oracle_obj = enumerate_associations_at_least_one(
            sc, beta, Q_M, static_positions=True)
        assert info.objective == pytest.approx(oracle_obj, rel=1e-12)

    def test_energy_infeasible_instance_raises(self):
        sc = make_scenario([(500.0, 500.0)], [(480.0, 510.0)], n0_cap=1,
                           energy_budget_j=1e-4)
        with pytest.raises(InfeasibleSubproblem):
            solve_association(sc, np.array([0]), Q_M, node_budget=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_replay_returns_the_finished_dfs_alpha(self, monkeypatch, seed):
        # The association inputs of one reference solve.
        sc = generate_scenario(ExperimentConfig(), seed)
        inputs = []

        def record(scenario, beta, q_m, **kwargs):
            inputs.append((beta.copy(), q_m, kwargs["warm_alpha"]))
            return solve(scenario, beta, q_m, **kwargs)

        solve = association.solve_association
        monkeypatch.setattr(association, "solve_association", record)
        run_scheme(sc, "proposed", node_budget=10_000)
        monkeypatch.setattr(association, "solve_association", solve)

        # With room to finish, the DFS alone decides; starving its first
        # pass then leaves the cover and the replay to find the same alpha.
        monkeypatch.setattr(association, "DFS_ALLOWANCE", 10**6)
        dfs = association._dfs

        def starved(ctx, alpha, obj, budget, first_leaf=False):
            return dfs(ctx, alpha, obj, budget if first_leaf else 0,
                       first_leaf)

        for beta, q_m, warm in inputs:
            finished, info = solve(sc, beta, q_m, warm_alpha=warm)
            assert info.nodes < 10**6
            monkeypatch.setattr(association, "_dfs", starved)
            covered, _ = solve(sc, beta, q_m, warm_alpha=warm)
            monkeypatch.setattr(association, "_dfs", dfs)
            assert covered.alpha.tolist() == finished.alpha.tolist()


# A pool of drawn targets, duplicates included, under the S-UAV at
# (500, 500), and optionally one target only the S-UAV at (850, 850) sees.
_SPOTS = st.tuples(st.floats(300.0, 700.0), st.floats(340.0, 660.0))


@st.composite
def _pricing_instance(draw):
    spots = draw(st.lists(_SPOTS, min_size=1, max_size=4))
    target_xy = draw(st.lists(st.sampled_from(spots), min_size=1, max_size=7))
    suav_xy = [(500.0, 500.0)]
    if draw(st.booleans()):
        suav_xy.append((850.0, 850.0))
        target_xy.append((draw(st.floats(800.0, 900.0)),
                          draw(st.floats(800.0, 900.0))))
    n = len(suav_xy)
    sc = make_scenario(
        suav_xy, target_xy, n0_cap=1,
        chunk_bits=draw(st.lists(st.floats(1e6, 3e6), min_size=n,
                                 max_size=n)),
        energy_budget_j=draw(st.floats(0.009, 0.016)))
    beta = np.zeros(n, dtype=int)
    beta[draw(st.integers(0, n - 1))] = draw(st.integers(0, 1))
    q_m = Position3D(draw(st.floats(0.0, 1000.0)),
                     draw(st.floats(0.0, 1000.0)),
                     draw(st.floats(100.0, 1000.0)))
    return _Context(sc, beta, q_m, static_positions=draw(st.booleans()))


def _box_closed_subsets(ctx, j):
    """Brute force: nonempty pool subsets equal to the pool targets inside
    their own bounding box, as bitmasks over the pool."""
    pool = np.flatnonzero(ctx.mask[:, j])
    xy = np.array([(ctx.scenario.targets[i].pos.x,
                    ctx.scenario.targets[i].pos.y) for i in pool])
    out = set()
    for r in range(1, len(pool) + 1):
        for subset in itertools.combinations(range(len(pool)), r):
            lo, hi = xy[list(subset)].min(axis=0), xy[list(subset)].max(axis=0)
            inside = np.all((lo <= xy) & (xy <= hi), axis=1)
            if set(np.flatnonzero(inside)) == set(subset):
                out.add(sum(1 << p for p in subset))
    return out


class TestColumnPrices:
    @settings(max_examples=150, deadline=None)
    @given(_pricing_instance())
    def test_columns_are_the_box_closed_subsets_priced_exactly(self, ctx):
        for j in range(ctx.scenario.n_suavs):
            pool, masks, latency, feasible = association._columns(ctx, j)
            assert set(masks.tolist()) == _box_closed_subsets(ctx, j)
            for mask, t, ok in zip(masks.tolist(), latency.tolist(),
                                   feasible.tolist()):
                bits = sum(1 << int(pool[p]) for p in range(len(pool))
                           if mask >> p & 1)
                assert ctx.latency(j, bits) == (t, ok)
