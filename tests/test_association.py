"""Branch-and-bound and column-cover association against exhaustive
enumeration."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from uav_mec import association, cover
from uav_mec.association import (Pools, greedy_incumbent, solve_association,
                                  _Context, _evaluate_full)
from uav_mec.config import ExperimentConfig, load_config
from uav_mec.cost import evaluate_solution
from uav_mec.errors import InfeasibleSubproblem
from uav_mec.oracles import enumerate_associations_at_least_one
from uav_mec.orchestrator import SCHEMES, run_scheme, start_plan
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
        assoc, info = solve_association(Pools(sc), np.array([0]), Q_M)
        assert assoc.alpha.tolist() == [[1]]
        assert info.exact

    def test_unique_cover_forced(self):
        sc = make_scenario([(200.0, 200.0), (800.0, 800.0)],
                           [(200.0, 220.0), (810.0, 790.0)], n0_cap=1)
        assoc, info = solve_association(Pools(sc), np.zeros(2, dtype=int), Q_M)
        assert assoc.alpha.tolist() == [[1, 0], [0, 1]]
        assert info.exact


class TestGreedyIncumbent:
    @pytest.mark.parametrize("seed", range(10))
    def test_never_beats_bnb(self, seed):
        sc = random_instance(seed)
        if sc is None:
            return
        beta = np.zeros(sc.n_suavs, dtype=int)
        ctx = _Context(Pools(sc), beta, Q_M)
        greedy = greedy_incumbent(ctx)
        from uav_mec.association import _evaluate_full
        greedy_obj, ok = _evaluate_full(ctx, greedy)
        _, info = solve_association(Pools(sc), beta, Q_M)
        assert ok
        assert greedy_obj >= info.objective - 1e-12

    def test_fast_at_default_scale(self, scenario0):
        import time
        beta = np.zeros(scenario0.n_suavs, dtype=int)
        start = time.monotonic()
        greedy_incumbent(_Context(Pools(scenario0), beta, Q_M))
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
        assoc, info = solve_association(Pools(sc), beta, Q_M)
        _, oracle_obj = enumerate_associations_at_least_one(sc, beta, Q_M)
        assert info.exact
        assert info.objective == pytest.approx(oracle_obj, rel=1e-12)

    def test_warm_start_does_not_change_result(self):
        sc = random_instance(7)
        assert sc is not None
        beta = np.zeros(sc.n_suavs, dtype=int)
        cold, _ = solve_association(Pools(sc), beta, Q_M)
        warm, _ = solve_association(Pools(sc), beta, Q_M,
                                    warm=full_association(sc))
        from uav_mec.association import _Context, _evaluate_full
        ctx = _Context(Pools(sc), beta, Q_M)
        assert _evaluate_full(ctx, cold.bits)[0] == pytest.approx(
            _evaluate_full(ctx, warm.bits)[0])

    def test_static_positions_use_initial_geometry(self):
        sc = random_instance(11)
        assert sc is not None
        beta = np.zeros(sc.n_suavs, dtype=int)
        _, info_static = solve_association(
            Pools(sc, static_positions=True), beta, Q_M)
        ctx = _Context(Pools(sc, static_positions=True), beta, Q_M)
        _, oracle_obj = enumerate_associations_at_least_one(
            sc, beta, Q_M, static_positions=True)
        assert info_static.objective == pytest.approx(oracle_obj, rel=1e-12)

    def test_energy_infeasible_instance_raises(self):
        sc = make_scenario([(500.0, 500.0)], [(480.0, 510.0)], n0_cap=1,
                           energy_budget_j=1e-4)
        with pytest.raises(InfeasibleSubproblem):
            solve_association(Pools(sc), np.array([0]), Q_M)


class TestSharedContext:
    def test_one_context_per_solve(self, monkeypatch, scenario0):
        from uav_mec import association
        contexts = counting(monkeypatch, association, "_Context")
        greedy = counting(monkeypatch, association, "greedy_incumbent")
        beta = np.zeros(scenario0.n_suavs, dtype=int)
        solve_association(Pools(scenario0), beta, Q_M)
        assert len(contexts) == 1
        assert len(greedy) == 1  # reached through the module attribute


class TestPools:
    """run_scheme builds the association block's fixed data once per call
    and keeps none of it after the call: the benchmark solves the same
    Scenario objects again and again, and must time cold solves."""

    def test_fleet_geometry_is_built_once_per_suav(self, monkeypatch):
        # Seed 1: two association calls price the columns (on seed 0 the
        # second is a repeat of the first, and is not made).
        sc = generate_scenario(_FLEET, 1)
        columns = counting(monkeypatch, cover, "_columns")
        prices = counting(monkeypatch, cover, "price")
        run_scheme(sc, "proposed")
        assert len(prices) > 1
        assert len(columns) == sc.n_suavs

    def test_each_run_scheme_builds_its_own(self, monkeypatch):
        sc = generate_scenario(_FLEET, 0)
        before = dict(vars(sc))
        columns = counting(monkeypatch, cover, "_columns")
        first = run_scheme(sc, "proposed")
        second = run_scheme(sc, "proposed")
        assert len(columns) == 2 * sc.n_suavs
        assert second.objective_trace == first.objective_trace
        assert vars(sc) == before
        assert not [v for module in (association, cover)
                    for v in vars(module).values()
                    if isinstance(v, (Pools, cover.Columns))]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_the_report_is_placed_once(self, monkeypatch, scheme):
        # Every block reads hover points from the solve's Pools; only the
        # report's placed scenario is built, once per solve.
        placed = counting(monkeypatch, Pools, "placed")
        for seed in range(5):
            run_scheme(generate_scenario(ExperimentConfig(), seed), scheme)
            assert len(placed) == seed + 1

    @pytest.mark.parametrize("seed", range(5))
    def test_staying_put_prices_the_current_positions(self, seed):
        # S-UAVs that stay put hover where the scenario puts them, as the
        # evaluator prices them: here 150 m below their initial points.
        sc = generate_scenario(ExperimentConfig(), seed)
        sc = replace(sc, suavs=tuple(
            replace(s, current_pos=Position3D(
                s.initial_pos.x, s.initial_pos.y, s.initial_pos.h - 150.0))
            for s in sc.suavs))
        pools = Pools(sc, static_positions=True)
        beta = np.zeros(sc.n_suavs, dtype=int)
        q = Position3D(500.0, 500.0, 550.0)
        assoc, info = solve_association(pools, beta, q)
        assert info.objective == evaluate_solution(
            pools.placed(assoc), assoc, beta, q)[0]

    def test_an_identical_call_is_not_repeated(self, monkeypatch):
        # Reference seed 0, static_suavs: the last iteration's association
        # call has the inputs of the one before it, so its result is reused
        # (two calls without the reuse), and the report is unchanged.
        sc = generate_scenario(ExperimentConfig(), 0)
        calls = counting(monkeypatch, association, "solve_association")
        report = run_scheme(sc, "static_suavs")
        assert len(calls) == 1
        assert report.iterations == 2
        assert report.objective_trace == pytest.approx(
            [11.343380875730558, 9.99102130099366, 9.99102130099366],
            rel=1e-12)
        assert report.beta.tolist() == [0, 1, 1, 0, 1, 0, 1, 0]
        assert report.alpha.argmax(axis=1).tolist() == [
            1, 4, 5, 6, 0, 3, 4, 2, 4, 7, 3, 5, 4, 0, 0, 1, 3, 7, 2, 3]
        assert report.alpha.sum() == sc.n_targets


def random_offload(sc, seed):
    """The offload decision TestBnbExactness draws for its instance."""
    rng = np.random.default_rng(seed + 1000)
    beta = np.zeros(sc.n_suavs, dtype=int)
    n_off = int(rng.integers(0, sc.n0_cap + 1))
    beta[rng.choice(sc.n_suavs, size=n_off, replace=False)] = 1
    return beta


class TestCoverPath:
    """An allowance of 0 gives the DFS one node, so the columns decide:
    their lower bound, or else the column cover."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_exhaustive_at_least_one_enumeration(self, seed,
                                                         dfs_allowance):
        sc = random_instance(seed)
        if sc is None:
            return
        beta = random_offload(sc, seed)
        dfs_allowance(0)
        assoc, info = solve_association(Pools(sc), beta, Q_M)
        _, oracle_obj = enumerate_associations_at_least_one(sc, beta, Q_M)
        assert info.exact
        assert info.objective == pytest.approx(oracle_obj, rel=1e-12)
        # The returned association attains the reported objective.
        assert _evaluate_full(_Context(Pools(sc), beta, Q_M), assoc.bits) == (
            info.objective, True)

    def test_static_positions_use_initial_geometry(self, dfs_allowance):
        sc = random_instance(11)
        assert sc is not None
        beta = np.zeros(sc.n_suavs, dtype=int)
        dfs_allowance(0)
        _, info = solve_association(
            Pools(sc, static_positions=True), beta, Q_M)
        _, oracle_obj = enumerate_associations_at_least_one(
            sc, beta, Q_M, static_positions=True)
        assert info.objective == pytest.approx(oracle_obj, rel=1e-12)

    def test_energy_infeasible_instance_raises(self, dfs_allowance):
        sc = make_scenario([(500.0, 500.0)], [(480.0, 510.0)], n0_cap=1,
                           energy_budget_j=1e-4)
        dfs_allowance(0)
        with pytest.raises(InfeasibleSubproblem):
            solve_association(Pools(sc), np.array([0]), Q_M)

    @pytest.mark.parametrize("seed", range(5))
    def test_starved_dfs_returns_the_finished_objective(self, monkeypatch,
                                                        dfs_allowance, seed):
        # The association inputs of one reference solve.
        sc = generate_scenario(ExperimentConfig(), seed)
        inputs = []

        def record(pools, beta, q_m, **kwargs):
            inputs.append((beta.copy(), q_m, kwargs["warm"]))
            return solve(pools, beta, q_m, **kwargs)

        solve = association.solve_association
        monkeypatch.setattr(association, "solve_association", record)
        run_scheme(sc, "proposed")
        monkeypatch.setattr(association, "solve_association", solve)

        # With room to finish, the DFS alone decides; with no nodes, the
        # cover must reach the same objective.
        for beta, q_m, warm in inputs:
            dfs_allowance(10**6)
            _, finished = solve(Pools(sc), beta, q_m, warm=warm)
            assert finished.nodes < 10**6
            dfs_allowance(0)
            covered, info = solve(Pools(sc), beta, q_m, warm=warm)
            assert info.objective == finished.objective
            ctx = _Context(Pools(sc), beta, q_m)
            assert _evaluate_full(ctx, covered.bits) == (info.objective, True)


class TestLowerBound:
    """The columns' lower bound is at most the optimum over every
    association, so a start that attains it is optimal."""

    @pytest.mark.parametrize("static", [False, True])
    @pytest.mark.parametrize("seed", range(40))
    def test_never_exceeds_exhaustive_at_least_one_enumeration(self, seed,
                                                               static):
        sc = random_instance(seed)
        if sc is None:
            return
        beta = random_offload(sc, seed)
        ctx = _Context(Pools(sc, static_positions=static), beta, Q_M)
        cols = ctx.pools.columns()
        latency, feasible = cover.price(cols, ctx.prices, ctx.q,
                                        ctx.bandwidth_hz)
        lower = cover.lower_bound(cols, latency, feasible, sc.n_targets)
        _, oracle_obj = enumerate_associations_at_least_one(
            sc, beta, Q_M, static_positions=static)
        assert 0.0 < lower <= oracle_obj * (1 + 1e-12)


class TestLaterCalls:
    """Once a call of a solve has built the columns, later calls on the same
    Pools price them first and search only until T*. They must return what
    a fresh Pools, which searches first, returns, except where that search
    finishes above T*: a later call then returns the cover's optimum."""

    def test_match_a_fresh_pools_on_fleet_calls(self, monkeypatch):
        calls = []
        solve = association.solve_association

        def record(pools, beta, q_m, **kwargs):
            later = pools._cols is not None
            out = solve(pools, beta, q_m, **kwargs)
            calls.append((later, pools, beta.copy(), q_m,
                          kwargs["warm"], out))
            return out

        monkeypatch.setattr(association, "solve_association", record)
        for seed in range(3):
            run_scheme(generate_scenario(_FLEET, seed), "proposed")
        monkeypatch.setattr(association, "solve_association", solve)

        later = [call for call in calls if call[0]]
        assert later and any(info.nodes == 0 for *_, (_, info) in later)
        for _, pools, beta, q_m, warm, (assoc, info) in calls:
            fresh, fresh_info = solve(Pools(pools.scenario), beta, q_m,
                                      warm=warm)
            again, again_info = solve(pools, beta, q_m, warm=warm)
            for a, i in ((assoc, info), (again, again_info)):
                assert np.array_equal(a.alpha, fresh.alpha)
                assert (i.objective, i.exact) == (fresh_info.objective,
                                                  fresh_info.exact)

    def test_a_later_call_gives_way_to_the_cover_above_t_star(self):
        # Target 2 lies midway between the S-UAVs, under the relay. The
        # optimum gives it both monitors, so both S-UAVs climb toward the
        # relay; the search over one monitor per target finishes above
        # that, at 10.242689719382616 s, and must give way to the cover.
        sc = make_scenario([(300.0, 500.0), (700.0, 500.0)],
                           [(200.0, 500.0), (800.0, 500.0), (500.0, 500.0)])
        beta, q_m = np.zeros(2, dtype=int), Position3D(500.0, 500.0, 1000.0)
        pools = Pools(sc)
        pools.columns()
        assoc, info = solve_association(pools, beta, q_m)
        _, oracle_obj = enumerate_associations_at_least_one(sc, beta, q_m)
        assert info.exact
        assert info.objective == pytest.approx(oracle_obj, rel=1e-12)
        assert assoc.alpha[2].tolist() == [1, 1]


class TestLargePool:
    """A pool beyond cover.MAX_POOL targets skips the cover: the DFS alone
    decides under the same allowance as every call, and may report an
    inexact answer."""

    @pytest.fixture(scope="class")
    def scenario(self):
        grid = [(460.0 + 10.0 * a, 464.0 + 12.0 * b)
                for a in range(9) for b in range(7)]
        return make_scenario([(500.0, 500.0), (510.0, 500.0)], grid)

    def test_budget_is_honoured_without_the_cover(self, monkeypatch,
                                                  dfs_allowance, scenario):
        columns = counting(monkeypatch, cover, "_columns")
        prices = counting(monkeypatch, cover, "price")
        dfs_allowance(50)
        assoc, info = solve_association(Pools(scenario),
                                        np.zeros(2, dtype=int), Q_M)
        assert scenario.n_targets == 63 > cover.MAX_POOL
        assert info.nodes <= 50
        assert not info.exact
        assert np.all((assoc.alpha * assoc.feasible_mask).sum(axis=1) >= 1)
        assert np.all(assoc.alpha <= assoc.feasible_mask)
        assert columns == [] and prices == []

    def test_a_larger_budget_still_stops_at_the_allowance(self, scenario):
        # No caller sets a budget: the search stops at the module allowance.
        _, info = solve_association(Pools(scenario), np.zeros(2, dtype=int),
                                    Q_M)
        assert info.nodes <= association.DFS_ALLOWANCE
        assert not info.exact

    def test_run_scheme_reports_the_inexact_association(self, dfs_allowance,
                                                        scenario):
        dfs_allowance(50)
        report = run_scheme(scenario, "proposed")
        assert not report.association_exact


# (config, seed, scheme) -> (nodes, exact, objective, monitors per target,
# monitors per target of the greedy start). The inputs are fixed, so none of
# this depends on the placement block: the warm start and the relay position
# are the solver's start plan (the nearest covering association, the default
# initial position), and `proposed` offloads every other S-UAV up to the cap
# while `static_suavs` keeps all local. The 16 x 40 calls run out of the DFS
# allowance, so the columns decide them: on seeds 1 and 2 their lower bound
# certifies the search's incumbent, and on seeds 0 and 3 the column cover
# returns an association in which some targets have two to four monitors. The relay_sweep call runs at
# the highest cap of that sweep. The tight-budget call's search cuts children
# whose closed pools break an S-UAV's energy budget
# (test_tight_budget_cuts_closed_pools).
_FLEET = replace(ExperimentConfig(), n_suavs=16, n_targets=40)
_CONFIGS = {
    "reference": ExperimentConfig(),
    "fleet": _FLEET,
    "relay_sweep": replace(
        load_config(Path(__file__).resolve().parents[1] / "scripts"
                    / "relay_sweep.cfg"), n0_cap=8),
    # A point of the budget grid in ROADMAP item 7.
    "tight_budget": replace(ExperimentConfig(), energy_budget_suav_j=0.0095,
                            tx_power_w=0.2),
}
_TRAJECTORIES = {
    ("reference", 0, "proposed"): (
        13, True, 10.19677022745071,
        "1 4 5 6 0 3 4 2 4 7 3 5 4 0 0 1 3 7 2 3",
        "1 4 7 6 0 3 4 2 2 7 3 4 2 0 0 1 3 7 2 3"),
    ("reference", 0, "static_suavs"): (
        47, True, 11.343380875730558,
        "1 4 5 6 0 3 4 2 4 7 3 5 4 0 0 1 3 7 2 3",
        "1 4 7 6 0 3 4 2 2 7 3 4 2 0 0 1 3 7 2 3"),
    ("reference", 1, "proposed"): (
        43, True, 10.794507098720107,
        "4 2 3 2 7 1 3 6 0 2 0 5 4 2 4 4 2 3 7 6",
        "6 2 3 2 5 1 1 6 0 2 0 5 4 0 4 4 4 3 5 4"),
    ("reference", 1, "static_suavs"): (
        75, True, 11.172401490059794,
        "4 2 3 2 7 1 3 6 0 2 0 5 4 2 4 4 2 3 7 6",
        "4 2 3 2 5 1 1 6 0 2 0 5 4 0 4 4 2 3 5 4"),
    ("reference", 2, "proposed"): (
        141, True, 10.872729222152156,
        "1 2 6 5 2 6 2 0 0 4 5 6 7 7 4 2 5 6 0 4",
        "1 2 6 5 2 6 2 0 0 4 5 6 7 7 4 2 5 6 0 4"),
    ("reference", 2, "static_suavs"): (
        141, True, 10.87266224264724,
        "1 2 6 5 2 6 0 0 0 4 5 4 7 5 4 2 5 6 0 4",
        "1 2 6 5 2 6 0 0 0 4 5 4 7 5 4 2 5 6 0 4"),
    ("fleet", 0, "proposed"): (
        1003, True, 10.534758345604798,
        "2 9 15 12 0 7 8+9 5 5+8+9 15 7 9 8 0 0+2 2 7 15 5 7 5 7 5 0 8+9 12 "
        "0 7 2+7 8 12 5 15 15 0 8 12 15 2+7 9",
        "2 8 15 12 0 7 8 6 4 15 7 9 8 0 2 2 7 15 6 7 4 6 6 0 9 12 0 6 2 4 12 "
        "4 15 15 0 8 12 15 2 9"),
    ("fleet", 1, "proposed"): (
        1001, True, 11.120394164084322,
        "12 4 11 6 11 2 2 12 2 6 0 11 8 0 8 10 8 6 14 8 4 8 14 2 6 2 0 4 4 "
        "10 4 3 3 4 6 12 10 14 4 14",
        "12 4 11 6 11 2 2 12 2 6 0 11 8 0 8 10 4 6 14 8 4 8 14 2 6 2 0 4 4 "
        "10 4 3 3 4 6 12 10 14 4 14"),
    ("fleet", 2, "proposed"): (
        1001, True, 11.104870657493429,
        "3 4 12 9 4 12 0 0 0 9 10 10 15 15 10 6 7 12 0 9 10 6 6 4 6 0 12 3 "
        "12 4 12 7 15 3 3 0 3 10 15 12",
        "6 4 12 9 4 12 0 0 0 9 10 10 15 15 10 6 7 12 0 9 10 3 6 4 6 0 12 3 "
        "12 4 12 7 15 3 3 0 3 10 15 12"),
    ("fleet", 3, "proposed"): (
        1003, True, 10.420527377608055,
        "6 2+3 3 0 2+3 2 14 2 14+15 0 3 15 4 15 14+15 3 11 2+3+6 4 3 9 6+9 "
        "4 4 14 9 0 0 4+6+9 0 3 14 11+14+15 14 9 15 11 11 14 0+4",
        "6 3 3 0 2 2 13 2 13 0 6 15 4 15 15 3 11 6 4 3 9 6 4 4 13 9 0 0 6 0 "
        "3 15 11 15 9 15 11 11 15 0"),
    ("relay_sweep", 1, "proposed"): (
        26, True, 10.112159855980401,
        "6 2 5 2 5 1 1 6 0 2 0 5 4 0 4 4",
        "6 2 5 2 5 1 1 6 0 2 0 5 4 0 4 4"),
    ("tight_budget", 2, "proposed"): (
        109, True, 10.873176394148192,
        "1 2 6 5 2 6 2 0 0 4 5 6 7 7 4 2 5 6 0 4",
        "1 2 6 5 2 6 2 0 0 4 5 6 7 7 4 2 5 6 0 4"),
}


def _monitors(alpha):
    return " ".join("+".join(map(str, np.flatnonzero(row))) for row in alpha)


class TestSearchTrajectory:
    """Replays fixed calls: any change to which nodes the search visits, to
    the greedy start, or to what the call returns, fails here."""

    @staticmethod
    def pinned_inputs(key):
        """(pools, beta, start plan) of a pinned call."""
        name, seed, scheme = key
        sc = generate_scenario(_CONFIGS[name], seed)
        pools = Pools(sc, static_positions=scheme == "static_suavs")
        beta = np.zeros(sc.n_suavs, dtype=int)
        if scheme == "proposed":
            beta[:2 * sc.n0_cap:2] = 1
        return pools, beta, start_plan(pools, scheme)

    @pytest.mark.parametrize("key", list(_TRAJECTORIES),
                             ids=lambda key: "-".join(map(str, key)))
    def test_pinned_call(self, key):
        pools, beta, start = self.pinned_inputs(key)
        greedy = greedy_incumbent(_Context(pools, beta, start.q_m))
        assoc, info = solve_association(pools, beta, start.q_m,
                                        warm=start.association)
        assert (info.nodes, info.exact, info.objective, _monitors(assoc.alpha),
                _monitors(association._alpha(pools.mask, greedy))
                ) == _TRAJECTORIES[key]
        if key[0] == "fleet":
            assert info.nodes >= association.DFS_ALLOWANCE

    def test_tight_budget_cuts_closed_pools(self, monkeypatch):
        # The search reads energy feasibility only where a decided target
        # closes S-UAV pools. The same call with budgets no plan can break
        # starts from the same incumbents (both fit the tight budgets, and
        # the greedy pass reads no budget) and prices the same latencies, so
        # a different node count means the budget cut children in the DFS.
        key = ("tight_budget", 2, "proposed")
        pools, beta, start = self.pinned_inputs(key)
        ctx = _Context(pools, beta, start.q_m)
        for bits in (start.association.bits, greedy_incumbent(ctx)):
            assert _evaluate_full(ctx, bits)[1]
        priced = []

        def record(out):
            priced.append(out)
            return out

        counting(monkeypatch, _Context, "latency", override=record)
        _, tight = solve_association(pools, beta, start.q_m,
                                     warm=start.association)
        assert not all(ok for _, ok in priced)
        sc = pools.scenario
        roomy = replace(sc, suavs=tuple(replace(s, energy_budget_j=1e3)
                                        for s in sc.suavs))
        _, free = solve_association(Pools(roomy), beta, start.q_m,
                                    warm=start.association)
        assert tight.nodes == _TRAJECTORIES[key][0] < free.nodes
