"""Outer alternating loop and baseline schemes."""

import numpy as np
import pytest

from uav_mec.association import Pools, _alpha
from uav_mec.config import ExperimentConfig
from uav_mec.cost import evaluate_solution
from uav_mec.offload import forced_offload
from uav_mec.orchestrator import (SCHEMES, check_constraints,
                                  convergence_check, improve,
                                  nearest_covering_association, run_scheme,
                                  start_plan)
from uav_mec.scenario import Association, fov_rect, repositioned_scenario


class TestConvergenceCheck:
    def test_single_entry_false(self):
        assert not convergence_check([5.0], 1e-4)

    def test_flat_tail_true(self):
        assert convergence_check([5.0, 5.0], 1e-4)

    def test_still_decreasing_false(self):
        assert not convergence_check([5.0, 4.0], 1e-4)


def numpy_nearest_cover(pools):
    """nearest_covering_association's alpha in the NumPy form it had: the
    argmin of masked squared distances, ties to the lowest id."""
    scenario, mask = pools.scenario, pools.mask
    suav_xy = np.array([(s.initial_pos.x, s.initial_pos.y)
                        for s in scenario.suavs])
    target_xy = np.array([(t.pos.x, t.pos.y) for t in scenario.targets])
    dx = suav_xy[None, :, 0] - target_xy[:, None, 0]
    dy = suav_xy[None, :, 1] - target_xy[:, None, 1]
    d2 = np.where(mask == 1, dx ** 2 + dy ** 2, np.inf)
    alpha = np.zeros_like(mask)
    alpha[np.arange(scenario.n_targets), d2.argmin(axis=1)] = 1
    return alpha


class TestNearestCoveringAssociation:
    def test_rows_sum_to_one_and_respect_mask(self, scenario0):
        pools = Pools(scenario0)
        alpha = _alpha(pools.mask, nearest_covering_association(pools))
        assert np.all(alpha.sum(axis=1) == 1)
        assert np.all(alpha <= pools.mask)

    def test_ties_go_to_the_lowest_id(self):
        from .conftest import make_scenario
        sc = make_scenario([(400.0, 500.0), (600.0, 500.0)],
                           [(500.0, 500.0), (500.0, 520.0)])
        pools = Pools(sc)
        alpha = _alpha(pools.mask, nearest_covering_association(pools))
        assert alpha.tolist() == [[1, 0], [1, 0]]
        assert np.array_equal(alpha, numpy_nearest_cover(pools))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_target_by_target_loop(self, seed):
        # Two references: the loop that the NumPy argmin replaced, and that
        # argmin, which the float loop replaced, to the bit.
        from dataclasses import replace

        from uav_mec.config import ExperimentConfig
        from uav_mec.scenario import generate_scenario
        sc = generate_scenario(
            replace(ExperimentConfig(), n_suavs=16, n_targets=40), seed)
        pools = Pools(sc)
        alpha = _alpha(pools.mask, nearest_covering_association(pools))
        assert np.array_equal(alpha, numpy_nearest_cover(pools))
        for i, target in enumerate(sc.targets):
            best = None
            for j in np.flatnonzero(pools.mask[i]):
                pos = sc.suavs[j].initial_pos
                d2 = (pos.x - target.pos.x) ** 2 + (pos.y - target.pos.y) ** 2
                if best is None or (d2, j) < best:
                    best = (d2, int(j))
            assert np.flatnonzero(alpha[i]).tolist() == [best[1]]


@pytest.fixture(scope="module")
def reports(scenario0):
    return {scheme: run_scheme(scenario0, scheme) for scheme in SCHEMES}


class TestRunScheme:
    def test_traces_non_increasing(self, reports):
        for report in reports.values():
            t = report.objective_trace
            assert all(b <= a + 1e-6 for a, b in zip(t, t[1:]))

    def test_all_schemes_satisfy_every_constraint(self, scenario0, reports):
        for scheme, report in reports.items():
            assoc = Association(
                alpha=report.alpha,
                feasible_mask=np.maximum(report.alpha,
                                         Pools(scenario0).mask))
            violations = check_constraints(
                scenario0, assoc, report.beta, report.q_m,
                static_positions=(scheme == "static_suavs"))
            assert violations == [], f"{scheme}: {violations}"

    def test_suav_only_never_offloads(self, reports):
        assert reports["suav_only"].beta.sum() == 0

    def test_ruav_only_fills_the_cap(self, scenario0, reports):
        assert reports["ruav_only"].beta.sum() == \
            min(scenario0.n0_cap, scenario0.n_suavs)

    def test_static_suavs_keep_initial_positions(self, scenario0, reports):
        # The scheme never repositions: constraint checking above runs on the
        # initial geometry; here we confirm the reported association is
        # feasible without any movement.
        report = reports["static_suavs"]
        placed = scenario0  # unchanged
        for i in range(scenario0.n_targets):
            t = scenario0.targets[i]
            assert any(fov_rect(placed.suavs[j], at_initial=True)
                       .contains(t.pos.x, t.pos.y)
                       for j in np.flatnonzero(report.alpha[i]))

    def test_proposed_not_worse_than_baselines(self, reports):
        # All schemes are heuristics, so dominance is checked with a small
        # relative slack on a single seed; the mean-level claim is covered by
        # the acceptance sweeps.
        proposed = reports["proposed"].objective_s
        for scheme in ("suav_only", "ruav_only", "static_suavs"):
            assert proposed <= reports[scheme].objective_s * (1.0 + 1e-3)

    def test_lp_bound_below_objective(self, reports):
        report = reports["proposed"]
        assert report.lp_lower_bound <= report.objective_s + 1e-6

    def test_report_fields_consistent(self, reports):
        for report in reports.values():
            assert report.objective_s == report.objective_trace[-1]
            assert report.iterations >= 1

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_evaluates_only_the_start_plan(self, monkeypatch, scenario0,
                                           scheme):
        # Every block prices its own candidate and the start plan is priced
        # from the price table, so the evaluator prices no plan, not even
        # the start plan.
        from uav_mec import cost, orchestrator

        from .conftest import counting
        calls = [counting(monkeypatch, module, "evaluate_solution")
                 for module in (orchestrator, cost)]
        run_scheme(scenario0, scheme)
        assert calls == [[], []]

    def test_unknown_scheme_rejected(self, scenario0):
        with pytest.raises(ValueError):
            run_scheme(scenario0, "nonsense")


def scheme_pools(scenario, scheme):
    return Pools(scenario, static_positions=scheme == "static_suavs")


def evaluated(pools, bits, beta, q_m) -> float:
    """evaluate_solution's objective of the plan (bits, beta, q_m), with the
    S-UAVs of the solve's pools where the plan puts them, placed apart from
    Pools."""
    assoc = Association(_alpha(pools.mask, bits), pools.mask)
    placed = (pools.scenario if pools.static_positions else
              repositioned_scenario(pools.scenario, assoc.alpha))
    return evaluate_solution(placed, assoc, beta, q_m)[0]


class TestStartPlanAndImprove:
    """run_scheme is improve(start_plan(...)) plus the report."""

    TOL, R_MAX = ExperimentConfig.tol, ExperimentConfig.r_max

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_the_trace_opens_at_the_start_plan(self, scenario0, reports,
                                               scheme):
        plan = start_plan(scheme_pools(scenario0, scheme), scheme)
        assert reports[scheme].objective_trace[0] == plan.objective

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_improve_from_the_start_plan_is_run_scheme(self, scenario0,
                                                       reports, scheme):
        pools = scheme_pools(scenario0, scheme)
        plan, record = improve(start_plan(pools, scheme), pools, scheme,
                               self.TOL, self.R_MAX)
        report = reports[scheme]
        assert record["objective_trace"] == report.objective_trace
        assert record["sca_traces"] == report.sca_traces
        assert record["iterations"] == report.iterations
        assert record["converged"] == report.converged
        assert plan.bits == report.bits
        assert list(plan.beta) == report.beta.tolist()
        assert plan.q_m == report.q_m
        assert plan.objective == report.objective_s

    @pytest.mark.parametrize("seeds,config", [
        (range(20), None), (range(5), "link.cfg")])
    def test_the_start_is_priced_as_the_evaluator_prices_it(self, seeds,
                                                            config):
        # start_plan prices the start from the price table (or, under the
        # forced rule, by the rule's own price); improve compares every
        # block's candidate with that price, so it must be the evaluator's
        # to the bit, and a Python float, as the trace's repr shows.
        from pathlib import Path

        from uav_mec.config import load_config
        from uav_mec.scenario import generate_scenario
        cfg = ExperimentConfig() if config is None else load_config(
            Path(__file__).resolve().parents[1] / "scripts" / config)
        for seed in seeds:
            sc = generate_scenario(cfg, seed)
            for scheme in SCHEMES:
                pools = scheme_pools(sc, scheme)
                plan = start_plan(pools, scheme)
                objective = evaluated(pools, plan.bits, plan.beta, plan.q_m)
                assert type(plan.objective) is float
                assert plan.objective == objective, (seed, scheme)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_only_the_forced_rule_starts_with_offloaders(self, scenario0,
                                                         scheme):
        pools = scheme_pools(scenario0, scheme)
        plan = start_plan(pools, scheme)
        if scheme == "ruav_only":
            expected = forced_offload(pools, plan.bits, plan.q_m).beta
            assert sum(expected) > 0
        else:
            expected = (0,) * scenario0.n_suavs
        assert plan.beta == expected

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_the_plan_given_to_improve_is_left_unchanged(self, scenario0,
                                                         scheme):
        pools = scheme_pools(scenario0, scheme)
        plan = start_plan(pools, scheme)
        fresh = start_plan(pools, scheme)
        last, _ = improve(plan, pools, scheme, self.TOL, self.R_MAX)
        assert last.objective < plan.objective
        assert plan.bits == fresh.bits
        assert plan.beta == fresh.beta
        assert plan.q_m == fresh.q_m
        assert plan.objective == fresh.objective

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_no_iteration_returns_the_plan_it_was_given(self, scenario0,
                                                        scheme):
        pools = scheme_pools(scenario0, scheme)
        plan = start_plan(pools, scheme)
        last, record = improve(plan, pools, scheme, self.TOL, 0)
        assert last is plan
        assert record["objective_trace"] == [plan.objective]
        assert record["iterations"] == 0 and not record["converged"]


class TestOnePriceTable:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_outer_loop_builds_no_price_record(self, monkeypatch,
                                               default_config, seed, scheme):
        # Pools builds each S-UAV's local record with branch_price and its
        # offload records from it, start_plan prices the start from the
        # table, and every block of the loop reads the table.
        from uav_mec import association, cost, offload, placement
        from uav_mec.scenario import generate_scenario

        from .conftest import counting
        sc = generate_scenario(default_config, seed)
        calls = [counting(monkeypatch, module, "branch_price")
                 for module in (cost, offload, placement, association)
                 if hasattr(module, "branch_price")]
        pools = scheme_pools(sc, scheme)
        assert sum(map(len, calls)) == sc.n_suavs
        plan = start_plan(pools, scheme)
        assert sum(map(len, calls)) == sc.n_suavs
        improve(plan, pools, scheme, ExperimentConfig.tol,
                ExperimentConfig.r_max)
        assert sum(map(len, calls)) == sc.n_suavs


class TestRuavOnlyRelayBudget:
    def test_offloads_the_slowest_prefix_the_budget_admits(self):
        from dataclasses import replace

        from uav_mec.scenario import feasible_association_mask

        from .conftest import make_scenario
        corners = [(250.0, 250.0), (750.0, 250.0), (250.0, 750.0),
                   (750.0, 750.0)]
        sc = make_scenario(corners, corners, n0_cap=4,
                           chunk_bits=[1e6, 2e6, 3e6, 4e6])
        # Relay compute energy is m * sum(f_R^2 zeta f0 s) over the m
        # offloaders: 1.6 J for the slowest S-UAV alone, 5.6 J for the
        # slowest two, 10.8 J for three. A 6 J budget admits two.
        sc = replace(sc, ruav=replace(sc.ruav, energy_budget_j=6.0))
        report = run_scheme(sc, "ruav_only")
        assert report.beta.tolist() == [0, 0, 1, 1]
        assoc = Association(alpha=report.alpha,
                            feasible_mask=feasible_association_mask(sc))
        assert check_constraints(sc, assoc, report.beta, report.q_m) == []


class TestEnergyCheckPricesOnItsOwn:
    """check_constraints prices energy without cost.py, so a pricing defect
    there cannot pass both the evaluator and the checker."""

    @pytest.mark.parametrize("beta,field,message", [
        ([0, 0], "comp_j", "S-UAV 0 energy budget exceeded"),
        ([1, 1], "relay_j", "relay energy budget exceeded"),
    ], ids=["on_board_compute", "relay_compute"])
    def test_over_budget_plan_flagged_under_a_pricing_defect(
            self, monkeypatch, beta, field, message):
        from dataclasses import replace

        from uav_mec import cost
        from uav_mec.scenario import Position3D

        from .conftest import identity_association, make_scenario
        nadirs = [(250.0, 500.0), (750.0, 500.0)]
        sc = make_scenario(nadirs, nadirs, n0_cap=2)
        assoc = identity_association(sc)
        beta, q_m = np.array(beta), Position3D(500.0, 500.0, 300.0)
        def s0_and_relay():  # their energy breakdowns, as the evaluator prices
            energies = cost.evaluate_solution(sc, assoc, beta, q_m)[3]
            return energies[0], energies[-1]

        # S-UAV 0's budget, or the relay's, sits halfway through the term
        # the defect drops.
        s0, relay = s0_and_relay()
        if field == "comp_j":
            sc = replace(sc, suavs=(replace(
                sc.suavs[0], energy_budget_j=s0.comm_j + s0.comp_j / 2),
                sc.suavs[1]))
        else:
            sc = replace(sc, ruav=replace(sc.ruav,
                                          energy_budget_j=relay.comp_j / 2))
        assert message in check_constraints(sc, assoc, beta, q_m)

        real = cost.branch_price
        monkeypatch.setattr(cost, "branch_price", lambda *args: real(
            *args)._replace(**{field: 0.0}))
        s0, relay = s0_and_relay()
        assert s0.total_j <= sc.suavs[0].energy_budget_j
        assert relay.total_j <= sc.ruav.energy_budget_j
        assert message in check_constraints(sc, assoc, beta, q_m)


# run_scheme objectives at reference seeds 0-1 with one relay axis pinned
# (lo == hi): the altitude at 300 m, or x at 500 m. The exact inner solve
# treats a pinned axis as two box faces; these are the values it gave when
# it still fixed such an axis before its first pivot.
PINNED_BOXES = {"z": (0.0, 0.0, 300.0, 1000.0, 1000.0, 300.0),
                "x": (500.0, 0.0, 100.0, 500.0, 1000.0, 1000.0)}
PINNED_BOX_OBJECTIVES = {
    (0, "z"): (9.991035797693307, 11.343156603278999, 9.99103774043886,
               9.991074952736255),
    (0, "x"): (9.991027746100304, 11.343068608760163, 9.991067397417217,
               9.99102130099366),
    (1, "z"): (10.112158951807986, 11.172293340767627, 10.58814575236307,
               10.588244371973932),
    (1, "x"): (10.112066858245933, 11.172442989781176, 10.588220509342156,
               10.588187513451274),
}


class TestPinnedRelayAxis:
    @pytest.mark.parametrize("seed,axis", sorted(PINNED_BOX_OBJECTIVES))
    def test_every_scheme_keeps_the_pinned_value(self, default_config, seed,
                                                 axis):
        # lo == hi on an axis is a valid box, solved with no warning.
        import warnings
        from dataclasses import replace

        from uav_mec.scenario import generate_scenario
        box = PINNED_BOXES[axis]
        sc = generate_scenario(
            replace(default_config, ruav_box=box).validate(), seed)
        k = "xyz".index(axis)
        for scheme, pinned in zip(SCHEMES,
                                  PINNED_BOX_OBJECTIVES[seed, axis]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                report = run_scheme(sc, scheme)
            assert report.q_m.array[k] == box[k], scheme
            assoc = Association(alpha=report.alpha,
                                feasible_mask=Pools(sc).mask)
            assert check_constraints(
                sc, assoc, report.beta, report.q_m,
                static_positions=(scheme == "static_suavs")) == [], scheme
            assert report.objective_s == pytest.approx(pinned,
                                                       rel=1e-12), scheme


class TestSuavEnergyFloors:
    def test_tight_budgets_solve_within_every_budget(self, default_config):
        # Each S-UAV's budget sets a floor on its own rate. At 0.01075 J the
        # start plan of seed 2 uses 0.83-0.995 of every S-UAV's budget, and
        # the smallest rate sits below the largest floor.
        from dataclasses import replace

        from uav_mec.scenario import (feasible_association_mask,
                                      generate_scenario)
        sc = generate_scenario(
            replace(default_config, energy_budget_suav_j=0.01075), 2)
        for scheme in SCHEMES:
            report = run_scheme(sc, scheme)
            assoc = Association(alpha=report.alpha,
                                feasible_mask=feasible_association_mask(sc))
            assert check_constraints(
                sc, assoc, report.beta, report.q_m,
                static_positions=(scheme == "static_suavs")) == [], scheme

    @pytest.mark.parametrize("seed,suav", [(2, 1), (3, 4)])
    def test_hover_alone_breaking_a_budget_raises(self, default_config, seed,
                                                  suav):
        # A 0.05 J hover over a 0.01 J budget: the S-UAV breaks its budget
        # in every plan, idle or not, so no scheme may return one. Pools
        # checks the hover once per solve, so every scheme names the cause
        # the same way.
        from dataclasses import replace

        from uav_mec.errors import InfeasibleSubproblem
        from uav_mec.scenario import generate_scenario
        sc = generate_scenario(
            replace(default_config, hover_energy_suav_j=0.05), seed)
        sc = replace(sc, suavs=tuple(
            replace(s, energy_budget_j=0.01) if s.id == suav else s
            for s in sc.suavs))
        message = f"S-UAV {suav}'s hover alone breaks its energy budget"
        for scheme in SCHEMES:
            with pytest.raises(InfeasibleSubproblem, match=message):
                run_scheme(sc, scheme)
        with pytest.raises(InfeasibleSubproblem, match=message):
            Pools(sc)

    def test_relay_hover_alone_breaking_its_budget_raises(self,
                                                          default_config):
        # A 2,000 J relay hover over the 1,000 J relay budget: the relay
        # breaks its budget in every plan, with or without an offloader.
        # suav_only never offloads, so only the hover check catches it.
        from dataclasses import replace

        from uav_mec.errors import InfeasibleSubproblem
        from uav_mec.scenario import generate_scenario
        sc = generate_scenario(
            replace(default_config, hover_energy_ruav_j=2000.0), 0)
        for scheme in SCHEMES:
            with pytest.raises(InfeasibleSubproblem,
                               match="the relay's hover alone breaks"):
                run_scheme(sc, scheme)


class TestTinyInstance:
    def test_single_pair_converges_fast(self):
        from dataclasses import replace

        from uav_mec.config import ExperimentConfig
        from uav_mec.scenario import generate_scenario
        cfg = replace(ExperimentConfig(), n_suavs=1, n_targets=1, n0_cap=1)
        sc = generate_scenario(cfg, 0)
        report = run_scheme(sc, "proposed")
        assert report.converged
        assert report.iterations <= 2
        assert report.alpha.tolist() == [[1]]

    @pytest.mark.parametrize("seed", range(5))
    def test_single_suav_solves_under_every_scheme(self, seed):
        # The relay's max-min puts it right on top of a lone S-UAV, which
        # the evaluator must price at the 1 m floor as the blocks do.
        from dataclasses import replace

        from uav_mec.config import ExperimentConfig
        from uav_mec.scenario import (feasible_association_mask,
                                      generate_scenario)
        cfg = replace(ExperimentConfig(), n_suavs=1, n_targets=10, n0_cap=1)
        sc = generate_scenario(cfg, seed)
        for scheme in SCHEMES:
            report = run_scheme(sc, scheme)
            assoc = Association(alpha=report.alpha,
                                feasible_mask=feasible_association_mask(sc))
            assert check_constraints(
                sc, assoc, report.beta, report.q_m,
                static_positions=(scheme == "static_suavs")) == [], scheme


class TestMonotonicityAcrossSeeds:
    @pytest.mark.parametrize("seed", range(5))
    def test_trace_monotone(self, default_config, seed):
        from uav_mec.scenario import generate_scenario
        sc = generate_scenario(default_config, seed)
        report = run_scheme(sc, "proposed")
        t = report.objective_trace
        assert all(b <= a + 1e-6 for a, b in zip(t, t[1:]))
        assert report.converged


def mirrored_in_x(scenario, area_m):
    """The scene reflected across x = area_m / 2: every S-UAV and target
    at x -> area_m - x. The reference relay box spans the area in x, so it
    maps onto itself."""
    from dataclasses import replace

    def flip(pos):
        return replace(pos, x=area_m - pos.x)
    return replace(
        scenario,
        suavs=tuple(replace(s, initial_pos=flip(s.initial_pos),
                            current_pos=flip(s.current_pos))
                    for s in scenario.suavs),
        targets=tuple(replace(t, pos=flip(t.pos)) for t in scenario.targets))


class TestMirrorInX:
    """A metamorphic check: the problem is symmetric under the reflection,
    so the answer must not move by a bit."""

    @pytest.mark.parametrize("seed", range(20))
    def test_every_scheme_gives_the_same_objective(self, default_config,
                                                   seed):
        from uav_mec.scenario import generate_scenario
        sc = generate_scenario(default_config, seed)
        lo, hi = sc.ruav.box_lo, sc.ruav.box_hi
        assert lo.x + hi.x == default_config.area_m
        mirror = mirrored_in_x(sc, default_config.area_m)
        for scheme in SCHEMES:
            assert run_scheme(mirror, scheme).objective_s == \
                run_scheme(sc, scheme).objective_s, scheme


# run_scheme objectives at the reference config, pinned to the values of the
# solver before the placement, simplex and pricing-table speed-ups. Those
# changes must leave every result bit-for-bit the same.
# One entry was re-pinned when the placement inner solve began to keep the
# better of SLSQP's point and the expansion point: (0, 'proposed') fell from
# 9.991029515096416 to 9.991028738165555.
# Three seed-3 entries were re-pinned when SLSQP began to work in box units
# and so stops at a slightly different inner point: proposed and ruav_only
# 9.666280485593916 -> 9.666280485609043, suav_only 11.368788696434411 ->
# 11.36878869645119 (each about +1.5e-12 relative). These values hold at one
# and at two OpenBLAS threads.
PINNED_OBJECTIVES = {
    (0, 'proposed'): 9.991028738165555,
    (0, 'suav_only'): 11.34302539362671,
    (0, 'ruav_only'): 9.991048618147287,
    (0, 'static_suavs'): 9.99102130099366,
    (1, 'proposed'): 10.112142884334895,
    (1, 'suav_only'): 11.172374170578891,
    (1, 'ruav_only'): 10.58822279309309,
    (1, 'static_suavs'): 10.588187513451274,
    (2, 'proposed'): 9.792559743633714,
    (2, 'suav_only'): 10.87271181672884,
    (2, 'ruav_only'): 9.792596724036306,
    (2, 'static_suavs'): 9.792509246150262,
    (3, 'proposed'): 9.666280485609043,
    (3, 'suav_only'): 11.36878869645119,
    (3, 'ruav_only'): 9.666280485609043,
    (3, 'static_suavs'): 9.666445837052686,
    (4, 'proposed'): 9.442200305696518,
    (4, 'suav_only'): 10.353892383954102,
    (4, 'ruav_only'): 9.442206517672416,
    (4, 'static_suavs'): 9.44218369984621,
}


class TestPinnedObjectives:
    @pytest.mark.parametrize("seed", range(5))
    def test_reference_objectives_unchanged(self, default_config, seed):
        from uav_mec.scenario import generate_scenario
        sc = generate_scenario(default_config, seed)
        for scheme in SCHEMES:
            report = run_scheme(sc, scheme)
            assert report.objective_s == pytest.approx(
                PINNED_OBJECTIVES[seed, scheme], rel=1e-12), scheme


# report.lp_lower_bound at the same runs, pinned to the values of the
# hand-written Bland-rule simplex that solved the LP relaxation before HiGHS.
# The schemes without an LP-backed offload rule report nan.
# Two entries were re-pinned with the box-unit SLSQP (see PINNED_OBJECTIVES):
# (2, 'proposed') 6.493440989752495 -> 6.493440989740702 and
# (3, 'proposed') 6.056580216828489 -> 6.056580216847939.
PINNED_LP_BOUNDS = {
    (0, 'proposed'): 6.755890845748072,
    (0, 'static_suavs'): 6.755923066938035,
    (1, 'proposed'): 6.669881635926717,
    (1, 'static_suavs'): 7.024352675045007,
    (2, 'proposed'): 6.493440989740702,
    (2, 'static_suavs'): 6.493024925325662,
    (3, 'proposed'): 6.056580216847939,
    (3, 'static_suavs'): 6.056332535899714,
    (4, 'proposed'): 6.135794035963987,
    (4, 'static_suavs'): 6.1355747641590215,
}


class TestPinnedLpBounds:
    @pytest.mark.parametrize("seed", range(5))
    def test_reference_lp_bounds_unchanged(self, default_config, seed):
        from uav_mec.scenario import generate_scenario
        sc = generate_scenario(default_config, seed)
        for scheme in SCHEMES:
            report = run_scheme(sc, scheme)
            if (seed, scheme) in PINNED_LP_BOUNDS:
                assert report.lp_lower_bound == pytest.approx(
                    PINNED_LP_BOUNDS[seed, scheme], rel=1e-12), scheme
            else:
                assert np.isnan(report.lp_lower_bound), scheme


PIN_RUNS = """
from uav_mec.config import ExperimentConfig
from uav_mec.orchestrator import SCHEMES, run_scheme
from uav_mec.scenario import generate_scenario
for seed in range(5):
    sc = generate_scenario(ExperimentConfig(), seed)
    for scheme in SCHEMES:
        report = run_scheme(sc, scheme)
        print(seed, scheme, repr(report.objective_s),
              repr(report.lp_lower_bound))
"""


def solve_at_openblas_threads(script: str, threads: int) -> list:
    """Runs script in a fresh interpreter with OPENBLAS_NUM_THREADS set;
    its stdout lines, split."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()]


class TestPinsAtOneBlasThread:
    def test_pins_hold_with_one_openblas_thread(self):
        # The in-process pin tests run at the machine's default thread
        # count; this run checks the pins at one thread.
        runs = solve_at_openblas_threads(PIN_RUNS, 1)
        assert len(runs) == len(PINNED_OBJECTIVES)
        for seed, scheme, objective, lp_bound in runs:
            key = int(seed), scheme
            assert float(objective) == pytest.approx(
                PINNED_OBJECTIVES[key], rel=1e-12), key
            if key in PINNED_LP_BOUNDS:
                assert float(lp_bound) == pytest.approx(
                    PINNED_LP_BOUNDS[key], rel=1e-12), key
            else:
                assert lp_bound == "nan", key


THREAD_RUNS = """
from uav_mec.config import ExperimentConfig
from uav_mec.orchestrator import SCHEMES, run_scheme
from uav_mec.scenario import generate_scenario
for seed in range(6, 13):
    sc = generate_scenario(ExperimentConfig(), seed)
    for scheme in SCHEMES:
        print(seed, scheme, repr(run_scheme(sc, scheme).objective_s))
"""


class TestThreadCountIndependence:
    def test_objectives_identical_at_one_and_two_openblas_threads(self):
        # Seeds outside the pins. With SLSQP as the inner placement solve,
        # seeds 8, 10, 11 and 12 differed between the two counts (15 of the
        # 80 objectives at seeds 0-19, on a 2-core machine).
        one, two = (solve_at_openblas_threads(THREAD_RUNS, threads)
                    for threads in (1, 2))
        assert len(one) == 7 * len(SCHEMES)
        assert one == two


class TestLazyLpBound:
    def test_run_scheme_solves_no_lp_until_the_bound_is_read(self, monkeypatch,
                                                             scenario0):
        from uav_mec import offload, simplex

        from .conftest import counting
        lp_builds = counting(monkeypatch, offload, "build_sp1_lp")
        lp_solves = counting(monkeypatch, simplex, "solve_lp_arrays")
        report = run_scheme(scenario0, "proposed")
        assert len(lp_builds) == len(lp_solves) == 0
        assert np.isfinite(report.lp_lower_bound)
        assert len(lp_builds) == len(lp_solves) == 1
        report.lp_lower_bound
        assert len(lp_builds) == len(lp_solves) == 1


class TestReportCounters:
    def test_placement_fallbacks_count_uncertified_solves(self, monkeypatch,
                                                          scenario0):
        from uav_mec import placement

        from .conftest import counting
        solves = counting(monkeypatch, placement, "minimize",
                          lambda res: res._replace(success=False))
        report = run_scheme(scenario0, "suav_only")
        assert report.placement_fallbacks == len(solves) > 0

    def test_placement_fallbacks_match_uncertified_results(self, monkeypatch,
                                                           default_config):
        from uav_mec import placement
        from uav_mec.scenario import generate_scenario

        from .conftest import counting
        outcomes = []

        def every_other_uncertified(res):
            res = res._replace(success=res.success and len(outcomes) % 2 == 0)
            outcomes.append(res.success)
            return res

        counting(monkeypatch, placement, "minimize", every_other_uncertified)
        report = run_scheme(generate_scenario(default_config, 2), "proposed")
        assert outcomes.count(True) >= 1
        assert report.placement_fallbacks == outcomes.count(False) >= 1

    def test_association_exact_within_budget(self, reports):
        assert all(r.association_exact for r in reports.values())

    def test_association_exact_under_a_tiny_budget(self, dfs_allowance,
                                                   scenario0):
        # The allowance caps only the DFS; the column cover certifies the
        # rest, so no allowance makes an association inexact.
        dfs_allowance(5)
        report = run_scheme(scenario0, "suav_only")
        assert report.association_exact

    @pytest.mark.parametrize("seed", range(5))
    def test_association_exact_at_16x40(self, seed):
        from dataclasses import replace

        from uav_mec.config import ExperimentConfig
        from uav_mec.scenario import generate_scenario
        sc = generate_scenario(
            replace(ExperimentConfig(), n_suavs=16, n_targets=40), seed)
        assert run_scheme(sc, "proposed").association_exact


class TestOffloadGuardPrice:
    """Each guard of run_scheme takes its block's own price of a candidate
    in place of evaluate_solution's: the offload rule's slack_s, the last
    value of sca_loop's trace, and solve_association's objective. Each must
    be the evaluator's to the bit."""

    @staticmethod
    def assert_guards_price_as_the_evaluator(monkeypatch, sc, schemes):
        from uav_mec import association, orchestrator, placement
        calls = {"offload": [], "placement": [], "association": []}

        def record(module, name, kind):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                out = real(*args, **kwargs)
                calls[kind].append((scheme, args, kwargs, out))
                return out
            monkeypatch.setattr(module, name, wrapper)

        record(orchestrator, "solve_sp1", "offload")
        record(orchestrator, "forced_offload", "offload")
        record(placement, "sca_loop", "placement")
        record(association, "solve_association", "association")
        for scheme in schemes:
            report = run_scheme(sc, scheme)
            assert all(type(v) is float for v in report.objective_trace)
        if set(schemes) - {"suav_only"}:
            assert calls["offload"]
        assert calls["placement"] and calls["association"]

        for _, (pools, bits, q_m), _, decision in calls["offload"]:
            assert decision.slack_s == evaluated(pools, bits, decision.beta,
                                                 q_m)
        for _, (pools, bits, beta, _), _, (q_m, trace, _) in \
                calls["placement"]:
            assert trace[-1] == evaluated(pools, bits, beta, q_m)
        for _, (pools, beta, q_m), _, (new_bits, info) in \
                calls["association"]:
            assert info.objective == evaluated(pools, new_bits, beta, q_m)
        return calls

    @pytest.mark.parametrize("seed", range(5))
    def test_offload_rules_price_as_the_evaluator(self, monkeypatch,
                                                  default_config, seed):
        # Reference config, every scheme, every block.
        from uav_mec.scenario import generate_scenario
        self.assert_guards_price_as_the_evaluator(
            monkeypatch, generate_scenario(default_config, seed), SCHEMES)

    @pytest.mark.parametrize("case", ["fleet", "relay_sweep"])
    def test_cover_path_and_relay_budget_price_as_the_evaluator(
            self, monkeypatch, default_config, case):
        # fleet: 16 x 40, where the association search hands the call to
        # the column cover. relay_sweep: a 5 J relay budget that binds.
        from dataclasses import replace

        from uav_mec.scenario import generate_scenario
        if case == "fleet":
            cfg = replace(default_config, n_suavs=16, n_targets=40)
            schemes = ("proposed",)
        else:
            cfg = replace(default_config, n_targets=16, n0_cap=8,
                          energy_budget_ruav_j=5.0)
            schemes = SCHEMES
        calls = self.assert_guards_price_as_the_evaluator(
            monkeypatch, generate_scenario(cfg, 0), schemes)
        if case == "fleet":
            from uav_mec.association import DFS_ALLOWANCE
            assert any(out[1].nodes > DFS_ALLOWANCE
                       for _, _, _, out in calls["association"])


class TestBenchmarkTracerContract:
    """Every name the benchmark's tracer (`perfbench/tracer.py`) wraps or
    reads must keep working, or `perfbench/run.py --trace 1` breaks."""

    def test_targets_resolve_and_extracts_read_a_traced_solve(
            self, monkeypatch, scenario0):
        from pathlib import Path

        from uav_mec import orchestrator
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "perfbench"))
        import tracer
        for module, attr, _ in tracer.TARGETS:
            assert callable(getattr(module, attr, None)), \
                f"{module.__name__}.{attr}"
        t = tracer.Tracer()
        t.install()
        try:
            # Every scheme, as `--trace 1` traces them all.
            reports = [orchestrator.run_scheme(scenario0, scheme)
                       for scheme in SCHEMES]
        finally:
            t.uninstall()
        assert all(report.iterations >= 1 for report in reports)
        reached = {span[0] for span in t.spans}
        assert set(tracer.EXTRACT) <= reached
        for name in tracer.EXTRACT:
            assert t.values[name], name
            assert all(v is not None for v in t.values[name]), name


class TestBenchmarkWorkloadContract:
    """`perfbench/run.py` drives the planner through `perfbench/workloads.py`,
    whose workloads still pass solver keyword arguments that the planner
    ignores. A signature change that breaks that path must fail here."""

    def test_one_unit_per_workload_checks_and_matches_a_direct_call(
            self, monkeypatch):
        from dataclasses import replace
        from pathlib import Path

        from uav_mec.experiment import run_cell
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "perfbench"))
        monkeypatch.setenv("UAV_MEC_WORKERS", "1")
        import workloads
        for name, workload in workloads.WORKLOADS.items():
            cfg = workload.config
            seeds = workloads.scenario_seeds(0, 1, held_out=False)
            pool, warm_up = workloads.set_up(workload, seeds)
            assert warm_up.error == "", name
            solves = workloads.run_unit(workload, pool, pool.units[0])
            assert solves, name
            for solve in solves:
                assert workloads.check(workload, solve) == [], solve.key
                if workload.kind == "sweep":
                    seed, scheme, value = solve.key
                    direct = run_cell(
                        replace(cfg, **{workloads.SWEEP_PARAM: int(value)}),
                        seed, scheme, workloads.SWEEP_PARAM, value).objective_s
                else:
                    seed, scheme = solve.key
                    direct = run_scheme(pool.scenarios[seed], scheme,
                                        tol=cfg.tol,
                                        r_max=cfg.r_max).objective_s
                assert solve.objective == direct, (name, solve.key)
