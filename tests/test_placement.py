"""Relay placement: surrogate bounds, SCA descent, and the grid oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from uav_mec.errors import InfeasibleSubproblem
from uav_mec.oracles import grid_search_placement
from uav_mec.placement import (default_initial_position, exact_objective,
                               placement_terms, sca_loop, solve_sp2_2,
                               surrogate_rates)
from uav_mec.scenario import Position3D

from .conftest import (counting, full_association, identity_association,
                       make_scenario)


def pair_scenario(**kwargs):
    """Two S-UAVs symmetric about the box center, equal parameters."""
    return make_scenario([(300.0, 500.0), (700.0, 500.0)],
                         [(300.0, 500.0), (700.0, 500.0)], n0_cap=2, **kwargs)


class TestPlacementTerms:
    def test_branch_dependent_tx_bits(self):
        sc = pair_scenario()
        assoc = identity_association(sc)
        local = placement_terms(sc, assoc, np.array([0, 0]))
        off = placement_terms(sc, assoc, np.array([1, 1]))
        np.testing.assert_allclose(local.tx_bits, 0.1 * off.tx_bits)
        assert np.all(off.fixed_s < local.fixed_s)  # relay CPU is 10x faster

    def test_no_energy_headroom_raises(self):
        # Budget below the 8.192e-3 J local compute cost leaves nothing for
        # transmission.
        sc = pair_scenario(energy_budget_j=5e-3)
        with pytest.raises(InfeasibleSubproblem):
            placement_terms(sc, identity_association(sc), np.array([0, 0]))


class TestSurrogate:
    def test_surrogate_below_exact_rates(self):
        sc = pair_scenario()
        terms = placement_terms(sc, identity_association(sc), np.zeros(2, dtype=int))
        rng = np.random.default_rng(0)
        q_ref = np.array([400.0, 450.0, 300.0])
        pts = rng.uniform([0, 0, 100], [1000, 1000, 1000], size=(200, 3))
        sur = surrogate_rates(terms, q_ref, pts)
        d2 = np.maximum(((pts[:, None, :] - terms.q[None, :, :]) ** 2).sum(axis=2), 1.0)
        exact = terms.bandwidth_hz * np.log2(1.0 + terms.gamma1[None, :] / d2)
        assert np.all(sur <= exact * (1.0 + 1e-9) + 1e-9)

    def test_surrogate_tight_at_reference(self):
        sc = pair_scenario()
        terms = placement_terms(sc, identity_association(sc), np.zeros(2, dtype=int))
        q_ref = np.array([400.0, 450.0, 300.0])
        sur = surrogate_rates(terms, q_ref, q_ref[None, :])
        d2 = ((q_ref[None, :] - terms.q) ** 2).sum(axis=1)
        exact = terms.bandwidth_hz * np.log2(1.0 + terms.gamma1 / d2)
        np.testing.assert_allclose(sur[0], exact, rtol=1e-12)


class TestSolveSp22:
    def test_single_suav_projects_onto_box(self):
        sc = make_scenario([(500.0, 500.0)], [(500.0, 500.0)], n0_cap=1)
        assoc = identity_association(sc)
        q_m, _ = solve_sp2_2(sc, placement_terms(sc, assoc, np.array([0])),
                             Position3D(500.0, 500.0, 300.0))
        # Best point sits at the minimum feasible distance from the S-UAV:
        # directly underneath is blocked by the 100 m altitude floor vs 500 m
        # hover, so the optimum is the projection (500, 500, 100..1000) at
        # whichever altitude minimizes |h - 500|, i.e. h = 500.
        assert q_m.x == pytest.approx(500.0, abs=2.0)
        assert q_m.y == pytest.approx(500.0, abs=2.0)

    def test_symmetric_pair_matches_bisector_optimum(self):
        sc = pair_scenario()
        assoc = identity_association(sc)
        beta = np.zeros(2, dtype=int)
        _, trace, _ = sca_loop(sc, assoc, beta,
                               Position3D(480.0, 520.0, 400.0))
        terms = placement_terms(sc, assoc, beta)
        # The exact objective is symmetric in x about 500; scan the bisector.
        hs = np.arange(100.0, 1000.0, 1.0)
        bisector = np.stack([np.full_like(hs, 500.0),
                             np.full_like(hs, 500.0), hs], axis=1)
        best_on_bisector = float(exact_objective(terms, bisector).min())
        # Off-bisector points are never better than the mirror-symmetric pair.
        off = exact_objective(terms, np.array([[560.0, 500.0, 300.0]]))[0]
        assert off >= best_on_bisector
        assert trace[-1] <= best_on_bisector + 1e-4 * best_on_bisector

    def test_fixed_point_preserves_objective(self):
        sc = pair_scenario()
        assoc = identity_association(sc)
        beta = np.zeros(2, dtype=int)
        q1, trace1, _ = sca_loop(sc, assoc, beta,
                                 default_initial_position(sc))
        terms = placement_terms(sc, assoc, beta)
        q2, _ = solve_sp2_2(sc, terms, q1)
        obj2 = float(exact_objective(terms, q2.array)[0])
        assert obj2 <= trace1[-1] + 1e-6


class TestScaLoop:
    def test_trace_non_increasing(self, scenario0):
        from uav_mec.scenario import repositioned_scenario
        assoc = full_association(scenario0)
        placed = repositioned_scenario(scenario0, assoc.alpha)
        beta = np.zeros(scenario0.n_suavs, dtype=int)
        _, trace, _ = sca_loop(placed, assoc, beta,
                               default_initial_position(placed))
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_final_point_near_grid_oracle(self, scenario0):
        from uav_mec.scenario import repositioned_scenario
        assoc = full_association(scenario0)
        placed = repositioned_scenario(scenario0, assoc.alpha)
        beta = np.zeros(scenario0.n_suavs, dtype=int)
        q_m, trace, _ = sca_loop(placed, assoc, beta,
                                 default_initial_position(placed))
        final = trace[-1]
        _, oracle = grid_search_placement(placed, assoc, beta,
                                          extra_points=q_m.array[None, :])
        assert final <= oracle * 1.01 + 1e-9
        assert final >= oracle - 1e-6

    def test_starts_inside_box(self, scenario0):
        q = default_initial_position(scenario0)
        lo, hi = scenario0.ruav.box_lo.array, scenario0.ruav.box_hi.array
        assert np.all(q.array >= lo) and np.all(q.array <= hi)


def reported_success(success, x=None):
    """Override SLSQP's reported status and, if `x` is given, its point."""
    def override(res):
        res.success = success
        if x is not None:
            res.x[:3] = x
        return res
    return override


Q_REF = Position3D(480.0, 520.0, 400.0)


def from_box_units(scenario, u):
    """SLSQP's box-unit point u in metres, clipped to the box (which here
    pins no axis)."""
    lo, hi = scenario.ruav.box_lo.array, scenario.ruav.box_hi.array
    return np.clip(0.5 * (lo + hi) + 0.5 * (hi - lo) * np.asarray(u), lo, hi)


def surrogate_min(terms, q_ref, q):
    return float(surrogate_rates(terms, q_ref, q).min())


class TestInnerSolveRule:
    """Each inner solve keeps the better of SLSQP's point and the expansion
    point, both clipped to the box, by minimum surrogate rate."""

    # Fake points x are in SLSQP's box units; x3 maps to (500, 500, 505),
    # which beats the expansion point.
    @pytest.mark.parametrize("x,slsqp_wins", [
        (None, True), ((-1.1, 0.0, 0.0), False), ((-0.04, 0.04, 20.0), False),
        ((0.0, 0.0, -0.1), True)], ids=["None", "x1", "x2", "x3"])
    def test_slsqp_failure_keeps_the_better_point(self, monkeypatch, x,
                                                  slsqp_wins):
        from uav_mec import placement
        sc = pair_scenario()
        assoc, beta = identity_association(sc), np.zeros(2, dtype=int)
        points = []

        def failed(res):
            res = reported_success(False, x)(res)
            points.append(res.x[:3].copy())
            return res

        counting(monkeypatch, placement, "minimize", failed)
        terms = placement_terms(sc, assoc, beta)
        q_m, slsqp_failed = solve_sp2_2(sc, terms, Q_REF)
        cands = [from_box_units(sc, points[0]), Q_REF.array]
        best = max(cands, key=lambda q: surrogate_min(terms, Q_REF.array, q))
        np.testing.assert_array_equal(q_m.array, best)
        assert (best is cands[0]) == slsqp_wins
        assert slsqp_failed

    def test_success_below_the_expansion_point_keeps_it(self, monkeypatch):
        from uav_mec import placement
        sc = pair_scenario()
        assoc, beta = identity_association(sc), np.zeros(2, dtype=int)
        corner = np.array([0.0, 0.0, 1000.0])
        terms = placement_terms(sc, assoc, beta)
        assert (surrogate_min(terms, Q_REF.array, corner)
                < surrogate_min(terms, Q_REF.array, Q_REF.array))
        np.testing.assert_array_equal(from_box_units(sc, (-1.0, -1.0, 1.0)),
                                      corner)
        counting(monkeypatch, placement, "minimize",
                 reported_success(True, (-1.0, -1.0, 1.0)))
        q_m, slsqp_failed = solve_sp2_2(sc, terms, Q_REF)
        assert q_m == Q_REF
        assert not slsqp_failed

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0)),
                    min_size=2, max_size=2),
           st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0),
                     st.floats(100.0, 1000.0)),
           st.lists(st.integers(0, 1), min_size=2, max_size=2))
    def test_common_rate_never_below_the_expansion_point(self, xy, q, beta):
        sc = make_scenario(xy, xy, n0_cap=2)
        assoc, beta = identity_association(sc), np.array(beta)
        q_ref = Position3D(*q)
        terms = placement_terms(sc, assoc, beta)
        q_m, _ = solve_sp2_2(sc, terms, q_ref)
        at_ref = surrogate_min(terms, q_ref.array, q_ref.array)
        assert at_ref > 0.0
        assert surrogate_min(terms, q_ref.array, q_m.array) >= at_ref

    def test_sca_loop_counts_every_fallback(self, monkeypatch):
        from uav_mec import placement
        sc = pair_scenario()
        solves = counting(monkeypatch, placement, "minimize",
                          reported_success(False))
        _, trace, fallbacks = sca_loop(sc, identity_association(sc),
                                       np.zeros(2, dtype=int),
                                       Position3D(480.0, 520.0, 400.0))
        assert fallbacks == len(solves) == len(trace) - 1


def metre_unit_maximin(terms, q_ref, lo, hi):
    """The surrogate max-min solved by SLSQP with the position in metres,
    the reference for the planner's box-unit solve; the point, clipped."""
    from uav_mec.placement import _surrogate_coeffs
    a, slope, d2r = _surrogate_coeffs(terms, q_ref)
    b = terms.bandwidth_hz

    def cons_f(z):
        d2 = ((z[None, :3] - terms.q) ** 2).sum(axis=1)
        return (a - slope * (d2 - d2r)) / b - z[3]

    def cons_jac(z):
        jac = np.empty((terms.q.shape[0], 4))
        jac[:, :3] = -2.0 * (slope / b)[:, None] * (z[None, :3] - terms.q)
        jac[:, 3] = -1.0
        return jac

    z0 = np.append(np.clip(q_ref, lo, hi), 0.0)
    z0[3] = cons_f(z0).min()
    lam_hi = math.log2(1.0 + terms.gamma1.max())
    res = minimize(
        lambda z: -z[3], z0, jac=lambda z: np.array([0.0, 0.0, 0.0, -1.0]),
        bounds=[(lo[i], hi[i]) for i in range(3)] + [(0.0, lam_hi)],
        constraints=[{"type": "ineq", "fun": cons_f, "jac": cons_jac}],
        method="SLSQP", options={"maxiter": 200, "ftol": 1e-12},
    )
    return np.clip(res.x[:3], lo, hi)


@pytest.fixture(scope="module")
def reference_inner_solves(default_config):
    """Every inner solve of the four schemes at reference seeds 0-4, as
    (scenario, terms, expansion point, kept point), and SLSQP's iteration
    count in each."""
    from uav_mec import placement
    from uav_mec.orchestrator import SCHEMES, run_scheme
    from uav_mec.scenario import generate_scenario
    solves, nits = [], []
    real_solve, real_minimize = placement.solve_sp2_2, placement.minimize

    def solve(scenario, terms, q_ref):
        q_m, failed = real_solve(scenario, terms, q_ref)
        solves.append((scenario, terms, q_ref.array, q_m.array))
        return q_m, failed

    def slsqp(*args, **kwargs):
        res = real_minimize(*args, **kwargs)
        nits.append(res.nit)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(placement, "solve_sp2_2", solve)
        mp.setattr(placement, "minimize", slsqp)
        for seed in range(5):
            sc = generate_scenario(default_config, seed)
            for scheme in SCHEMES:
                run_scheme(sc, scheme)
    assert len(solves) == len(nits) > 0
    return solves, nits


class TestBoxUnits:
    """SLSQP solves the inner max-min in box units, u = (q - mid) / half."""

    def test_kept_point_matches_a_metre_unit_solve(self,
                                                   reference_inner_solves):
        solves, _ = reference_inner_solves
        for scenario, terms, q_ref, q_m in solves:
            lo, hi = scenario.ruav.box_lo.array, scenario.ruav.box_hi.array
            at_ref = surrogate_min(terms, q_ref, q_ref)
            metre = max(surrogate_min(
                terms, q_ref, metre_unit_maximin(terms, q_ref, lo, hi)),
                at_ref)
            kept = surrogate_min(terms, q_ref, q_m)
            assert kept == pytest.approx(metre, rel=1e-11)
            assert kept >= at_ref

    def test_median_slsqp_iterations(self, reference_inner_solves):
        # In metres the median is 23: the position (hundreds of metres) and
        # the rate ratio lambda (about 10) are scaled far apart.
        _, nits = reference_inner_solves
        assert np.median(nits) <= 12


class TestBuildOnce:
    def test_placement_terms_once_per_sca_loop(self, monkeypatch, scenario0):
        from uav_mec import placement
        from uav_mec.scenario import repositioned_scenario
        assoc = full_association(scenario0)
        placed = repositioned_scenario(scenario0, assoc.alpha)
        builds = counting(monkeypatch, placement, "placement_terms")
        _, trace, _ = sca_loop(placed, assoc,
                               np.zeros(scenario0.n_suavs, dtype=int),
                               Position3D(1000.0, 1000.0, 100.0))
        assert len(trace) > 2  # more than one SCA round
        assert len(builds) == 1
