"""Relay placement: surrogate bounds, SCA descent, and the grid oracle."""

import copy
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize

from uav_mec.errors import InfeasibleSubproblem
from uav_mec.link import snr_coeff
from uav_mec.oracles import grid_search_placement
from uav_mec.placement import (_surrogate_coeffs, default_initial_position,
                               exact_objective, placement_terms, sca_loop,
                               solve_sp2_2, surrogate_rates)
from uav_mec.scenario import Position3D

from .conftest import (DEFAULT_CONSTANTS, counting, full_association,
                       identity_association, link_terms, make_scenario,
                       row_terms, static_pools, term_arrays)


def pair_scenario(**kwargs):
    """Two S-UAVs symmetric about the box center, equal parameters."""
    return make_scenario([(300.0, 500.0), (700.0, 500.0)],
                         [(300.0, 500.0), (700.0, 500.0)], n0_cap=2, **kwargs)


class TestPlacementTerms:
    def test_branch_dependent_tx_bits(self):
        sc = pair_scenario()
        assoc = identity_association(sc)
        pools = static_pools(sc)
        local = term_arrays(placement_terms(pools, assoc, np.array([0, 0])))
        off = term_arrays(placement_terms(pools, assoc, np.array([1, 1])))
        np.testing.assert_allclose(local.tx_bits, 0.1 * off.tx_bits)
        assert np.all(off.fixed_s < local.fixed_s)  # relay CPU is 10x faster

    def test_no_energy_headroom_raises(self):
        # Budget below the 8.192e-3 J local compute cost leaves nothing for
        # transmission.
        sc = pair_scenario(energy_budget_j=5e-3)
        with pytest.raises(InfeasibleSubproblem):
            placement_terms(static_pools(sc), identity_association(sc),
                            np.array([0, 0]))


class TestSurrogate:
    def test_surrogate_below_exact_rates(self):
        sc = pair_scenario()
        terms = placement_terms(static_pools(sc), identity_association(sc),
                                np.zeros(2, dtype=int))
        rng = np.random.default_rng(0)
        q_ref = np.array([400.0, 450.0, 300.0])
        pts = rng.uniform([0, 0, 100], [1000, 1000, 1000], size=(200, 3))
        sur = np.array(surrogate_rates(
            terms, _surrogate_coeffs(terms, q_ref), pts))
        t = term_arrays(terms)
        d2 = np.maximum(((pts[:, None, :] - t.q[None, :, :]) ** 2).sum(axis=2), 1.0)
        exact = t.bandwidth_hz * np.log2(1.0 + t.gamma1[None, :] / d2)
        assert np.all(sur <= exact * (1.0 + 1e-9) + 1e-9)

    def test_surrogate_tight_at_reference(self):
        sc = pair_scenario()
        terms = placement_terms(static_pools(sc), identity_association(sc),
                                np.zeros(2, dtype=int))
        q_ref = np.array([400.0, 450.0, 300.0])
        sur = np.array(surrogate_rates(
            terms, _surrogate_coeffs(terms, q_ref), [q_ref]))
        t = term_arrays(terms)
        d2 = ((q_ref[None, :] - t.q) ** 2).sum(axis=1)
        exact = t.bandwidth_hz * np.log2(1.0 + t.gamma1 / d2)
        np.testing.assert_allclose(sur[0], exact, rtol=1e-12)


class TestSolveSp22:
    def test_single_suav_projects_onto_box(self):
        sc = make_scenario([(500.0, 500.0)], [(500.0, 500.0)], n0_cap=1)
        assoc = identity_association(sc)
        q_m, _ = solve_sp2_2(sc, placement_terms(static_pools(sc), assoc,
                                                 np.array([0])),
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
        pools = static_pools(sc)
        _, trace, _ = sca_loop(pools, assoc, beta,
                               Position3D(480.0, 520.0, 400.0))
        terms = placement_terms(pools, assoc, beta)
        # The exact objective is symmetric in x about 500; scan the bisector.
        hs = np.arange(100.0, 1000.0, 1.0)
        bisector = np.stack([np.full_like(hs, 500.0),
                             np.full_like(hs, 500.0), hs], axis=1)
        best_on_bisector = min(exact_objective(terms, p)
                               for p in bisector.tolist())
        # Off-bisector points are never better than the mirror-symmetric pair.
        off = exact_objective(terms, (560.0, 500.0, 300.0))
        assert off >= best_on_bisector
        assert trace[-1] <= best_on_bisector + 1e-4 * best_on_bisector

    def test_fixed_point_preserves_objective(self):
        sc = pair_scenario()
        assoc = identity_association(sc)
        beta = np.zeros(2, dtype=int)
        pools = static_pools(sc)
        q1, trace1, _ = sca_loop(pools, assoc, beta,
                                 default_initial_position(pools, assoc))
        terms = placement_terms(pools, assoc, beta)
        q2, _ = solve_sp2_2(sc, terms, q1)
        obj2 = exact_objective(terms, q2.array.tolist())
        assert obj2 <= trace1[-1] + 1e-6


class TestScaLoop:
    def test_trace_non_increasing(self, scenario0):
        from uav_mec.scenario import repositioned_scenario
        assoc = full_association(scenario0)
        placed = repositioned_scenario(scenario0, assoc.alpha)
        beta = np.zeros(scenario0.n_suavs, dtype=int)
        pools = static_pools(placed)
        _, trace, _ = sca_loop(pools, assoc, beta,
                               default_initial_position(pools, assoc))
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_final_point_near_grid_oracle(self, scenario0):
        from uav_mec.scenario import repositioned_scenario
        assoc = full_association(scenario0)
        placed = repositioned_scenario(scenario0, assoc.alpha)
        beta = np.zeros(scenario0.n_suavs, dtype=int)
        pools = static_pools(placed)
        q_m, trace, _ = sca_loop(pools, assoc, beta,
                                 default_initial_position(pools, assoc))
        final = trace[-1]
        _, oracle = grid_search_placement(placed, assoc, beta,
                                          extra_points=q_m.array[None, :])
        assert final <= oracle * 1.01 + 1e-9
        assert final >= oracle - 1e-6

    def test_starts_inside_box(self, scenario0):
        q = default_initial_position(static_pools(scenario0),
                                     full_association(scenario0))
        lo, hi = scenario0.ruav.box_lo.array, scenario0.ruav.box_hi.array
        assert np.all(q.array >= lo) and np.all(q.array <= hi)


class TestLinkBoundQuality:
    """Where the link binds (scripts/link.cfg: the link is about 2e-2 of the
    bottleneck's latency, against 2e-4 at the reference parameters), the
    relay's position moves the answer, so a placement regression shows in
    the final plan's gap to the grid oracle."""

    # The largest of seeds 0-9 read 1.285e-2 (seed 6) when this was added.
    MAX_GAP = 1.5e-2

    def test_final_plans_near_the_grid_oracle(self):
        from pathlib import Path

        from uav_mec.config import load_config
        from uav_mec.orchestrator import run_scheme
        from uav_mec.scenario import (Association, feasible_association_mask,
                                      generate_scenario, repositioned_scenario)
        cfg = load_config(Path(__file__).resolve().parents[1] / "scripts"
                          / "link.cfg")
        gaps = []
        for seed in range(10):
            sc = generate_scenario(cfg, seed)
            report = run_scheme(sc, "proposed", tol=cfg.tol, r_max=cfg.r_max)
            assoc = Association(alpha=report.alpha,
                                feasible_mask=feasible_association_mask(sc))
            _, oracle = grid_search_placement(
                repositioned_scenario(sc, report.alpha), assoc, report.beta,
                extra_points=report.q_m.array[None, :])
            gaps.append((report.objective_s - oracle) / oracle)
        print("link-bound gaps to the grid oracle, seeds 0-9: "
              + ", ".join(f"{gap:.3e}" for gap in gaps))
        assert max(gaps) <= self.MAX_GAP


def reported_success(success, x=None):
    """Override the exact solve's certificate and, if `x` is given, its
    point (in metres)."""
    def override(res):
        if x is not None:
            res = res._replace(x=np.array(x, dtype=float))
        return res._replace(success=success)
    return override


Q_REF = Position3D(480.0, 520.0, 400.0)


def surrogate_min(terms, q_ref, q):
    return min(surrogate_rates(terms, _surrogate_coeffs(terms, q_ref), [q])[0])


class TestInnerSolveRule:
    """Each inner solve keeps the better of the exact solve's point and the
    expansion point, both clipped to the box, by minimum surrogate rate."""

    # x3 = (500, 500, 505) beats the expansion point; x1 and x2 lie outside
    # the box, where minimize never returns, and lose to it.
    @pytest.mark.parametrize("x,solve_wins", [
        (None, True), ((-50.0, 500.0, 550.0), False),
        ((480.0, 520.0, 9550.0), False), ((500.0, 500.0, 505.0), True)],
        ids=["None", "x1", "x2", "x3"])
    def test_slsqp_failure_keeps_the_better_point(self, monkeypatch, x,
                                                  solve_wins):
        from uav_mec import placement
        sc = pair_scenario()
        assoc, beta = identity_association(sc), np.zeros(2, dtype=int)
        points = []

        def failed(res):
            res = reported_success(False, x)(res)
            points.append(res.x.copy())
            return res

        counting(monkeypatch, placement, "minimize", failed)
        terms = placement_terms(static_pools(sc), assoc, beta)
        q_m, uncertified = solve_sp2_2(sc, terms, Q_REF)
        lo, hi = sc.ruav.box_lo.array, sc.ruav.box_hi.array
        cands = [np.clip(points[0], lo, hi), Q_REF.array]
        best = max(cands, key=lambda q: surrogate_min(terms, Q_REF.array, q))
        np.testing.assert_array_equal(q_m.array, best)
        assert (best is cands[0]) == solve_wins
        assert uncertified

    def test_success_below_the_expansion_point_keeps_it(self, monkeypatch):
        from uav_mec import placement
        sc = pair_scenario()
        assoc, beta = identity_association(sc), np.zeros(2, dtype=int)
        corner = (0.0, 0.0, 1000.0)
        terms = placement_terms(static_pools(sc), assoc, beta)
        assert (surrogate_min(terms, Q_REF.array, corner)
                < surrogate_min(terms, Q_REF.array, Q_REF.array))
        counting(monkeypatch, placement, "minimize",
                 reported_success(True, corner))
        q_m, uncertified = solve_sp2_2(sc, terms, Q_REF)
        assert q_m == Q_REF
        assert not uncertified

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
        terms = placement_terms(static_pools(sc), assoc, beta)
        q_m, _ = solve_sp2_2(sc, terms, q_ref)
        at_ref = surrogate_min(terms, q_ref.array, q_ref.array)
        assert at_ref > 0.0
        assert surrogate_min(terms, q_ref.array, q_m.array) >= at_ref

    def test_sca_loop_counts_every_fallback(self, monkeypatch):
        from uav_mec import placement
        sc = pair_scenario()
        solves = counting(monkeypatch, placement, "minimize",
                          reported_success(False))
        _, trace, fallbacks = sca_loop(static_pools(sc),
                                       identity_association(sc),
                                       np.zeros(2, dtype=int),
                                       Position3D(480.0, 520.0, 400.0))
        assert fallbacks == len(solves) == len(trace) - 1


def metre_unit_maximin(terms, q_ref, lo, hi):
    """The surrogate max-min solved by SLSQP with the position in metres,
    a reference for the exact solve; the point, clipped. Its common rate
    ratio is capped at the 1 m guard's, log2(1 + gamma1)."""
    a, slope, d2r = map(np.array, _surrogate_coeffs(terms, q_ref))
    t = term_arrays(terms)
    b = t.bandwidth_hz

    def cons_f(z):
        d2 = ((z[None, :3] - t.q) ** 2).sum(axis=1)
        return (a - slope * (d2 - d2r)) / b - z[3]

    def cons_jac(z):
        jac = np.empty((t.q.shape[0], 4))
        jac[:, :3] = -2.0 * (slope / b)[:, None] * (z[None, :3] - t.q)
        jac[:, 3] = -1.0
        return jac

    z0 = np.append(np.clip(q_ref, lo, hi), 0.0)
    z0[3] = cons_f(z0).min()
    lam_hi = math.log2(1.0 + t.gamma1.max())
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
    (scenario, terms, expansion point, kept point, the exact solve's
    record), the supports each exact solve tried, and every support's
    inputs and result."""
    from uav_mec import placement
    from uav_mec.orchestrator import SCHEMES, run_scheme
    from uav_mec.scenario import generate_scenario
    solves, records, supports, support_calls = [], [], [], []
    real_solve = placement.solve_sp2_2
    real_minimize, real_support = placement.minimize, placement._support

    def solve(scenario, terms, q_ref):
        q_m, failed = real_solve(scenario, terms, q_ref)
        solves.append((scenario, terms, q_ref.array, q_m.array, records[-1]))
        return q_m, failed

    def exact(*args):
        supports.append(0)
        records.append(real_minimize(*args))
        return records[-1]

    def support(*args):
        supports[-1] += 1
        inputs = copy.deepcopy(args)
        support_calls.append((inputs, real_support(*args)))
        return support_calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(placement, "solve_sp2_2", solve)
        mp.setattr(placement, "minimize", exact)
        mp.setattr(placement, "_support", support)
        for seed in range(5):
            sc = generate_scenario(default_config, seed)
            for scheme in SCHEMES:
                run_scheme(sc, scheme)
    assert len(solves) == len(supports) > 0
    return solves, supports, support_calls


def box_of(scenario):
    return scenario.ruav.box_lo.array, scenario.ruav.box_hi.array


def exact_solve(terms, q_ref, lo, hi):
    """The exact solve of the surrogate max-min around q_ref, as
    solve_sp2_2 poses it."""
    from uav_mec.placement import _inner_problem, minimize as exact
    q_ref, lo, hi = (np.asarray(v, dtype=float).tolist()
                     for v in (q_ref, lo, hi))
    coeffs = _surrogate_coeffs(terms, q_ref)
    return exact(*_inner_problem(terms, coeffs), lo, hi)


def grid_maximin(terms, q_ref, lo, hi, n=21):
    """The best minimum surrogate rate over an n^3 grid of the box."""
    axes = [np.linspace(a, b, n) for a, b in zip(lo, hi)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return max(map(min, surrogate_rates(
        terms, _surrogate_coeffs(terms, q_ref), pts.tolist())))


def assert_exact(terms, q_ref, lo, hi):
    """The exact solve certifies its point, which lies in the box, attains
    its lam, and is no worse than the metre-unit SLSQP's point or any grid
    point, to 1e-12 relative. Returns the solve's record."""
    res = exact_solve(terms, q_ref, lo, hi)
    assert res.success
    assert np.all(res.x >= lo) and np.all(res.x <= hi)
    attained = surrogate_min(terms, q_ref, res.x)
    b = terms.bandwidth_hz
    assert attained / b == pytest.approx(res.lam, rel=1e-12)
    slsqp = surrogate_min(terms, q_ref,
                          metre_unit_maximin(terms, q_ref, lo, hi))
    best = max(slsqp, grid_maximin(terms, q_ref, lo, hi))
    assert attained >= best - 1e-12 * abs(best)
    return res


class TestExactInnerSolve:
    """The inner max-min is solved exactly: pivoting on supports of tight
    balls and box faces, each closed form up to one quadratic in lam."""

    def test_kept_point_at_least_a_metre_unit_solve(self,
                                                    reference_inner_solves):
        solves, _, _ = reference_inner_solves
        for scenario, terms, q_ref, q_m, res in solves:
            lo, hi = box_of(scenario)
            at_ref = surrogate_min(terms, q_ref, q_ref)
            metre = surrogate_min(
                terms, q_ref, metre_unit_maximin(terms, q_ref, lo, hi))
            kept, best = surrogate_min(terms, q_ref, q_m), max(metre, at_ref)
            assert res.success
            assert kept >= best - 1e-12 * abs(best)

    def test_median_support_solves(self, reference_inner_solves):
        # Each pivot tries the old support plus the violated constraint,
        # largest first, and stops at the first optimal one.
        _, supports, _ = reference_inner_solves
        assert np.median(supports) <= 4
        assert max(supports) <= 16

    def test_support_count_is_pinned(self, reference_inner_solves):
        # The pivot path, as a count: a change to which supports the exact
        # solve tries shows here before it shows in a digest.
        _, supports, _ = reference_inner_solves
        assert (len(supports), sum(supports)) == (38, 169)

    def test_supports_match_the_generic_form(self, reference_inner_solves):
        _, _, calls = reference_inner_solves
        for args, out in calls:
            assert repr(out) == repr(generic_support(*args))


GAMMA1 = snr_coeff(0.8, DEFAULT_CONSTANTS.rho0, DEFAULT_CONSTANTS.noise_w)
BOX_LO, BOX_HI = np.array([0.0, 0.0, 100.0]), np.array([1000.0, 1000.0,
                                                       1000.0])


def ring(n, radius, phase=0.0, centre=(500.0, 500.0), altitude=500.0):
    """n hover points evenly on a circle at one altitude."""
    angles = phase + 2.0 * np.pi * np.arange(n) / n
    return np.stack([centre[0] + radius * np.cos(angles),
                     centre[1] + radius * np.sin(angles),
                     np.full(n, altitude)], axis=1)


class TestExactSolveCases:
    """Inputs where a support solve degenerates, each judged against the
    metre-unit SLSQP and a dense grid (assert_exact)."""

    def test_coplanar_centres_at_equal_altitude(self):
        # As under static_suavs: every 4-point support is singular.
        q_n = np.array([[150.0, 200.0, 500.0], [820.0, 260.0, 500.0],
                        [700.0, 880.0, 500.0], [240.0, 760.0, 500.0],
                        [480.0, 430.0, 500.0]])
        res = assert_exact(link_terms(q_n, GAMMA1), Q_REF.array, BOX_LO,
                           BOX_HI)
        assert res.x[2] == 500.0  # the centroid of coplanar centres

    @pytest.mark.parametrize("phase", [0.0, 0.3], ids=["exact", "roundoff"])
    def test_equal_weights(self, phase):
        # Hover points equidistant from the expansion point: the weights w_n
        # are equal, exactly at phase 0 and up to roundoff at 0.3, so the
        # quadratic in lam has no (or a roundoff) leading term.
        q_ref = np.array([500.0, 500.0, 500.0])
        q_n = ring(5, 300.0, phase)
        assert_exact(link_terms(q_n, GAMMA1), q_ref, BOX_LO, BOX_HI)

    def test_largest_root_of_a_roundoff_quadratic(self):
        # With a = 1e-30, the textbook (-b + sqrt(b^2 - 4ac)) / 2a gives 0.
        from uav_mec.placement import _largest_root
        assert _largest_root(1e-30, 2e5, -2e6) == pytest.approx(10.0,
                                                                rel=1e-15)
        assert _largest_root(0.0, 2e5, -2e6) == 10.0
        assert _largest_root(1.0, -5.0, 6.0) == pytest.approx(3.0)
        assert _largest_root(1.0, 0.0, -4.0) == pytest.approx(2.0)

    def test_optimum_on_the_box_floor(self):
        q_n = ring(3, 250.0, 0.4, altitude=500.0)
        lo = np.array([0.0, 0.0, 650.0])
        res = assert_exact(link_terms(q_n, GAMMA1), Q_REF.array, lo, BOX_HI)
        assert res.x[2] == 650.0

    def test_optimum_in_a_box_corner(self):
        q_n = ring(3, 150.0, 0.4, centre=(100.0, 100.0))
        lo = np.array([300.0, 300.0, 650.0])
        res = assert_exact(link_terms(q_n, GAMMA1), Q_REF.array, lo, BOX_HI)
        np.testing.assert_array_equal(res.x, lo)

    def test_pinned_axis(self):
        q_n = np.array([[150.0, 200.0, 420.0], [820.0, 260.0, 610.0],
                        [700.0, 880.0, 530.0]])
        lo, hi = BOX_LO.copy(), BOX_HI.copy()
        lo[2] = hi[2] = 300.0
        res = assert_exact(link_terms(q_n, GAMMA1), Q_REF.array, lo, hi)
        assert res.x[2] == 300.0

    def test_one_transmitting_suav(self):
        # Expanded within 1 m of the S-UAV, as SCA is once it has reached
        # it, the surrogate exceeds the 1 m guard's rate log2(1 + gamma1)
        # there. SLSQP's lam stops at that cap, anywhere within 1 m of the
        # S-UAV; the exact solve returns the S-UAV's own point, where the
        # exact objective is the same.
        sc = make_scenario([(500.0, 500.0)], [(500.0, 500.0)], n0_cap=1)
        terms = placement_terms(static_pools(sc), identity_association(sc),
                                np.array([0]))
        lo, hi = box_of(sc)
        q_ref = Position3D(500.0, 500.0, 500.5)
        t = term_arrays(terms)
        res = assert_exact(terms, q_ref.array, lo, hi)
        np.testing.assert_array_equal(res.x, t.q[0])
        assert res.lam > math.log2(1.0 + t.gamma1[0])
        q_m, uncertified = solve_sp2_2(sc, terms, q_ref)
        np.testing.assert_array_equal(q_m.array, t.q[0])
        assert not uncertified
        slsqp = metre_unit_maximin(terms, q_ref.array, lo, hi)
        assert np.linalg.norm(slsqp - t.q[0]) < 1.0
        assert (exact_objective(terms, q_m.array.tolist())
                == exact_objective(terms, slsqp.tolist()))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0),
                              st.floats(50.0, 1000.0)),
                    min_size=1, max_size=6),
           st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0),
                     st.floats(100.0, 1000.0)),
           st.tuples(st.floats(0.0, 400.0), st.floats(0.0, 400.0),
                     st.floats(100.0, 600.0)),
           st.tuples(st.floats(0.0, 600.0), st.floats(0.0, 600.0),
                     st.floats(0.0, 400.0)))
    def test_no_worse_than_slsqp_or_a_grid(self, q_n, q_ref, lo, span):
        lo = np.array(lo)
        assert_exact(link_terms(q_n, GAMMA1), np.array(q_ref), lo,
                     lo + np.array(span))


class TestBuildOnce:
    def test_placement_terms_once_per_sca_loop(self, monkeypatch, scenario0):
        from uav_mec import placement
        from uav_mec.scenario import repositioned_scenario
        assoc = full_association(scenario0)
        placed = repositioned_scenario(scenario0, assoc.alpha)
        builds = counting(monkeypatch, placement, "placement_terms")
        _, trace, _ = sca_loop(static_pools(placed), assoc,
                               np.zeros(scenario0.n_suavs, dtype=int),
                               Position3D(1000.0, 1000.0, 100.0))
        assert len(trace) > 2  # more than one SCA round
        assert len(builds) == 1


def generic_support(cs, ws, rs):
    """placement._support as first written, on vectors of any length with
    sum() for every dot product: the reference its scalar form must match
    to the bit."""
    def dot(u, v):
        return sum(map(operator.mul, u, v))

    def forward(cols, b):
        x = []
        for col, bj in zip(cols, b):
            x.append((bj - dot(col[:len(x)], x)) / col[len(x)])
        return x

    from uav_mec.placement import _SINGULAR, _largest_root
    c0, w0, r0 = cs[0], ws[0], rs[0]
    us, cols = [], []
    for cn in cs[1:]:
        v = [a - b for a, b in zip(cn, c0)]
        e2 = dot(v, v)
        col = []
        for u in us:
            col.append(dot(u, v))
            v = [a - col[-1] * b for a, b in zip(v, u)]
        rjj = math.sqrt(dot(v, v))
        if rjj * rjj <= _SINGULAR * e2:
            return None
        us.append([a / rjj for a in v])
        cols.append(col + [rjj])
    m = len(cols)
    pts = [[0.0] * m] + [col + [0.0] * (m - len(col)) for col in cols]
    s0 = forward(cols, [0.5 * (dot(p, p) - rn + r0)
                        for p, rn in zip(pts[1:], rs[1:])])
    s1 = forward(cols, [0.5 * (wn - w0) for wn in ws[1:]])
    lam = _largest_root(dot(s1, s1), 2.0 * dot(s0, s1) + w0,
                        dot(s0, s0) - r0)
    if lam is None:
        return None
    s = [a + lam * b for a, b in zip(s0, s1)]
    g = [dot(d, d) + lam * wn - rn for wn, rn, d in zip(
        ws, rs, ([a - b for a, b in zip(s, p)] for p in pts))]
    a0 = forward(cols, [0.5 * (gn - g[0]) for gn in g[1:]])
    deriv = 2.0 * dot(s, s1) + w0
    if deriv != 0.0:
        step = -(g[0] + 2.0 * dot(s, a0)) / deriv
        s = [a + b + step * c for a, b, c in zip(s, a0, s1)]
        lam += step
    q = [x + dot(s, axis) for x, axis in zip(c0, zip(*us))] if us else c0[:]
    t = [0.0] * m
    for j in reversed(range(m)):
        t[j] = (s[j] - sum(cols[k][j] * t[k]
                           for k in range(j + 1, m))) / cols[j][j]
    return q, lam, [1.0 - sum(t)] + t


def numpy_exact_objective(terms, points):
    """The exact objective in NumPy at the rows of points (k, 3)."""
    from uav_mec.cost import floored_rates
    t = term_arrays(terms)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rates = floored_rates(t.q, pts[:, None, :], t.gamma1, t.bandwidth_hz)
    lat = t.tx_bits[None, :] / rates + t.fixed_s[None, :]
    return lat.max(axis=1, initial=0.0)


def numpy_surrogate_rates(terms, q_ref, points):
    """The surrogate's coefficients (a, slope, d2r) at q_ref, and its rates
    at the rows of points (k, 3), in NumPy."""
    t = term_arrays(terms)
    q_ref = np.asarray(q_ref, dtype=float)
    d2r = np.maximum(((t.q - q_ref[None, :]) ** 2).sum(axis=1), 1.0)
    a = t.bandwidth_hz * np.log2(1.0 + t.gamma1 / d2r)
    slope = (t.bandwidth_hz * t.gamma1 * math.log2(math.e)
             / (d2r * (d2r + t.gamma1)))
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d2 = ((pts[:, None, :] - t.q[None, :, :]) ** 2).sum(axis=2)
    return (a, slope, d2r), a[None, :] - slope[None, :] * (d2 - d2r[None, :])


def numpy_start(centres, w, r, lo, hi):
    """minimize's first support, in NumPy."""
    centres, w, r = np.array(centres), np.array(w), np.array(r)
    proj = np.clip(centres, lo, hi)
    single = (r - ((proj - centres) ** 2).sum(axis=1)) / w
    v0 = int(np.argmin(single))
    basis = (v0,) + tuple(len(w) + 2 * i + int(centres[v0, i] > hi[i])
                          for i in range(3) if proj[v0, i] != centres[v0, i])
    return proj[v0].tolist(), float(single[v0]), basis


def numpy_most_violated(centres, w, r, q, lam, basis):
    """minimize's ball scan, in NumPy."""
    from uav_mec.placement import _LAM_TOL
    f = (np.array(r) - ((np.array(centres) - np.array(q)) ** 2).sum(axis=1)
         ) / np.array(w)
    f[[k for k in basis if k < len(w)]] = np.inf
    k = int(np.argmin(f))
    return k if f[k] < lam - _LAM_TOL * max(1.0, abs(lam)) else None


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


COORD = st.floats(-50.0, 1050.0)
POINT = st.tuples(COORD, COORD, st.floats(0.0, 1050.0))


@st.composite
def float_cases(draw):
    """Placement terms of 1-8 rows (a repeated row makes ties), an
    expansion point and points to price; a point may sit within the 1 m
    floor of a row, or on a box face."""
    rows = draw(st.lists(st.tuples(POINT, st.floats(1e6, 1e9),
                                   st.floats(1e3, 1e7), st.floats(0.0, 20.0)),
                         min_size=1, max_size=8))
    if draw(st.booleans()):
        rows.append(rows[0])
    near = st.sampled_from([p for p, *_ in rows]).map(
        lambda p: (p[0] + 0.3, p[1] - 0.2, p[2]))
    points = draw(st.lists(st.one_of(POINT, near, st.just((0.0, -0.0, 100.0))),
                           min_size=1, max_size=4))
    return row_terms(rows), draw(st.one_of(POINT, near)), points


# At 1024 m, 1 + gamma1 / d2 = 2.0029802322387695, whose log2 NumPy and
# math.log2 round apart: the surrogate takes NumPy's, the exact rate
# math.log2's.
LOG2_SPLIT = (row_terms([((0.0, 0.0, 0.0), 1051701.0, 1e6, 0.0)]),
              (0.0, 0.0, 1024.0), [(0.0, 0.0, 1024.0)])


class TestFloatForms:
    """The placement block's per-round arithmetic runs on Python floats. It
    gives the NumPy expressions it replaced, to the bit."""

    @settings(max_examples=200, deadline=None)
    @given(float_cases())
    @example(LOG2_SPLIT)
    def test_exact_objective(self, case):
        terms, _, points = case
        assert bits([exact_objective(terms, p) for p in points]) == \
            bits(numpy_exact_objective(terms, points))

    @settings(max_examples=200, deadline=None)
    @given(float_cases())
    @example(LOG2_SPLIT)
    def test_surrogate_coefficients_and_rates(self, case):
        terms, q_ref, points = case
        coeffs, rates = numpy_surrogate_rates(terms, q_ref, points)
        ours = _surrogate_coeffs(terms, q_ref)
        assert bits(ours) == bits(coeffs)
        assert bits(surrogate_rates(terms, ours, points)) == bits(rates)

    @settings(max_examples=200, deadline=None)
    @given(float_cases(), POINT, st.tuples(st.floats(0.0, 600.0),
                                           st.floats(0.0, 600.0),
                                           st.floats(0.0, 600.0)))
    def test_start_and_ball_scan(self, case, lo, span):
        from uav_mec.placement import (_clip, _inner_problem, _most_violated,
                                       _start)
        terms, q_ref, points = case
        hi = [a + b for a, b in zip(lo, span)]
        lo = list(lo)
        c, w, r = _inner_problem(terms, _surrogate_coeffs(terms, q_ref))
        q, lam, basis = _start(c, w, r, lo, hi)
        q_np, lam_np, basis_np = numpy_start(c, w, r, lo, hi)
        assert (bits(q), bits(lam), basis) == \
            (bits(q_np), bits(lam_np), basis_np)
        for p in points:
            assert bits(_clip(p, lo, hi)) == bits(np.clip(p, lo, hi))
            for skip in ((), basis, tuple(range(len(w)))):
                assert _most_violated(c, w, r, list(p), lam, skip) == \
                    numpy_most_violated(c, w, r, p, lam, skip)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0)),
                    min_size=1, max_size=4, unique=True),
           POINT, st.data())
    def test_exact_objective_is_the_evaluators(self, xy, q, data):
        from uav_mec.cost import evaluate_solution
        sc = make_scenario(xy, xy, n0_cap=len(xy))
        assoc = identity_association(sc)
        beta = np.array(data.draw(st.lists(st.integers(0, 1),
                                           min_size=len(xy),
                                           max_size=len(xy))))
        q = Position3D(*q)
        terms = placement_terms(static_pools(sc), assoc, beta)
        assert exact_objective(terms, q.xyz) == \
            evaluate_solution(sc, assoc, beta, q)[0]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(COORD, COORD, st.floats(50.0, 1000.0)),
                    min_size=1, max_size=4),
           st.lists(st.tuples(st.floats(1e3, 1e8), st.floats(0.0, 1e6)),
                    min_size=4, max_size=4))
    def test_support_matches_the_generic_form(self, cs, wr):
        from uav_mec.placement import _support
        cs = [list(p) for p in cs]
        ws, rs = [w for w, _ in wr[:len(cs)]], [r for _, r in wr[:len(cs)]]
        assert repr(_support(copy.deepcopy(cs), ws, rs)) == \
            repr(generic_support(cs, ws, rs))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0)),
                    min_size=1, max_size=40))
    def test_start_point(self, xy):
        sc = make_scenario(xy, xy)
        lo, hi = sc.ruav.box_lo.array, sc.ruav.box_hi.array
        mean = np.mean([s.current_pos.array[:2] for s in sc.suavs], axis=0)
        q = np.clip(np.array([mean[0], mean[1], 0.5 * (lo[2] + hi[2])]),
                    lo, hi)
        got = default_initial_position(static_pools(sc),
                                       full_association(sc))
        assert repr(got) == repr(Position3D(*q))

    def test_returned_points_hold_numpy_floats(self, scenario0):
        # repr, which the digests hash, tells np.float64 from float.
        from uav_mec.scenario import repositioned_scenario
        assoc = full_association(scenario0)
        placed = repositioned_scenario(scenario0, assoc.alpha)
        beta = np.zeros(scenario0.n_suavs, dtype=int)
        pools = static_pools(placed)
        q, trace, _ = sca_loop(pools, assoc, beta,
                               Position3D(1000.0, 1000.0, 100.0))
        assert len(trace) > 2 and q != Position3D(1000.0, 1000.0, 100.0)
        assert [type(v) for v in q.xyz] == [np.float64] * 3
        assert all(type(v) is float for v in trace)
        terms = placement_terms(pools, assoc, beta)
        q2, _ = solve_sp2_2(placed, terms, q)
        assert [type(v) for v in q2.xyz] == [np.float64] * 3
