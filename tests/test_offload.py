"""Offload decisions: LP construction, relaxation bound, threshold search."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uav_mec.cost import evaluate_solution
from uav_mec.errors import InfeasibleSubproblem
from uav_mec import simplex
from uav_mec.offload import (build_sp1_lp, enumerate_offload, solve_sp1,
                             sp1_terms, _subset_objective)
from uav_mec.oracles import bruteforce_offload
from uav_mec.scenario import (Association, Position3D,
                              feasible_association_mask)

from .conftest import (bits_of, counting, identity_association,
                       make_scenario, sp1_arrays, static_pools)

Q_M = Position3D(500.0, 500.0, 500.0)


def scenario_n(n, n0_cap=None, **kwargs):
    xs = np.linspace(100.0, 900.0, n)
    return make_scenario([(x, 500.0) for x in xs], [(x, 500.0) for x in xs],
                         n0_cap=n0_cap or max(1, n // 2), **kwargs)


class TestLpConstruction:
    def test_n2_shape(self):
        sc = scenario_n(2, n0_cap=2)
        lp = build_sp1_lp(sp1_terms(static_pools(sc),
                                    bits_of(identity_association(sc)), Q_M))
        assert len(lp.c) == 5  # beta x2, xi x2, slack
        assert len(lp.b) == 12  # 2+2+2+2+1+1+2

    def test_xi_constraints_admit_exactly_product(self):
        """Constraints (25)-(27) pin xi_n to beta_n * sum(beta) at binary beta."""
        sc = scenario_n(8, n0_cap=4)
        lp = build_sp1_lp(sp1_terms(static_pools(sc),
                                    bits_of(identity_association(sc)), Q_M))
        n = 8
        xi_rows = lp.a[:3 * n, :]
        xi_rhs = lp.b[:3 * n]
        count = 0
        for m in range(sc.n0_cap + 1):
            for members in itertools.combinations(range(n), m):
                count += 1
                beta = np.zeros(n)
                beta[list(members)] = 1.0
                xi_true = beta * beta.sum()
                x = np.concatenate([beta, xi_true, [0.0]])
                assert np.all(xi_rows @ x <= xi_rhs + 1e-9)
                # Any xi deviating by 0.5 in either direction breaks a row.
                for j in range(n):
                    for delta in (-0.5, 0.5):
                        xi_bad = xi_true.copy()
                        xi_bad[j] += delta
                        if xi_bad[j] < 0:
                            continue
                        x_bad = np.concatenate([beta, xi_bad, [0.0]])
                        assert np.any(xi_rows @ x_bad > xi_rhs + 1e-9)
        assert count == 163

    def test_both_branches_over_budget_raises(self):
        sc = scenario_n(2, n0_cap=2, energy_budget_j=1e-3)
        with pytest.raises(InfeasibleSubproblem):
            build_sp1_lp(sp1_terms(static_pools(sc),
                                   bits_of(identity_association(sc)), Q_M))
        # solve_sp1 builds no LP, so the threshold search must raise too,
        # naming the same S-UAV.
        with pytest.raises(InfeasibleSubproblem, match="S-UAV 0 excludes"):
            solve_sp1(static_pools(sc), bits_of(identity_association(sc)), Q_M)


class TestLinearizedLatency:
    def test_matches_exact_for_all_binary_decisions(self):
        """The xi-linearized latency reproduces the branch latency exactly."""
        sc = scenario_n(8, n0_cap=4)
        assoc = identity_association(sc)
        t = sp1_arrays(sp1_terms(static_pools(sc), bits_of(assoc), Q_M))
        for m in range(sc.n0_cap + 1):
            for members in itertools.combinations(range(8), m):
                beta = np.zeros(8, dtype=int)
                beta[list(members)] = 1
                xi = beta * beta.sum()
                linear = (t.t_loc + t.t_tx_loc
                          + beta * (t.t_tx_off - t.t_loc - t.t_tx_loc)
                          + xi * t.k_ruav)
                exact = [lb.total_s for lb
                         in evaluate_solution(sc, assoc, beta, Q_M)[2]]
                np.testing.assert_allclose(linear, exact, rtol=1e-12)


class TestEnumeration:
    def test_subset_count(self):
        assert sum(len(list(itertools.combinations(range(8), m)))
                   for m in range(5)) == 163

    def test_single_suav_prefers_faster_branch(self):
        sc = scenario_n(1, n0_cap=1)
        t = sp1_terms(static_pools(sc), bits_of(identity_association(sc)), Q_M)
        decision = enumerate_offload(t)
        t = sp1_arrays(t)
        local = t.t_loc[0] + t.t_tx_loc[0]
        off = t.t_tx_off[0] + t.k_ruav[0]
        assert decision.beta[0] == (1 if off < local else 0)
        assert decision.slack_s == pytest.approx(min(local, off))

    def test_largest_local_latencies_offload_first(self):
        # Relay CPU is 10x faster: with distinct chunk sizes the min-max
        # optimum offloads the two largest local workloads.
        sc2 = scenario_n(4, n0_cap=2, chunk_bits=[1e6, 2e6, 3e6, 4e6])
        d2 = enumerate_offload(sp1_terms(
            static_pools(sc2), bits_of(identity_association(sc2)), Q_M))
        assert list(d2.beta) == [0, 0, 1, 1]

    def test_matches_brute_force_objective(self):
        sc = scenario_n(6, n0_cap=3, chunk_bits=[1e6, 2.5e6, 1.7e6,
                                                 3.1e6, 2.2e6, 1.2e6])
        t = sp1_terms(static_pools(sc), bits_of(identity_association(sc)), Q_M)
        decision = enumerate_offload(t)
        best = min(obj for m in range(4)
                   for members in itertools.combinations(range(6), m)
                   if (obj := _subset_objective(t, members)) is not None)
        assert decision.slack_s == pytest.approx(best)


class TestRelaxationBound:
    @pytest.mark.parametrize("seed", range(10))
    def test_lp_below_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        chunks = rng.uniform(1.6e6, 2.5e6, size=6)
        sc = scenario_n(6, n0_cap=3, chunk_bits=chunks)
        t = sp1_terms(static_pools(sc), bits_of(identity_association(sc)), Q_M)
        lp = build_sp1_lp(t)
        _, lower = simplex.solve_lp_arrays(lp.c, lp.a, lp.b, upper=lp.upper)
        decision = enumerate_offload(t)
        assert lower <= decision.slack_s + 1e-6

    def test_solve_sp1_reports_bound(self):
        sc = scenario_n(4, n0_cap=2)
        decision = solve_sp1(static_pools(sc),
                             bits_of(identity_association(sc)), Q_M)
        assert np.isfinite(decision.lp_lower_bound)
        assert decision.lp_lower_bound <= decision.slack_s + 1e-6


@st.composite
def offload_instances(draw):
    """S-UAVs on a line through the relay's nadir (mirror pairs tie on rate)
    with chunk sizes from a short list (more ties); some carry no video. Each
    budget is loose, forces offloading, sits exactly at the local energy, or
    rules out both branches; the relay CPU and budget vary."""
    n = draw(st.integers(1, 7))
    chunks = draw(st.lists(st.sampled_from([1e6, 2e6, 3e6]),
                           min_size=n, max_size=n))
    carries = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    carriers = np.flatnonzero(carries)
    # Target i sits at its monitor's nadir: S-UAV i if it carries video,
    # else one that does.
    owner = [j if carries[j] else carriers[j % carriers.size] for j in range(n)]
    xs = np.linspace(100.0, 900.0, n)
    sc = make_scenario([(x, 500.0) for x in xs],
                       [(xs[j], 500.0) for j in owner],
                       n0_cap=draw(st.integers(1, n)), chunk_bits=chunks,
                       cpu_ruav_hz=draw(st.sampled_from([2e9, 1e10])))
    mask = feasible_association_mask(sc)
    alpha = np.zeros_like(mask)
    alpha[np.arange(n), owner] = 1
    assoc = Association(alpha=alpha, feasible_mask=mask)
    t = sp1_arrays(sp1_terms(static_pools(sc), bits_of(alpha), Q_M))
    budgets = []
    for j in range(n):
        e_loc, e_off = t.e_local[j], t.e_offload[j]
        budgets.append(draw(st.sampled_from([
            1e3, 1e3, e_loc, 0.5 * (e_loc + e_off), 0.5 * min(e_loc, e_off)])))
    relay_full = t.e_ruav[sc.n0_cap - 1].sum()
    relay_budget = draw(st.sampled_from([1e3, 0.1 * relay_full,
                                         0.4 * relay_full, relay_full]))
    sc = replace(sc, suavs=tuple(replace(s, energy_budget_j=float(b))
                                 for s, b in zip(sc.suavs, budgets)),
                 ruav=replace(sc.ruav, energy_budget_j=float(relay_budget)))
    return sc, assoc


class TestThresholdSearch:
    @settings(max_examples=300, deadline=None)
    @given(offload_instances())
    def test_matches_bruteforce_bit_for_bit(self, instance):
        sc, assoc = instance
        try:
            ref_beta, ref_obj = bruteforce_offload(sc, assoc, Q_M)
        except InfeasibleSubproblem:
            with pytest.raises(InfeasibleSubproblem):
                enumerate_offload(sp1_terms(static_pools(sc),
                                            bits_of(assoc), Q_M))
            return
        got = enumerate_offload(sp1_terms(static_pools(sc),
                                          bits_of(assoc), Q_M))
        assert got.slack_s == ref_obj
        assert list(got.beta) == ref_beta.tolist()

    def test_solve_sp1_exact_above_old_enumeration_cap(self):
        # 24 active S-UAVs, more than the 20 that subset enumeration took;
        # the budgets of S-UAVs 3 and 17 admit only the offload branch.
        rng = np.random.default_rng(0)
        sc = scenario_n(24, n0_cap=3, cpu_suav_hz=0.6e9,
                        chunk_bits=rng.uniform(1.6e6, 2.5e6, size=24))
        assoc = identity_association(sc)
        bits = bits_of(assoc)
        t = sp1_arrays(sp1_terms(static_pools(sc), bits, Q_M))
        mid = 0.5 * (t.e_local + t.e_offload)
        sc = replace(sc, suavs=tuple(
            replace(s, energy_budget_j=float(mid[s.id])) if s.id in (3, 17)
            else s for s in sc.suavs))
        got = solve_sp1(static_pools(sc), bits, Q_M)
        ref_beta, ref_obj = bruteforce_offload(sc, assoc, Q_M)
        assert [got.beta[3], got.beta[17]] == [1, 1]
        assert got.slack_s == ref_obj
        assert list(got.beta) == ref_beta.tolist()

    def test_prices_at_most_cap_plus_one_subsets(self, monkeypatch):
        from uav_mec import offload
        rng = np.random.default_rng(5)
        sc = scenario_n(8, n0_cap=4,
                        chunk_bits=rng.uniform(1.6e6, 2.5e6, size=8))
        priced = counting(monkeypatch, offload, "_subset_objective")
        enumerate_offload(sp1_terms(static_pools(sc),
                                    bits_of(identity_association(sc)), Q_M))
        # 163 subsets within the cap; the search prices one per prefix.
        assert len(priced) <= sc.n0_cap + 1

    def test_cap_respected(self):
        sc = scenario_n(8, n0_cap=2)
        decision = solve_sp1(static_pools(sc),
                             bits_of(identity_association(sc)), Q_M)
        assert sum(decision.beta) <= 2


class TestBuildOnce:
    def test_sp1_terms_once_per_solve_sp1(self, monkeypatch):
        from uav_mec import offload
        sc = scenario_n(4)
        builds = counting(monkeypatch, offload, "sp1_terms")
        lp_builds = counting(monkeypatch, offload, "build_sp1_lp")
        lp_solves = counting(monkeypatch, simplex, "solve_lp_arrays")
        searches = counting(monkeypatch, offload, "enumerate_offload")
        decision = solve_sp1(static_pools(sc),
                             bits_of(identity_association(sc)), Q_M)
        assert len(builds) == len(searches) == 1  # still module lookups
        assert len(lp_builds) == len(lp_solves) == 0
        # The first read builds and solves the LP on the kept terms; later
        # reads are cached.
        assert np.isfinite(decision.lp_lower_bound)
        assert len(lp_builds) == len(lp_solves) == 1
        decision.lp_lower_bound
        assert len(builds) == 1
        assert len(lp_builds) == len(lp_solves) == 1

    @pytest.mark.parametrize("rule", ["solve_sp1", "forced_offload"])
    def test_two_budget_tests_per_carrier(self, monkeypatch, rule):
        # Neither branch's budget test depends on the offloader count, so a
        # call tests each carrier's two branches once, however many
        # candidates it prices, and no idle S-UAV's.
        from uav_mec import offload
        from uav_mec.cost import BranchPrice
        owner = [0, 0, 2, 3, 3, 5, 6, 7]  # S-UAVs 1 and 4 idle
        xs = np.linspace(100.0, 900.0, 8)
        sc = make_scenario([(x, 500.0) for x in xs],
                           [(xs[j], 500.0) for j in owner], n0_cap=4,
                           chunk_bits=np.random.default_rng(5).uniform(
                               1.6e6, 2.5e6, size=8))
        mask = feasible_association_mask(sc)
        alpha = np.zeros_like(mask)
        alpha[np.arange(8), owner] = 1
        bits = bits_of(alpha)
        # A relay budget that the full cap breaks: forced_offload then
        # prices shorter prefixes too.
        full = sp1_arrays(sp1_terms(static_pools(sc), bits, Q_M)).e_ruav
        sc = replace(sc, ruav=replace(
            sc.ruav, energy_budget_j=float(0.4 * full[-1].sum())))
        tests = counting(monkeypatch, BranchPrice, "fits")
        priced = counting(monkeypatch, offload, "_subset_objective")
        getattr(offload, rule)(static_pools(sc), bits, Q_M)
        assert len(priced) > 1
        assert len(tests) <= 2 * len(set(owner))
