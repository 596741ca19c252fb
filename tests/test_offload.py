"""Offload decisions: LP construction, relaxation bound, enumeration, rounding."""

import itertools

import numpy as np
import pytest

from uav_mec.cost import total_latency
from uav_mec.errors import InfeasibleSubproblem
from uav_mec.offload import (build_sp1_lp, enumerate_offload, round_offload,
                             solve_lp, solve_sp1, sp1_terms, _subset_objective)
from uav_mec.scenario import Position3D

from .conftest import counting, identity_association, make_scenario

Q_M = Position3D(500.0, 500.0, 500.0)


def scenario_n(n, n0_cap=None, **kwargs):
    xs = np.linspace(100.0, 900.0, n)
    return make_scenario([(x, 500.0) for x in xs], [(x, 500.0) for x in xs],
                         n0_cap=n0_cap or max(1, n // 2), **kwargs)


class TestLpConstruction:
    def test_n2_shape(self):
        sc = scenario_n(2, n0_cap=2)
        lp = build_sp1_lp(sc, identity_association(sc), Q_M)
        assert len(lp.c) == 5  # beta x2, xi x2, slack
        assert len(lp.b) == 12  # 2+2+2+2+1+1+2

    def test_xi_constraints_admit_exactly_product(self):
        """Constraints (25)-(27) pin xi_n to beta_n * sum(beta) at binary beta."""
        sc = scenario_n(8, n0_cap=4)
        lp = build_sp1_lp(sc, identity_association(sc), Q_M)
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
            build_sp1_lp(sc, identity_association(sc), Q_M)


class TestLinearizedLatency:
    def test_matches_exact_for_all_binary_decisions(self):
        """The xi-linearized latency reproduces the branch latency exactly."""
        sc = scenario_n(8, n0_cap=4)
        assoc = identity_association(sc)
        t = sp1_terms(sc, assoc, Q_M)
        for m in range(sc.n0_cap + 1):
            for members in itertools.combinations(range(8), m):
                beta = np.zeros(8, dtype=int)
                beta[list(members)] = 1
                xi = beta * beta.sum()
                linear = (t.t_loc + t.t_tx_loc
                          + beta * (t.t_tx_off - t.t_loc - t.t_tx_loc)
                          + xi * t.k_ruav)
                exact = [lb.total_s
                         for lb in total_latency(sc, assoc, beta, Q_M)]
                np.testing.assert_allclose(linear, exact, rtol=1e-12)


class TestEnumeration:
    def test_subset_count(self):
        assert sum(len(list(itertools.combinations(range(8), m)))
                   for m in range(5)) == 163

    def test_single_suav_prefers_faster_branch(self):
        sc = scenario_n(1, n0_cap=1)
        assoc = identity_association(sc)
        decision = enumerate_offload(sc, assoc, Q_M)
        t = sp1_terms(sc, assoc, Q_M)
        local = t.t_loc[0] + t.t_tx_loc[0]
        off = t.t_tx_off[0] + t.k_ruav[0]
        assert decision.beta[0] == (1 if off < local else 0)
        assert decision.slack_s == pytest.approx(min(local, off))

    def test_largest_local_latencies_offload_first(self):
        # Relay CPU is 10x faster: with distinct chunk sizes the min-max
        # optimum offloads the two largest local workloads.
        sc2 = scenario_n(4, n0_cap=2, chunk_bits=[1e6, 2e6, 3e6, 4e6])
        d2 = enumerate_offload(sc2, identity_association(sc2), Q_M)
        assert list(d2.beta) == [0, 0, 1, 1]

    def test_matches_brute_force_objective(self):
        sc = scenario_n(6, n0_cap=3, chunk_bits=[1e6, 2.5e6, 1.7e6,
                                                 3.1e6, 2.2e6, 1.2e6])
        assoc = identity_association(sc)
        decision = enumerate_offload(sc, assoc, Q_M)
        t = sp1_terms(sc, assoc, Q_M)
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
        assoc = identity_association(sc)
        lp = build_sp1_lp(sc, assoc, Q_M)
        _, lower = solve_lp(lp)
        decision = enumerate_offload(sc, assoc, Q_M)
        assert lower <= decision.slack_s + 1e-6

    def test_solve_sp1_reports_bound(self):
        sc = scenario_n(4, n0_cap=2)
        decision = solve_sp1(sc, identity_association(sc), Q_M)
        assert np.isfinite(decision.lp_lower_bound)
        assert decision.lp_lower_bound <= decision.slack_s + 1e-6
        assert not decision.relaxed


class TestRounding:
    def test_greedy_never_beats_enumeration(self):
        rng = np.random.default_rng(5)
        chunks = rng.uniform(1.6e6, 2.5e6, size=8)
        sc = scenario_n(8, n0_cap=4, chunk_bits=chunks)
        assoc = identity_association(sc)
        exact = enumerate_offload(sc, assoc, Q_M)
        # Feed the rounding path a fractional vector directly.
        frac = rng.uniform(0.0, 1.0, size=17)
        rounded = round_offload(frac, sc, assoc, Q_M)
        assert rounded.slack_s >= exact.slack_s - 1e-12

    def test_cap_respected(self):
        sc = scenario_n(8, n0_cap=2)
        decision = solve_sp1(sc, identity_association(sc), Q_M)
        assert decision.beta.sum() <= 2


class TestBuildOnce:
    def test_sp1_terms_once_per_solve_sp1(self, monkeypatch):
        from uav_mec import offload
        sc = scenario_n(4)
        builds = counting(monkeypatch, offload, "sp1_terms")
        lp_builds = counting(monkeypatch, offload, "build_sp1_lp")
        searches = counting(monkeypatch, offload, "enumerate_offload")
        solve_sp1(sc, identity_association(sc), Q_M)
        assert len(builds) == 1
        assert len(lp_builds) == len(searches) == 1  # still module lookups
