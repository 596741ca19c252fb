"""Latency and energy bookkeeping against hand-evaluated references, and
the blocks' pricing against the evaluator."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uav_mec.association import Pools, _alpha, _Context
from uav_mec.config import ExperimentConfig
from uav_mec.cost import (LatencyBreakdown, branch_price,
                          effective_chunk_bits, evaluate_solution,
                          floored_rate, objective_and_spread, plan_prices,
                          price_table, suav_prices)
from uav_mec.errors import InfeasibleSubproblem, InvalidDecision
from uav_mec.experiment import chunked_metrics
from uav_mec.link import rate_at_dist_sq, snr_coeff
from uav_mec.offload import _subset_objective, sp1_terms
from uav_mec.placement import exact_objective, placement_terms
from uav_mec.scenario import (Association, Position3D,
                              feasible_association_mask, generate_scenario,
                              repositioned_scenario)

from .conftest import (DEFAULT_CONSTANTS, bits_of, full_association,
                       make_scenario)

S_250KB = 2_048_000.0  # 250 KB in bits
Q_M = Position3D(500.0, 500.0, 500.0)


def two_suav_scenario(**kwargs):
    return make_scenario([(250.0, 500.0), (750.0, 500.0)],
                         [(250.0, 500.0), (750.0, 500.0)],
                         chunk_bits=[S_250KB, S_250KB], n0_cap=2, **kwargs)


def link_rate(sc, j=0):
    suav = sc.suavs[j]
    gamma1 = snr_coeff(suav.tx_power_w, sc.constants.rho0, sc.constants.noise_w)
    d2 = float(((suav.current_pos.array - Q_M.array) ** 2).sum())
    return rate_at_dist_sq(d2, sc.constants.bandwidth_hz, gamma1)


_COORD = st.floats(0.0, 1000.0)
# Offsets under 1 m put the two points inside the distance floor.
_OFFSET = st.one_of(st.floats(-0.57, 0.57), st.floats(-1000.0, 1000.0))


class TestFlooredRate:
    @settings(max_examples=500, deadline=None)
    @given(_COORD, _COORD, _COORD, _OFFSET, _OFFSET, _OFFSET)
    def test_float_sum_matches_numpy_bit_for_bit(self, x, y, h, dx, dy, dz):
        sc = two_suav_scenario()
        p = Position3D(x, y, h)
        q = Position3D(x + dx, y + dy, abs(h + dz))
        gamma1 = snr_coeff(sc.suavs[0].tx_power_w, sc.constants.rho0,
                        sc.constants.noise_w)
        d2 = max(float(((p.array - q.array) ** 2).sum()), 1.0)
        assert floored_rate(p.xyz, q.xyz, gamma1,
                            sc.constants.bandwidth_hz) == \
            rate_at_dist_sq(d2, sc.constants.bandwidth_hz, gamma1)


class TestLocalPath:
    def test_zero_chunk(self):
        sc = two_suav_scenario()
        price = branch_price(sc, 0, 0.0, False, 0)
        assert price[:4] == (0.0, 0.0, 0.0, 0.0)
        assert price.latency(link_rate(sc)) == 0.0

    def test_compute_time_250kb(self):
        sc = two_suav_scenario()
        assert branch_price(sc, 0, S_250KB, False, 0).fixed_s == \
            pytest.approx(10.24)

    def test_tx_linear_in_mu(self):
        full = two_suav_scenario(mu=0.2)
        half = two_suav_scenario(mu=0.1)
        beta = np.zeros(2, dtype=int)
        tx_full = evaluate_solution(full, full_association(full), beta,
                                    Q_M)[2][0]
        tx_half = evaluate_solution(half, full_association(half), beta,
                                    Q_M)[2][0]
        assert tx_full.local_tx_s == pytest.approx(2.0 * tx_half.local_tx_s)

    def test_tx_matches_rate(self):
        sc = two_suav_scenario()
        lats = evaluate_solution(sc, full_association(sc),
                                 np.zeros(2, dtype=int), Q_M)[2]
        assert lats[0].local_tx_s == pytest.approx(
            sc.suavs[0].compress_ratio * S_250KB / link_rate(sc))


class TestOffloadPath:
    def test_single_offloader_compute(self):
        sc = two_suav_scenario()
        price = branch_price(sc, 0, S_250KB, True, 1)
        assert price.fixed_s == pytest.approx(1.024)
        assert price.tx_bits == S_250KB  # raw chunk

    def test_fair_share_doubles(self):
        sc = two_suav_scenario()
        one = branch_price(sc, 0, S_250KB, True, 1)
        two = branch_price(sc, 0, S_250KB, True, 2)
        assert two.fixed_s == pytest.approx(2.0 * one.fixed_s)
        assert two.relay_j == pytest.approx(2.0 * one.relay_j)

    def test_needs_offloaders(self):
        sc = two_suav_scenario()
        with pytest.raises(InvalidDecision):
            branch_price(sc, 0, S_250KB, True, 0)


class TestTotalLatency:
    def test_all_local_totals(self):
        sc = two_suav_scenario()
        assoc = full_association(sc)
        lats = evaluate_solution(sc, assoc, np.zeros(2, dtype=int), Q_M)[2]
        for j, lb in enumerate(lats):
            price = branch_price(sc, j, S_250KB, False, 0)
            assert lb.total_s == pytest.approx(price.latency(link_rate(sc, j)))
            assert lb.local_compute_s == price.fixed_s
            assert not lb.offloaded and lb.active

    def test_offloaded_total(self):
        sc = two_suav_scenario()
        assoc = full_association(sc)
        lats = evaluate_solution(sc, assoc, np.array([1, 0]), Q_M)[2]
        price = branch_price(sc, 0, S_250KB, True, 1)
        assert lats[0].total_s == pytest.approx(price.latency(link_rate(sc)))
        assert lats[0].ruav_compute_s == price.fixed_s
        assert lats[0].offloaded

    def test_cap_enforced(self):
        sc = make_scenario([(250.0, 500.0), (750.0, 500.0)],
                           [(250.0, 500.0), (750.0, 500.0)], n0_cap=1)
        assoc = full_association(sc)
        with pytest.raises(InvalidDecision):
            evaluate_solution(sc, assoc, np.array([1, 1]), Q_M)

    def test_inactive_suav_zero(self):
        sc = two_suav_scenario()
        mask = np.ones((2, 2), dtype=np.int8)
        alpha = np.array([[1, 0], [1, 0]], dtype=np.int8)  # S-UAV 1 idle
        assoc = Association(alpha=alpha, feasible_mask=mask)
        lats = evaluate_solution(sc, assoc, np.zeros(2, dtype=int), Q_M)[2]
        assert not lats[1].active
        assert lats[1].total_s == 0.0


class TestEnergy:
    def energies(self, beta):
        sc = two_suav_scenario()
        return sc, evaluate_solution(sc, full_association(sc), np.array(beta),
                                     Q_M)[3]

    def test_local_compute_energy(self):
        # zeta * f_n^2 * S * f_0 = 1e-28 * (2e8)^2 * 2.048e6 * 1000
        sc, energies = self.energies([0, 0])
        assert energies[0].comp_j == pytest.approx(8.192e-3, rel=1e-9)
        assert branch_price(sc, 0, S_250KB, False, 0).comp_j == \
            energies[0].comp_j

    def test_offloader_has_no_compute_energy(self):
        _, energies = self.energies([1, 0])
        assert energies[0].comp_j == 0.0
        assert energies[0].comm_j > 0.0

    def test_comm_energy_is_power_times_time(self):
        sc, energies = self.energies([0, 0])
        lats = evaluate_solution(sc, full_association(sc),
                                 np.zeros(2, dtype=int), Q_M)[2]
        assert energies[0].comm_j == pytest.approx(
            sc.suavs[0].tx_power_w * lats[0].local_tx_s)

    def test_ruav_energy_all_local_zero(self):
        _, energies = self.energies([0, 0])
        assert energies[-1].comp_j == 0.0

    def test_ruav_energy_single_offloader(self):
        sc, energies = self.energies([1, 0])
        c = sc.constants
        assert energies[-1].comp_j == pytest.approx(
            sc.ruav.cpu_hz**2 * c.zeta * c.f0_cycles_per_bit * S_250KB)

    def test_ruav_energy_two_offloaders_fair_share(self):
        sc, energies = self.energies([1, 1])
        c = sc.constants
        per = 2.0 * sc.ruav.cpu_hz**2 * c.zeta * c.f0_cycles_per_bit * S_250KB
        assert energies[-1].comp_j == pytest.approx(2.0 * per)

    def test_all_energies_layout(self):
        _, energies = self.energies([0, 0])
        assert len(energies) == 3
        assert energies[-1].owner == "ruav"


class TestObjectiveAndSpread:
    def make(self, totals):
        return [LatencyBreakdown(suav_id=i, local_compute_s=0, local_tx_s=0,
                                 offload_tx_s=0, ruav_compute_s=0, total_s=t,
                                 offloaded=False, active=True)
                for i, t in enumerate(totals)]

    def test_identical_totals(self):
        assert objective_and_spread(self.make([2.0, 2.0, 2.0])) == (2.0, 0.0)

    def test_population_stddev(self):
        assert objective_and_spread(self.make([1.0, 3.0])) == (3.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=8))
    def test_permutation_invariant(self, totals):
        a = objective_and_spread(self.make(totals))
        b = objective_and_spread(self.make(list(reversed(totals))))
        assert a == pytest.approx(b)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            objective_and_spread([])


class TestEffectiveChunkBits:
    def test_unmonitored_suav_carries_nothing(self):
        sc = two_suav_scenario()
        alpha = np.array([[1, 0], [1, 0]], dtype=np.int8)
        bits = effective_chunk_bits(sc, alpha)
        assert bits[0] == S_250KB and bits[1] == 0.0


class TestEvaluateSolution:
    def test_term_by_term_recomputation(self, scenario0):
        from uav_mec.scenario import repositioned_scenario
        assoc = full_association(scenario0)
        placed = repositioned_scenario(scenario0, assoc.alpha)
        beta = np.zeros(scenario0.n_suavs, dtype=int)
        beta[:2] = 1
        q = Position3D(480.0, 520.0, 300.0)
        objective, spread, lats, energies = evaluate_solution(
            placed, assoc, beta, q)
        # Independent recomputation from the raw equations.
        c = placed.constants
        totals = []
        for j, suav in enumerate(placed.suavs):
            s = float(effective_chunk_bits(placed, assoc.alpha)[j])
            if s == 0.0:
                continue
            gamma1 = snr_coeff(suav.tx_power_w, c.rho0, c.noise_w)
            d2 = float(((suav.current_pos.array - q.array) ** 2).sum())
            r = rate_at_dist_sq(d2, c.bandwidth_hz, gamma1)
            if beta[j]:
                totals.append(s / r + s * c.f0_cycles_per_bit * 2 / placed.ruav.cpu_hz)
            else:
                totals.append(s * c.f0_cycles_per_bit / suav.cpu_hz
                              + suav.compress_ratio * s / r)
        assert objective == pytest.approx(max(totals), rel=1e-12)
        assert spread == pytest.approx(float(np.array(totals).std()), rel=1e-9)


@st.composite
def priced_points(draw, breaking_hover=False):
    """A small scenario with a random association, capped offload subset,
    non-empty in most examples, and relay position at least 1 m from every
    S-UAV. Each S-UAV and the relay hover at a nonzero cost. Every budget,
    each S-UAV's and the relay's, is its owner's hover plus 0.5, 1 or 2
    times its execution energy at the point, so that budgets bind, exactly
    at 1, on active and idle S-UAVs (an idle one's budget is its hover),
    and the relay's fair share and budget decide offload subsets, while no
    hover alone breaks its budget. With breaking_hover, a drawn non-empty
    set of owners (S-UAVs by index, then the relay) instead gets half its
    hover as its budget."""
    n = draw(st.integers(1, 4))
    cfg = replace(ExperimentConfig(), n_suavs=n,
                  n_targets=draw(st.integers(n, 6)), n_chunks=1,
                  n0_cap=draw(st.sampled_from(range(n, 0, -1))),
                  hover_energy_suav_j=draw(st.floats(1e-3, 0.1)),
                  hover_energy_ruav_j=draw(st.floats(1e-3, 0.1)))
    sc = generate_scenario(cfg, draw(st.integers(0, 10_000)))
    mask = feasible_association_mask(sc)
    alpha = np.zeros_like(mask)
    for i in range(sc.n_targets):
        alpha[i, draw(st.sampled_from(np.flatnonzero(mask[i]).tolist()))] = 1
    # Caps and subset sizes are drawn largest first and the empty subset
    # seldom, so that several offloaders share the relay in many examples.
    size = draw(st.sampled_from([*range(sc.n0_cap, 0, -1)] * 4 + [0]))
    members = tuple(sorted(draw(st.permutations(range(n)))[:size]))
    lo, hi = sc.ruav.box_lo.array, sc.ruav.box_hi.array
    q = Position3D(*(draw(st.floats(lo[k], hi[k])) for k in range(3)))
    placed = repositioned_scenario(sc, alpha)
    assume(all(((s.current_pos.array - q.array) ** 2).sum() >= 1.0
               for s in placed.suavs))
    assoc = Association(alpha=alpha, feasible_mask=mask)
    beta = np.zeros(n, dtype=int)
    beta[list(members)] = 1
    energies = evaluate_solution(placed, assoc, beta, q)[3]
    # Scale 0.5 breaks a budget; drawn less often, so that more points are
    # feasible and every block's price of them is compared.
    scales = draw(st.lists(st.sampled_from([1.0, 2.0] * 2 + [0.5]),
                           min_size=n + 1, max_size=n + 1))
    budgets = [e.hover_j + scale * (e.comm_j + e.comp_j)
               for e, scale in zip(energies, scales)]
    if breaking_hover:
        for k in draw(st.sets(st.integers(0, n), min_size=1)):
            budgets[k] = 0.5 * energies[k].hover_j
    sc = replace(sc, suavs=tuple(
        replace(s, energy_budget_j=budget)
        for s, budget in zip(sc.suavs, budgets)), ruav=replace(
        sc.ruav, energy_budget_j=budgets[-1]))
    return sc, repositioned_scenario(sc, alpha), assoc, members, q


class TestRelayEntry:
    """The evaluator prices each S-UAV's branch once, and no association
    result breaks the relay budget, although the association guard does not
    price the relay."""

    def test_one_branch_price_per_suav(self, monkeypatch, scenario0):
        from uav_mec import cost

        from .conftest import counting
        assoc = full_association(scenario0)
        placed = repositioned_scenario(scenario0, assoc.alpha)
        beta = np.zeros(scenario0.n_suavs, dtype=int)
        beta[:scenario0.n0_cap] = 1
        prices = counting(monkeypatch, cost, "branch_price")
        evaluate_solution(placed, assoc, beta, Q_M)
        assert len(prices) == scenario0.n_suavs

    @pytest.mark.parametrize("budget_j", [5.0, 2.0])
    def test_association_results_keep_the_relay_budget(
            self, monkeypatch, default_config, budget_j):
        # 8 x 16 at caps 2-8 with a relay budget that binds (5 J is
        # relay_sweep's). Alpha moves the relay's energy only by which
        # offloaders carry video, and every beta was priced with all of its
        # members carrying video, so no association result can break it.
        from uav_mec import association
        from uav_mec.orchestrator import SCHEMES, check_constraints, run_scheme
        results = []
        real = association.solve_association

        def wrapper(pools, beta, q_m, **kwargs):
            out = real(pools, beta, q_m, **kwargs)
            results.append((pools, beta, q_m, out[0]))
            return out
        monkeypatch.setattr(association, "solve_association", wrapper)
        cut = 0  # ruav_only solves the relay budget kept under the cap
        for cap in range(2, 9):
            cfg = replace(default_config, n_targets=16, n0_cap=cap,
                          energy_budget_ruav_j=budget_j)
            for seed in range(2):
                sc = generate_scenario(cfg, seed)
                mask = feasible_association_mask(sc)
                for scheme in SCHEMES:
                    report = run_scheme(sc, scheme)
                    assert check_constraints(
                        sc, Association(alpha=report.alpha, feasible_mask=mask),
                        report.beta, report.q_m,
                        static_positions=(scheme == "static_suavs")) == [], \
                        (cap, seed, scheme)
                    active = int((report.alpha.sum(axis=0) > 0).sum())
                    cut += (scheme == "ruav_only"
                            and report.beta.sum() < min(cap, active))
        for pools, beta, q_m, bits in results:
            sc = pools.scenario
            assoc = Association(_alpha(pools.mask, bits), pools.mask)
            placed = (sc if pools.static_positions
                      else repositioned_scenario(sc, assoc.alpha))
            relay = evaluate_solution(placed, assoc, beta, q_m)[3][-1]
            assert relay.total_j <= sc.ruav.energy_budget_j
        assert results and cut


def hover_breaks(sc) -> bool:
    """Whether an S-UAV's or the relay's hover alone breaks its budget."""
    return any(uav.hover_energy_j > uav.energy_budget_j
               for uav in (*sc.suavs, sc.ruav))


class TestCrossBlockPricing:
    """Every block prices a point exactly like the evaluator."""

    @settings(max_examples=60, deadline=None)
    @given(priced_points())
    def test_blocks_agree_with_evaluate_solution(self, point):
        sc, placed, assoc, members, q = point
        # A breaking hover would stop the price table before any block
        # prices the point (test_a_breaking_hover_stops_the_table).
        assert not hover_breaks(sc)
        pools = Pools(sc)
        beta = np.zeros(sc.n_suavs, dtype=int)
        beta[list(members)] = 1
        objective, spread, lats, energies = evaluate_solution(
            placed, assoc, beta, q)
        suav_ok = [e.total_j <= s.energy_budget_j
                   for e, s in zip(energies, sc.suavs)]
        feasible = all(suav_ok) and \
            energies[-1].total_j <= sc.ruav.energy_budget_j

        # improve takes the threshold search's price as the plan's objective
        # with no re-pricing, so it must be the evaluator's to the bit.
        subset = _subset_objective(sp1_terms(pools, bits_of(assoc), q),
                                   members)
        assert (subset is not None) == feasible
        assert subset is None or subset == objective

        # No rate keeps the budget of an S-UAV that carries video and whose
        # compute and hover spend it.
        if any(e.comp_j + e.hover_j >= s.energy_budget_j
               for lb, e, s in zip(lats, energies, sc.suavs) if lb.active):
            with pytest.raises(InfeasibleSubproblem,
                               match="no energy headroom"):
                placement_terms(pools, bits_of(assoc), beta)
        else:
            terms = placement_terms(pools, bits_of(assoc), beta)
            assert exact_objective(terms, q.array.tolist()) == objective

        ctx = _Context(pools, beta, q)
        for j, lb in enumerate(lats):
            bits = sum(1 << int(i) for i in np.flatnonzero(assoc.alpha[:, j]))
            latency, ok = ctx.latency(j, bits)
            assert latency == lb.total_s
            assert ok == suav_ok[j]

        chunked = chunked_metrics(pools, bits_of(assoc), beta, q, 1)
        exec_j = sum(e.comm_j + e.comp_j for e in energies[:-1])
        assert chunked == (objective, spread, exec_j, energies[-1].comp_j)

    @settings(max_examples=60, deadline=None)
    @given(priced_points(breaking_hover=True))
    def test_a_breaking_hover_stops_the_table(self, point):
        # A hover that alone breaks its budget breaks it in every plan:
        # the price table, which Pools builds first in every solve, raises
        # on the first such owner, so no block prices the draw.
        sc = point[0]
        assert hover_breaks(sc)
        owners = [(f"S-UAV {s.id}", s) for s in sc.suavs]
        owner = next(name for name, uav in owners + [("the relay", sc.ruav)]
                     if uav.hover_energy_j > uav.energy_budget_j)
        with pytest.raises(InfeasibleSubproblem, match=(
                f"^{owner}'s hover alone breaks its energy budget$")):
            price_table(sc)

    @settings(max_examples=60, deadline=None)
    @given(priced_points(), st.sampled_from([0.5, 1.0, 2.0]))
    def test_constraint_checker_agrees_on_every_budget(self, point,
                                                       relay_scale):
        # check_constraints prices energy on its own, with a 1e-9 J slack;
        # every budget, the relay's too, binds at 0.5, 1 or 2 times the
        # spend.
        from uav_mec.orchestrator import check_constraints
        sc, placed, assoc, members, q = point
        beta = np.zeros(sc.n_suavs, dtype=int)
        beta[list(members)] = 1
        energies = evaluate_solution(placed, assoc, beta, q)[3]
        sc = replace(sc, ruav=replace(
            sc.ruav, energy_budget_j=relay_scale * energies[-1].total_j))
        violations = check_constraints(sc, assoc, beta, q)
        for e, s in zip(energies, sc.suavs):
            assert (f"S-UAV {s.id} energy budget exceeded" in violations) == \
                (e.total_j > s.energy_budget_j)
        assert ("relay energy budget exceeded" in violations) == \
            (energies[-1].total_j > sc.ruav.energy_budget_j)


@st.composite
def solve_steps(draw):
    """A small scenario and three block calls of one solve: an association
    (the second call's is the first's half of the time, so the set of
    video-carrying S-UAVs often repeats), an offload decision within the
    cap and a relay point each. Every S-UAV's footprint holds every target,
    so that any of them may idle. Budgets are wide, so every call prices."""
    spot = st.tuples(st.floats(420.0, 580.0), st.floats(420.0, 580.0))
    suav_xy = draw(st.lists(spot, min_size=1, max_size=4))
    n = len(suav_xy)
    sc = make_scenario(
        suav_xy, draw(st.lists(spot, min_size=n, max_size=7)),
        chunk_bits=draw(st.lists(st.floats(1e6, 3e6), min_size=n,
                                 max_size=n)),
        n0_cap=draw(st.integers(1, n)))
    mask = feasible_association_mask(sc)
    steps = []
    for _ in range(3):
        if steps and draw(st.booleans()):
            assoc = steps[-1][0]
        else:
            alpha = np.zeros_like(mask)
            for i in range(sc.n_targets):
                alpha[i, draw(st.sampled_from(
                    np.flatnonzero(mask[i]).tolist()))] = 1
            assoc = Association(alpha=alpha, feasible_mask=mask)
        members = draw(st.permutations(range(n)))[:draw(
            st.integers(0, sc.n0_cap))]
        beta = np.zeros(n, dtype=int)
        beta[members] = 1
        q = Position3D(draw(st.floats(0.0, 1000.0)),
                       draw(st.floats(0.0, 1000.0)),
                       draw(st.floats(100.0, 1000.0)))
        steps.append((assoc, beta, q))
    return sc, steps


@st.composite
def priced_table(draw, max_n=4):
    """A scenario of 1 to max_n S-UAVs with mixed parameters and physical
    constants."""
    n = draw(st.integers(1, max_n))
    constants = replace(DEFAULT_CONSTANTS,
                        f0_cycles_per_bit=draw(st.floats(1.0, 1e4)),
                        zeta=draw(st.floats(1e-30, 1e-26)))
    return make_scenario(
        [(100.0 * j, 500.0) for j in range(n)],
        [(100.0 * j, 500.0) for j in range(n)],
        chunk_bits=draw(st.lists(st.floats(1e3, 5e6), min_size=n,
                                 max_size=n)),
        cpu_suav_hz=draw(st.floats(1e8, 1e9)),
        cpu_ruav_hz=draw(st.floats(1e9, 1e10)),
        tx_power_w=draw(st.floats(0.1, 2.0)), mu=draw(st.floats(0.01, 0.9)),
        energy_budget_j=draw(st.floats(1.0, 1e3)), constants=constants,
        n0_cap=draw(st.integers(1, n)))


class TestPerSolveTables:
    """What one solve's Pools keeps, read back later in the solve, is what
    building it afresh gives, to the bit."""

    @settings(max_examples=60, deadline=None)
    @given(solve_steps())
    def test_placed_scenarios_and_hover_points(self, case):
        from uav_mec.scenario import reposition
        sc, steps = case
        pools = Pools(sc)
        for assoc, _, _ in steps + steps:  # the second pass reads the memo
            placed = repositioned_scenario(sc, assoc.alpha)
            for j, bits in enumerate(bits_of(assoc)):
                held = [sc.targets[i] for i in range(sc.n_targets)
                        if bits >> i & 1]
                assert held == [sc.targets[i] for i in
                                np.flatnonzero(assoc.alpha[:, j])]
                point = pools.hover_point(j, bits)
                assert point == reposition(sc.suavs[j], held).xyz
                assert point == placed.suavs[j].current_pos.xyz

    @settings(max_examples=60, deadline=None)
    @given(priced_table(max_n=8))
    def test_table_entries_are_branch_prices(self, sc):
        # price_table builds each S-UAV's local record once and its offload
        # records from it, at caps 1-8: each must be branch_price's to the
        # bit (repr tells np.float64 from float).
        table = Pools(sc).prices
        assert len(table) == sc.n_suavs
        for j, (suav, row) in enumerate(zip(sc.suavs, table)):
            assert repr(row) == repr([
                branch_price(sc, j, suav.chunk_bits, m > 0, m)
                for m in range(sc.n0_cap + 1)])

    @settings(max_examples=40, deadline=None)
    @given(priced_table())
    def test_gather_is_suav_prices(self, sc):
        # Every beta and every set of video-carrying S-UAVs: within the cap
        # the gather gives each carrier the evaluator's record, to the bit
        # (repr tells -0.0 from 0.0 and np.float64 from float); past it, it
        # raises. No block reads an idle S-UAV's record.
        n, table = sc.n_suavs, price_table(sc)
        for beta in itertools.product([0, 1], repeat=n):
            if sum(beta) > sc.n0_cap:
                with pytest.raises(InvalidDecision):
                    plan_prices(table, beta)
                continue
            gathered = plan_prices(table, beta)
            for active in itertools.product([False, True], repeat=n):
                s_bits = [s.chunk_bits if on else 0.0
                          for s, on in zip(sc.suavs, active)]
                fresh = suav_prices(sc, s_bits, beta)
                carriers = [j for j, bits in enumerate(s_bits) if bits > 0.0]
                assert repr([gathered[j] for j in carriers]) == \
                    repr([fresh[j] for j in carriers])


class TestPriceTableHover:
    """price_table tests every hover: one that alone breaks its owner's
    budget raises, the S-UAVs' by index first, then the relay's."""

    @pytest.mark.parametrize("breaking,owner", [
        ((), None), ((2, 1, "relay"), "S-UAV 1"), ((2, "relay"), "S-UAV 2"),
        (("relay",), "the relay")])
    def test_first_breaking_hover_raises(self, monkeypatch, breaking, owner):
        from uav_mec import association

        from .conftest import counting
        sc = make_scenario([(100.0 * j, 500.0) for j in range(3)],
                           [(100.0 * j, 500.0) for j in range(3)])
        # A hover at its budget fits; one above it breaks it.
        sc = replace(sc, suavs=tuple(
            replace(s, hover_energy_j=s.energy_budget_j
                    * (2.0 if s.id in breaking else 1.0)) for s in sc.suavs),
            ruav=replace(sc.ruav, hover_energy_j=sc.ruav.energy_budget_j
                         * (2.0 if "relay" in breaking else 1.0)))
        masks = counting(monkeypatch, association, "feasible_association_mask")
        if owner is None:
            assert len(price_table(sc)) == len(Pools(sc).prices) == 3
            return
        message = f"^{owner}'s hover alone breaks its energy budget$"
        with pytest.raises(InfeasibleSubproblem, match=message):
            price_table(sc)
        # Pools builds the table before anything else.
        with pytest.raises(InfeasibleSubproblem, match=message):
            Pools(sc)
        assert masks == []


class TestBlocksKeepTheRelayCap:
    """Reference seed 0's start plan with all 8 S-UAVs offloading, over the
    cap of 4: every block refuses it, as the evaluator does."""

    def test_blocks_raise_invalid_decision(self, scenario0):
        from uav_mec.association import solve_association
        from uav_mec.orchestrator import start_plan
        from uav_mec.placement import sca_loop
        pools = Pools(scenario0)
        bits, _, q, _ = start_plan(pools, "proposed")
        assoc = Association(_alpha(pools.mask, bits), pools.mask)
        beta = np.ones(scenario0.n_suavs, dtype=int)
        assert beta.sum() > scenario0.n0_cap
        with pytest.raises(InvalidDecision, match="relay cap"):
            evaluate_solution(repositioned_scenario(scenario0, assoc.alpha),
                              assoc, beta, q)
        with pytest.raises(InvalidDecision, match="relay cap"):
            placement_terms(pools, bits, beta)
        with pytest.raises(InvalidDecision, match="relay cap"):
            sca_loop(pools, bits, beta, q)
        with pytest.raises(InvalidDecision, match="relay cap"):
            solve_association(pools, beta, q)
