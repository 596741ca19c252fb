"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The heavy experiment sweep is shared between the trend criteria. Criteria are
property- and trend-based; the reference figures come from unpublished random
scenarios, so no exact figure values are asserted.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from uav_mec.config import ExperimentConfig
from uav_mec.cost import evaluate_solution
from uav_mec.link import rate_at_dist_sq, snr_coeff
from uav_mec import simplex
from uav_mec.offload import build_sp1_lp, enumerate_offload, sp1_terms
from uav_mec.oracles import (enumerate_associations_at_least_one,
                             grid_search_placement, joint_bruteforce)
from uav_mec.orchestrator import (SCHEMES, check_constraints,
                                  nearest_covering_association, run_scheme)
from uav_mec.association import Pools, solve_association
from uav_mec.placement import (_surrogate_coeffs, default_initial_position,
                               sca_loop, surrogate_rates)
from uav_mec.scenario import (Association, Position3D, generate_scenario,
                              repositioned_scenario)

from .conftest import (DEFAULT_CONSTANTS, full_association,
                       identity_association, link_terms, make_scenario,
                       sp1_arrays, static_pools)
from .test_association import random_instance

CONFIG = ExperimentConfig()
SEEDS_20 = tuple(range(20))


def report_line(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}")


# ---------------------------------------------------------------------------
# Shared heavy runs.

@pytest.fixture(scope="module")
def outer_reports():
    """All four schemes on 20 default-parameter scenarios."""
    start = time.monotonic()
    out = {}
    for seed in SEEDS_20:
        scenario = generate_scenario(CONFIG, seed)
        out[seed] = (scenario,
                     {scheme: run_scheme(scenario, scheme)
                      for scheme in SCHEMES})
    return out, time.monotonic() - start


SWEEPS = {
    "n_chunks": [1, 2, 3, 4, 5],
    "tx_power_w": [0.2, 0.4, 0.6, 0.8, 1.0],
    "n0_cap": [1, 2, 3, 4, 5, 6, 7, 8],
    "cpu_suav_hz": [0.1e9, 0.2e9, 0.3e9, 0.4e9],
}


@pytest.fixture(scope="module")
def sweep_results():
    """Figs 5-13 style sweeps: all schemes x 20 seeds per swept value."""
    from uav_mec.experiment import sweep
    start = time.monotonic()
    cfg = replace(CONFIG, seeds=SEEDS_20)
    rows = {param: sweep(cfg, param, values)
            for param, values in SWEEPS.items()}
    return rows, time.monotonic() - start


def scheme_means(rows, scheme, values, field="objective_s"):
    out = []
    for v in values:
        cells = [getattr(r, field) for r in rows
                 if r.scheme == scheme and r.swept_value == v and not r.error]
        assert cells, f"no successful cells for {scheme} at {v}"
        out.append(float(np.mean(cells)))
    return out


# ---------------------------------------------------------------------------
# Criterion 1: Taylor-bound dominance.

def test_criterion_01_taylor_dominance():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    n = 10_000
    lo = np.array([0.0, 0.0, 100.0])
    hi = np.array([1000.0, 1000.0, 1000.0])
    q_n = rng.uniform([0, 0, 0], [1000, 1000, 500], size=(n, 3))
    q_m = rng.uniform(lo, hi, size=(n, 3))
    q_ref = rng.uniform(lo, hi, size=(n, 3))
    gamma1 = snr_coeff(CONFIG.tx_power_w, CONFIG.rho0, CONFIG.noise_w)
    b = CONFIG.bandwidth_hz
    d2 = np.maximum(((q_n - q_m) ** 2).sum(axis=1), 1.0)
    d2r = np.maximum(((q_n - q_ref) ** 2).sum(axis=1), 1.0)
    exact = b * np.log2(1.0 + gamma1 / d2)
    a_ref = b * np.log2(1.0 + gamma1 / d2r)
    slope = b * gamma1 * math.log2(math.e) / (d2r * (d2r + gamma1))
    bound = a_ref - slope * (d2 - d2r)
    rel_slack = (exact - bound) / np.maximum(exact, 1e-12)
    dominated = bool(np.all(rel_slack >= -1e-9))
    # Equality at the expansion point, through the library functions.
    equality = True
    for i in range(0, n, 100):
        exact_ref = rate_at_dist_sq(float(((q_n[i] - q_ref[i]) ** 2).sum()),
                                    b, gamma1)
        terms = link_terms(q_n[i], gamma1, b)
        bound_ref = surrogate_rates(terms, _surrogate_coeffs(terms, q_ref[i]),
                                    [q_ref[i]])[0][0]
        if abs(bound_ref - exact_ref) > 1e-9 * exact_ref:
            equality = False
    elapsed = time.monotonic() - start
    ok = dominated and equality and elapsed < 1.0
    report_line(1, ok, f"10^4 triples, min rel slack "
                       f"{rel_slack.min():.2e}, {elapsed:.2f}s")
    assert dominated and equality
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 2: xi-linearization exactness over all 163 feasible beta.

def test_criterion_02_linearization_exactness():
    start = time.monotonic()
    xs = np.linspace(100.0, 900.0, 8)
    rng = np.random.default_rng(2)
    chunks = rng.uniform(1.6e6, 2.5e6, size=8)
    sc = make_scenario([(x, 500.0) for x in xs], [(x, 500.0) for x in xs],
                       chunk_bits=chunks, n0_cap=4)
    assoc = identity_association(sc)
    q_m = Position3D(500.0, 500.0, 400.0)
    t = sp1_terms(static_pools(sc), assoc, q_m)
    lp = build_sp1_lp(t)
    t = sp1_arrays(t)
    xi_rows, xi_rhs = lp.a[:24, :], lp.b[:24]
    count = 0
    pinned = True
    equivalent = True
    for m in range(5):
        for members in itertools.combinations(range(8), m):
            count += 1
            beta = np.zeros(8)
            beta[list(members)] = 1.0
            xi_true = beta * beta.sum()
            x = np.concatenate([beta, xi_true, [0.0]])
            if not np.all(xi_rows @ x <= xi_rhs + 1e-9):
                pinned = False
            for j in range(8):
                for delta in (-0.5, 0.5):
                    xi_bad = xi_true.copy()
                    xi_bad[j] += delta
                    if xi_bad[j] < 0:
                        continue
                    x_bad = np.concatenate([beta, xi_bad, [0.0]])
                    if np.all(xi_rows @ x_bad <= xi_rhs + 1e-9):
                        pinned = False
            # Eq. 29 (xi-linearized) vs Eq. 16 (branch latency).
            linear = (t.t_loc + t.t_tx_loc
                      + beta * (t.t_tx_off - t.t_loc - t.t_tx_loc)
                      + xi_true * t.k_ruav)
            exact = np.array([lb.total_s for lb in evaluate_solution(
                sc, assoc, beta.astype(int), q_m)[2]])
            denom = np.maximum(np.abs(exact), 1e-30)
            if np.any(np.abs(linear - exact) / denom > 1e-12):
                equivalent = False
    elapsed = time.monotonic() - start
    ok = count == 163 and pinned and equivalent and elapsed < 1.0
    report_line(2, ok, f"{count} decisions, xi pinned={pinned}, "
                       f"Eq29==Eq16={equivalent}, {elapsed:.2f}s")
    assert count == 163 and pinned and equivalent
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 3: LP relaxation is a lower bound on the binary optimum.

def test_criterion_03_relaxation_bound():
    start = time.monotonic()
    worst_excess = -np.inf
    checked = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        xs = np.linspace(100.0, 900.0, n)
        chunks = rng.uniform(1.6e6, 2.5e6, size=n)
        sc = make_scenario([(x, 500.0) for x in xs], [(x, 500.0) for x in xs],
                           chunk_bits=chunks,
                           n0_cap=int(rng.integers(1, n + 1)))
        assoc = identity_association(sc)
        q_m = Position3D(float(rng.uniform(0, 1000)),
                         float(rng.uniform(0, 1000)),
                         float(rng.uniform(100, 1000)))
        t = sp1_terms(static_pools(sc), assoc, q_m)
        lp = build_sp1_lp(t)
        _, lower = simplex.solve_lp_arrays(lp.c, lp.a, lp.b, upper=lp.upper)
        best = enumerate_offload(t).slack_s
        worst_excess = max(worst_excess, lower - best)
        checked += 1
    elapsed = time.monotonic() - start
    ok = worst_excess <= 1e-6 and elapsed < 10.0
    report_line(3, ok, f"{checked} instances, max(LP - enum) = "
                       f"{worst_excess:.2e}, {elapsed:.2f}s")
    assert worst_excess <= 1e-6
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# Criterion 4: SCA descent and near-optimality vs the refined grid oracle.

def test_criterion_04_sca_descent():
    start = time.monotonic()
    worst_rel = 0.0
    monotone = True
    for seed in SEEDS_20:
        scenario = generate_scenario(CONFIG, seed)
        pools = Pools(scenario)
        assoc = nearest_covering_association(pools)
        placed = repositioned_scenario(scenario, assoc.alpha)
        beta = np.zeros(scenario.n_suavs, dtype=int)
        q_m, trace, _ = sca_loop(pools, assoc, beta,
                                 default_initial_position(pools, assoc))
        final = trace[-1]
        if any(b > a + 1e-9 for a, b in zip(trace, trace[1:])):
            monotone = False
        _, oracle = grid_search_placement(placed, assoc, beta,
                                          extra_points=q_m.array[None, :])
        worst_rel = max(worst_rel, (final - oracle) / oracle)
    elapsed = time.monotonic() - start
    ok = monotone and worst_rel <= 0.01 and elapsed < 60.0
    report_line(4, ok, f"20 scenarios, monotone={monotone}, worst gap "
                       f"{100 * worst_rel:.3f}% vs 1 m grid, {elapsed:.1f}s")
    assert monotone
    assert worst_rel <= 0.01
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 5: outer-loop monotone convergence.

def test_criterion_05_outer_monotonicity(outer_reports):
    reports, elapsed = outer_reports
    monotone = True
    converged = True
    for seed, (_, by_scheme) in reports.items():
        trace = by_scheme["proposed"].objective_trace
        if any(b > a + 1e-6 for a, b in zip(trace, trace[1:])):
            monotone = False
        if not by_scheme["proposed"].converged:
            converged = False
        if by_scheme["proposed"].iterations > CONFIG.r_max:
            converged = False
    ok = monotone and converged and elapsed < 300.0
    report_line(5, ok, f"20 scenarios, monotone={monotone}, "
                       f"converged={converged}, {elapsed:.1f}s")
    assert monotone and converged
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# Criterion 6: joint small-instance optimality gap.

def test_criterion_06_joint_gap():
    start = time.monotonic()
    cfg = replace(CONFIG, n_suavs=4, n_targets=5)
    worst_above = 0.0
    worst_below = 0.0
    for seed in range(10):
        scenario = generate_scenario(cfg, seed)
        report = run_scheme(scenario, "proposed")
        oracle = joint_bruteforce(scenario,
                                  extra_points=report.q_m.array[None, :])
        gap = (report.objective_s - oracle) / oracle
        worst_above = max(worst_above, gap)
        worst_below = min(worst_below, report.objective_s - oracle)
    elapsed = time.monotonic() - start
    ok = worst_above <= 0.05 and worst_below >= -1e-6 and elapsed < 300.0
    report_line(6, ok, f"10 instances N=4 I=5, worst gap "
                       f"{100 * worst_above:.2f}%, never below oracle by more "
                       f"than {-worst_below:.1e}, {elapsed:.1f}s")
    assert worst_above <= 0.05
    assert worst_below >= -1e-6
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# Criterion 7: BnB equals exhaustive >=1 enumeration on small instances.

def test_criterion_07_bnb_exactness():
    start = time.monotonic()
    checked = 0
    draws = 0
    all_equal = True
    seed = 0
    while draws < 100:
        sc = random_instance(seed)
        seed += 1
        draws += 1
        if sc is None:
            continue
        rng = np.random.default_rng(seed + 10_000)
        beta = np.zeros(sc.n_suavs, dtype=int)
        n_off = int(rng.integers(0, sc.n0_cap + 1))
        beta[rng.choice(sc.n_suavs, size=n_off, replace=False)] = 1
        q_m = Position3D(float(rng.uniform(0, 1000)),
                         float(rng.uniform(0, 1000)),
                         float(rng.uniform(100, 1000)))
        _, info = solve_association(Pools(sc), beta, q_m)
        _, oracle_obj = enumerate_associations_at_least_one(sc, beta, q_m)
        if not info.exact or abs(info.objective - oracle_obj) > 1e-9 * max(
                1.0, oracle_obj):
            all_equal = False
        checked += 1
    elapsed = time.monotonic() - start
    ok = all_equal and checked >= 50 and elapsed < 60.0
    report_line(7, ok, f"{checked}/{draws} solvable draws, all equal "
                       f"exhaustive={all_equal}, {elapsed:.1f}s")
    assert all_equal and checked >= 50
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 8: latency trend reproduction on the shared sweeps.

def test_criterion_08_latency_trends(sweep_results):
    rows, elapsed = sweep_results
    checks = {}

    chunk_means = scheme_means(rows["n_chunks"], "proposed",
                               SWEEPS["n_chunks"])
    checks["chunks increase latency"] = all(
        b > a for a, b in zip(chunk_means, chunk_means[1:]))

    power_means = scheme_means(rows["tx_power_w"], "proposed",
                               SWEEPS["tx_power_w"])
    checks["power lowers latency"] = (
        power_means[-1] < power_means[0]
        and all(b <= a + 1e-6 for a, b in zip(power_means, power_means[1:])))

    cpu_means = scheme_means(rows["cpu_suav_hz"], "proposed",
                             SWEEPS["cpu_suav_hz"])
    checks["faster S-UAV CPU lowers latency"] = all(
        b < a for a, b in zip(cpu_means, cpu_means[1:]))

    cap_values = SWEEPS["n0_cap"]
    plateau_ok = True
    decrease_ok = True
    plateau_details = []
    for scheme in ("proposed", "static_suavs"):
        means = scheme_means(rows["n0_cap"], scheme, cap_values)
        upto4 = means[:cap_values.index(4) + 1]
        if not all(b <= a + 1e-6 for a, b in zip(upto4, upto4[1:])):
            decrease_ok = False
        at4 = means[cap_values.index(4)]
        beyond = means[cap_values.index(4):]
        marginal = (at4 - min(beyond)) / at4
        plateau_details.append(f"{scheme} {100 * marginal:.1f}%")
        if marginal >= 0.02:
            plateau_ok = False
    checks["latency decreases up to N_0=4"] = decrease_ok
    checks["plateau beyond N_0=4 (<2%)"] = plateau_ok

    dominated = True
    for param, values in SWEEPS.items():
        proposed = np.mean(scheme_means(rows[param], "proposed", values))
        for scheme in ("suav_only", "ruav_only", "static_suavs"):
            if proposed > np.mean(scheme_means(rows[param], scheme, values)) \
                    + 1e-9:
                dominated = False
    checks["proposed <= every baseline mean"] = dominated

    ok = all(checks.values()) and elapsed < 600.0
    detail = "; ".join(f"{name}={'ok' if good else 'FAILED'}"
                       for name, good in checks.items())
    report_line(8, ok, f"{detail}; N_0 marginal improvement beyond 4: "
                       f"{', '.join(plateau_details)}; {elapsed:.0f}s")
    assert elapsed < 600.0
    failed = [name for name, good in checks.items() if not good]
    assert not failed, f"trend checks failed: {failed}"


# ---------------------------------------------------------------------------
# Criterion 9: delay-difference trends on the same sweeps.

def test_criterion_09_delay_difference(sweep_results):
    rows, _ = sweep_results
    per_suav = {}
    across_seeds = {}
    for scheme in SCHEMES:
        spread_means = []
        seed_stddevs = []
        for param, values in SWEEPS.items():
            spread_means.extend(
                scheme_means(rows[param], scheme, values,
                             field="delay_stddev_s"))
            for v in values:
                objs = [r.objective_s for r in rows[param]
                        if r.scheme == scheme and r.swept_value == v
                        and not r.error]
                seed_stddevs.append(float(np.std(objs)))
        per_suav[scheme] = float(np.mean(spread_means))
        across_seeds[scheme] = float(np.mean(seed_stddevs))

    ok = (per_suav["proposed"] <= per_suav["suav_only"] + 1e-9
          and per_suav["proposed"] <= per_suav["ruav_only"] + 1e-9)
    alt_ok = (across_seeds["proposed"] <= across_seeds["suav_only"] + 1e-9
              and across_seeds["proposed"] <= across_seeds["ruav_only"] + 1e-9)
    report_line(
        9, ok,
        "per-S-UAV stddev means "
        + ", ".join(f"{s}={per_suav[s]:.3f}" for s in SCHEMES)
        + " | across-seed objective stddev means "
        + ", ".join(f"{s}={across_seeds[s]:.3f}" for s in SCHEMES)
        + f" (alternative reading {'holds' if alt_ok else 'fails'})")
    assert ok, (
        "proposed per-S-UAV delay spread exceeds a baseline: "
        f"{per_suav} (across-seed reading: {across_seeds})")


# ---------------------------------------------------------------------------
# Criterion 10: coverage invariant at every reported solution.

def test_criterion_10_coverage_invariant(outer_reports):
    reports, _ = outer_reports
    violations_found = []
    for seed, (scenario, by_scheme) in reports.items():
        mask = nearest_covering_association(Pools(scenario)).feasible_mask
        for scheme, report in by_scheme.items():
            assoc = Association(alpha=report.alpha,
                                feasible_mask=np.maximum(report.alpha, mask))
            vs = check_constraints(scenario, assoc, report.beta, report.q_m,
                                   static_positions=(scheme == "static_suavs"))
            if vs:
                violations_found.append((seed, scheme, vs))
            if np.any(report.alpha.sum(axis=1) < 1):
                violations_found.append((seed, scheme, ["row sum < 1"]))
    ok = not violations_found
    report_line(10, ok, f"80 solutions checked, violations: "
                        f"{violations_found or 'none'}")
    assert ok, violations_found
