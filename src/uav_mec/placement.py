"""Relay placement with fixed offload decision and association.

The non-convex min-max placement is handled by successive convexification:
around the current point the rate of every transmitting S-UAV is replaced by
its concave quadratic lower bound, the worst-case common rate lambda is
maximized over the flight box, and the expansion point moves to the new
optimum until the exact objective stalls.

The inner concave max-min is a 3-D smooth program solved by SLSQP (with an
analytic Jacobian). SLSQP works in box units, u = (q - mid) / half in
[-1, 1] per axis, so the position is of the same size as the rate ratio
lambda (about 10). In metres the box is about a hundred times larger, and
that poor scaling costs SLSQP iterations: a median of 23 per inner solve at
the reference config, against 7 in box units. An axis the box pins
(lo == hi) maps with half = 1.

Each inner solve returns whichever of two box points has the higher minimum
surrogate rate: SLSQP's point or the expansion point. The expansion point
always lies in the box, and there the surrogate equals the exact rate, so
the common rate never falls below the current one and stays positive.
sca_loop counts the inner solves in which SLSQP failed. Each S-UAV's energy
budget floors its own rate, and the surrogate bounds the rate from below, so
a point whose surrogate rates meet every floor keeps every budget.

The exact objective prices links as the evaluator does (cost.floored_rates),
so sca_loop's trace ends at evaluate_solution's objective, to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import InfeasibleSubproblem
from .cost import (BranchPrice, effective_chunk_bits, floored_rates,
                   suav_prices)
from .scenario import Association, Position3D, Scenario

SCA_TOL_S = 1e-4
SCA_MAX_ITER = 50


@dataclass(frozen=True)
class PlacementTerms:
    """Per transmitting S-UAV: geometry and the latency affine pieces.

    Worst-case-rate latency is tx_bits / lambda + fixed_s; the exact latency
    replaces lambda with the S-UAV's own rate.
    """

    q: np.ndarray         # (n, 3) repositioned S-UAV locations
    gamma1: np.ndarray    # (n,) SNR coefficients
    tx_bits: np.ndarray   # (n,) bits actually transmitted (compressed or raw)
    fixed_s: np.ndarray   # (n,) compute time independent of the link
    floors: np.ndarray    # (n,) least rate each S-UAV's energy budget allows
    bandwidth_hz: float


def placement_terms(scenario: Scenario, association: Association,
                    beta: np.ndarray) -> PlacementTerms:
    """The transmitting S-UAVs' rows, read off their price records; raises
    if some S-UAV, idle or not, keeps its budget at no rate."""
    s_bits = effective_chunk_bits(scenario, association.alpha)
    prices = suav_prices(scenario, s_bits, beta)
    floors = [p.rate_floor for p in prices]
    if math.inf in floors:
        raise InfeasibleSubproblem(
            f"S-UAV {floors.index(math.inf)} has no energy headroom for any "
            "transmission")
    rows = s_bits > 0.0
    sent = BranchPrice(*np.array(prices)[rows].T)
    return PlacementTerms(
        q=np.array([s.current_pos.array for s, row in zip(scenario.suavs, rows)
                    if row]).reshape(-1, 3),
        gamma1=sent.gamma1, tx_bits=sent.tx_bits, fixed_s=sent.fixed_s,
        floors=np.array(floors)[rows],
        bandwidth_hz=scenario.constants.bandwidth_hz,
    )


def exact_objective(terms: PlacementTerms, points: np.ndarray) -> np.ndarray:
    """Exact min-max latency at one or many candidate relay positions, each
    evaluate_solution's objective there to the bit."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if terms.q.shape[0] == 0:
        return np.zeros(pts.shape[0])
    rates = floored_rates(terms.q, pts[:, None, :], terms.gamma1,
                          terms.bandwidth_hz)
    lat = terms.tx_bits[None, :] / rates + terms.fixed_s[None, :]
    return lat.max(axis=1)


def _box(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    return scenario.ruav.box_lo.array, scenario.ruav.box_hi.array


def _surrogate_coeffs(terms: PlacementTerms, q_ref: np.ndarray):
    """(a, slope, d2_ref) rows of the rate lower bound expanded at q_ref."""
    d2r = np.maximum(((terms.q - q_ref[None, :]) ** 2).sum(axis=1), 1.0)
    a = terms.bandwidth_hz * np.log2(1.0 + terms.gamma1 / d2r)
    slope = (terms.bandwidth_hz * terms.gamma1 * math.log2(math.e)
             / (d2r * (d2r + terms.gamma1)))
    return a, slope, d2r


def surrogate_rates(terms: PlacementTerms, q_ref: np.ndarray,
                    points: np.ndarray) -> np.ndarray:
    """Surrogate rate of every S-UAV at one or many candidate positions."""
    a, slope, d2r = _surrogate_coeffs(terms, q_ref)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d2 = ((pts[:, None, :] - terms.q[None, :, :]) ** 2).sum(axis=2)
    return a[None, :] - slope[None, :] * (d2 - d2r[None, :])


def _maximin_surrogate(terms: PlacementTerms, q_ref: np.ndarray,
                       scenario: Scenario
                       ) -> tuple[np.ndarray, np.ndarray, bool]:
    """SLSQP's point and q_ref, both clipped to the box, as rows; every
    S-UAV's surrogate rate at each; and whether SLSQP failed. SLSQP's
    variables are (u, lambda) with u in box units; a pinned axis's bounds
    hold its u at 0."""
    lo, hi = _box(scenario)
    mid = 0.5 * (lo + hi)
    half = np.where(hi > lo, 0.5 * (hi - lo), 1.0)
    a, slope, d2r = _surrogate_coeffs(terms, q_ref)
    b = terms.bandwidth_hz

    def cons_f(z):
        d2 = ((mid + half * z[:3] - terms.q) ** 2).sum(axis=1)
        return (a - slope * (d2 - d2r)) / b - z[3]

    def cons_jac(z):
        jac = np.empty((terms.q.shape[0], 4))
        jac[:, :3] = (-2.0 * (slope / b)[:, None]
                      * (mid + half * z[:3] - terms.q) * half)
        jac[:, 3] = -1.0
        return jac

    z0 = np.empty(4)
    z0[:3] = (np.clip(q_ref, lo, hi) - mid) / half
    z0[3] = cons_f(np.append(z0[:3], 0.0)).min()
    lam_hi = math.log2(1.0 + terms.gamma1.max())  # rate/B at the 1 m guard
    u_lo, u_hi = (lo - mid) / half, (hi - mid) / half
    bounds = [(u_lo[i], u_hi[i]) for i in range(3)] + [(0.0, lam_hi)]
    res = minimize(
        lambda z: -z[3], z0, jac=lambda z: np.array([0.0, 0.0, 0.0, -1.0]),
        bounds=bounds,
        constraints=[{"type": "ineq", "fun": cons_f, "jac": cons_jac}],
        method="SLSQP", options={"maxiter": 200, "ftol": 1e-12},
    )
    cands = np.clip(np.stack([mid + half * res.x[:3], q_ref]), lo, hi)
    return cands, surrogate_rates(terms, q_ref, cands), not res.success


def default_initial_position(scenario: Scenario) -> Position3D:
    lo, hi = _box(scenario)
    xy = np.mean([s.current_pos.array[:2] for s in scenario.suavs], axis=0)
    q = np.clip(np.array([xy[0], xy[1], 0.5 * (lo[2] + hi[2])]), lo, hi)
    return Position3D(*q)


def solve_sp2_2(scenario: Scenario, terms: PlacementTerms,
                q_m_ref: Position3D) -> tuple[Position3D, bool]:
    """One convexified placement solve around the expansion point q_m_ref,
    for terms with at least one transmitting S-UAV.

    Returns (point, SLSQP failed): the inner point if its surrogate rates
    meet every S-UAV's floor, else the expansion point if its rates do."""
    cands, rates, failed = _maximin_surrogate(terms, q_m_ref.array, scenario)
    for k in (int(np.argmax(rates.min(axis=1))), 1):
        if (rates[k] >= terms.floors).all():
            return Position3D(*cands[k]), failed
    raise InfeasibleSubproblem(
        "energy budgets demand rates the geometry cannot deliver")


def sca_loop(scenario: Scenario, association: Association, beta: np.ndarray,
             q_m: Position3D) -> tuple[Position3D, list, int]:
    """Successive convexification from q_m until the exact objective stalls.

    Returns (best point, trace, fallbacks): the trace holds the exact
    objective at the start and after each round, ending at the point's, and
    fallbacks counts the rounds in which SLSQP failed. A round never lowers
    the surrogate's common rate below its value at the expansion point; a
    point that still worsens the exact objective is discarded, so the trace
    never rises.
    """
    terms = placement_terms(scenario, association, beta)
    if terms.q.shape[0] == 0:
        return q_m, [0.0], 0

    trace = [float(exact_objective(terms, q_m.array)[0])]
    fallbacks = 0
    for _ in range(SCA_MAX_ITER):
        nxt, failed = solve_sp2_2(scenario, terms, q_m)
        fallbacks += failed
        exact = float(exact_objective(terms, nxt.array)[0])
        if exact <= trace[-1] + 1e-12:
            q_m = nxt
            trace.append(exact)
        else:
            trace.append(trace[-1])  # reject the move, keep the point
        if abs(trace[-2] - trace[-1]) < SCA_TOL_S:
            break
    return q_m, trace, fallbacks
