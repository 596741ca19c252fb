"""Outer alternating loop over (offload, placement, association), plus the
three baseline schemes.

Every block update is wrapped in an accept-only-if-not-worse guard, so the
reported objective trace is non-increasing by construction even when a block
solver is heuristic (budgeted tree search, SCA placement). Each block prices
its candidate in the evaluator's arithmetic, and its guard compares that one
price with the plan's objective; the start plan is priced the same way, from
the solve's price table, so no solve calls evaluate_solution. Callers price a
plan's per-S-UAV breakdown with it, imported here or from cost. Every hover
is checked against its budget once per solve, when association.Pools is
built. Every block reads one geometry, the solve's Pools.hover_point, with
S-UAVs at their current positions when they stay put; only
check_constraints, which must stay independent, places S-UAVs on its own.
The association guard needs no relay budget test: alpha moves the
relay's energy only by which members of beta carry video, and every beta the
loop holds is zeros or was priced by its offload rule with all its members
carrying video.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import association as assoc_mod
from . import placement as place_mod
from .config import ExperimentConfig
from .cost import evaluate_solution  # noqa: F401 (callers price with it)
from .cost import floored_rate
from .link import rate_at_dist_sq, snr_coeff
from .offload import OffloadDecision, forced_offload, solve_sp1
from .scenario import (Association, Position3D, Scenario, fov_rect,
                       repositioned_scenario)


class SchemePolicy(NamedTuple):
    """What sets a scheme apart: its offload rule and whether S-UAVs move.

    offload_rule names an offload function of this module, or is None to
    keep every S-UAV local. It is looked up by name when the scheme runs, so
    that a wrapper installed on the module attribute sees every call.
    """

    offload_rule: str | None
    reposition: bool  # S-UAVs move over their assigned targets


SCHEME_POLICIES = {
    "proposed": SchemePolicy("solve_sp1", True),
    "suav_only": SchemePolicy(None, True),
    "ruav_only": SchemePolicy("forced_offload", True),
    "static_suavs": SchemePolicy("solve_sp1", False),
}
SCHEMES = tuple(SCHEME_POLICIES)
_GUARD_SLACK = 1e-12


@dataclass
class SolverReport:
    scheme: str
    objective_trace: list
    alpha: np.ndarray
    beta: np.ndarray
    q_m: Position3D
    # the S-UAV geometry the plan is priced under (association.Pools.placed)
    placed: Scenario
    iterations: int
    converged: bool
    offload: OffloadDecision | None = None  # the last accepted offload step
    # inner placement solves whose optimality certificate did not close;
    # each still kept the better of the solve's point and the expansion point
    placement_fallbacks: int = 0
    # every association call was certified (a finished DFS: one-monitor only)
    association_exact: bool = True
    # sca_loop's objective trace in each outer iteration, in order
    sca_traces: list = field(default_factory=list)

    @property
    def objective_s(self) -> float:
        return self.objective_trace[-1]

    @property
    def lp_lower_bound(self) -> float:
        """SP1's LP relaxation bound at the last accepted offload step, solved
        on first read; nan if no step kept one."""
        return self.offload.lp_lower_bound if self.offload else float("nan")


def convergence_check(trace, tol: float) -> bool:
    if len(trace) < 2:
        return False
    return abs(trace[-1] - trace[-2]) < tol


def nearest_covering_association(pools: assoc_mod.Pools) -> Association:
    """Each target to its horizontally nearest covering S-UAV (ties: lowest
    id). Squared distances are dx * dx + dy * dy, with dx the S-UAV's x less
    the target's, as NumPy's dx ** 2 + dy ** 2 gives them."""
    suav_xy = [(float(s.initial_pos.x), float(s.initial_pos.y))
               for s in pools.scenario.suavs]
    alpha = np.zeros_like(pools.mask)
    for i, (x, y, cover) in enumerate(zip(pools.x, pools.y, pools.cover)):
        x, y = float(x), float(y)
        nearest, least = -1, math.inf
        for j in cover:  # ascending, so a tie keeps the lowest id
            sx, sy = suav_xy[j]
            dx, dy = sx - x, sy - y
            d2 = dx * dx + dy * dy
            if d2 < least:
                nearest, least = j, d2
        alpha[i, nearest] = 1
    return Association(alpha=alpha, feasible_mask=pools.mask)


def check_constraints(scenario: Scenario, association: Association,
                      beta: np.ndarray, q_m: Position3D,
                      static_positions: bool = False) -> list[str]:
    """Independent pass over every problem constraint; returns violations."""
    violations = []
    beta = np.asarray(beta)
    alpha = association.alpha
    if not np.isin(beta, (0, 1)).all():
        violations.append("offload decision is not binary")
    if beta.sum() > scenario.n0_cap:
        violations.append("offloader count exceeds the relay cap")
    lo, hi = scenario.ruav.box_lo.array, scenario.ruav.box_hi.array
    q = q_m.array
    if np.any(q < lo - 1e-9) or np.any(q > hi + 1e-9):
        violations.append("relay position outside its box")
    if not np.isin(alpha, (0, 1)).all():
        violations.append("association is not binary")
    if np.any(alpha.sum(axis=1) < 1):
        violations.append("some target is unmonitored")
    if np.any(alpha > association.feasible_mask):
        violations.append("association violates the coverage mask")
    placed = (scenario if static_positions
              else repositioned_scenario(scenario, alpha))
    for i in range(scenario.n_targets):
        target = scenario.targets[i]
        strictly_inside = False
        for j in np.flatnonzero(alpha[i]):
            rect = fov_rect(placed.suavs[j])
            if (rect.x_lo < target.pos.x < rect.x_hi
                    and rect.y_lo < target.pos.y < rect.y_hi):
                strictly_inside = True
        if not strictly_inside:
            violations.append(
                f"target {i} not strictly inside any assigned footprint")
    # Energy, priced here from the model's terms rather than by cost.py: an
    # S-UAV that carries no video spends its hover alone, each link's
    # distance is floored at 1 m, and the relay splits its CPU among all
    # sum(beta) offloaders.
    c = scenario.constants
    j_per_bit_hz2 = c.zeta * c.f0_cycles_per_bit
    relay_j = scenario.ruav.hover_energy_j
    for suav, moved, video, off in zip(scenario.suavs, placed.suavs,
                                       alpha.sum(axis=0) > 0, beta.tolist()):
        spent, s = suav.hover_energy_j, suav.chunk_bits
        if video:
            d2 = max(float(((moved.current_pos.array - q) ** 2).sum()), 1.0)
            rate = rate_at_dist_sq(d2, c.bandwidth_hz, snr_coeff(
                suav.tx_power_w, c.rho0, c.noise_w))
            if off:
                spent += suav.tx_power_w * s / rate
                relay_j += (beta.sum() * scenario.ruav.cpu_hz**2
                            * j_per_bit_hz2 * s)
            else:
                spent += (suav.tx_power_w * suav.compress_ratio * s / rate
                          + suav.cpu_hz**2 * j_per_bit_hz2 * s)
        if spent > suav.energy_budget_j + 1e-9:
            violations.append(f"S-UAV {suav.id} energy budget exceeded")
    if relay_j > scenario.ruav.energy_budget_j + 1e-9:
        violations.append("relay energy budget exceeded")
    return violations


class Plan(NamedTuple):
    """One point of the outer loop. A block that is accepted replaces the
    fields it moves and the objective, so objective is always the price of
    the other three fields; the S-UAV geometry is the solve's
    (association.Pools.hover_point under the association)."""

    association: Association
    beta: np.ndarray
    q_m: Position3D
    objective: float


def start_plan(pools: assoc_mod.Pools, scheme: str) -> Plan:
    """Each target to its nearest covering S-UAV, the relay at its default
    point, and no offloader unless the scheme's rule is forced. The plan is
    priced as evaluate_solution prices it, to the bit: under a forced rule
    by the rule's own price, as improve takes it, and otherwise by the
    largest local latency over the S-UAVs that carry video, read from the
    solve's price table."""
    association = nearest_covering_association(pools)
    q_m = place_mod.default_initial_position(pools, association)
    if SCHEME_POLICIES[scheme].offload_rule == "forced_offload":
        # A forced rule also sets the start; the first offload step of
        # improve re-derives the same decision from the same inputs.
        decision = forced_offload(pools, association, q_m)
        return Plan(association, decision.beta, q_m, float(decision.slack_s))
    q, bandwidth_hz = q_m.xyz, pools.scenario.constants.bandwidth_hz
    objective = 0.0
    for j, bits in enumerate(association.bits):
        if bits:
            local = pools.prices[j][0]
            objective = max(objective, local.latency(floored_rate(
                pools.hover_point(j, bits), q, local.gamma1, bandwidth_hz)))
    return Plan(association, np.zeros(pools.scenario.n_suavs, dtype=int),
                q_m, objective)


def improve(plan: Plan, pools: assoc_mod.Pools, scheme: str, tol: float,
            r_max: int) -> tuple[Plan, dict]:
    """The outer loop from plan until the objective settles or r_max
    iterations pass; returns the last plan and the loop's SolverReport
    fields. Every block reads the solve's pools: its S-UAV positions from
    pools.hover_point and its price records from pools.prices."""
    policy = SCHEME_POLICIES[scheme]
    trace = [plan.objective]
    offload, fallbacks, exact, sca_traces = None, 0, True, []
    last_key = None  # (beta, q_m, alpha's masks) of the last association call

    for _ in range(r_max):
        # Offload block.
        if policy.offload_rule is not None:
            decision = globals()[policy.offload_rule](
                pools, plan.association, plan.q_m)
            # The rule prices its decision as evaluate_solution would, to the
            # bit; float() keeps the trace in Python floats.
            cand = float(decision.slack_s)
            if cand <= plan.objective + _GUARD_SLACK:
                plan = plan._replace(beta=decision.beta, objective=cand)
                offload = decision

        # Placement block.
        q_sca, sca_trace, failed = place_mod.sca_loop(
            pools, plan.association, plan.beta, plan.q_m)
        sca_traces.append(sca_trace)
        fallbacks += failed
        if sca_trace[-1] <= plan.objective + _GUARD_SLACK:
            plan = plan._replace(q_m=q_sca, objective=sca_trace[-1])

        # Association block. A call with the last call's inputs would return
        # the same result, so the last (new_assoc, info) stands.
        key = (plan.beta.tolist(), plan.q_m, plan.association.bits)
        if key != last_key:
            last_key = key
            new_assoc, info = assoc_mod.solve_association(
                pools, plan.beta, plan.q_m, warm=plan.association)
        exact = exact and info.exact
        if info.objective <= plan.objective + _GUARD_SLACK:
            plan = plan._replace(association=new_assoc,
                                 objective=info.objective)

        trace.append(plan.objective)
        if convergence_check(trace, tol):
            break

    # The loop stops early exactly when the check holds on the last trace.
    return plan, dict(
        objective_trace=trace, iterations=len(sca_traces),
        converged=convergence_check(trace, tol), offload=offload,
        placement_fallbacks=fallbacks, association_exact=exact,
        sca_traces=sca_traces)


def run_scheme(scenario: Scenario, scheme: str,
               tol: float = ExperimentConfig.tol,
               r_max: int = ExperimentConfig.r_max,
               node_budget: int | None = None,
               time_budget_s: float | None = None
               ) -> SolverReport:
    """Solve one scenario under one scheme: improve(start_plan(...)).
    node_budget and time_budget_s are accepted and ignored, for callers that
    still pass them: the association search has a fixed node allowance and
    no block reads the clock.

    No solve calls evaluate_solution: the start plan is priced from the
    price table and every block prices its own candidate, each to the bit as
    the evaluator would, so the returned plan's objective is already known.
    A caller who wants its per-S-UAV breakdown prices it with
    evaluate_solution(report.placed, ...). What no block changes during the
    solve (association.Pools: the search tables, the hover points and the
    one price table every block reads) is built here, before anything else,
    and lives as long as this call; building it checks every hover against
    its budget. The report's placed scenario is the one Pools.placed call
    of the solve."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    pools = assoc_mod.Pools(
        scenario, static_positions=not SCHEME_POLICIES[scheme].reposition)
    plan, record = improve(start_plan(pools, scheme), pools, scheme, tol,
                           r_max)
    return SolverReport(
        scheme=scheme, alpha=plan.association.alpha, beta=plan.beta,
        q_m=plan.q_m, placed=pools.placed(plan.association), **record)
