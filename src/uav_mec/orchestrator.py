"""Outer alternating loop over (offload, placement, association), plus the
three baseline schemes.

Every block update is wrapped in an accept-only-if-not-worse guard, so the
reported objective trace is non-increasing by construction even when a block
solver is heuristic (budgeted tree search, SCA placement).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import association as assoc_mod
from . import placement as place_mod
from .cost import (EnergyBreakdown, LatencyBreakdown, all_energies,
                   evaluate_solution)
from .errors import UavMecError
from .offload import OffloadDecision, forced_offload, solve_sp1
from .scenario import (Association, Position3D, Scenario, fov_rect,
                       feasible_association_mask, repositioned_scenario)


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
DEFAULT_TOL_S = 1e-3
DEFAULT_R_MAX = 20
_GUARD_SLACK = 1e-12


@dataclass
class SolverReport:
    scheme: str
    objective_trace: list
    alpha: np.ndarray
    beta: np.ndarray
    q_m: Position3D
    latencies: list[LatencyBreakdown]
    energies: list[EnergyBreakdown]
    delay_stddev_s: float
    iterations: int
    converged: bool
    wall_time: float
    offload: OffloadDecision | None = None  # the last accepted offload step
    placement_fallbacks: int = 0  # inner solves where SLSQP failed
    association_exact: bool = True  # every association search was certified
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


def nearest_covering_association(scenario: Scenario) -> Association:
    """Each target to its horizontally nearest covering S-UAV (ties: lowest id)."""
    mask = feasible_association_mask(scenario)
    alpha = np.zeros_like(mask)
    for i, target in enumerate(scenario.targets):
        best = None
        for j in np.flatnonzero(mask[i]):
            pos = scenario.suavs[j].initial_pos
            d2 = (pos.x - target.pos.x) ** 2 + (pos.y - target.pos.y) ** 2
            if best is None or (d2, j) < best:
                best = (d2, int(j))
        alpha[i, best[1]] = 1
    return Association(alpha=alpha, feasible_mask=mask)


def placed_for(scenario: Scenario, alpha: np.ndarray, scheme: str) -> Scenario:
    """The S-UAV geometry a scheme prices under alpha."""
    if SCHEME_POLICIES[scheme].reposition:
        return repositioned_scenario(scenario, alpha)
    return scenario


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
    energies = all_energies(placed, association, beta.astype(int), q_m)
    for e, suav in zip(energies[:-1], scenario.suavs):
        if e.total_j > suav.energy_budget_j + 1e-9:
            violations.append(f"S-UAV {suav.id} energy budget exceeded")
    if energies[-1].total_j > scenario.ruav.energy_budget_j + 1e-9:
        violations.append("relay energy budget exceeded")
    return violations


def run_scheme(scenario: Scenario, scheme: str,
               tol: float = DEFAULT_TOL_S, r_max: int = DEFAULT_R_MAX,
               node_budget: int = assoc_mod.DEFAULT_NODE_BUDGET,
               time_budget_s: float | None = None
               ) -> SolverReport:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    start = time.monotonic()
    policy = SCHEME_POLICIES[scheme]

    association = nearest_covering_association(scenario)
    placed = placed_for(scenario, association.alpha, scheme)
    q_m = place_mod.default_initial_position(placed)
    beta = np.zeros(scenario.n_suavs, dtype=int)
    if policy.offload_rule == "forced_offload":
        # A forced rule also sets the start; the first offload step below
        # re-derives the same decision from the same inputs.
        beta = forced_offload(placed, association, q_m).beta

    objective, _, _, _ = evaluate_solution(placed, association, beta, q_m)
    trace = [objective]
    offload = None
    converged = False
    iterations = fallbacks = 0
    exact = True
    sca_traces = []

    for _ in range(r_max):
        iterations += 1
        # Offload block.
        if policy.offload_rule is not None:
            decision = globals()[policy.offload_rule](placed, association, q_m)
            cand, _, _, _ = evaluate_solution(placed, association, decision.beta, q_m)
            if cand <= objective + _GUARD_SLACK:
                beta, objective, offload = decision.beta, cand, decision

        # Placement block.
        iterate, sca_trace = place_mod.sca_loop(placed, association, beta,
                                                q_m_init=q_m)
        sca_traces.append(sca_trace)
        fallbacks += iterate.fallbacks
        cand, _, _, _ = evaluate_solution(placed, association, beta, iterate.q_m)
        if cand <= objective + _GUARD_SLACK:
            q_m, objective = iterate.q_m, cand

        # Association block.
        new_assoc, info = assoc_mod.solve_association(
            scenario, beta, q_m, node_budget=node_budget,
            time_budget_s=time_budget_s, warm_alpha=association.alpha,
            static_positions=not policy.reposition)
        exact = exact and info.exact
        new_placed = placed_for(scenario, new_assoc.alpha, scheme)
        try:
            cand, _, _, energies = evaluate_solution(new_placed, new_assoc, beta, q_m)
        except UavMecError:
            cand = float("inf")
        if (cand <= objective + _GUARD_SLACK
                and energies[-1].total_j <= scenario.ruav.energy_budget_j):
            association, placed, objective = new_assoc, new_placed, cand

        trace.append(objective)
        if convergence_check(trace, tol):
            converged = True
            break

    objective, spread, lats, energies = evaluate_solution(
        placed, association, beta, q_m)
    return SolverReport(
        scheme=scheme,
        objective_trace=trace,
        alpha=association.alpha,
        beta=beta,
        q_m=q_m,
        latencies=lats,
        energies=energies,
        delay_stddev_s=spread,
        iterations=iterations,
        converged=converged,
        wall_time=time.monotonic() - start,
        offload=offload,
        placement_fallbacks=fallbacks,
        association_exact=exact,
        sca_traces=sca_traces,
    )
