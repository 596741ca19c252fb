"""Offloading decisions with fixed relay position and association.

The binary min-max problem is solved exactly by a threshold search. Every
offloader's relay time s*f0*m/f_R and relay energy m*f_R^2*zeta*f0*s grow
with the offloader count m, and its own transmit energy does not depend on
m. So for a target makespan T, any subset that meets T and the budgets
contains the forced set F(T): the S-UAVs whose local branch breaks their
energy budget (E), plus every other one whose local latency exceeds T. F(T)
itself meets T and the budgets, because shrinking the subset only lowers the
other offloaders' times and the relay energy; this holds in floating point
too, since rounded products and sums are monotone in their operands. The
optimum T* is therefore attained by F(T*), which is E plus a prefix of the
other S-UAVs in descending order of local latency. Pricing the at most
n0_cap + 1 such candidates in O(N) each finds T*. F(T*) is a subset of every
optimal subset, so it is also the lexicographically smallest optimal beta,
and it is the first candidate in that order to reach T*.

The LP relaxation -- with the fair-share relay time linearized through
xi_n = beta_n * sum(beta) -- gives a certified lower bound. No decision reads
it: solve_sp1 keeps the instance on the decision, and the LP is built and
solved with HiGHS on the first read of lp_lower_bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import simplex
from .cost import branch_price, effective_chunk_bits, floored_rate
from .errors import InfeasibleSubproblem, NumericalFailure
from .scenario import Association, Position3D, Scenario


@dataclass(frozen=True)
class OffloadDecision:
    beta: np.ndarray
    slack_s: float
    # (scenario, association, q_m, Sp1Terms) for the LP bound, or None
    relaxation: tuple | None = field(default=None, compare=False, repr=False)

    @cached_property
    def lp_lower_bound(self) -> float:
        """The LP relaxation's optimum, solved on first read; nan when the
        decision keeps no relaxation."""
        if self.relaxation is None:
            return float("nan")
        scenario, association, q_m, terms = self.relaxation
        return solve_lp(build_sp1_lp(scenario, association, q_m, terms=terms))[1]


@dataclass
class LinearProgram:
    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    upper: list


@dataclass(frozen=True)
class Sp1Terms:
    """Per-S-UAV scalar coefficients of SP1 at fixed positions."""

    s_bits: np.ndarray
    t_loc: np.ndarray
    t_tx_loc: np.ndarray
    t_tx_off: np.ndarray
    t_ruav: np.ndarray       # (n0_cap, n): relay compute seconds, row m - 1
    e_local: np.ndarray      # execution energy of the local branch
    e_offload: np.ndarray    # execution energy of the offload branch
    suav_budget: np.ndarray  # residual energy minus hover
    ruav_budget: float
    e_ruav: np.ndarray       # (n0_cap, n): relay compute energy, row m - 1
    active: np.ndarray

    @property
    def n(self) -> int:
        return self.s_bits.size

    @property
    def k_ruav(self) -> np.ndarray:
        """Relay compute seconds per unit of xi."""
        return self.t_ruav[0]

    @property
    def w_ruav(self) -> np.ndarray:
        """Relay compute energy per unit of xi."""
        return self.e_ruav[0]


def sp1_terms(scenario: Scenario, association: Association,
              q_m: Position3D) -> Sp1Terms:
    s_bits = effective_chunk_bits(scenario, association.alpha)
    n = scenario.n_suavs
    t_loc, t_tx_loc, t_tx_off, e_local, e_off = np.zeros((5, n))
    t_ruav, e_ruav = np.zeros((2, scenario.n0_cap, n))
    for j, suav in enumerate(scenario.suavs):
        s = float(s_bits[j])
        if s == 0.0:
            continue
        r = floored_rate(suav, suav.current_pos.array, q_m.array,
                         scenario.constants)
        local = branch_price(scenario, j, s, False, 0)
        t_loc[j], t_tx_loc[j] = local.fixed_s, local.tx_bits / r
        e_local[j] = local.energy(suav.tx_power_w, r)
        # One price per offloader count m, so that a subset is priced with
        # the same arithmetic as the evaluator uses.
        offs = [branch_price(scenario, j, s, True, m)
                for m in range(1, scenario.n0_cap + 1)]
        t_ruav[:, j] = [p.fixed_s for p in offs]
        e_ruav[:, j] = [p.relay_j for p in offs]
        t_tx_off[j] = offs[0].tx_bits / r
        e_off[j] = offs[0].energy(suav.tx_power_w, r)
    budgets = np.array([s.energy_budget_j - s.hover_energy_j for s in scenario.suavs])
    return Sp1Terms(
        s_bits=s_bits, t_loc=t_loc, t_tx_loc=t_tx_loc, t_tx_off=t_tx_off,
        t_ruav=t_ruav, e_local=e_local, e_offload=e_off, suav_budget=budgets,
        ruav_budget=scenario.ruav.energy_budget_j - scenario.ruav.hover_energy_j,
        e_ruav=e_ruav, active=s_bits > 0.0,
    )


def build_sp1_lp(scenario: Scenario, association: Association,
                 q_m: Position3D, terms: Sp1Terms | None = None) -> LinearProgram:
    """LP relaxation: variables (beta in [0,1]^N, xi >= 0, s >= 0). Here and
    below, `terms`, if given, are sp1_terms(scenario, association, q_m)."""
    t = terms or sp1_terms(scenario, association, q_m)
    n = t.n
    n0 = scenario.n0_cap
    for j in np.flatnonzero(t.active):
        if t.e_local[j] > t.suav_budget[j] and t.e_offload[j] > t.suav_budget[j]:
            raise InfeasibleSubproblem(
                f"energy budget of S-UAV {j} excludes both computing branches")

    def diag(value):  # +0.0 off the diagonal, as in the rows' zero fill
        return np.diag(np.broadcast_to(value, n))

    ones, col = np.ones((n, n)), np.zeros((n, 1))
    blocks = [  # (rows over columns beta, xi, s; right-hand sides)
        (np.hstack([diag(-float(n0)), diag(1.0), col]),
         np.zeros(n)),  # xi upper envelope vs beta_j
        (np.hstack([-ones, diag(1.0), col]), np.zeros(n)),  # ... vs sum(beta)
        (np.hstack([ones + diag(float(n0)), diag(-1.0), col]),
         np.full(n, float(n0))),  # xi lower envelope
        (np.hstack([diag(t.t_tx_off - t.t_loc - t.t_tx_loc),
                    diag(t.k_ruav), np.full((n, 1), -1.0)]),
         -(t.t_loc + t.t_tx_loc)),  # linearized latency under the slack
        (np.concatenate([np.zeros(n), t.w_ruav, [0.0]])[None],
         [t.ruav_budget]),  # relay energy
        (np.concatenate([np.ones(n), np.zeros(n + 1)])[None],
         [float(n0)]),  # relay service cap
        (np.hstack([diag(t.e_offload - t.e_local), np.zeros((n, n + 1))]),
         t.suav_budget - t.e_local),  # per-S-UAV energy, linear in beta_j
    ]
    c = np.zeros(2 * n + 1)
    c[-1] = 1.0
    upper = [1.0] * n + [None] * n + [None]
    return LinearProgram(c=c, a=np.vstack([a for a, _ in blocks]),
                         b=np.concatenate([b for _, b in blocks]), upper=upper)


def solve_lp(lp: LinearProgram) -> tuple[np.ndarray, float]:
    result = simplex.solve_lp_arrays(lp.c, lp.a, lp.b, upper=lp.upper)
    if result.status == simplex.INFEASIBLE:
        raise InfeasibleSubproblem("LP relaxation is infeasible")
    if result.status != simplex.OPTIMAL:
        raise NumericalFailure(f"LP solve ended with status {result.status}")
    return result.x, result.objective


def _subset_objective(t: Sp1Terms, members: tuple[int, ...]) -> float | None:
    """Exact min-max latency of one offload subset, or None if infeasible."""
    m = len(members)
    member_set = set(members)
    worst = 0.0
    ruav_e = 0.0
    for j in np.flatnonzero(t.active):
        if j in member_set:
            if t.e_offload[j] > t.suav_budget[j]:
                return None
            lat = t.t_tx_off[j] + t.t_ruav[m - 1, j]
            ruav_e += t.e_ruav[m - 1, j]
        else:
            if t.e_local[j] > t.suav_budget[j]:
                return None
            lat = t.t_loc[j] + t.t_tx_loc[j]
        worst = max(worst, lat)
    if ruav_e > t.ruav_budget:
        return None
    return worst


def _decision(n: int, members, slack_s: float) -> OffloadDecision:
    beta = np.zeros(n, dtype=int)
    beta[list(members)] = 1
    return OffloadDecision(beta=beta, slack_s=slack_s)


def _local_order(t: Sp1Terms, among) -> list[int]:
    """S-UAVs of `among` in descending order of local latency, ties by id."""
    local = t.t_loc + t.t_tx_loc
    return sorted(among, key=lambda j: (-local[j], j))


def enumerate_offload(scenario: Scenario, association: Association,
                      q_m: Position3D,
                      terms: Sp1Terms | None = None) -> OffloadDecision:
    """Exact threshold search: the best of the forced sets E + prefix.

    Returns the lexicographically smallest optimal beta, as enumerating
    every subset within the relay cap would (see the module docstring).
    """
    t = terms or sp1_terms(scenario, association, q_m)
    active = np.flatnonzero(t.active).tolist()
    over = t.e_local > t.suav_budget  # the local branch breaks the budget
    forced = [j for j in active if over[j]]
    for j in forced:  # the first S-UAV that build_sp1_lp would reject
        if t.e_offload[j] > t.suav_budget[j]:
            raise InfeasibleSubproblem(
                f"energy budget of S-UAV {j} excludes both computing branches")
    rest = _local_order(t, [j for j in active if not over[j]])
    best = None
    for k in range(min(scenario.n0_cap - len(forced), len(rest)) + 1):
        members = forced + rest[:k]
        obj = _subset_objective(t, tuple(members))
        if obj is not None and (best is None or obj < best[0]):
            best = (obj, members)
    if best is None:
        raise InfeasibleSubproblem("no energy-feasible binary offload decision")
    obj, members = best
    return _decision(t.n, members, obj)


def solve_sp1(scenario: Scenario, association: Association,
              q_m: Position3D) -> OffloadDecision:
    """Default SP1 path: the threshold search for the point, with the
    instance kept for a later read of the LP bound."""
    t = sp1_terms(scenario, association, q_m)
    decision = enumerate_offload(scenario, association, q_m, terms=t)
    return replace(decision, relaxation=(scenario, association, q_m, t))


def forced_offload(scenario: Scenario, association: Association,
                   q_m: Position3D) -> OffloadDecision:
    """The relay-only rule: offload the video-carrying S-UAVs in descending
    order of local latency (ties by id), as many as the relay cap and every
    energy budget admit -- the longest such prefix of that order."""
    t = sp1_terms(scenario, association, q_m)
    order = _local_order(t, np.flatnonzero(t.active).tolist())
    for k in range(min(scenario.n0_cap, len(order)), -1, -1):
        obj = _subset_objective(t, tuple(order[:k]))
        if obj is not None:
            return _decision(t.n, order[:k], obj)
    raise InfeasibleSubproblem("no energy-feasible prefix of the offload order")
