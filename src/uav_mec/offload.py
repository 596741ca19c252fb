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

Each candidate is priced from the plan's price records (cost.plan_prices,
one row per offloader count) at each S-UAV's link rate, on Python floats
and in the evaluator's arithmetic, so its objective is evaluate_solution's
to the bit.

The LP relaxation -- with the fair-share relay time linearized through
xi_n = beta_n * sum(beta) -- gives a certified lower bound. No decision reads
it: solve_sp1 keeps its Sp1Terms on the decision, and on the first read of
lp_lower_bound the LP's arrays are stacked from the local and single-
offloader records and solved with HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import simplex
from .cost import (BranchPrice, effective_chunk_bits, floored_rate,
                   plan_prices, price_table)
from .errors import InfeasibleSubproblem
from .scenario import Association, Position3D, Scenario


@dataclass(frozen=True)
class OffloadDecision:
    beta: np.ndarray
    slack_s: float
    # the terms the decision was priced on, for the LP bound, or None
    relaxation: Sp1Terms | None = field(default=None, compare=False,
                                        repr=False)

    @cached_property
    def lp_lower_bound(self) -> float:
        """The LP relaxation's optimum, solved on first read; nan when the
        decision keeps no relaxation."""
        if self.relaxation is None:
            return float("nan")
        lp = build_sp1_lp(self.relaxation)
        return simplex.solve_lp_arrays(lp.c, lp.a, lp.b, upper=lp.upper)[1]


@dataclass
class LinearProgram:
    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    upper: list


@dataclass(frozen=True)
class Sp1Terms:
    """SP1 at fixed positions, as the plan's price records and link rates.

    by_count[0] holds every S-UAV's record on its local branch and
    by_count[m] every S-UAV's record offloaded among m, for m up to the
    relay cap; an idle S-UAV's record prices to zero but its hover in every
    row. rates[j] is S-UAV j's link rate to the relay point."""

    by_count: list[list[BranchPrice]]
    rates: list[float]
    active: list[bool]   # carries video this slot
    ruav_budget: float   # the relay's budget less its hover


def sp1_terms(scenario: Scenario, association: Association,
              q_m: Position3D, prices: list | None = None) -> Sp1Terms:
    """SP1's terms: every S-UAV's local record and its offload records at
    each offloader count within the cap, gathered from the solve's price
    table (cost.price_table; built here when none is given), and each
    S-UAV's link rate at q_m."""
    s_bits = effective_chunk_bits(scenario, association.alpha)
    table = price_table(scenario) if prices is None else prices
    active, n = (s_bits > 0.0).tolist(), len(s_bits)
    by_count = [plan_prices(table, active, [m > 0] * n, m)
                for m in range(scenario.n0_cap + 1)]
    q, bandwidth_hz = q_m.xyz, scenario.constants.bandwidth_hz
    rates = [floored_rate(suav.current_pos.xyz, q, price.gamma1, bandwidth_hz)
             for suav, price in zip(scenario.suavs, by_count[0])]
    return Sp1Terms(by_count, rates, active, scenario.ruav.energy_budget_j
                    - scenario.ruav.hover_energy_j)


def build_sp1_lp(t: Sp1Terms) -> LinearProgram:
    """LP relaxation: variables (beta in [0,1]^N, xi >= 0, s >= 0)."""
    n = len(t.rates)
    n0 = len(t.by_count) - 1
    r = np.array(t.rates)
    local, off = (BranchPrice(*np.array(row).T) for row in t.by_count[:2])
    local_tx, off_tx = local.tx_bits / r, off.tx_bits / r
    e_local, e_offload = local.energy(r), off.energy(r)
    excluded = np.flatnonzero(~(local.fits(r) | off.fits(r)))
    if excluded.size:
        raise InfeasibleSubproblem(f"energy budget of S-UAV {excluded[0]} "
                                   "excludes both computing branches")

    def diag(value):  # +0.0 off the diagonal, as in the rows' zero fill
        return np.diag(np.broadcast_to(value, n))

    ones, col = np.ones((n, n)), np.zeros((n, 1))
    blocks = [  # (rows over columns beta, xi, s; right-hand sides)
        (np.hstack([diag(-float(n0)), diag(1.0), col]),
         np.zeros(n)),  # xi upper envelope vs beta_j
        (np.hstack([-ones, diag(1.0), col]), np.zeros(n)),  # ... vs sum(beta)
        (np.hstack([ones + diag(float(n0)), diag(-1.0), col]),
         np.full(n, float(n0))),  # xi lower envelope
        (np.hstack([diag(off_tx - local.fixed_s - local_tx),
                    diag(off.fixed_s), np.full((n, 1), -1.0)]),
         -(local.fixed_s + local_tx)),  # linearized latency under the slack
        (np.concatenate([np.zeros(n), off.relay_j, [0.0]])[None],
         [t.ruav_budget]),  # relay energy
        (np.concatenate([np.ones(n), np.zeros(n + 1)])[None],
         [float(n0)]),  # relay service cap
        (np.hstack([diag(e_offload - e_local), np.zeros((n, n + 1))]),
         local.budget_j - local.hover_j - e_local),  # per-S-UAV energy
    ]
    c = np.zeros(2 * n + 1)
    c[-1] = 1.0
    upper = [1.0] * n + [None] * n + [None]
    return LinearProgram(c=c, a=np.vstack([a for a, _ in blocks]),
                         b=np.concatenate([b for _, b in blocks]), upper=upper)


def _subset_objective(t: Sp1Terms, members: tuple[int, ...]) -> float | None:
    """Exact min-max latency of one offload subset, or None if infeasible."""
    member_set = set(members)
    worst = ruav_e = 0.0
    offloaded = t.by_count[len(members)]
    # An idle S-UAV prices to zero but its hover; a local one spends no
    # relay energy.
    for j, (local, r) in enumerate(zip(t.by_count[0], t.rates)):
        price = offloaded[j] if j in member_set else local
        if not price.fits(r):
            return None
        worst = max(worst, price.latency(r))
        ruav_e += price.relay_j
    if ruav_e > t.ruav_budget:
        return None
    return worst


def _decision(n: int, members, slack_s: float) -> OffloadDecision:
    beta = np.zeros(n, dtype=int)
    beta[list(members)] = 1
    return OffloadDecision(beta=beta, slack_s=slack_s)


def _local_order(t: Sp1Terms, among) -> list[int]:
    """S-UAVs of `among` in descending order of local latency, ties by id."""
    local, r = t.by_count[0], t.rates
    return sorted(among, key=lambda j: (-local[j].latency(r[j]), j))


def enumerate_offload(t: Sp1Terms) -> OffloadDecision:
    """Exact threshold search: the best of the forced sets E + prefix.

    Returns the lexicographically smallest optimal beta, as enumerating
    every subset within the relay cap would (see the module docstring).
    """
    fits = [price.fits(r) for price, r in zip(t.by_count[0], t.rates)]
    # Those whose local branch breaks the budget; an idle one breaks both.
    forced = [j for j, ok in enumerate(fits) if not ok]
    for j in forced:  # the first S-UAV that build_sp1_lp would reject
        if not t.by_count[1][j].fits(t.rates[j]):
            raise InfeasibleSubproblem(
                f"energy budget of S-UAV {j} excludes both computing branches")
    rest = _local_order(t, [j for j, ok in enumerate(fits)
                            if ok and t.active[j]])
    best = None
    for k in range(min(len(t.by_count) - 1 - len(forced), len(rest)) + 1):
        members = forced + rest[:k]
        obj = _subset_objective(t, tuple(members))
        if obj is not None and (best is None or obj < best[0]):
            best = (obj, members)
    if best is None:
        raise InfeasibleSubproblem("no energy-feasible binary offload decision")
    obj, members = best
    return _decision(len(t.rates), members, obj)


def solve_sp1(scenario: Scenario, association: Association,
              q_m: Position3D, *, prices: list | None = None
              ) -> OffloadDecision:
    """Default SP1 path: the threshold search for the point, with its terms
    kept for a later read of the LP bound. prices: as sp1_terms'."""
    t = sp1_terms(scenario, association, q_m, prices)
    return replace(enumerate_offload(t), relaxation=t)


def forced_offload(scenario: Scenario, association: Association,
                   q_m: Position3D, *, prices: list | None = None
                   ) -> OffloadDecision:
    """The relay-only rule: offload the video-carrying S-UAVs in descending
    order of local latency (ties by id), as many as the relay cap and every
    energy budget admit -- the longest such prefix of that order. prices:
    as sp1_terms'."""
    t = sp1_terms(scenario, association, q_m, prices)
    order = _local_order(t, [j for j, on in enumerate(t.active) if on])
    for k in range(min(scenario.n0_cap, len(order)), -1, -1):
        obj = _subset_objective(t, tuple(order[:k]))
        if obj is not None:
            return _decision(len(t.rates), order[:k], obj)
    raise InfeasibleSubproblem("no energy-feasible prefix of the offload order")
