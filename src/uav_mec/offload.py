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

Only the carriers, the S-UAVs that carry video, are priced: an idle one
costs nothing but its hover, which the solve's price table
(cost.price_table) has already tested. Each candidate is priced from that
table's records at each carrier's link rate, on Python floats and in the
evaluator's arithmetic, so its objective is evaluate_solution's to the bit.
A carrier's budget test does not depend on the offloader count on either
branch, so each is taken once per call.

The LP relaxation -- with the fair-share relay time linearized through
xi_n = beta_n * sum(beta) -- gives a certified lower bound. No decision reads
it: solve_sp1 keeps its Sp1Terms on the decision, and on the first read of
lp_lower_bound the LP's arrays are stacked from the local and single-
offloader records, the idle S-UAVs' zeroed, and solved with HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import simplex
from .association import Pools
from .cost import BranchPrice
from .errors import InfeasibleSubproblem
from .scenario import Position3D


@dataclass(frozen=True)
class OffloadDecision:
    beta: tuple[int, ...]  # 0/1 per S-UAV
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
    """SP1 at fixed positions, over the carriers: the S-UAVs that carry
    video. An idle S-UAV costs nothing but its hover, which the price table
    vouches for, so no step prices it.

    prices is the solve's price table (cost.price_table): prices[j][0] is
    S-UAV j's local record and prices[j][m] its record offloaded among m.
    rates[j] is carrier j's link rate to the relay point, and fits[j]
    whether it keeps its budget on its local branch and offloaded: neither
    test depends on the offloader count, so each is taken once. The relay's
    hover and budget are kept apart, so that its budget test adds the hover
    to the compute energy, as the evaluator's does."""

    prices: list[list[BranchPrice]]
    rates: dict[int, float]   # by carrier, ascending
    fits: dict[int, tuple[bool, bool]]
    ruav_hover: float
    ruav_budget: float


def sp1_terms(pools: Pools, bits, q_m: Position3D) -> Sp1Terms:
    """SP1's terms on the solve's price table (Pools.prices): each
    carrier's link rate at q_m (Pools.carrier_rates) and its two budget
    tests. The carriers are the S-UAVs whose target bitmask in bits is not
    empty."""
    ruav = pools.scenario.ruav
    rates = pools.carrier_rates(bits, q_m)
    fits = {j: (pools.prices[j][0].fits(r), pools.prices[j][1].fits(r))
            for j, r in rates.items()}
    return Sp1Terms(pools.prices, rates, fits, ruav.hover_energy_j,
                    ruav.energy_budget_j)


def build_sp1_lp(t: Sp1Terms) -> LinearProgram:
    """LP relaxation: variables (beta in [0,1]^N, xi >= 0, s >= 0). An idle
    S-UAV's rows are its records with the chunk's four terms zeroed, the
    records at 0 bits, at a unit rate: they price to zero but its hover."""
    table = np.array(t.prices)  # (n, n0 + 1, the record's 8 fields)
    n, n0 = len(table), table.shape[1] - 1
    table[[j not in t.rates for j in range(n)], :, :4] = 0.0
    r = np.array([t.rates.get(j, 1.0) for j in range(n)])
    local, off = BranchPrice(*table[:, 0].T), BranchPrice(*table[:, 1].T)
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
         [t.ruav_budget - t.ruav_hover]),  # relay energy
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
    """Exact min-max latency of one offload subset of carriers, or None if
    infeasible."""
    member_set = set(members)
    worst = ruav_e = 0.0
    for j, r in t.rates.items():
        offloaded = j in member_set
        if not t.fits[j][offloaded]:
            return None
        price = t.prices[j][len(members) if offloaded else 0]
        worst = max(worst, price.latency(r))
        ruav_e += price.relay_j  # 0.0 on the local branch
    if ruav_e + t.ruav_hover > t.ruav_budget:
        return None
    return worst


def _decision(n: int, members, slack_s: float) -> OffloadDecision:
    beta = [0] * n
    for j in members:
        beta[j] = 1
    return OffloadDecision(beta=tuple(beta), slack_s=slack_s)


def _local_order(t: Sp1Terms, among) -> list[int]:
    """Carriers of `among` in descending order of local latency, ties by
    id."""
    return sorted(among, key=lambda j: (-t.prices[j][0].latency(t.rates[j]),
                                        j))


def enumerate_offload(t: Sp1Terms) -> OffloadDecision:
    """Exact threshold search: the best of the forced sets E + prefix.

    Returns the lexicographically smallest optimal beta, as enumerating
    every subset within the relay cap would (see the module docstring).
    """
    # Those whose local branch breaks the budget.
    forced = [j for j, (local_ok, _) in t.fits.items() if not local_ok]
    for j in forced:  # the first S-UAV that build_sp1_lp would reject
        if not t.fits[j][1]:
            raise InfeasibleSubproblem(
                f"energy budget of S-UAV {j} excludes both computing branches")
    rest = _local_order(t, [j for j, (local_ok, _) in t.fits.items()
                            if local_ok])
    best = None
    for k in range(min(len(t.prices[0]) - 1 - len(forced), len(rest)) + 1):
        members = forced + rest[:k]
        obj = _subset_objective(t, tuple(members))
        if obj is not None and (best is None or obj < best[0]):
            best = (obj, members)
    if best is None:
        raise InfeasibleSubproblem("no energy-feasible binary offload decision")
    obj, members = best
    return _decision(len(t.prices), members, obj)


def solve_sp1(pools: Pools, bits, q_m: Position3D) -> OffloadDecision:
    """Default SP1 path: the threshold search for the point, with its terms
    kept for a later read of the LP bound."""
    t = sp1_terms(pools, bits, q_m)
    return replace(enumerate_offload(t), relaxation=t)


def forced_offload(pools: Pools, bits, q_m: Position3D) -> OffloadDecision:
    """The relay-only rule: offload the video-carrying S-UAVs in descending
    order of local latency (ties by id), as many as the relay cap and every
    energy budget admit -- the longest such prefix of that order."""
    t = sp1_terms(pools, bits, q_m)
    order = _local_order(t, t.rates)
    for k in range(min(pools.scenario.n0_cap, len(order)), -1, -1):
        obj = _subset_objective(t, tuple(order[:k]))
        if obj is not None:
            return _decision(len(t.prices), order[:k], obj)
    raise InfeasibleSubproblem("no energy-feasible prefix of the offload order")
