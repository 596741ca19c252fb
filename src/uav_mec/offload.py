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
it: solve_sp1 keeps its Sp1Terms on the decision, and the LP is built from
them and solved with HiGHS on the first read of lp_lower_bound.
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
    """Per-S-UAV scalar coefficients of SP1 at fixed positions."""

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
    fits_local: np.ndarray    # BranchPrice.fits on the local branch
    fits_offload: np.ndarray  # ... and on the offload branch

    @property
    def n(self) -> int:
        return self.t_loc.size

    @property
    def n0_cap(self) -> int:
        return self.t_ruav.shape[0]

    @property
    def k_ruav(self) -> np.ndarray:
        """Relay compute seconds per unit of xi."""
        return self.t_ruav[0]

    @property
    def w_ruav(self) -> np.ndarray:
        """Relay compute energy per unit of xi."""
        return self.e_ruav[0]


def sp1_terms(scenario: Scenario, association: Association,
              q_m: Position3D, prices: list | None = None) -> Sp1Terms:
    """SP1's terms: every S-UAV's local record and its offload records at
    each offloader count within the cap, gathered from the solve's price
    table (cost.price_table; built here when none is given) and priced at
    each S-UAV's link rate. An idle S-UAV sends 0 bits, so it prices to
    zero but its hover at its own rate."""
    s_bits = effective_chunk_bits(scenario, association.alpha)
    table = price_table(scenario) if prices is None else prices
    active, n = (s_bits > 0.0).tolist(), len(s_bits)
    # Row m: every S-UAV on its local branch (m = 0), or offloaded among m.
    by_count = np.array([plan_prices(table, active, [m > 0] * n, m)
                         for m in range(scenario.n0_cap + 1)])
    local, off = BranchPrice(*by_count[0].T), BranchPrice(*by_count[1].T)
    q, bandwidth_hz = q_m.xyz, scenario.constants.bandwidth_hz
    r = np.array([floored_rate(suav.current_pos.xyz, q, gamma1, bandwidth_hz)
                  for suav, gamma1 in zip(scenario.suavs,
                                          local.gamma1.tolist())])
    return Sp1Terms(
        t_loc=local.fixed_s, t_tx_loc=local.tx_bits / r,
        t_tx_off=off.tx_bits / r, t_ruav=by_count[1:, :, 1],
        e_local=local.energy(r), e_offload=off.energy(r),
        suav_budget=local.budget_j - local.hover_j,
        ruav_budget=scenario.ruav.energy_budget_j - scenario.ruav.hover_energy_j,
        e_ruav=by_count[1:, :, 3], active=s_bits > 0.0,
        fits_local=local.fits(r), fits_offload=off.fits(r),
    )


def build_sp1_lp(t: Sp1Terms) -> LinearProgram:
    """LP relaxation: variables (beta in [0,1]^N, xi >= 0, s >= 0)."""
    n = t.n
    n0 = t.n0_cap
    excluded = np.flatnonzero(~(t.fits_local | t.fits_offload))
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


def _subset_objective(t: Sp1Terms, members: tuple[int, ...]) -> float | None:
    """Exact min-max latency of one offload subset, or None if infeasible."""
    m = len(members)
    member_set = set(members)
    worst = 0.0
    ruav_e = 0.0
    for j in range(t.n):  # an idle S-UAV prices to zero but its hover
        if j in member_set:
            if not t.fits_offload[j]:
                return None
            lat = t.t_tx_off[j] + t.t_ruav[m - 1, j]
            ruav_e += t.e_ruav[m - 1, j]
        else:
            if not t.fits_local[j]:
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


def enumerate_offload(t: Sp1Terms) -> OffloadDecision:
    """Exact threshold search: the best of the forced sets E + prefix.

    Returns the lexicographically smallest optimal beta, as enumerating
    every subset within the relay cap would (see the module docstring).
    """
    # Those whose local branch breaks the budget; an idle one breaks both.
    forced = np.flatnonzero(~t.fits_local).tolist()
    for j in forced:  # the first S-UAV that build_sp1_lp would reject
        if not t.fits_offload[j]:
            raise InfeasibleSubproblem(
                f"energy budget of S-UAV {j} excludes both computing branches")
    rest = _local_order(t, np.flatnonzero(t.active & t.fits_local).tolist())
    best = None
    for k in range(min(t.n0_cap - len(forced), len(rest)) + 1):
        members = forced + rest[:k]
        obj = _subset_objective(t, tuple(members))
        if obj is not None and (best is None or obj < best[0]):
            best = (obj, members)
    if best is None:
        raise InfeasibleSubproblem("no energy-feasible binary offload decision")
    obj, members = best
    return _decision(t.n, members, obj)


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
    order = _local_order(t, np.flatnonzero(t.active).tolist())
    for k in range(min(scenario.n0_cap, len(order)), -1, -1):
        obj = _subset_objective(t, tuple(order[:k]))
        if obj is not None:
            return _decision(t.n, order[:k], obj)
    raise InfeasibleSubproblem("no energy-feasible prefix of the offload order")
