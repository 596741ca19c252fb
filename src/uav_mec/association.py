"""Target-to-S-UAV association with fixed offload decision and relay position.

Depth-first branch and bound over one monitoring S-UAV per target (adding a
second monitor can only raise some S-UAV's altitude while its task size is
unchanged, so duplicates never help; the exhaustive oracle in tests confirms
this on every solvable instance). The bound at a node is the exact latency of
every S-UAV whose candidate pool is fully decided, which no completion can
change.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cost import branch_price, floored_rate
from .errors import InfeasibleSubproblem
from .scenario import (Association, Position3D, Scenario,
                       feasible_association_mask, reposition)

DEFAULT_NODE_BUDGET = 1_000_000
DEFAULT_TIME_BUDGET_S = 10.0


@dataclass
class SearchInfo:
    objective: float
    exact: bool
    nodes: int
    gap: float = 0.0


class _Context:
    """Fixed data plus a latency memo for one association solve."""

    def __init__(self, scenario: Scenario, beta: np.ndarray, q_m: Position3D,
                 static_positions: bool = False):
        self.scenario = scenario
        self.beta = np.asarray(beta, dtype=int)
        self.n_off = int(self.beta.sum())
        self.q_m = q_m.array
        self.static_positions = static_positions
        self.mask = feasible_association_mask(scenario)
        self.cover = [np.flatnonzero(self.mask[i]).tolist()
                      for i in range(scenario.n_targets)]
        self.order = sorted(range(scenario.n_targets),
                            key=lambda i: (len(self.cover[i]), i))
        self._memo: dict[tuple[int, int], tuple[float, bool]] = {}

    def latency(self, suav_index: int, target_bits: int) -> tuple[float, bool]:
        """(exact latency, energy-feasible) for one S-UAV and target bitmask."""
        key = (suav_index, target_bits)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        scenario = self.scenario
        suav = scenario.suavs[suav_index]
        targets = [t for i, t in enumerate(scenario.targets)
                   if target_bits >> i & 1]
        if not targets:
            result = (0.0, True)
            self._memo[key] = result
            return result
        pos = suav.initial_pos if self.static_positions else reposition(suav, targets)
        r = floored_rate(suav, pos.array, self.q_m, scenario.constants)
        price = branch_price(scenario, suav_index, suav.chunk_bits,
                             bool(self.beta[suav_index]), self.n_off)
        energy = price.energy(suav.tx_power_w, r) + suav.hover_energy_j
        result = (price.latency(r), energy <= suav.energy_budget_j)
        self._memo[key] = result
        return result

    def by_growth(self, target_index: int,
                  assigned_bits: list[int]) -> list[tuple[float, int]]:
        """(latency growth, S-UAV) for every S-UAV covering the target if it
        took the target on, smallest growth first (ties: lowest index)."""
        out = []
        for j in self.cover[target_index]:
            before, _ = self.latency(j, assigned_bits[j])
            after, _ = self.latency(j, assigned_bits[j] | (1 << target_index))
            out.append((after - before, j))
        return sorted(out)


def _alpha_from_choice(ctx: _Context, choice: dict[int, int]) -> np.ndarray:
    alpha = np.zeros_like(ctx.mask)
    for target_index, suav_index in choice.items():
        alpha[target_index, suav_index] = 1
    return alpha


def greedy_incumbent(scenario: Scenario, beta: np.ndarray,
                     q_m: Position3D, static_positions: bool = False,
                     ctx: _Context | None = None) -> Association:
    """Feasible warm start: most-constrained targets first, each to the
    covering S-UAV whose latency grows the least. A caller that holds the
    _Context of the same inputs passes it, and shares its latency memo."""
    ctx = ctx or _Context(scenario, beta, q_m, static_positions=static_positions)
    assigned_bits = [0] * scenario.n_suavs
    choice = {}
    for target_index in ctx.order:
        j = ctx.by_growth(target_index, assigned_bits)[0][1]
        choice[target_index] = j
        assigned_bits[j] |= 1 << target_index
    alpha = _alpha_from_choice(ctx, choice)
    return Association(alpha=alpha, feasible_mask=ctx.mask)


def _evaluate_full(ctx: _Context, alpha: np.ndarray) -> tuple[float, bool]:
    """Exact objective of a complete association, and its energy feasibility."""
    worst = 0.0
    for j in range(ctx.scenario.n_suavs):
        bits = 0
        for i in np.flatnonzero(alpha[:, j]):
            bits |= 1 << int(i)
        t, ok = ctx.latency(j, bits)
        if not ok:
            return worst, False
        worst = max(worst, t)
    return worst, True


def solve_association(scenario: Scenario, beta: np.ndarray, q_m: Position3D,
                      node_budget: int = DEFAULT_NODE_BUDGET,
                      time_budget_s: float = DEFAULT_TIME_BUDGET_S,
                      warm_alpha: np.ndarray | None = None,
                      static_positions: bool = False
                      ) -> tuple[Association, SearchInfo]:
    ctx = _Context(scenario, beta, q_m, static_positions=static_positions)
    n_targets = scenario.n_targets
    n_suavs = scenario.n_suavs

    # Pool sizes per S-UAV: how many still-undecided targets it could monitor.
    remaining = ctx.mask.sum(axis=0).astype(int)

    incumbent_alpha = None
    incumbent_obj = float("inf")
    greedy = greedy_incumbent(scenario, beta, q_m,
                              static_positions=static_positions, ctx=ctx)
    for alpha in filter(lambda a: a is not None, [warm_alpha, greedy.alpha]):
        obj, ok = _evaluate_full(ctx, alpha)
        if ok and obj < incumbent_obj:
            incumbent_alpha, incumbent_obj = alpha, obj

    assigned_bits = [0] * n_suavs
    choice: dict[int, int] = {}
    state = {"nodes": 0, "aborted": [], "start": time.monotonic(),
             "timed_out": False}

    def out_of_budget() -> bool:
        # The clock is read every 1024 nodes; once it has run out the search
        # stops for good, like it does at the node budget.
        if state["timed_out"] or state["nodes"] >= node_budget:
            return True
        if state["nodes"] % 1024 == 0:
            state["timed_out"] = time.monotonic() - state["start"] > time_budget_s
        return state["timed_out"]

    def dfs(depth: int, bound: float) -> None:
        nonlocal incumbent_alpha, incumbent_obj
        state["nodes"] += 1
        if bound >= incumbent_obj:
            return
        if depth == n_targets:
            incumbent_alpha = _alpha_from_choice(ctx, choice)
            incumbent_obj = bound
            return
        if out_of_budget():
            state["aborted"].append(bound)
            return
        target_index = ctx.order[depth]
        for _, j in ctx.by_growth(target_index, assigned_bits):
            new_bound = bound
            feasible = True
            for cand in ctx.cover[target_index]:
                remaining[cand] -= 1
            assigned_bits[j] |= 1 << target_index
            for cand in ctx.cover[target_index]:
                if remaining[cand] == 0:  # pool fully decided: bound is exact
                    t, ok = ctx.latency(cand, assigned_bits[cand])
                    if not ok:
                        feasible = False
                        break
                    new_bound = max(new_bound, t)
            if feasible:
                choice[target_index] = j
                dfs(depth + 1, new_bound)
                del choice[target_index]
            assigned_bits[j] &= ~(1 << target_index)
            for cand in ctx.cover[target_index]:
                remaining[cand] += 1

    dfs(0, 0.0)

    if incumbent_alpha is None:
        raise InfeasibleSubproblem(
            "no energy-feasible association covers every target")
    exact = not state["aborted"]
    gap = 0.0 if exact else incumbent_obj - min(state["aborted"])
    info = SearchInfo(objective=incumbent_obj, exact=exact,
                      nodes=state["nodes"], gap=gap)
    return Association(alpha=incumbent_alpha, feasible_mask=ctx.mask), info
