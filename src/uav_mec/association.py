"""Target-to-S-UAV association with fixed offload decision and relay position.

Exact on every call, in two stages.

1. A depth-first branch and bound over one monitoring S-UAV per target, given
   DFS_ALLOWANCE nodes (or the caller's node budget, if smaller). The bound at
   a node is the exact latency of every S-UAV whose candidate pool is fully
   decided, which no completion can change. Most calls finish here, and a
   finished search returns the best one-monitor association.
2. Otherwise a column cover finds the optimum T*. An S-UAV's hover point
   depends only on the bounding box of its targets, and its task size is
   fixed once it monitors anything, so its latency and energy depend only on
   that box. Giving each S-UAV every pool target inside its box keeps the box,
   hence its latency, and still covers every target. So some optimum picks at
   most one *box-closed* subset (column) of each S-UAV's pool: the pool
   targets inside that subset's own box. T* is the least t at which columns
   of latency <= t, at most one per S-UAV, cover every target; a search over
   target bitmasks decides that on integer data, so no tolerance enters.
   The DFS is then replayed in its own order, cutting every bound above T*,
   and its first leaf is the association the finished B&B would return. If
   the replay finds none within the allowance, the cover's association is
   returned; it may give a target two monitors, which the problem allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import branch_price, floored_rate
from .errors import InfeasibleSubproblem
from .link import snr_coeff
from .scenario import (Association, Position3D, Scenario,
                       feasible_association_mask, reposition)

DEFAULT_NODE_BUDGET = 1_000_000
# DFS nodes before the column cover takes over (or the caller's node budget,
# if smaller); the replay gets as many.
DFS_ALLOWANCE = 1_000
# Columns are int64 bitmasks over a pool; a larger pool is left to the DFS
# under the caller's node budget, and reported inexact if that runs out.
_MAX_POOL = 62
# Rows per block of the column dominance check, which bounds its memory.
_DOMINANCE_ROWS = 64


@dataclass
class SearchInfo:
    objective: float
    exact: bool
    nodes: int
    gap: float = 0.0  # kept for callers that read it; always 0


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


def _dfs(ctx: _Context, incumbent_alpha: np.ndarray | None,
         incumbent_obj: float, node_budget: int, first_leaf: bool = False
         ) -> tuple[np.ndarray | None, float, int, bool]:
    """Branch and bound below an incumbent: every bound at or above it is
    cut. With first_leaf, the search stops at its first leaf.

    Returns (best alpha, its objective, nodes, finished within the budget).
    """
    n_targets = ctx.scenario.n_targets
    # Pool sizes per S-UAV: how many still-undecided targets it could monitor.
    remaining = ctx.mask.sum(axis=0).astype(int)
    assigned_bits = [0] * ctx.scenario.n_suavs
    choice: dict[int, int] = {}
    nodes = 0
    aborted = False

    def dfs(depth: int, bound: float) -> bool:  # True: stop the search
        nonlocal incumbent_alpha, incumbent_obj, nodes, aborted
        nodes += 1
        if bound >= incumbent_obj:
            return False
        if depth == n_targets:
            incumbent_alpha = _alpha_from_choice(ctx, choice)
            incumbent_obj = bound
            return first_leaf
        if nodes >= node_budget:
            aborted = True
            return False
        target_index = ctx.order[depth]
        for _, j in ctx.by_growth(target_index, assigned_bits):
            new_bound = bound
            feasible, stop = True, False
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
                stop = dfs(depth + 1, new_bound)
                del choice[target_index]
            assigned_bits[j] &= ~(1 << target_index)
            for cand in ctx.cover[target_index]:
                remaining[cand] += 1
            if stop:
                return True
        return False

    dfs(0, 0.0)
    return incumbent_alpha, incumbent_obj, nodes, not aborted


def _columns(ctx: _Context, j: int):
    """Every distinct box-closed subset of S-UAV j's pool, priced exactly as
    _Context.latency prices it.

    Returns (pool, masks, latency, feasible): pool holds the target indices,
    bit p of masks[c] is set when column c holds target pool[p], and
    feasible[c] says whether the column keeps within the energy budget.
    """
    scenario = ctx.scenario
    suav = scenario.suavs[j]
    pool = np.flatnonzero(ctx.mask[:, j])
    x = np.array([scenario.targets[i].pos.x for i in pool])
    y = np.array([scenario.targets[i].pos.y for i in pool])
    bit = np.left_shift(np.int64(1), np.arange(len(pool), dtype=np.int64))

    def spans(v: np.ndarray) -> np.ndarray:
        # Distinct bitmasks of the pool targets with v[a] <= v <= v[b].
        inside = (v[:, None, None] <= v) & (v <= v[None, :, None])
        return np.unique(np.where(inside, bit, 0).sum(axis=2))

    masks = np.unique(spans(x)[:, None] & spans(y)[None, :])
    masks = masks[masks != 0]
    members = (masks[:, None] & bit) != 0
    # initial= lets an S-UAV with an empty pool yield no column.
    x_lo = np.where(members, x, np.inf).min(axis=1, initial=np.inf)
    x_hi = np.where(members, x, -np.inf).max(axis=1, initial=-np.inf)
    y_lo = np.where(members, y, np.inf).min(axis=1, initial=np.inf)
    y_hi = np.where(members, y, -np.inf).max(axis=1, initial=-np.inf)

    # scenario.reposition and cost.floored_rate, in their order of operations.
    if ctx.static_positions:
        pos = np.broadcast_to(suav.initial_pos.array, (len(masks), 3))
    else:
        cam = suav.camera
        pos = np.column_stack([
            (x_hi + x_lo) / 2.0, (y_hi + y_lo) / 2.0,
            np.maximum((x_hi - x_lo) / (2.0 * math.tan(cam.phi_h / 2.0)),
                       (y_hi - y_lo) / (2.0 * math.tan(cam.phi_v / 2.0)))
            + cam.gamma])
    c = scenario.constants
    d2 = np.maximum(((pos - ctx.q_m) ** 2).sum(axis=1), 1.0)
    gamma1 = snr_coeff(suav.tx_power_w, c.rho0, c.noise_w).gamma1
    r = c.bandwidth_hz * np.array(
        [math.log2(v) for v in (1.0 + gamma1 / d2).tolist()])
    price = branch_price(scenario, j, suav.chunk_bits, bool(ctx.beta[j]),
                         ctx.n_off)
    latency = price.tx_bits / r + price.fixed_s
    energy = suav.tx_power_w * (price.tx_bits / r) + price.comp_j
    return (pool, masks, latency,
            energy + suav.hover_energy_j <= suav.energy_budget_j)


def _undominated(masks: np.ndarray, latency: np.ndarray) -> np.ndarray:
    """Columns that no other column covers a superset of at no more latency."""
    keep = np.ones(len(masks), dtype=bool)
    for start in range(0, len(masks), _DOMINANCE_ROWS):
        rows = slice(start, start + _DOMINANCE_ROWS)
        m, t = masks[rows, None], latency[rows, None]
        keep[rows] = ~(((m & ~masks) == 0) & (m != masks)
                       & (latency <= t)).any(axis=1)
    return keep


def _bits(value: int):
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low


def _cover_at(by_suav: list[list[int]], reach: list[int],
              n_targets: int) -> list[tuple[int, int]] | None:
    """(S-UAV, column) pairs, at most one per S-UAV, covering every target;
    None if no such choice exists. reach[i] has bit j set when S-UAV j has
    a column holding target i."""
    failed = set()

    def search(uncovered: int, free: int) -> list[tuple[int, int]] | None:
        if not uncovered:
            return []
        if (uncovered, free) in failed:
            return None
        # Branch on the target the fewest free S-UAVs can still take.
        best, best_count = -1, len(by_suav) + 1
        for i in _bits(uncovered):
            count = bin(reach[i] & free).count("1")
            if count < best_count:
                best, best_count = i, count
                if not count:
                    break
        for j in _bits(reach[best] & free):
            # Columns of j holding the target, by the uncovered targets they
            # take; one whose part lies inside a tried part can do no better.
            parts: dict[int, int] = {}
            for column in by_suav[j]:
                if column >> best & 1:
                    parts.setdefault(column & uncovered, column)
            tried: list[int] = []
            for part in sorted(parts, key=lambda p: -bin(p).count("1")):
                if any(not part & ~t for t in tried):
                    continue
                tried.append(part)
                found = search(uncovered & ~part, free & ~(1 << j))
                if found is not None:
                    return found + [(j, parts[part])]
        failed.add((uncovered, free))
        return None

    return search((1 << n_targets) - 1, (1 << len(by_suav)) - 1)


def _cover(ctx: _Context, incumbent_obj: float) -> tuple[float, np.ndarray]:
    """(T*, alpha): the least largest latency of box-closed columns, at most
    one per S-UAV, that cover every target, and an association attaining it.
    Columns slower than the incumbent cannot be in it, and are dropped."""
    scenario = ctx.scenario
    columns = []  # (latency, S-UAV, target bitmask, target indices)
    for j in range(scenario.n_suavs):
        pool, masks, latency, feasible = _columns(ctx, j)
        keep = feasible & (latency <= incumbent_obj)
        masks, latency = masks[keep], latency[keep]
        keep = _undominated(masks, latency)
        pool = pool.tolist()
        for mask, t in zip(masks[keep].tolist(), latency[keep].tolist()):
            held = [pool[p] for p in _bits(mask)]
            columns.append((t, j, sum(1 << i for i in held), held))
    columns.sort()

    cheapest = [math.inf] * scenario.n_targets
    for t, _, _, held in columns:
        for i in held:
            cheapest[i] = min(cheapest[i], t)
    lower = max(cheapest)
    if lower == math.inf:
        raise InfeasibleSubproblem(
            "no energy-feasible association covers every target")

    by_suav: list[list[int]] = [[] for _ in range(scenario.n_suavs)]
    reach = [0] * scenario.n_targets
    for k, (t, j, column, held) in enumerate(columns):
        by_suav[j].append(column)
        for i in held:
            reach[i] |= 1 << j
        if t >= lower and (k + 1 == len(columns) or columns[k + 1][0] > t):
            chosen = _cover_at(by_suav, reach, scenario.n_targets)
            if chosen is not None:
                alpha = np.zeros_like(ctx.mask)
                for j, column in chosen:
                    alpha[list(_bits(column)), j] = 1
                return t, alpha
    raise InfeasibleSubproblem(
        "no energy-feasible association covers every target")


def solve_association(scenario: Scenario, beta: np.ndarray, q_m: Position3D,
                      node_budget: int = DEFAULT_NODE_BUDGET,
                      time_budget_s: float | None = None,
                      warm_alpha: np.ndarray | None = None,
                      static_positions: bool = False
                      ) -> tuple[Association, SearchInfo]:
    """Best association at the given offload decision and relay position.

    node_budget caps the DFS allowance. time_budget_s is accepted for older
    callers and unused: no result depends on the clock.
    """
    ctx = _Context(scenario, beta, q_m, static_positions=static_positions)
    incumbent_alpha = None
    incumbent_obj = float("inf")
    greedy = greedy_incumbent(scenario, beta, q_m,
                              static_positions=static_positions, ctx=ctx)
    for alpha in filter(lambda a: a is not None, [warm_alpha, greedy.alpha]):
        obj, ok = _evaluate_full(ctx, alpha)
        if ok and obj < incumbent_obj:
            incumbent_alpha, incumbent_obj = alpha, obj

    coverable = ctx.mask.sum(axis=0).max() <= _MAX_POOL
    allowance = min(DFS_ALLOWANCE, node_budget) if coverable else node_budget
    alpha, obj, nodes, exact = _dfs(ctx, incumbent_alpha, incumbent_obj,
                                    allowance)
    if not exact and coverable:
        t_star, cover_alpha = _cover(ctx, obj)
        if obj != t_star:
            alpha, obj, replayed, _ = _dfs(
                ctx, None, math.nextafter(t_star, math.inf), allowance,
                first_leaf=True)
            nodes += replayed
            if alpha is None:
                alpha, obj = cover_alpha, t_star
        exact = True

    if alpha is None:
        raise InfeasibleSubproblem(
            "no energy-feasible association covers every target")
    info = SearchInfo(objective=obj, exact=exact, nodes=nodes)
    return Association(alpha=alpha, feasible_mask=ctx.mask), info
