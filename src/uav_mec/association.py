"""Target-to-S-UAV association with fixed offload decision and relay position.

Exact on every call whose pools hold at most cover.MAX_POOL targets. Three
things can end a call:

1. A depth-first branch and bound over one monitoring S-UAV per target,
   under DFS_ALLOWANCE nodes (fixed: no caller sets it). The bound at a node
   is the exact latency of every S-UAV whose candidate pool is fully
   decided, which no completion can change. A search that finishes returns
   the best one-monitor association. That is exact over one-monitor
   associations only: a second monitor can be strictly better (CHANGES.md,
   reference seed 18 with n0_cap = 5: the finished search gives
   10.07263920969067 s, the column cover 10.072591165515615 s). On a call
   that searches first, a finished search is returned as it is, even where
   the columns below would show a lower optimum.
2. The box-closed columns' lower bound (cover.py): an association that
   attains it is optimal, and is returned with no further search.
3. The column cover and the search run to T*, the optimum over every
   association (cover.py). The branch and bound's association is returned
   if it attains T*, and the cover's otherwise; the latter may give a
   target two monitors, which the problem allows.

A call searches first, and prices the columns only if the search runs out
of nodes; at the reference size most solves never build them. Once a call
has built them in the solve's Pools, every later call prices them first.
If the warm start or the greedy start attains the bound, it is returned
(step 2, no node visited). Otherwise the cover finds T*, and then the
search runs until its incumbent reaches T*. The search replaces its
incumbent only on a strictly better leaf and no leaf is below T*, so the
first leaf at T* is the one a full search would return. A search that
ends above T* gives way to the cover's association, so a later call is
exact over every association; it differs from a search-first call only
where that call's finished search lies above T*. A looser incumbent in
the cover adds only columns slower than T*, and dominance never drops a
column for a slower one, so the cover sees the same columns up to T* and
returns the same association.

A larger pool skips the columns: the search alone decides, under the same
allowance, and the answer is reported inexact if the allowance runs out.

What no call changes is built once per solve, in a Pools that the caller
passes to every call (see Pools for the list). The search and the cover run
Python code per node and per column, and a fleet call visits about a
thousand nodes or a thousand columns, so every fact that depends only on
the solve is read from those tables rather than worked out again at each
node or column. A call gathers its S-UAVs' price records from the solve's
price table (cost.plan_prices) and prices all columns in one pass
(cover.price); a new target set costs one memoised hover point and one
link rate on floats, and an empty one nothing: an idle S-UAV keeps its
budget, as the table vouches. The same Pools gives every block of the outer
loop its S-UAV geometry (Pools.hover_point) and its price table, so all
three blocks price one geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cover
from .cost import floored_rate, plan_prices, price_table
from .errors import InfeasibleSubproblem
from .scenario import (Association, Position3D, Scenario,
                       feasible_association_mask)

# DFS nodes before the column cover takes over.
DFS_ALLOWANCE = 1_000


@dataclass
class SearchInfo:
    """objective: the returned association's. exact: the objective is the
    least over every association (a finished search on a call that
    searched first: over one-monitor associations only, see the module
    docstring)."""

    objective: float
    exact: bool
    # DFS nodes entered; can pass DFS_ALLOWANCE (see _dfs). 0 when the
    # columns' lower bound certifies the start without a search.
    nodes: int
    gap: float = 0.0  # kept for callers that read it; always 0


class Pools:
    """What no block changes during one solve of a scenario.

    Built at once, for the search: the coverage mask, each target's covering
    S-UAVs (cover), the search order (order), the largest pool, and per
    search depth the S-UAVs whose pools that depth's target completes
    (closing), whose latency the bound at that depth reads. For the
    geometry: every target's x and y as floats, and every S-UAV's camera
    factors (2 tan(phi_h / 2), 2 tan(phi_v / 2), gamma). For every block:
    prices, every S-UAV's price records at its chunk size on the local
    branch and on the offload branch at each offloader count within the cap
    (cost.price_table), and hover_point, where each S-UAV hovers over a
    target bitmask (Association.bits): every block reads its plan's records
    and positions from these two and from nothing else. Filled in as calls
    need them:
    - per S-UAV, a memo from target bitmask to hover point (hover_point);
      S-UAVs that stay put hover at their current positions, and need none;
    - on the first call whose search runs out of nodes (at the reference
      size most solves have none), every S-UAV's box-closed columns
      (cover.Columns) with each column's targets and hover point. Once the
      columns are built, every later call of the solve prices them before
      it searches (see the module docstring).
    placed builds the scenario with every S-UAV at its hover point; no block
    reads it, and run_scheme calls it once, for its report.

    run_scheme builds one per solve and passes it to every block; nothing
    of it is kept on the scenario, in this module or in cover.py, so no
    solve reads another's data. It builds the price table before anything
    else, so it raises the table's InfeasibleSubproblem first if an S-UAV's
    or the relay's hover alone breaks its budget, as it then does in every
    plan.
    """

    def __init__(self, scenario: Scenario, static_positions: bool = False):
        self.prices = price_table(scenario)  # first: it tests every hover
        self.scenario = scenario
        self.static_positions = static_positions
        self.mask = feasible_association_mask(scenario)
        self.cover = [[j for j, v in enumerate(row) if v]
                      for row in self.mask.tolist()]
        self.order = sorted(range(scenario.n_targets),
                            key=lambda i: (len(self.cover[i]), i))
        # Per S-UAV: how many targets it can monitor.
        remaining = self.mask.sum(axis=0).tolist()
        self.largest_pool = max(remaining)
        # Per search depth: the S-UAVs whose pools deciding that depth's
        # target completes, in index order. Which ones depends on the depth
        # alone, not on the branch.
        self.closing: list[list[int]] = []
        for i in self.order:
            for j in self.cover[i]:
                remaining[j] -= 1
            self.closing.append([j for j in self.cover[i] if not remaining[j]])
        self.x = [t.pos.x for t in scenario.targets]
        self.y = [t.pos.y for t in scenario.targets]
        self.cameras = [(2.0 * math.tan(c.phi_h / 2.0),
                         2.0 * math.tan(c.phi_v / 2.0), c.gamma)
                        for c in (s.camera for s in scenario.suavs)]
        # Per S-UAV: target bitmask -> hover point, the initial point over
        # no target.
        self._points = [{0: s.initial_pos.xyz} for s in scenario.suavs]
        self._cols: cover.Columns | None = None

    def hover_point(self, suav_index: int,
                    target_bits: int) -> tuple[float, float, float]:
        """Where the S-UAV hovers over a target bitmask, as (x, y, h):
        scenario.reposition's point, in its order of operations, and the
        initial point over no target; the current position when S-UAVs
        stay put. Every block reads S-UAV positions here and nowhere else."""
        if self.static_positions:
            return self.scenario.suavs[suav_index].current_pos.xyz
        points = self._points[suav_index]
        pos = points.get(target_bits)
        if pos is None:
            held = list(cover.bits(target_bits))
            xs = [self.x[i] for i in held]
            ys = [self.y[i] for i in held]
            x_hi, x_lo, y_hi, y_lo = max(xs), min(xs), max(ys), min(ys)
            wide, tall, gamma = self.cameras[suav_index]
            pos = points[target_bits] = (
                (x_hi + x_lo) / 2.0, (y_hi + y_lo) / 2.0,
                max((x_hi - x_lo) / wide, (y_hi - y_lo) / tall) + gamma)
        return pos

    def placed(self, association: Association) -> Scenario:
        """The scenario with every S-UAV at its hover point under the
        association, field by field scenario.repositioned_scenario's; the
        scenario itself when S-UAVs stay put. No block reads it: run_scheme
        builds it once, for the report."""
        if self.static_positions:
            return self.scenario
        return replace(self.scenario, suavs=tuple(
            replace(suav, current_pos=Position3D(*self.hover_point(j, bits)))
            for j, (suav, bits) in enumerate(zip(self.scenario.suavs,
                                                 association.bits))))

    def columns(self) -> cover.Columns:
        """Every S-UAV's box-closed columns, built on the first call."""
        if self._cols is None:
            fixed = ([s.current_pos.xyz for s in self.scenario.suavs]
                     if self.static_positions else None)
            self._cols = cover.build(self.mask, self.x, self.y, self.cameras,
                                     fixed)
        return self._cols


class _Context:
    """One association call's S-UAV price records over a solve's Pools, plus
    a latency memo.

    Each S-UAV's price record depends only on its offload bit and the
    offloader count, so the call gathers every S-UAV's, at its chunk size,
    from the solve's price table (cost.plan_prices); a memo miss then costs
    one hover point (memoised per solve) and one link rate on floats. The
    empty target set leaves the S-UAV idle: zero latency, within its budget,
    since the solve's price table has tested its hover.
    """

    def __init__(self, pools: Pools, beta: np.ndarray, q_m: Position3D):
        self.pools = pools
        self.q = q_m.xyz
        self.bandwidth_hz = pools.scenario.constants.bandwidth_hz
        self.prices = plan_prices(pools.prices, np.asarray(beta).tolist())
        # Per S-UAV: target bitmask -> (latency, energy-feasible). An entry
        # is a non-empty tuple, so `memo[j].get(bits) or latency(j, bits)`
        # reads it and prices only a miss.
        self.memo: list[dict[int, tuple[float, bool]]] = [
            {0: (0.0, True)} for _ in self.prices]

    def latency(self, suav_index: int, target_bits: int) -> tuple[float, bool]:
        """(exact latency, energy-feasible) for one S-UAV and target bitmask."""
        memo = self.memo[suav_index]
        hit = memo.get(target_bits)
        if hit is not None:
            return hit
        price = self.prices[suav_index]
        r = floored_rate(self.pools.hover_point(suav_index, target_bits),
                         self.q, price.gamma1, self.bandwidth_hz)
        result = (price.latency(r), price.fits(r))
        memo[target_bits] = result
        return result


def _alpha(mask: np.ndarray, assigned_bits) -> np.ndarray:
    """The association matrix that gives each S-UAV the targets of its
    bitmask."""
    alpha = np.zeros_like(mask)
    for j, bits in enumerate(assigned_bits):
        for i in cover.bits(bits):
            alpha[i, j] = 1
    return alpha


def greedy_incumbent(ctx: _Context) -> list[int]:
    """Feasible warm start, as per-S-UAV target bitmasks: most-constrained
    targets first, each to the covering S-UAV whose latency grows the
    least. It prices through the solve's latency memo."""
    assigned_bits = [0] * ctx.pools.scenario.n_suavs
    for target_index in ctx.pools.order:
        bit = 1 << target_index
        # The least (latency growth, S-UAV): ties go to the lowest index.
        _, j = min((ctx.latency(j, assigned_bits[j] | bit)[0]
                    - ctx.latency(j, assigned_bits[j])[0], j)
                   for j in ctx.pools.cover[target_index])
        assigned_bits[j] |= bit
    return assigned_bits


def _evaluate_full(ctx: _Context, assigned_bits) -> tuple[float, bool]:
    """Exact objective of a complete association, given as per-S-UAV target
    bitmasks, and its energy feasibility."""
    worst = 0.0
    for j, b in enumerate(assigned_bits):
        t, ok = ctx.latency(j, b)
        if not ok:
            return worst, False
        worst = max(worst, t)
    return worst, True


def _dfs(ctx: _Context, incumbent: list[int] | None,
         incumbent_obj: float, floor: float = -math.inf
         ) -> tuple[list[int] | None, float, int, bool]:
    """Branch and bound below an incumbent: every bound at or above it is
    cut. A child the bound cuts counts as one node, as if entered. It tests
    DFS_ALLOWANCE only at nodes the bound keeps, so cut children still count
    past it (1,003 nodes on the seed-0 16 x 40 call pinned in the tests). An
    allowance of 0 enters one node. The search stops once its incumbent is
    at or below floor, an objective no association beats (T*).

    The incumbent and the best association are per-S-UAV target bitmasks.
    Returns (best association, its objective, nodes, finished: searched to
    the end within the allowance).
    """
    pools, memo, latency = ctx.pools, ctx.memo, ctx.latency
    order, closing, candidates = pools.order, pools.closing, pools.cover
    n_targets = pools.scenario.n_targets
    allowance = DFS_ALLOWANCE
    assigned_bits = [0] * pools.scenario.n_suavs
    nodes = 1  # the root
    aborted = False

    def dfs(depth: int, bound: float) -> None:
        nonlocal incumbent, incumbent_obj, nodes, aborted
        if depth == n_targets:
            incumbent = assigned_bits[:]
            incumbent_obj = bound
            aborted = bound <= floor
            return
        if nodes >= allowance:
            aborted = True
            return
        target_index = order[depth]
        bit = 1 << target_index
        # Deciding the target fully decides these pools, whichever S-UAV
        # takes it: their latency, and so the bound, is exact.
        closed = closing[depth]
        # (latency growth, S-UAV), least first, ties to the lowest index.
        growth = []
        for j in candidates[target_index]:
            known, bits = memo[j], assigned_bits[j]
            before = (known.get(bits) or latency(j, bits))[0]
            after = (known.get(bits | bit) or latency(j, bits | bit))[0]
            growth.append((after - before, j))
        growth.sort()
        for _, j in growth:
            assigned_bits[j] |= bit
            new_bound = bound
            for cand in closed:
                bits = assigned_bits[cand]
                t, ok = memo[cand].get(bits) or latency(cand, bits)
                if not ok:
                    break
                if t > new_bound:
                    new_bound = t
            else:  # every closed pool keeps its budget
                nodes += 1  # entered or cut by the bound, the child counts
                if new_bound < incumbent_obj:
                    dfs(depth + 1, new_bound)
            assigned_bits[j] &= ~bit
            if aborted:  # no sibling is priced or visited past a stop
                break

    # The root's bound, tested as a child's; an incumbent at the floor stands.
    if 0.0 < incumbent_obj and floor < incumbent_obj:
        dfs(0, 0.0)
    return incumbent, incumbent_obj, nodes, not aborted


def solve_association(pools: Pools, beta: np.ndarray, q_m: Position3D,
                      warm: Association | None = None
                      ) -> tuple[Association, SearchInfo]:
    """Best association at the given offload decision and relay position: the
    search under DFS_ALLOWANCE nodes, the columns' lower bound, and the
    column cover with the search run to T* (see the module docstring for
    which runs when). warm, if given, joins the greedy start as an
    incumbent; the call reads its target bitmasks (Association.bits).
    Incumbents are per-S-UAV target bitmasks, and only the returned one
    becomes an alpha matrix."""
    ctx = _Context(pools, beta, q_m)
    starts = [greedy_incumbent(ctx)]
    if warm is not None:
        starts.insert(0, warm.bits)
    incumbent, incumbent_obj = None, float("inf")
    for start in starts:
        obj, ok = _evaluate_full(ctx, start)
        if ok and obj < incumbent_obj:
            incumbent, incumbent_obj = start, obj

    # Columns exist once an earlier call of this solve ran out of nodes.
    search_first = pools._cols is None
    best, obj, nodes, exact = incumbent, incumbent_obj, 0, False
    if search_first:
        best, obj, nodes, exact = _dfs(ctx, best, obj)
    if not exact and pools.largest_pool <= cover.MAX_POOL:
        cols, n_targets = pools.columns(), pools.scenario.n_targets
        latency, ok = cover.price(cols, ctx.prices, ctx.q, ctx.bandwidth_hz)
        lower = cover.lower_bound(cols, latency, ok, n_targets)
        if obj != lower:
            t_star, covering = cover.cover(
                cols, latency, ok & (latency <= obj), lower, n_targets)
            if not search_first:
                best, obj, nodes, _ = _dfs(ctx, best, obj, floor=t_star)
            if obj != t_star:
                best, obj = covering, t_star
        exact = True

    if best is None:
        raise InfeasibleSubproblem(
            "no energy-feasible association covers every target")
    info = SearchInfo(objective=obj, exact=exact, nodes=nodes)
    return Association(alpha=_alpha(pools.mask, best),
                       feasible_mask=pools.mask), info
