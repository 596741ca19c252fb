"""Box-closed columns of the association and their exact cover.

An S-UAV's hover point depends only on the bounding box of its targets, and
its task size is fixed once it monitors anything, so its latency and energy
depend only on that box. Giving each S-UAV every pool target inside its box
keeps the box, hence its latency, and still covers every target. So some
optimum picks at most one *box-closed* subset (column) of each S-UAV's pool:
the pool targets inside that subset's own box (build).

1. The lower bound. Every target is held by some S-UAV's column, so the
   optimum T* over all associations is at least the largest, over targets,
   of the least latency of an energy-feasible column holding the target
   (lower_bound). An association that attains the bound is optimal.
2. The cover. T* is the least t at which columns of latency <= t, at most
   one per S-UAV, cover every target; a search over target bitmasks decides
   that on integer data, so no tolerance enters (cover). Its association
   may give a target two monitors, which the problem allows.

The functions take plain data: the coverage mask, the targets' coordinates,
per-S-UAV price records and counts. Columns are int64 bitmasks over a pool,
so a pool holds at most MAX_POOL targets.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .cost import BranchPrice, floored_rates
from .errors import InfeasibleSubproblem

# Columns are int64 bitmasks over a pool.
MAX_POOL = 62
# Rows per block of the column dominance check, which bounds its memory.
_DOMINANCE_ROWS = 64


def bits(value: int):
    """The set bits of value, lowest first."""
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low


def _distinct(a: np.ndarray) -> np.ndarray:
    """np.unique(a), by sorting: NumPy's hashing path imports numpy.ma."""
    a = np.sort(a, axis=None)
    return np.concatenate((a[:1], a[1:][a[1:] != a[:-1]]))


class Columns(NamedTuple):
    """Every S-UAV's box-closed columns, concatenated S-UAV by S-UAV: rows
    starts[j]:starts[j + 1] are S-UAV j's. Column k's targets, ascending,
    are held[first[k]:first[k] + sizes[k]]; no column is empty."""

    starts: np.ndarray           # per S-UAV its first row, then the row count
    suav: np.ndarray             # the column's S-UAV
    masks: np.ndarray            # int64 bitmask over the S-UAV's pool
    held: np.ndarray             # every column's target indices, in turn
    sizes: np.ndarray            # targets per column
    first: np.ndarray            # where each column's targets start in held
    pos: np.ndarray              # (columns, 3) hover points


def _columns(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every distinct box-closed subset of one S-UAV's pool, whose targets
    lie at x, y, ascending, as an int64 bitmask over the pool (bit p: the
    pool's p-th target by index)."""
    bit = np.left_shift(np.int64(1), np.arange(len(x), dtype=np.int64))

    def spans(v: np.ndarray) -> np.ndarray:
        # Distinct bitmasks of the pool targets with v[a] <= v <= v[b].
        inside = (v[:, None, None] <= v) & (v <= v[None, :, None])
        return _distinct(np.where(inside, bit, 0).sum(axis=2))

    masks = _distinct(spans(x)[:, None] & spans(y)[None, :])
    return masks[masks != 0]


def build(mask: np.ndarray, x: list[float], y: list[float], cameras,
          fixed=None) -> Columns:
    """Every S-UAV's columns (_columns), with their targets and hover points
    in one pass over all of them.

    mask[i, j] is 1 where S-UAV j can monitor target i; x and y are the
    targets' coordinates; cameras holds each S-UAV's (2 tan(phi_h / 2),
    2 tan(phi_v / 2), gamma). fixed, if given, is each S-UAV's hover point
    whatever it monitors (S-UAVs that stay put)."""
    in_pool = mask.T.astype(bool)
    x, y = np.array(x), np.array(y)
    masks = [_columns(x[pool], y[pool]) for pool in in_pool]
    counts = [len(m) for m in masks]
    suav = np.repeat(np.arange(len(counts)), counts)
    masks = np.concatenate(masks)
    # pool[j, p]: S-UAV j's p-th pool target by index; 0 past its pool, where
    # no column has a member.
    width = np.arange(in_pool.sum(axis=1).max())
    pool = np.zeros((len(counts), len(width)), dtype=np.int64)
    pool[width < in_pool.sum(axis=1)[:, None]] = np.nonzero(in_pool)[1]
    members = (masks[:, None] >> width & 1) != 0
    held = pool[suav][members]
    sizes = members.sum(axis=1)
    first = np.cumsum(sizes) - sizes
    if fixed is not None:
        pos = np.array(fixed)[suav]
    else:
        x, y = x[held], y[held]
        x_lo, y_lo = (np.minimum.reduceat(v, first) for v in (x, y))
        x_hi, y_hi = (np.maximum.reduceat(v, first) for v in (x, y))
        # Pools.hover_point, in its order of operations, with each column's
        # own camera.
        wide, tall, gamma = np.array(cameras)[suav].T
        pos = np.column_stack([
            (x_hi + x_lo) / 2.0, (y_hi + y_lo) / 2.0,
            np.maximum((x_hi - x_lo) / wide, (y_hi - y_lo) / tall) + gamma])
    return Columns(starts=np.cumsum([0, *counts]), suav=suav, masks=masks,
                   held=held, sizes=sizes, first=first, pos=pos)


def price(cols: Columns, records, q, bandwidth_hz: float
          ) -> tuple[np.ndarray, np.ndarray]:
    """(latency, energy-feasible) of every column, with the relay at q, in
    one pass: records, one price record per S-UAV (cost.plan_prices),
    stacked into arrays, one row per column's S-UAV, so each column is
    priced exactly as the association's latency memo prices the same S-UAV
    and targets on floats."""
    record = BranchPrice(*np.array(records)[cols.suav].T)
    r = floored_rates(cols.pos, np.array(q), record.gamma1, bandwidth_hz)
    return record.latency(r), record.fits(r)


def lower_bound(cols: Columns, latency: np.ndarray, feasible: np.ndarray,
                n_targets: int) -> float:
    """A lower bound on T*: the largest, over targets, of the least latency
    of an energy-feasible column holding the target (inf if some target has
    none). Each S-UAV's targets in any feasible association lie in a column
    of the same box, hence of the same latency."""
    cheapest = np.full(n_targets, math.inf)
    np.minimum.at(cheapest, cols.held,
                  np.repeat(np.where(feasible, latency, math.inf), cols.sizes))
    return float(cheapest.max())


def _undominated(masks: np.ndarray, latency: np.ndarray) -> np.ndarray:
    """Columns that no other column covers a superset of at no more latency."""
    keep = np.ones(len(masks), dtype=bool)
    for start in range(0, len(masks), _DOMINANCE_ROWS):
        rows = slice(start, start + _DOMINANCE_ROWS)
        m, t = masks[rows, None], latency[rows, None]
        keep[rows] = ~(((m & ~masks) == 0) & (m != masks)
                       & (latency <= t)).any(axis=1)
    return keep


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
        for i in bits(uncovered):
            count = bin(reach[i] & free).count("1")
            if count < best_count:
                best, best_count = i, count
                if not count:
                    break
        for j in bits(reach[best] & free):
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


def cover(cols: Columns, latency: np.ndarray, keep: np.ndarray, lower: float,
          n_targets: int) -> tuple[float, list[int]]:
    """(T*, association): the least largest latency of box-closed columns,
    at most one per S-UAV, that cover every target, and an association
    attaining it, as per-S-UAV target bitmasks.
    Only the columns in keep may be in it: the energy-feasible ones no
    slower than an incumbent. lower is lower_bound, where the search for
    T* starts."""
    n_suavs = len(cols.starts) - 1
    rows = []
    for j in range(n_suavs):
        lo, hi = cols.starts[j], cols.starts[j + 1]
        kept = lo + np.flatnonzero(keep[lo:hi])
        rows.append(kept[_undominated(cols.masks[kept], latency[kept])])
    rows = np.concatenate(rows)
    # By latency, then S-UAV, then target bitmask: within one S-UAV the pool
    # mask orders columns as their bitmask over all targets does.
    rows = rows[np.lexsort((cols.masks[rows], cols.suav[rows], latency[rows]))]
    sizes = cols.sizes[rows]
    ends = np.cumsum(sizes)
    # The kept columns' targets, in that order.
    held = cols.held[np.arange(sizes.sum())
                     + np.repeat(cols.first[rows] - (ends - sizes), sizes)]
    held, times = held.tolist(), latency[rows].tolist()

    by_suav: list[list[int]] = [[] for _ in range(n_suavs)]
    reach = [0] * n_targets
    start = 0
    for k, (t, j, end) in enumerate(zip(times, cols.suav[rows].tolist(),
                                        ends.tolist())):
        targets, start = held[start:end], end
        # Python ints: a bitmask over all targets may pass 64 bits.
        by_suav[j].append(sum(1 << i for i in targets))
        for i in targets:
            reach[i] |= 1 << j
        if t >= lower and (k + 1 == len(times) or times[k + 1] > t):
            chosen = _cover_at(by_suav, reach, n_targets)
            if chosen is not None:
                assigned_bits = [0] * n_suavs
                for j, column in chosen:
                    assigned_bits[j] = column
                return t, assigned_bits
    raise InfeasibleSubproblem(
        "no energy-feasible association covers every target")
