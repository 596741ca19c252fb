"""Relay placement with fixed offload decision and association.

The non-convex min-max placement is handled by successive convexification:
around the current point the rate of every transmitting S-UAV is replaced by
its concave quadratic lower bound, the worst-case common rate lambda is
maximized over the flight box, and the expansion point moves to the new
optimum until the exact objective stalls.

The inner concave max-min is solved exactly. Each S-UAV's surrogate
constraint "rate >= lambda B" reads |q - q_n|^2 + lambda w_n <= R_n, with
w_n = B / slope_n and R_n = d2r_n + a_n / slope_n: a ball about q_n whose
radius shrinks as lambda grows. The difference of two tight constraints is
affine in (q, lambda), so a support of at most four tight constraints has a
closed-form point, up to one quadratic in lambda. A box face fixes its axis
and moves each centre onto it; a pinned axis (lo == hi) is two faces at
one value, and needs nothing more. minimize pivots as Welzl's algorithm
does (Welzl 1991; Matousek, Sharir & Welzl 1996): it adds the most violated
constraint and keeps the first support of the old one plus that constraint
that holds them all. Its certificate closes when every constraint holds and
the support's barycentric multipliers are nonnegative. It runs on NumPy and
Python floats alone, so its point does not depend on the BLAS thread count.

Each inner solve (solve_sp2_2) returns whichever of two box points has the
higher minimum surrogate rate: the exact solve's point or the expansion
point. The expansion point always lies in the box, and there the surrogate
equals the exact rate, so the common rate never falls below the current
one and stays positive. sca_loop counts the inner solves whose certificate
did not close. Each S-UAV's energy budget floors its own rate, and the
surrogate bounds the rate from below, so a point whose surrogate rates meet
every floor keeps every budget.

The exact objective prices links as the evaluator does (cost.floored_rates),
so sca_loop's trace ends at evaluate_solution's objective, to the bit.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleSubproblem
from .cost import (BranchPrice, effective_chunk_bits, floored_rates,
                   per_solve, suav_prices)
from .scenario import Association, Position3D, Scenario

SCA_TOL_S = 1e-4
SCA_MAX_ITER = 50
# The exact inner solve's tolerances: a ball holds if its lam is at most
# _LAM_TOL (relative) below the support's, and a face if the point is at
# most _POS_TOL (relative to the box's coordinates) past it. A barycentric
# multiplier is nonnegative above -_KKT_TOL, and a face's multiplier if the
# weighted centroid is at most _KKT_TOL of the box's span short of the face.
# A support direction shorter than _SINGULAR (relative, squared) is
# singular. A solve not settled after _MAX_PIVOTS is uncertified.
_LAM_TOL = 1e-13
_POS_TOL = 1e-12
_KKT_TOL = 1e-9
_SINGULAR = 1e-12
_MAX_PIVOTS = 64


@dataclass(frozen=True)
class PlacementTerms:
    """Per transmitting S-UAV: geometry and the latency affine pieces.

    Worst-case-rate latency is tx_bits / lambda + fixed_s; the exact latency
    replaces lambda with the S-UAV's own rate.
    """

    q: np.ndarray         # (n, 3) repositioned S-UAV locations
    gamma1: np.ndarray    # (n,) SNR coefficients
    tx_bits: np.ndarray   # (n,) bits actually transmitted (compressed or raw)
    fixed_s: np.ndarray   # (n,) compute time independent of the link
    floors: np.ndarray    # (n,) least rate each S-UAV's energy budget allows
    bandwidth_hz: float


def _placement_prices(scenario: Scenario, s_bits: np.ndarray,
                      beta) -> tuple[list[bool], BranchPrice, np.ndarray]:
    """(transmitting S-UAVs, their stacked price records, their rate
    floors); raises if some S-UAV, idle or not, keeps its budget at no
    rate."""
    prices = suav_prices(scenario, s_bits, beta)
    floors = [p.rate_floor for p in prices]
    if math.inf in floors:
        raise InfeasibleSubproblem(
            f"S-UAV {floors.index(math.inf)} has no energy headroom for any "
            "transmission")
    rows = s_bits > 0.0
    return (rows.tolist(), BranchPrice(*np.array(prices)[rows].T),
            np.array(floors)[rows])


def placement_terms(scenario: Scenario, association: Association,
                    beta: np.ndarray, tables: dict | None = None
                    ) -> PlacementTerms:
    """The transmitting S-UAVs' rows: their positions, and what
    _placement_prices reads off their price records. Given a solve's
    tables, those records are built once per solve, set of video-carrying
    S-UAVs and beta (cost.per_solve)."""
    s_bits = effective_chunk_bits(scenario, association.alpha)
    key = ("placement", s_bits.tobytes(), tuple(np.asarray(beta).tolist()))
    rows, sent, floors = per_solve(
        tables, key, lambda: _placement_prices(scenario, s_bits, beta))
    return PlacementTerms(
        q=np.array([s.current_pos.xyz for s, row in zip(scenario.suavs, rows)
                    if row]).reshape(-1, 3),
        gamma1=sent.gamma1, tx_bits=sent.tx_bits, fixed_s=sent.fixed_s,
        floors=floors, bandwidth_hz=scenario.constants.bandwidth_hz,
    )


def exact_objective(terms: PlacementTerms, points: np.ndarray) -> np.ndarray:
    """Exact min-max latency at one or many candidate relay positions, each
    evaluate_solution's objective there to the bit."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rates = floored_rates(terms.q, pts[:, None, :], terms.gamma1,
                          terms.bandwidth_hz)
    lat = terms.tx_bits[None, :] / rates + terms.fixed_s[None, :]
    return lat.max(axis=1, initial=0.0)  # 0 with no transmitter


def _box(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    return scenario.ruav.box_lo.array, scenario.ruav.box_hi.array


def _surrogate_coeffs(terms: PlacementTerms, q_ref: np.ndarray):
    """(a, slope, d2_ref) rows of the rate lower bound expanded at q_ref."""
    d2r = np.maximum(((terms.q - q_ref[None, :]) ** 2).sum(axis=1), 1.0)
    a = terms.bandwidth_hz * np.log2(1.0 + terms.gamma1 / d2r)
    slope = (terms.bandwidth_hz * terms.gamma1 * math.log2(math.e)
             / (d2r * (d2r + terms.gamma1)))
    return a, slope, d2r


def surrogate_rates(terms: PlacementTerms, q_ref: np.ndarray,
                    points: np.ndarray) -> np.ndarray:
    """Surrogate rate of every S-UAV at one or many candidate positions."""
    a, slope, d2r = _surrogate_coeffs(terms, q_ref)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d2 = ((pts[:, None, :] - terms.q[None, :, :]) ** 2).sum(axis=2)
    return a[None, :] - slope[None, :] * (d2 - d2r[None, :])


class Maximin(NamedTuple):
    """An exact max-min solve: the point x in metres, the common rate ratio
    lam there, and whether its optimality certificate closed."""

    x: np.ndarray
    lam: float
    success: bool


def _dot(u, v) -> float:
    return sum(map(operator.mul, u, v))


def _largest_root(a: float, b: float, c: float) -> float | None:
    """The largest root of a x^2 + b x + c with a >= 0, in the
    cancellation-free form (roots c/s and s/a). Where the weights are
    equal, a is roundoff, and b > 0 picks the linear root. None if no root
    bounds x above."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    s = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    if s < 0.0:  # b >= 0
        return c / s
    return s / a if a > 0.0 else None


def _forward(cols: list, b: list) -> list:
    """R^-T b, for R upper triangular given by its columns."""
    x = []
    for col, bj in zip(cols, b):
        x.append((bj - _dot(col, x)) / col[-1])
    return x


def _support(cs: list, ws: list, rs: list):
    """The point of the affine hull of the centres cs where every constraint
    |q - c|^2 + lam w <= r is tight, at the largest lam: (q, lam, the
    barycentric weights of q), or None.

    Subtracting the first constraint from the others leaves equations
    affine in (q, lam): 2 x.e_j = |e_j|^2 - r_j + r_0 + lam (w_j - w_0),
    with x = q - c_0 and e_j = c_j - c_0. With e = U R (Gram-Schmidt) and
    x = U s, they fix s as an affine function of lam, and the first
    constraint is a quadratic in lam. One Newton step on the tight
    constraints then removes the roundoff of the quadratic, which near a
    double root is large. A direction under _SINGULAR of its e_j
    (relative, squared), as for coplanar centres, makes the support
    singular."""
    c0, w0, r0 = cs[0], ws[0], rs[0]
    us, cols = [], []  # U's rows, R's columns
    for cn in cs[1:]:
        v = [a - b for a, b in zip(cn, c0)]
        e2 = _dot(v, v)
        col = []
        for u in us:
            col.append(_dot(u, v))
            v = [a - col[-1] * b for a, b in zip(v, u)]
        rjj = math.sqrt(_dot(v, v))
        if rjj * rjj <= _SINGULAR * e2:
            return None
        us.append([a / rjj for a in v])
        cols.append(col + [rjj])
    m = len(cols)
    pts = [[0.0] * m] + [col + [0.0] * (m - len(col)) for col in cols]
    dw = [0.5 * (wn - w0) for wn in ws[1:]]
    s0 = _forward(cols, [0.5 * (_dot(p, p) - rn + r0)
                         for p, rn in zip(pts[1:], rs[1:])])
    s1 = _forward(cols, dw)
    lam = _largest_root(_dot(s1, s1), 2.0 * _dot(s0, s1) + w0,
                        _dot(s0, s0) - r0)
    if lam is None:
        return None
    s = [a + lam * b for a, b in zip(s0, s1)]
    g = [_dot(d, d) + lam * wn - rn for wn, rn, d in zip(
        ws, rs, ([a - b for a, b in zip(s, p)] for p in pts))]
    a0 = _forward(cols, [0.5 * (gn - g[0]) for gn in g[1:]])
    deriv = 2.0 * _dot(s, s1) + w0  # of the first constraint along s(lam)
    if deriv != 0.0:
        step = -(g[0] + 2.0 * _dot(s, a0)) / deriv
        s = [a + b + step * c for a, b, c in zip(s, a0, s1)]
        lam += step
    q = [x + _dot(s, axis) for x, axis in zip(c0, zip(*us))] if us else c0[:]
    t = [0.0] * m  # R t = s
    for j in reversed(range(m)):
        t[j] = (s[j] - sum(cols[k][j] * t[k]
                           for k in range(j + 1, m))) / cols[j][j]
    return q, lam, [1.0 - sum(t)] + t


def minimize(centres: np.ndarray, w: np.ndarray, r: np.ndarray,
             lo: np.ndarray, hi: np.ndarray) -> Maximin:
    """max lam subject to |q - c_n|^2 + lam w_n <= r_n for every row c_n of
    centres (w_n > 0), and lo <= q <= hi, solved exactly by pivoting on
    supports.

    A support is a set of tight constraints: at most four, balls and box
    faces. A face fixes its axis, so on it each centre moves onto the face
    and r_n falls by the squared move. A support's point lies exactly on
    each of its faces, so no face on an axis it fixes is ever violated; a
    pinned axis (lo == hi) is two such faces at one value. A support's
    point is optimal for its own constraints when its barycentric weights
    are nonnegative and, on each face, the weighted centroid of the
    original centres lies on the far side of it.

    Each pivot adds the most violated constraint v, a face first. It tries
    v with each subset of the old support, largest first, and keeps the
    first point that meets the old support's constraints and is optimal
    (else the feasible one of largest lam). That point is optimal for the
    old support and v together, so lam falls strictly and no support
    repeats."""
    n = len(w)
    lo_l, hi_l = lo.tolist(), hi.tolist()
    # On an axis where every centre agrees, no support spans a direction.
    flat = {i for i, same in enumerate(centres.min(axis=0)
                                       == centres.max(axis=0)) if same}
    c, wl, rl = centres.tolist(), w.tolist(), r.tolist()
    pos_tol = [_POS_TOL * max(1.0, abs(a), abs(b))
               for a, b in zip(lo_l, hi_l)]
    face_tol = [_KKT_TOL * max(1.0, b - a) for a, b in zip(lo_l, hi_l)]

    def face(k: int) -> tuple[int, int, float]:
        axis, upper = divmod(k - n, 2)
        return axis, upper, (hi_l if upper else lo_l)[axis]

    def holds(q: list, lam: float, ids) -> bool:
        tol = _LAM_TOL * max(1.0, abs(lam))
        for k in ids:
            if k < n:
                d2 = sum((a - b) ** 2 for a, b in zip(q, c[k]))
                if (rl[k] - d2) / wl[k] < lam - tol:
                    return False
            else:
                axis, upper, v = face(k)
                if (q[axis] - v if upper else v - q[axis]) > pos_tol[axis]:
                    return False
        return True

    def solve(ids: tuple):
        """The support's point, lam and whether it is optimal, or None."""
        balls = [k for k in ids if k < n]
        faces = [face(k) for k in ids if k >= n]
        if not balls or len(balls) > 4 - len(flat | {f[0] for f in faces}):
            return None
        cs = [c[k][:] for k in balls]
        rs = [rl[k] for k in balls]
        for axis, _, v in faces:
            for j, cj in enumerate(cs):
                rs[j] -= (cj[axis] - v) ** 2
                cj[axis] = v
        sol = _support(cs, [wl[k] for k in balls], rs)
        if sol is None:
            return None
        q, lam, bary = sol
        ok = min(bary) >= -_KKT_TOL
        for axis, upper, v in faces:
            centroid = _dot(bary, [c[k][axis] for k in balls])
            side = centroid - v if upper else v - centroid
            ok = ok and side >= -face_tol[axis]
        return q, lam, ok

    def violated(q: list, lam: float, basis: tuple) -> int | None:
        """The most violated constraint outside the basis (whose own
        constraints are tight by construction), a face first; or None."""
        for axis in range(3):
            if q[axis] < lo_l[axis] - pos_tol[axis]:
                return n + 2 * axis
            if q[axis] > hi_l[axis] + pos_tol[axis]:
                return n + 2 * axis + 1
        f = (r - ((centres - np.array(q)) ** 2).sum(axis=1)) / w
        f[[k for k in basis if k < n]] = np.inf
        k = int(np.argmin(f))
        return k if f[k] < lam - _LAM_TOL * max(1.0, abs(lam)) else None

    proj = np.clip(centres, lo, hi)
    single = (r - ((proj - centres) ** 2).sum(axis=1)) / w
    v0 = int(np.argmin(single))
    basis = (v0,) + tuple(n + 2 * i + int(c[v0][i] > hi_l[i])
                          for i in range(3) if proj[v0, i] != c[v0][i])
    q, lam, ok = proj[v0].tolist(), float(single[v0]), True
    for _ in range(_MAX_PIVOTS):
        v = violated(q, lam, basis)
        if v is None:
            return Maximin(np.clip(np.array(q), lo, hi), lam, ok)
        best = None
        for ids in (keep + (v,) for size in range(min(len(basis), 3), -1, -1)
                    for keep in itertools.combinations(basis, size)):
            cand = solve(ids)
            if cand is None or not holds(cand[0], cand[1],
                                         set(basis) - set(ids)):
                continue
            if best is None or cand[2] or cand[1] > best[1][1]:
                best = (ids, cand)
            if cand[2]:
                break
        if best is None:
            break
        basis, (q, lam, ok) = best
    return Maximin(np.clip(np.array(q), lo, hi), lam, False)


def default_initial_position(scenario: Scenario) -> Position3D:
    lo, hi = _box(scenario)
    xy = np.mean([s.current_pos.array[:2] for s in scenario.suavs], axis=0)
    q = np.clip(np.array([xy[0], xy[1], 0.5 * (lo[2] + hi[2])]), lo, hi)
    return Position3D(*q)


def solve_sp2_2(scenario: Scenario, terms: PlacementTerms,
                q_m_ref: Position3D) -> tuple[Position3D, bool]:
    """One convexified placement solve around the expansion point q_m_ref,
    for terms with at least one transmitting S-UAV.

    The exact max-min point (minimize) and the expansion point, both
    clipped to the box, are the candidates; the one with the higher minimum
    surrogate rate goes first, the exact point on a tie. Returns
    (point, uncertified): the first candidate whose surrogate rates meet
    every S-UAV's floor, and whether the solve's certificate failed to
    close."""
    lo, hi = _box(scenario)
    q_ref = q_m_ref.array
    a, slope, d2r = _surrogate_coeffs(terms, q_ref)
    res = minimize(terms.q, terms.bandwidth_hz / slope, d2r + a / slope,
                   lo, hi)
    cands = np.clip(np.stack([res.x, q_ref]), lo, hi)
    rates = surrogate_rates(terms, q_ref, cands)
    for k in (int(np.argmax(rates.min(axis=1))), 1):
        if (rates[k] >= terms.floors).all():
            return Position3D(*cands[k]), not res.success
    raise InfeasibleSubproblem(
        "energy budgets demand rates the geometry cannot deliver")


def sca_loop(scenario: Scenario, association: Association, beta: np.ndarray,
             q_m: Position3D, *, tables: dict | None = None
             ) -> tuple[Position3D, list, int]:
    """Successive convexification from q_m until the exact objective stalls.
    tables: as placement_terms'.

    Returns (best point, trace, fallbacks): the trace holds the exact
    objective at the start and after each round, ending at the point's, and
    fallbacks counts the rounds whose inner solve was uncertified. A round
    never lowers the surrogate's common rate below its value at the
    expansion point; a point that still worsens the exact objective is
    discarded, so the trace never rises.
    """
    terms = placement_terms(scenario, association, beta, tables)
    if terms.q.shape[0] == 0:
        return q_m, [0.0], 0

    trace = [float(exact_objective(terms, q_m.array)[0])]
    fallbacks = 0
    for _ in range(SCA_MAX_ITER):
        nxt, failed = solve_sp2_2(scenario, terms, q_m)
        fallbacks += failed
        exact = float(exact_objective(terms, nxt.array)[0])
        if exact <= trace[-1] + 1e-12:
            q_m = nxt
            trace.append(exact)
        else:
            trace.append(trace[-1])  # reject the move, keep the point
        if abs(trace[-2] - trace[-1]) < SCA_TOL_S:
            break
    return q_m, trace, fallbacks
