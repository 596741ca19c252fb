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
the support's barycentric multipliers are nonnegative.

Each inner solve (solve_sp2_2) returns whichever of two box points has the
higher minimum surrogate rate: the exact solve's point or the expansion
point. The expansion point always lies in the box, and there the surrogate
equals the exact rate to one ulp (the surrogate takes NumPy's log2, the
exact rate math.log2, and the two round apart on some inputs), so the
common rate never falls more than an ulp below the current one and stays
positive. sca_loop counts the inner solves whose certificate did not
close. Each S-UAV's energy budget floors its own rate, and the surrogate
bounds the rate from below, so a point whose surrogate rates meet every
floor keeps every budget; at the expansion point, where the surrogate may
exceed the exact rate by that ulp, the floor test and the evaluator's
budget test can disagree.

The exact objective prices links as the evaluator does (cost.floored_rate),
so sca_loop's trace ends at evaluate_solution's objective, to the bit.

The block works on a handful of rows, where a NumPy call costs more than
its arithmetic, so each round runs on Python floats: PlacementTerms.rows,
built once per sca_loop call from the solve's association.Pools (each
transmitter's price record and its hover point, Pools.hover_point), feeds
the exact objective, the surrogate's coefficients and rates, the choice
between the candidates, the floor test and minimize. Each expression keeps the order of operations of the NumPy
form it replaced, so the results are the same to the bit: squared
distances are summed as (dx*dx + dy*dy) + dz*dz, dot products left to
right from 0.0, as sum() does, and ties go to the first row, as argmin's
do. The surrogate's value at the expansion point takes NumPy's log2, one
call per round, which differs from math.log2 in the last bit on some
inputs. No BLAS routine is called, so no result depends on the thread
count. Points leave the block as Position3D of NumPy floats.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .association import Pools
from .errors import InfeasibleSubproblem
from .cost import floored_rate, plan_prices
from .scenario import Position3D, Scenario

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
_LOG2E = math.log2(math.e)


@dataclass(frozen=True)
class PlacementTerms:
    """Per transmitting S-UAV, as Python floats for the per-round
    arithmetic: (x, y, h, gamma1, tx_bits, fixed_s, floor), its repositioned
    location, SNR coefficient, bits actually transmitted (compressed or
    raw), compute time independent of the link, and the least rate its
    energy budget allows. Worst-case-rate latency is tx_bits / lambda +
    fixed_s; the exact latency replaces lambda with the S-UAV's own rate.
    """

    rows: tuple
    bandwidth_hz: float


def placement_terms(pools: Pools, bits, beta) -> PlacementTerms:
    """The transmitting S-UAVs' rows, read off their records under the
    offload decision beta in the solve's price table (Pools.prices) and
    their hover points (Pools.hover_point): one per S-UAV that carries
    video, whose target bitmask in bits is not empty. Raises if one of them
    keeps its budget at no rate; an idle one keeps it, as the table
    vouches."""
    records = plan_prices(pools.prices, beta)
    rows = []
    for j, b in enumerate(bits):
        if not b:
            continue
        p = records[j]
        floor = p.rate_floor
        if floor == math.inf:
            raise InfeasibleSubproblem(
                f"S-UAV {j} has no energy headroom for any transmission")
        rows.append((*map(float, pools.hover_point(j, b)), p.gamma1,
                     p.tx_bits, p.fixed_s, floor))
    return PlacementTerms(rows=tuple(rows),
                          bandwidth_hz=pools.scenario.constants.bandwidth_hz)


def _floats(p: Position3D) -> list[float]:
    """p's (x, y, h) as Python floats: its fields may be NumPy scalars."""
    return [float(p.x), float(p.y), float(p.h)]


def _clip(p, lo, hi) -> list[float]:
    """np.clip(p, lo, hi) on (x, y, h) floats, in its order of tests."""
    out = []
    for v, a, b in zip(p, lo, hi):
        v = v if v > a else a
        out.append(v if v < b else b)
    return out


def exact_objective(terms: PlacementTerms, point) -> float:
    """Exact min-max latency with the relay at point, an (x, y, h) triple:
    evaluate_solution's objective there, to the bit, since each rate is
    cost.floored_rate's. 0.0 with no transmitter."""
    b = terms.bandwidth_hz
    worst = 0.0
    for x, y, h, gamma1, tx_bits, fixed_s, _ in terms.rows:
        lat = tx_bits / floored_rate((x, y, h), point, gamma1, b) + fixed_s
        if lat > worst:
            worst = lat
    return worst


def _surrogate_coeffs(terms: PlacementTerms, q_ref) -> tuple[list, list, list]:
    """(a, slope, d2_ref) per row of the rate lower bound expanded at q_ref,
    an (x, y, h) triple. a, the rate at q_ref, takes NumPy's log2 over the
    rows, which differs from math.log2 in the last bit on some inputs."""
    (rx, ry, rh), b = q_ref, terms.bandwidth_hz
    d2r, snr, slope = [], [], []
    for x, y, h, gamma1, *_ in terms.rows:
        dx, dy, dz = x - rx, y - ry, h - rh
        d2 = max((dx * dx + dy * dy) + dz * dz, 1.0)
        d2r.append(d2)
        snr.append(1.0 + gamma1 / d2)
        slope.append(b * gamma1 * _LOG2E / (d2 * (d2 + gamma1)))
    return [b * v for v in np.log2(snr).tolist()], slope, d2r


def surrogate_rates(terms: PlacementTerms, coeffs: tuple,
                    points) -> list[list]:
    """Surrogate rate of every row at each of points, (x, y, h) triples: one
    list per point. coeffs: the surrogate's expansion, _surrogate_coeffs."""
    rows = list(zip(terms.rows, *coeffs))
    out = []
    for px, py, ph in points:
        rates = []
        for (x, y, h, *_), a, slope, d2r in rows:
            dx, dy, dz = px - x, py - y, ph - h
            rates.append(a - slope * (((dx * dx + dy * dy) + dz * dz) - d2r))
        out.append(rates)
    return out


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
    """R^-T b, for R upper triangular given by its columns; each column,
    and the result, padded with zeros to length 3."""
    x = [0.0, 0.0, 0.0]
    for j, (col, bj) in enumerate(zip(cols, b)):
        above = 0.0  # R's column j above its diagonal, dotted with x
        for k in range(j):
            above += col[k] * x[k]
        x[j] = (bj - above) / col[j]
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
    singular.

    The arithmetic is written out on scalars. Every dot product is summed
    left to right from 0.0, and vectors in U's coordinates (at most 3) are
    padded with zeros to length 3, which adds only zero terms."""
    (x0, y0, z0), w0, r0 = cs[0], ws[0], rs[0]
    us, cols = [], []  # U's rows, R's columns
    for cx, cy, cz in cs[1:]:
        ex, ey, ez = cx - x0, cy - y0, cz - z0
        e2 = 0.0 + ex * ex + ey * ey + ez * ez
        col = [0.0, 0.0, 0.0]
        for j, (ux, uy, uz) in enumerate(us):
            col[j] = d = 0.0 + ux * ex + uy * ey + uz * ez
            ex, ey, ez = ex - d * ux, ey - d * uy, ez - d * uz
        rjj = math.sqrt(0.0 + ex * ex + ey * ey + ez * ez)
        if rjj * rjj <= _SINGULAR * e2:
            return None
        col[len(us)] = rjj
        us.append((ex / rjj, ey / rjj, ez / rjj))
        cols.append(col)
    (a0, a1, a2), (b0, b1, b2) = (  # s = s0 + lam s1
        _forward(cols, [0.5 * ((0.0 + p0 * p0 + p1 * p1 + p2 * p2) - rn + r0)
                        for (p0, p1, p2), rn in zip(cols, rs[1:])]),
        _forward(cols, [0.5 * (wn - w0) for wn in ws[1:]]))
    lam = _largest_root(0.0 + b0 * b0 + b1 * b1 + b2 * b2,
                        2.0 * (0.0 + a0 * b0 + a1 * b1 + a2 * b2) + w0,
                        (0.0 + a0 * a0 + a1 * a1 + a2 * a2) - r0)
    if lam is None:
        return None
    s0, s1, s2 = a0 + lam * b0, a1 + lam * b1, a2 + lam * b2
    g = [(0.0 + s0 * s0 + s1 * s1 + s2 * s2) + lam * w0 - r0]
    for (p0, p1, p2), wn, rn in zip(cols, ws[1:], rs[1:]):  # e_j on U
        d0, d1, d2 = s0 - p0, s1 - p1, s2 - p2
        g.append((0.0 + d0 * d0 + d1 * d1 + d2 * d2) + lam * wn - rn)
    # the first constraint's derivative along s(lam)
    deriv = 2.0 * (0.0 + s0 * b0 + s1 * b1 + s2 * b2) + w0
    if deriv != 0.0:
        n0, n1, n2 = _forward(cols, [0.5 * (gn - g[0]) for gn in g[1:]])
        step = -(g[0] + 2.0 * (0.0 + s0 * n0 + s1 * n1 + s2 * n2)) / deriv
        s0, s1, s2 = (s0 + n0 + step * b0, s1 + n1 + step * b1,
                      s2 + n2 + step * b2)
        lam += step
    s = [s0, s1, s2][:len(us)]
    q = [x + _dot(s, axis)
         for x, axis in zip(cs[0], zip(*us))] if us else list(cs[0])
    t = [0.0] * len(s)  # R t = s
    for j in reversed(range(len(s))):
        t[j] = (s[j] - sum(cols[k][j] * t[k]
                           for k in range(j + 1, len(s)))) / cols[j][j]
    return q, lam, [1.0 - sum(t)] + t


def _start(c: list, w: list, r: list, lo: list, hi: list):
    """minimize's first support: the ball whose centre, projected onto the
    box, has the least lam there, with the faces the projection moved it
    onto. (point, lam, basis); the first such ball on a tie."""
    best = None
    for k, (p, wk, rk) in enumerate(zip(c, w, r)):
        (x, y, h), proj = p, _clip(p, lo, hi)
        dx, dy, dz = proj[0] - x, proj[1] - y, proj[2] - h
        lam = (rk - ((dx * dx + dy * dy) + dz * dz)) / wk
        if best is None or lam < best[1]:
            best = (k, lam, proj)
    v0, lam, proj = best
    return proj, lam, (v0,) + tuple(len(w) + 2 * i + int(c[v0][i] > hi[i])
                                    for i in range(3) if proj[i] != c[v0][i])


def _most_violated(c: list, w: list, r: list, q: list, lam: float,
                   skip) -> int | None:
    """The ball outside skip whose lam at q is least, the first on a tie,
    if that lam is below lam by more than _LAM_TOL (relative); else None."""
    qx, qy, qh = q
    least, worst = math.inf, None
    for k, ((x, y, h), wk, rk) in enumerate(zip(c, w, r)):
        if k in skip:
            continue
        dx, dy, dz = x - qx, y - qy, h - qh
        f = (rk - ((dx * dx + dy * dy) + dz * dz)) / wk
        if f < least:
            least, worst = f, k
    return worst if least < lam - _LAM_TOL * max(1.0, abs(lam)) else None


def minimize(centres: list, w: list, r: list, lo: list, hi: list) -> Maximin:
    """max lam subject to |q - c_n|^2 + lam w_n <= r_n for every row c_n of
    centres (w_n > 0), and lo <= q <= hi, solved exactly by pivoting on
    supports. Every input is Python floats: centres (x, y, h) rows, w and r
    one per row, lo and hi (x, y, h).

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
    c, n = centres, len(w)
    # On an axis where every centre agrees, no support spans a direction.
    flat = {i for i, axis in enumerate(zip(*c)) if min(axis) == max(axis)}
    pos_tol = [_POS_TOL * max(1.0, abs(a), abs(b)) for a, b in zip(lo, hi)]
    face_tol = [_KKT_TOL * max(1.0, b - a) for a, b in zip(lo, hi)]

    def face(k: int) -> tuple[int, int, float]:
        axis, upper = divmod(k - n, 2)
        return axis, upper, (hi if upper else lo)[axis]

    def holds(q: list, lam: float, ids) -> bool:
        tol = _LAM_TOL * max(1.0, abs(lam))
        qx, qy, qh = q
        for k in ids:
            if k < n:
                x, y, h = c[k]
                d2 = 0.0 + (qx - x) ** 2 + (qy - y) ** 2 + (qh - h) ** 2
                if (r[k] - d2) / w[k] < lam - tol:
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
        cs = [list(c[k]) for k in balls]
        rs = [r[k] for k in balls]
        for axis, _, v in faces:
            for j, cj in enumerate(cs):
                rs[j] -= (cj[axis] - v) ** 2
                cj[axis] = v
        sol = _support(cs, [w[k] for k in balls], rs)
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
            if q[axis] < lo[axis] - pos_tol[axis]:
                return n + 2 * axis
            if q[axis] > hi[axis] + pos_tol[axis]:
                return n + 2 * axis + 1
        return _most_violated(c, w, r, q, lam, basis)

    q, lam, basis = _start(c, w, r, lo, hi)
    ok = True
    for _ in range(_MAX_PIVOTS):
        v = violated(q, lam, basis)
        if v is None:
            return Maximin(np.array(_clip(q, lo, hi)), lam, ok)
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
    return Maximin(np.array(_clip(q, lo, hi)), lam, False)


def default_initial_position(pools: Pools, bits) -> Position3D:
    """The S-UAVs' mean (x, y) at their hover points over their target
    bitmasks in bits (Pools.hover_point), at the box's middle altitude,
    clipped to the box. The means are summed left to right, as NumPy's mean
    over rows."""
    ruav = pools.scenario.ruav
    lo, hi = _floats(ruav.box_lo), _floats(ruav.box_hi)
    xs, ys, _ = zip(*(pools.hover_point(j, b) for j, b in enumerate(bits)))
    q = [sum(map(float, xs)) / len(xs), sum(map(float, ys)) / len(ys),
         0.5 * (lo[2] + hi[2])]
    return Position3D(*map(np.float64, _clip(q, lo, hi)))


def _inner_problem(terms: PlacementTerms, coeffs: tuple
                   ) -> tuple[list, list, list]:
    """The surrogate max-min with coefficients coeffs (_surrogate_coeffs),
    as minimize takes it: (centres, w, r) with w_n = B / slope_n and
    R_n = d2r_n + a_n / slope_n."""
    a, slope, d2r = coeffs
    b = terms.bandwidth_hz
    return ([row[:3] for row in terms.rows], [b / s for s in slope],
            [d + an / s for an, s, d in zip(a, slope, d2r)])


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
    lo, hi = _floats(scenario.ruav.box_lo), _floats(scenario.ruav.box_hi)
    q_ref = _floats(q_m_ref)
    coeffs = _surrogate_coeffs(terms, q_ref)
    res = minimize(*_inner_problem(terms, coeffs), lo, hi)
    cands = [res.x.tolist(), _clip(q_ref, lo, hi)]
    rates = surrogate_rates(terms, coeffs, cands)
    for k in (0 if min(rates[0]) >= min(rates[1]) else 1, 1):
        if all(rate >= floor
               for rate, (*_, floor) in zip(rates[k], terms.rows)):
            return Position3D(*map(np.float64, cands[k])), not res.success
    raise InfeasibleSubproblem(
        "energy budgets demand rates the geometry cannot deliver")


def sca_loop(pools: Pools, bits, beta, q_m: Position3D
             ) -> tuple[Position3D, list, int]:
    """Successive convexification from q_m until the exact objective stalls,
    on the plan's rows from the solve's pools (placement_terms).

    Returns (best point, trace, fallbacks): the trace holds the exact
    objective at the start and after each round, ending at the point's, and
    fallbacks counts the rounds whose inner solve was uncertified. A round
    never lowers the surrogate's common rate below its value at the
    expansion point; a point that still worsens the exact objective is
    discarded, so the trace never rises.
    """
    terms = placement_terms(pools, bits, beta)
    if not terms.rows:
        return q_m, [0.0], 0

    trace = [exact_objective(terms, _floats(q_m))]
    fallbacks = 0
    for _ in range(SCA_MAX_ITER):
        nxt, failed = solve_sp2_2(pools.scenario, terms, q_m)
        fallbacks += failed
        exact = exact_objective(terms, _floats(nxt))
        if exact <= trace[-1] + 1e-12:
            q_m = nxt
            trace.append(exact)
        else:
            trace.append(trace[-1])  # reject the move, keep the point
        if abs(trace[-2] - trace[-1]) < SCA_TOL_S:
            break
    return q_m, trace, fallbacks
