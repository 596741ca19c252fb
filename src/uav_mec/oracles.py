"""Independent brute-force references used by tests and the oracle CLI.

These deliberately avoid the solver code paths: placement is checked by
coarse-to-fine grid scans of the exact latency, offloading by pricing every
subset within the relay cap, and association by exhaustive enumeration over
all masked assignments.
"""

from __future__ import annotations

import itertools

import numpy as np

from .association import _Context
from .cost import effective_chunk_bits
from .errors import InfeasibleSubproblem
from .link import rate_at_dist_sq, snr_coeff
from .offload import OffloadDecision, _decision, _subset_objective, sp1_terms
from .placement import exact_objective, placement_terms
from .scenario import (Association, Position3D, Scenario,
                       feasible_association_mask, repositioned_scenario)


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    n = max(int(np.floor((hi - lo) / step)) + 1, 1)
    axis = lo + step * np.arange(n)
    if axis[-1] < hi - 1e-9:
        axis = np.append(axis, hi)
    return axis


def _grid(lo: np.ndarray, hi: np.ndarray, step: float,
          center: np.ndarray | None = None,
          window: float | None = None) -> np.ndarray:
    axes = []
    for k in range(3):
        a, b = lo[k], hi[k]
        if center is not None:
            a = max(a, center[k] - window)
            b = min(b, center[k] + window)
        axes.append(_axis(a, b, step))
    xs, ys, hs = np.meshgrid(*axes, indexing="ij")
    return np.stack([xs.ravel(), ys.ravel(), hs.ravel()], axis=1)


def grid_search_placement(scenario: Scenario, association: Association,
                          beta: np.ndarray,
                          steps: tuple[float, ...] = (25.0, 5.0, 1.0),
                          extra_points: np.ndarray | None = None
                          ) -> tuple[Position3D, float]:
    """Coarse-to-fine scan of the exact min-max latency over the relay box.

    The final step size is the resolution of the certificate; any provided
    extra points (for example a solver's own answer) join the candidate set,
    so the returned value never exceeds the objective at those points.
    """
    terms = placement_terms(scenario, association, beta)
    lo = scenario.ruav.box_lo.array
    hi = scenario.ruav.box_hi.array
    best_q, best_obj = None, np.inf
    center, window = None, None
    for step in steps:
        pts = _grid(lo, hi, step, center=center, window=window)
        objs = exact_objective(terms, pts)
        k = int(np.argmin(objs))
        if objs[k] < best_obj:
            best_obj, best_q = float(objs[k]), pts[k]
        center, window = best_q, step
    if extra_points is not None:
        pts = np.atleast_2d(extra_points)
        objs = exact_objective(terms, pts)
        k = int(np.argmin(objs))
        if objs[k] < best_obj:
            best_obj, best_q = float(objs[k]), pts[k]
    return Position3D(*best_q), best_obj


def bruteforce_offload(scenario: Scenario, association: Association,
                       q_m: Position3D) -> OffloadDecision:
    """Every offload subset within the relay cap, priced exactly; the best
    objective wins, ties going to the lexicographically smallest beta."""
    t = sp1_terms(scenario, association, q_m)
    active = np.flatnonzero(t.active)
    best = None
    for m in range(min(scenario.n0_cap, active.size) + 1):
        for members in itertools.combinations(active.tolist(), m):
            obj = _subset_objective(t, members)
            if obj is None:
                continue
            beta = np.zeros(t.n, dtype=int)
            beta[list(members)] = 1
            key = (obj, tuple(beta))
            if best is None or key < best[0]:
                best = (key, members)
    if best is None:
        raise InfeasibleSubproblem("no energy-feasible binary offload decision")
    (obj, _), members = best
    return _decision(t.n, members, obj)


def enumerate_associations_at_least_one(scenario: Scenario, beta: np.ndarray,
                                        q_m: Position3D,
                                        static_positions: bool = False
                                        ) -> tuple[np.ndarray, float]:
    """Exhaustive search over all masked associations with row sums >= 1."""
    ctx = _Context(scenario, beta, q_m, static_positions=static_positions)
    per_target = []
    for i in range(scenario.n_targets):
        cover = ctx.cover[i]
        subsets = [combo
                   for r in range(1, len(cover) + 1)
                   for combo in itertools.combinations(cover, r)]
        per_target.append(subsets)
    best_alpha, best_obj = None, np.inf
    for combo in itertools.product(*per_target):
        bits = [0] * scenario.n_suavs
        for i, monitors in enumerate(combo):
            for j in monitors:
                bits[j] |= 1 << i
        worst = 0.0
        feasible = True
        for j in range(scenario.n_suavs):
            t, ok = ctx.latency(j, bits[j])
            if not ok:
                feasible = False
                break
            worst = max(worst, t)
        if feasible and worst < best_obj:
            best_obj = worst
            alpha = np.zeros_like(ctx.mask)
            for i, monitors in enumerate(combo):
                for j in monitors:
                    alpha[i, j] = 1
            best_alpha = alpha
    if best_alpha is None:
        raise InfeasibleSubproblem("no energy-feasible association exists")
    return best_alpha, best_obj


def joint_bruteforce(scenario: Scenario,
                     q_steps: tuple[float, ...] = (50.0, 10.0, 5.0),
                     extra_points: np.ndarray | None = None) -> float:
    """Global reference for small instances: every exactly-one association
    crossed with every capped offload subset, relay position grid-scanned.

    Energy budgets are enforced pointwise on the grid. extra_points (e.g. a
    solver's final relay position) are appended to every scan so the returned
    minimum is a true lower envelope of the candidate set.
    """
    mask = feasible_association_mask(scenario)
    cover = [np.flatnonzero(mask[i]).tolist() for i in range(scenario.n_targets)]
    lo = scenario.ruav.box_lo.array
    hi = scenario.ruav.box_hi.array
    c = scenario.constants
    best = np.inf
    for combo in itertools.product(*cover):
        alpha = np.zeros_like(mask)
        for i, j in enumerate(combo):
            alpha[i, j] = 1
        placed = repositioned_scenario(scenario, alpha)
        s_bits = effective_chunk_bits(placed, alpha)
        active = np.flatnonzero(s_bits > 0)
        q_suav = np.array([placed.suavs[j].current_pos.array for j in active])
        gamma1 = np.array([
            snr_coeff(placed.suavs[j].tx_power_w, c.rho0, c.noise_w).gamma1
            for j in active])
        budgets = np.array([placed.suavs[j].energy_budget_j
                            - placed.suavs[j].hover_energy_j for j in active])
        powers = np.array([placed.suavs[j].tx_power_w for j in active])
        mus = np.array([placed.suavs[j].compress_ratio for j in active])
        cpus = np.array([placed.suavs[j].cpu_hz for j in active])
        sizes = s_bits[active]
        t_loc = sizes * c.f0_cycles_per_bit / cpus
        e_comp = cpus**2 * c.zeta * sizes * c.f0_cycles_per_bit
        w_ruav = scenario.ruav.cpu_hz**2 * c.zeta * c.f0_cycles_per_bit * sizes
        ruav_budget = scenario.ruav.energy_budget_j - scenario.ruav.hover_energy_j

        def scan(betas_local: np.ndarray, pts: np.ndarray) -> np.ndarray:
            """Best feasible objective per offload subset over pts."""
            d2 = np.maximum(
                ((pts[:, None, :] - q_suav[None, :, :]) ** 2).sum(axis=2), 1.0)
            rates = c.bandwidth_hz * np.log2(1.0 + gamma1[None, :] / d2)
            out = np.full(betas_local.shape[0], np.inf)
            for bi, b in enumerate(betas_local):
                m = int(b.sum())
                tx_bits = np.where(b == 1, sizes, mus * sizes)
                fixed = np.where(
                    b == 1,
                    sizes * c.f0_cycles_per_bit * m / scenario.ruav.cpu_hz,
                    t_loc)
                lat = tx_bits[None, :] / rates + fixed[None, :]
                energy = powers[None, :] * tx_bits[None, :] / rates \
                    + np.where(b == 1, 0.0, e_comp)[None, :]
                ok = (energy <= budgets[None, :] + 1e-12).all(axis=1)
                if m * (w_ruav * b).sum() > ruav_budget:
                    continue
                obj = lat.max(axis=1)
                obj[~ok] = np.inf
                out[bi] = obj.min()
            return out

        betas = []
        for m in range(min(scenario.n0_cap, active.size) + 1):
            for members in itertools.combinations(range(active.size), m):
                b = np.zeros(active.size, dtype=int)
                b[list(members)] = 1
                betas.append(b)
        betas = np.array(betas).reshape(len(betas), active.size)

        # Coarse level shared across subsets, then per-subset refinement.
        pts = _grid(lo, hi, q_steps[0])
        if extra_points is not None:
            pts = np.vstack([pts, np.atleast_2d(extra_points)])
        coarse = scan(betas, pts)
        for bi in range(betas.shape[0]):
            if not np.isfinite(coarse[bi]):
                continue
            obj = coarse[bi]
            d2 = np.maximum(
                ((pts[:, None, :] - q_suav[None, :, :]) ** 2).sum(axis=2), 1.0)
            rates = c.bandwidth_hz * np.log2(1.0 + gamma1[None, :] / d2)
            b = betas[bi]
            m = int(b.sum())
            tx_bits = np.where(b == 1, sizes, mus * sizes)
            fixed = np.where(
                b == 1, sizes * c.f0_cycles_per_bit * m / scenario.ruav.cpu_hz,
                t_loc)
            lat = (tx_bits[None, :] / rates + fixed[None, :]).max(axis=1)
            center = pts[int(np.argmin(lat))]
            for step_prev, step in zip(q_steps[:-1], q_steps[1:]):
                sub = _grid(lo, hi, step, center=center, window=step_prev)
                vals = scan(betas[bi:bi + 1], sub)
                if vals[0] < obj:
                    obj = float(vals[0])
                    d2s = np.maximum(
                        ((sub[:, None, :] - q_suav[None, :, :]) ** 2).sum(axis=2), 1.0)
                    rs = c.bandwidth_hz * np.log2(1.0 + gamma1[None, :] / d2s)
                    ls = (tx_bits[None, :] / rs + fixed[None, :]).max(axis=1)
                    center = sub[int(np.argmin(ls))]
            best = min(best, obj)
    if not np.isfinite(best):
        raise InfeasibleSubproblem("no feasible joint solution found")
    return float(best)
