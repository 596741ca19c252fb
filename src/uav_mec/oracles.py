"""Independent brute-force references used by tests and the oracle CLI.

These deliberately avoid the solver code paths: placement is checked by
coarse-to-fine grid scans of the exact latency, offloading by pricing every
subset within the relay cap with the evaluator, and association by exhaustive
enumeration over all masked assignments. The grid scans of placement and of
the joint search price relay points with one routine (_pricer), written from
the paper's formulas; nothing here imports a solver block.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .cost import effective_chunk_bits, evaluate_solution
from .errors import InfeasibleSubproblem, ValidationError
from .link import snr_coeff
from .scenario import (Association, Position3D, Scenario,
                       feasible_association_mask, repositioned_scenario)

# Relay grid steps, coarse to fine, in metres: grid_search_placement's, and
# joint_bruteforce's, whose coarse level every offload subset scans.
GRID_STEPS = (25.0, 5.0, 1.0)
JOINT_GRID_STEPS = (50.0, 10.0, 5.0)
# joint_bruteforce refuses instances with more exactly-one associations than
# this: the reference config's seeds 0-19 need 8 to 2,048, a 16 x 40 fleet
# more than 1e12.
MAX_JOINT_ASSOCIATIONS = 4096


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


def _pricer(placed: Scenario, alpha: np.ndarray):
    """(active, scan): the S-UAVs that carry video under alpha, and
    scan(b, pts), which prices them under offload bits b (one per active
    S-UAV) at every relay point of pts, links floored at 1 m.

    scan returns the least max-latency over the points where every budget
    holds (inf if none), the point of least max-latency, budgets aside, and
    every point's max-latency (0 with no active S-UAV). Budgets hold where
    each S-UAV's energy is within its budget less hover (to 1e-12) and the
    relay's m * sum of its m offloaders' compute energy is within its own.
    """
    c = placed.constants
    s_bits = effective_chunk_bits(placed, alpha)
    active = np.flatnonzero(s_bits > 0)
    suavs = [placed.suavs[j] for j in active]
    q_suav = np.array([s.current_pos.array for s in suavs]).reshape(-1, 3)
    gamma1, budgets, powers, mus, cpus = np.array([
        (snr_coeff(s.tx_power_w, c.rho0, c.noise_w),
         s.energy_budget_j - s.hover_energy_j, s.tx_power_w,
         s.compress_ratio, s.cpu_hz) for s in suavs]).reshape(-1, 5).T
    sizes = s_bits[active]
    t_loc = sizes * c.f0_cycles_per_bit / cpus
    e_comp = cpus**2 * c.zeta * sizes * c.f0_cycles_per_bit
    f_r = placed.ruav.cpu_hz
    w_ruav = f_r**2 * c.zeta * c.f0_cycles_per_bit * sizes
    ruav_budget = placed.ruav.energy_budget_j - placed.ruav.hover_energy_j

    def scan(b: np.ndarray, pts: np.ndarray):
        m = int(b.sum())
        d2 = np.maximum(
            ((pts[:, None, :] - q_suav[None, :, :]) ** 2).sum(axis=2), 1.0)
        rates = c.bandwidth_hz * np.log2(1.0 + gamma1 / d2)
        tx_bits = np.where(b == 1, sizes, mus * sizes)
        fixed = np.where(b == 1, sizes * c.f0_cycles_per_bit * m / f_r, t_loc)
        lat = (tx_bits / rates + fixed).max(axis=1, initial=0.0)
        energy = powers * tx_bits / rates + np.where(b == 1, 0.0, e_comp)
        ok = ((energy <= budgets + 1e-12).all(axis=1)
              & (m * (w_ruav * b).sum() <= ruav_budget))
        feasible = float(lat[ok].min()) if ok.any() else np.inf
        return feasible, pts[int(np.argmin(lat))], lat

    return active, scan


def grid_search_placement(scenario: Scenario, association: Association,
                          beta: np.ndarray,
                          extra_points: np.ndarray | None = None
                          ) -> tuple[Position3D, float]:
    """Coarse-to-fine scan of the exact min-max latency over the relay box,
    budgets aside.

    The final step size is the resolution of the certificate; any provided
    extra points (for example a solver's own answer) join the candidate set,
    so the returned value never exceeds the objective at those points.
    """
    active, scan = _pricer(scenario, association.alpha)
    b = np.asarray(beta)[active]
    lo = scenario.ruav.box_lo.array
    hi = scenario.ruav.box_hi.array
    best_q, best_obj = None, np.inf
    center, window = None, None
    for step in GRID_STEPS:
        _, q, lat = scan(b, _grid(lo, hi, step, center=center, window=window))
        if lat.min() < best_obj:
            best_obj, best_q = float(lat.min()), q
        center, window = best_q, step
    if extra_points is not None:
        _, q, lat = scan(b, np.atleast_2d(extra_points))
        if lat.min() < best_obj:
            best_obj, best_q = float(lat.min()), q
    return Position3D(*best_q), best_obj


def bruteforce_offload(scenario: Scenario, association: Association,
                       q_m: Position3D) -> tuple[np.ndarray, float]:
    """(beta, objective) of the best of every subset of the video-carrying
    S-UAVs within the relay cap, each priced by evaluate_solution and kept
    only if every S-UAV and the relay keep their budgets; ties go to the
    lexicographically smallest beta."""
    budgets = ([s.energy_budget_j for s in scenario.suavs]
               + [scenario.ruav.energy_budget_j])
    active = np.flatnonzero(association.alpha.sum(axis=0) > 0).tolist()
    best = None
    for m in range(min(scenario.n0_cap, len(active)) + 1):
        for members in itertools.combinations(active, m):
            beta = np.zeros(scenario.n_suavs, dtype=int)
            beta[list(members)] = 1
            obj, _, _, energies = evaluate_solution(scenario, association,
                                                    beta, q_m)
            if any(e.total_j > b for e, b in zip(energies, budgets)):
                continue
            key = (obj, tuple(beta.tolist()))
            if best is None or key < best[0]:
                best = (key, beta)
    if best is None:
        raise InfeasibleSubproblem("no energy-feasible binary offload decision")
    (obj, _), beta = best
    return beta, obj


def enumerate_associations_at_least_one(scenario: Scenario, beta: np.ndarray,
                                        q_m: Position3D,
                                        static_positions: bool = False
                                        ) -> tuple[np.ndarray, float]:
    """Exhaustive search over all masked associations with row sums >= 1,
    each priced by evaluate_solution on the S-UAVs placed over it (or left
    where they are), and kept only if every S-UAV keeps its budget."""
    mask = feasible_association_mask(scenario)
    beta = np.asarray(beta, dtype=int)
    per_target = []
    for i in range(scenario.n_targets):
        cover = np.flatnonzero(mask[i]).tolist()
        per_target.append([combo
                           for r in range(1, len(cover) + 1)
                           for combo in itertools.combinations(cover, r)])
    best_alpha, best_obj = None, np.inf
    for combo in itertools.product(*per_target):
        alpha = np.zeros_like(mask)
        for i, monitors in enumerate(combo):
            alpha[i, list(monitors)] = 1
        placed = (scenario if static_positions
                  else repositioned_scenario(scenario, alpha))
        obj, _, _, energies = evaluate_solution(
            placed, Association(alpha=alpha, feasible_mask=mask), beta, q_m)
        if obj < best_obj and all(
                e.total_j <= s.energy_budget_j
                for e, s in zip(energies, scenario.suavs)):
            best_alpha, best_obj = alpha, obj
    if best_alpha is None:
        raise InfeasibleSubproblem("no energy-feasible association exists")
    return best_alpha, best_obj


def joint_associations(scenario: Scenario) -> list[list[int]]:
    """Each target's covering S-UAVs, the lists whose product is every
    exactly-one association. Raises ValidationError when that product holds
    more than MAX_JOINT_ASSOCIATIONS associations."""
    mask = feasible_association_mask(scenario)
    cover = [np.flatnonzero(mask[i]).tolist() for i in range(scenario.n_targets)]
    count = math.prod(len(monitors) for monitors in cover)
    if count > MAX_JOINT_ASSOCIATIONS:
        raise ValidationError(
            f"joint brute force needs {count} associations, more than "
            f"its limit of {MAX_JOINT_ASSOCIATIONS}")
    return cover


def joint_bruteforce(scenario: Scenario,
                     extra_points: np.ndarray | None = None) -> float:
    """Global reference for small instances: every exactly-one association
    crossed with every capped offload subset of its video-carrying S-UAVs,
    relay position grid-scanned.

    Energy budgets are enforced pointwise on the grid. extra_points (e.g. a
    solver's final relay position) join the coarse grid that every subset
    scans; each refinement centres on the previous level's least-latency
    point, budgets aside. Raises ValidationError on an instance with more
    than MAX_JOINT_ASSOCIATIONS exactly-one associations (joint_associations).
    """
    cover = joint_associations(scenario)
    mask = feasible_association_mask(scenario)
    lo = scenario.ruav.box_lo.array
    hi = scenario.ruav.box_hi.array
    coarse = _grid(lo, hi, JOINT_GRID_STEPS[0])
    if extra_points is not None:
        coarse = np.vstack([coarse, np.atleast_2d(extra_points)])
    best = np.inf
    for combo in itertools.product(*cover):
        alpha = np.zeros_like(mask)
        for i, j in enumerate(combo):
            alpha[i, j] = 1
        active, scan = _pricer(repositioned_scenario(scenario, alpha), alpha)
        for m in range(min(scenario.n0_cap, active.size) + 1):
            for members in itertools.combinations(range(active.size), m):
                b = np.zeros(active.size, dtype=int)
                b[list(members)] = 1
                obj, center, _ = scan(b, coarse)
                if not np.isfinite(obj):
                    continue
                for step_prev, step in zip(JOINT_GRID_STEPS,
                                           JOINT_GRID_STEPS[1:]):
                    val, q, _ = scan(b, _grid(lo, hi, step, center=center,
                                              window=step_prev))
                    if val < obj:
                        obj, center = val, q
                best = min(best, obj)
    if not np.isfinite(best):
        raise InfeasibleSubproblem("no feasible joint solution found")
    return float(best)
