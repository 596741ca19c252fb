"""World geometry: targets, S-UAV camera footprints, repositioning, generation.

A Scenario is an immutable snapshot of one time slot. S-UAVs start on a
deterministic grid over the monitored area; once targets are associated, each
S-UAV recenters over its assigned targets and drops to the lowest altitude
that keeps all of them a margin gamma inside its footprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import KB_BITS, ExperimentConfig
from .errors import InfeasibleScenario
from .link import PhysicsConstants

_GENERATOR_RETRY_CAP = 100


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    h: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.h)):
            raise ValueError("coordinates must be finite")
        if self.h < 0:
            raise ValueError("altitude must be nonnegative")

    @property
    def array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.h])

    @property
    def xyz(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.h)


@dataclass(frozen=True)
class CameraSpec:
    phi_h: float  # horizontal lens angle, radians
    phi_v: float  # vertical lens angle, radians
    gamma: float  # altitude margin keeping targets off the footprint edge, m

    def __post_init__(self):
        if not (0.0 < self.phi_h < math.pi and 0.0 < self.phi_v < math.pi):
            raise ValueError("lens angles must lie in (0, pi)")
        if self.gamma <= 0:
            raise ValueError("gamma must be strictly positive")


@dataclass(frozen=True)
class Target:
    id: int
    pos: Position3D

    def __post_init__(self):
        if self.pos.h != 0.0:
            raise ValueError("targets sit at sea level (h = 0)")


@dataclass(frozen=True)
class SUav:
    id: int
    initial_pos: Position3D
    current_pos: Position3D
    camera: CameraSpec
    cpu_hz: float
    tx_power_w: float
    compress_ratio: float
    energy_budget_j: float
    hover_energy_j: float
    chunk_bits: float  # mean chunk size, the task size a solve prices

    def __post_init__(self):
        if not (0.0 < self.compress_ratio < 1.0):
            raise ValueError("compress_ratio must lie in (0, 1)")
        if self.cpu_hz <= 0 or self.tx_power_w <= 0:
            raise ValueError("cpu_hz and tx_power_w must be positive")
        if self.chunk_bits <= 0:
            raise ValueError("chunk_bits must be positive")


@dataclass(frozen=True)
class RUav:
    cpu_hz: float
    box_lo: Position3D
    box_hi: Position3D
    energy_budget_j: float
    hover_energy_j: float

    def __post_init__(self):
        if np.any(self.box_lo.array > self.box_hi.array):
            raise ValueError("box_lo must not exceed box_hi")


@dataclass(frozen=True)
class Scenario:
    suavs: tuple[SUav, ...]
    targets: tuple[Target, ...]
    ruav: RUav
    constants: PhysicsConstants
    n0_cap: int
    seed: int

    def __post_init__(self):
        if len(self.suavs) > len(self.targets):
            raise ValueError("need at least as many targets as S-UAVs")
        if not (0 < self.n0_cap <= len(self.suavs)):
            raise ValueError("n0_cap must lie in [1, n_suavs]")

    @property
    def n_suavs(self) -> int:
        return len(self.suavs)

    @property
    def n_targets(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class Association:
    alpha: np.ndarray  # binary (I, N)
    feasible_mask: np.ndarray  # binary (I, N)

    def __post_init__(self):
        if self.alpha.shape != self.feasible_mask.shape:
            raise ValueError("alpha and mask shapes differ")
        if np.any(self.alpha > self.feasible_mask):
            raise ValueError("alpha selects an infeasible pair")
        if np.any(self.alpha.sum(axis=1) < 1):
            raise ValueError("every target needs at least one monitor")


def fov_extents(altitude: float, camera: CameraSpec) -> tuple[float, float]:
    """Ground footprint side lengths (along x, along y) at a given altitude."""
    if altitude < 0:
        raise ValueError("altitude must be nonnegative")
    return (
        2.0 * altitude * math.tan(camera.phi_h / 2.0),
        2.0 * altitude * math.tan(camera.phi_v / 2.0),
    )


@dataclass(frozen=True)
class AxisRect:
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def contains(self, x: float, y: float) -> bool:
        # Closed rectangle: the boundary counts as inside.
        return self.x_lo <= x <= self.x_hi and self.y_lo <= y <= self.y_hi


def fov_rect(suav: SUav, at_initial: bool = False) -> AxisRect:
    pos = suav.initial_pos if at_initial else suav.current_pos
    hfov, vfov = fov_extents(pos.h, suav.camera)
    return AxisRect(
        x_lo=pos.x - hfov / 2.0, x_hi=pos.x + hfov / 2.0,
        y_lo=pos.y - vfov / 2.0, y_hi=pos.y + vfov / 2.0,
    )


def reposition(suav: SUav, assigned: list[Target] | tuple[Target, ...]) -> Position3D:
    """New hover point for an S-UAV over its assigned targets.

    Center over the targets' bounding box, at the smallest altitude whose
    footprint spans it, plus the gamma margin: one target puts the S-UAV
    directly overhead at h = gamma. None: stay at the initial position.
    """
    if not assigned:
        return suav.initial_pos
    cam = suav.camera
    xs = [t.pos.x for t in assigned]
    ys = [t.pos.y for t in assigned]
    x = (max(xs) + min(xs)) / 2.0
    y = (max(ys) + min(ys)) / 2.0
    h = max(
        (max(xs) - min(xs)) / (2.0 * math.tan(cam.phi_h / 2.0)),
        (max(ys) - min(ys)) / (2.0 * math.tan(cam.phi_v / 2.0)),
    ) + cam.gamma
    return Position3D(x, y, h)


def repositioned_scenario(scenario: Scenario, alpha: np.ndarray) -> Scenario:
    """Apply the repositioning rule to every S-UAV under an association matrix."""
    suavs = tuple(
        replace(suav, current_pos=reposition(
            suav, [scenario.targets[i] for i in np.flatnonzero(alpha[:, j])]))
        for j, suav in enumerate(scenario.suavs))
    return replace(scenario, suavs=suavs)


def feasible_association_mask(scenario: Scenario) -> np.ndarray:
    """mask[i, n] = 1 iff target i sits inside S-UAV n's initial footprint."""
    rects = [fov_rect(suav, at_initial=True) for suav in scenario.suavs]
    x_lo, x_hi, y_lo, y_hi = np.array(
        [(r.x_lo, r.x_hi, r.y_lo, r.y_hi) for r in rects]).reshape(-1, 4).T
    xy = np.array([(t.pos.x, t.pos.y)
                   for t in scenario.targets]).reshape(-1, 2)
    x, y = xy[:, :1], xy[:, 1:]
    # AxisRect.contains on every (target, S-UAV) pair: closed bounds.
    mask = ((x_lo <= x) & (x <= x_hi) & (y_lo <= y)
            & (y <= y_hi)).astype(np.int8)
    if np.any(mask.sum(axis=1) == 0):
        bad = np.flatnonzero(mask.sum(axis=1) == 0)
        raise InfeasibleScenario(
            f"targets {bad.tolist()} lie outside every initial S-UAV footprint"
        )
    return mask


def _grid_shape(n: int, hfov: float, vfov: float) -> tuple[int, int]:
    """Factor n into (cols, rows) with the larger count along the narrower axis."""
    best = (1, n)
    for a in range(1, int(math.isqrt(n)) + 1):
        if n % a == 0:
            best = (a, n // a)
    small, large = best
    if hfov >= vfov:
        return small, large  # wide footprint along x: fewer columns
    return large, small


def suav_grid_positions(n: int, area_m: float, altitude_m: float,
                        camera: CameraSpec) -> list[Position3D]:
    hfov, vfov = fov_extents(altitude_m, camera)
    cols, rows = _grid_shape(n, hfov, vfov)
    positions = []
    for idx in range(n):
        r, c = divmod(idx, cols)
        positions.append(Position3D(
            x=(c + 0.5) * area_m / cols,
            y=(r + 0.5) * area_m / rows,
            h=altitude_m,
        ))
    return positions


def generate_scenario(config: ExperimentConfig, seed: int) -> Scenario:
    """Seeded scenario draw: grid S-UAVs, uniform targets, uniform chunk sizes.

    Targets that fall outside every initial footprint are redrawn, up to a cap.
    """
    config.validate()
    rng = np.random.default_rng([seed, 0x5EA])
    camera = CameraSpec(
        phi_h=math.radians(config.phi_h_deg),
        phi_v=math.radians(config.phi_v_deg),
        gamma=config.gamma_m,
    )
    grid = suav_grid_positions(
        config.n_suavs, config.area_m, config.initial_altitude_m, camera)

    # The chunk sizes come from their own generator, so drawing them before
    # the targets moves no draw of either. An S-UAV keeps the mean of its
    # n_chunks sizes: every figure is linear in the bits, so a sweep row
    # scales the plan's price at the mean by n_chunks.
    chunk_rng = np.random.default_rng([seed, 0xC4])
    lo_kb, hi_kb = config.chunk_kb_range
    suavs = []
    for j, pos in enumerate(grid):
        sizes = tuple(float(v) * KB_BITS
                      for v in chunk_rng.uniform(lo_kb, hi_kb, size=config.n_chunks))
        suavs.append(SUav(
            id=j,
            initial_pos=pos,
            current_pos=pos,
            camera=camera,
            cpu_hz=config.cpu_suav_hz,
            tx_power_w=config.tx_power_w,
            compress_ratio=config.mu,
            energy_budget_j=config.energy_budget_suav_j,
            hover_energy_j=config.hover_energy_suav_j,
            chunk_bits=sum(sizes) / len(sizes),
        ))
    rects = [fov_rect(s, at_initial=True) for s in suavs]

    def draw_target(tid: int) -> Target:
        for _ in range(_GENERATOR_RETRY_CAP):
            x, y = rng.uniform(0.0, config.area_m, size=2)
            if any(r.contains(x, y) for r in rects):
                return Target(id=tid, pos=Position3D(x, y, 0.0))
        raise InfeasibleScenario(
            f"could not place target {tid} inside any initial footprint "
            f"after {_GENERATOR_RETRY_CAP} draws"
        )

    targets = tuple(draw_target(i) for i in range(config.n_targets))

    bx = config.ruav_box
    box_lo = Position3D(bx[0], bx[1], bx[2])
    box_hi = Position3D(bx[3], bx[4], bx[5])
    ruav = RUav(
        cpu_hz=config.cpu_ruav_hz,
        box_lo=box_lo,
        box_hi=box_hi,
        energy_budget_j=config.energy_budget_ruav_j,
        hover_energy_j=config.hover_energy_ruav_j,
    )
    return Scenario(
        suavs=tuple(suavs),
        targets=targets,
        ruav=ruav,
        constants=config.constants,
        n0_cap=config.n0_cap,
        seed=seed,
    )
