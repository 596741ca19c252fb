"""Experiment configuration: key = value documents with physical defaults.

dB and dBm figures are stored as written in the file and converted to linear
SI units exactly once, via the derived properties used by the solvers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

from .errors import ParseError, ValidationError
from .link import PhysicsConstants

# Chunk sizes are quoted in KB; 1 KB = 1024 bytes = 8192 bits.
KB_BITS = 8192.0


@dataclass(frozen=True)
class ExperimentConfig:
    area_m: float = 1000.0
    n_suavs: int = 8
    n_targets: int = 20
    bandwidth_hz: float = 10e6
    tx_power_w: float = 0.8
    cpu_suav_hz: float = 0.2e9
    cpu_ruav_hz: float = 2e9
    chunk_kb_range: tuple[float, float] = (200.0, 300.0)
    n_chunks: int = 3
    phi_h_deg: float = 58.4
    phi_v_deg: float = 40.0
    n0_cap: int = 4
    f0_cycles_per_bit: float = 1000.0
    rho0_db: float = -60.0
    noise_dbm: float = -114.0
    gamma_m: float = 30.0
    zeta: float = 1e-28
    mu: float = 0.1
    initial_altitude_m: float = 500.0
    ruav_box: tuple[float, float, float, float, float, float] = (
        0.0, 0.0, 100.0, 1000.0, 1000.0, 1000.0)
    energy_budget_suav_j: float = 1e3
    energy_budget_ruav_j: float = 1e3
    hover_energy_suav_j: float = 0.0
    hover_energy_ruav_j: float = 0.0
    seeds: tuple[int, ...] = tuple(range(20))
    tol: float = 1e-3
    r_max: int = 20

    @property
    def rho0(self) -> float:
        return 10.0 ** (self.rho0_db / 10.0)

    @property
    def noise_w(self) -> float:
        return 10.0 ** (self.noise_dbm / 10.0) * 1e-3

    @property
    def constants(self) -> PhysicsConstants:
        return PhysicsConstants(
            bandwidth_hz=self.bandwidth_hz,
            rho0=self.rho0,
            noise_w=self.noise_w,
            f0_cycles_per_bit=self.f0_cycles_per_bit,
            zeta=self.zeta,
        )

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if not math.isfinite(v):
                    raise ValidationError(f"{f.name} must be finite, got {v!r}")
        for name in _INT_KEYS:
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValidationError(
                    f"{name} must be an integer, got {getattr(self, name)!r}")
        for seed in self.seeds:
            if not isinstance(seed, numbers.Integral):
                raise ValidationError(f"seeds must be integers, got {seed!r}")
        positive = [
            "area_m", "n_suavs", "n_targets", "bandwidth_hz", "tx_power_w",
            "cpu_suav_hz", "cpu_ruav_hz", "n_chunks", "phi_h_deg", "phi_v_deg",
            "n0_cap", "f0_cycles_per_bit", "gamma_m", "zeta", "mu",
            "initial_altitude_m", "energy_budget_suav_j", "energy_budget_ruav_j",
            "tol", "r_max",
        ]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be strictly positive")
        if not (0.0 < self.mu < 1.0):
            raise ValidationError("mu must lie in (0, 1)")
        if not (0.0 < self.phi_h_deg < 180.0 and 0.0 < self.phi_v_deg < 180.0):
            raise ValidationError("camera angles must lie in (0, 180) degrees")
        lo, hi = self.chunk_kb_range
        if not (0.0 < lo <= hi):
            raise ValidationError("chunk_kb_range must be a nonempty positive range")
        if self.n0_cap > self.n_suavs:
            raise ValidationError("n0_cap may not exceed n_suavs")
        if self.n_suavs > self.n_targets:
            raise ValidationError("n_suavs may not exceed n_targets")
        if self.hover_energy_suav_j < 0 or self.hover_energy_ruav_j < 0:
            raise ValidationError("hover energies must be nonnegative")
        bx = self.ruav_box
        if not all(bx[i] <= bx[i + 3] for i in range(3)):
            raise ValidationError("ruav_box lower corner must not exceed upper corner")
        if bx[2] < 0:
            raise ValidationError("ruav_box altitude must be nonnegative")
        if not self.seeds:
            raise ValidationError("seeds must be nonempty")
        if min(self.seeds) < 0:
            raise ValidationError("seeds must be non-negative")
        return self


_FIELD_TYPES = {f.name: f for f in fields(ExperimentConfig)}
_INT_KEYS = ("n_suavs", "n_targets", "n_chunks", "n0_cap", "r_max")
_TUPLE_KEYS = {"chunk_kb_range": 2, "ruav_box": 6, "seeds": None}


def _parse_value(key: str, raw: str, lineno: int):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _TUPLE_KEYS:
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            want = _TUPLE_KEYS[key]
            if want is not None and len(parts) != want:
                raise ValueError(f"expected {want} comma-separated values")
            if key == "seeds":
                return tuple(int(p) for p in parts)
            return tuple(float(p) for p in parts)
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"bad value for {key!r}: {exc}", line=lineno) from None


def parse_config(text: str) -> ExperimentConfig:
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", line=lineno)
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ValidationError(f"unknown config key {key!r}")
        if key in overrides:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        overrides[key] = _parse_value(key, raw, lineno)
    return replace(ExperimentConfig(), **overrides).validate()


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    return parse_config(text)


def parse_seeds(text: str) -> tuple[int, ...]:
    """Seeds from an inclusive range 'a-b' or a comma list; the caller's
    ExperimentConfig.validate checks that they are non-negative."""
    try:
        if "-" in text:
            lo, hi = text.split("-")
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValidationError(
            f"seeds must be a range 'a-b' or a comma list of non-negative "
            f"integers, got {text!r}") from None

