"""Parameter sweeps, per-chunk metric aggregation, and tabular output."""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import zip_longest

import numpy as np

from .config import ExperimentConfig
from .cost import floored_rate, suav_prices
from .errors import UavMecError, ValidationError
from .orchestrator import SCHEMES, run_scheme
from .scenario import Position3D, Scenario, generate_scenario

SWEEPABLE = ("n_chunks", "tx_power_w", "n0_cap", "cpu_suav_hz")
INTEGER_PARAMS = ("n_chunks", "n0_cap")
WORKERS_ENV = "UAV_MEC_WORKERS"


@dataclass(frozen=True)
class ResultRow:
    seed: int
    scheme: str
    swept_param_name: str
    swept_value: float
    objective_s: float
    delay_stddev_s: float
    suav_exec_energy_j: float
    ruav_energy_j: float
    outer_iters: int
    wall_ms: float
    error: str = ""


def chunked_metrics(scenario: Scenario, alpha: np.ndarray,
                    beta: np.ndarray, q_m: Position3D):
    """Latency and execution-energy totals summed over sequential chunks.

    Positions and decisions come from the single solve at the mean chunk
    size; each chunk is then re-priced at its own size.
    """
    monitored = alpha.sum(axis=0) > 0
    if not monitored.any():
        return 0.0, 0.0, 0.0, 0.0
    # Chunk k's price records: every S-UAV at the size of its chunk k, or
    # 0 bits past its last chunk, which adds nothing.
    chunks = [suav_prices(scenario, sizes, beta) for sizes in zip_longest(
        *(s.chunk_bits_list for s in scenario.suavs), fillvalue=0.0)]
    totals = np.zeros(scenario.n_suavs)
    exec_energy = 0.0
    ruav_energy = 0.0
    for j in np.flatnonzero(monitored):
        r = floored_rate(scenario.suavs[j].current_pos.xyz, q_m.xyz,
                         chunks[0][j].gamma1, scenario.constants.bandwidth_hz)
        for prices in chunks:
            price = prices[j]
            totals[j] += price.latency(r)
            exec_energy += price.energy(r)
            ruav_energy += price.relay_j
    active_totals = totals[monitored]
    return (float(active_totals.max()), float(active_totals.std()),
            float(exec_energy), float(ruav_energy))


def run_cell(config: ExperimentConfig, seed: int, scheme: str,
             param_name: str = "", param_value: float = float("nan"),
             **solver_kwargs) -> ResultRow:
    """One sweep row. solver_kwargs go to run_scheme, which ignores them."""
    start = time.monotonic()
    try:
        scenario = generate_scenario(config, seed)
        report = run_scheme(scenario, scheme, tol=config.tol,
                            r_max=config.r_max, **solver_kwargs)
        objective, spread, exec_e, ruav_e = chunked_metrics(
            report.placed, report.alpha, report.beta, report.q_m)
        return ResultRow(
            seed=seed, scheme=scheme, swept_param_name=param_name,
            swept_value=param_value, objective_s=objective,
            delay_stddev_s=spread, suav_exec_energy_j=exec_e,
            ruav_energy_j=ruav_e, outer_iters=report.iterations,
            wall_ms=(time.monotonic() - start) * 1e3)
    except UavMecError as exc:
        return ResultRow(
            seed=seed, scheme=scheme, swept_param_name=param_name,
            swept_value=param_value, objective_s=float("nan"),
            delay_stddev_s=float("nan"), suav_exec_energy_j=float("nan"),
            ruav_energy_j=float("nan"), outer_iters=0,
            wall_ms=(time.monotonic() - start) * 1e3,
            error=f"{type(exc).__name__}: {exc}")


def sweep_workers() -> int | None:
    """Worker processes for a sweep from UAV_MEC_WORKERS; unset or 0 gives
    None, one per core."""
    raw = os.environ.get(WORKERS_ENV, "0")
    if not raw.isdecimal():
        raise ValidationError(
            f"{WORKERS_ENV} must be a non-negative integer, got {raw!r}")
    return int(raw) or None


def sweep(config: ExperimentConfig, param: str, values,
          schemes=SCHEMES) -> list[ResultRow]:
    """Every value x seed x scheme, with the same scenario draw per seed."""
    if param not in SWEEPABLE:
        raise ValueError(f"cannot sweep {param!r}; choose one of {SWEEPABLE}")
    unknown = sorted(set(schemes) - set(SCHEMES))
    if unknown:
        raise ValidationError(
            f"unknown schemes {unknown}; choose from {list(SCHEMES)}")
    cells = []
    for value in values:
        if param in INTEGER_PARAMS and not float(value).is_integer():
            raise ValidationError(f"{param} takes integer values, got {value!r}")
        cfg = replace(config, **{
            param: int(value) if param in INTEGER_PARAMS else float(value)
        }).validate()
        for seed in config.seeds:
            for scheme in schemes:
                cells.append((cfg, seed, scheme, param, float(value)))
    workers = sweep_workers()
    if workers == 1 or len(cells) == 1:
        rows = [run_cell(*cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_cell, *zip(*cells), chunksize=1))
    rows.sort(key=lambda r: (r.seed, r.scheme, r.swept_value))
    return rows


def format_rows(rows: list[ResultRow]) -> str:
    names = [f.name for f in fields(ResultRow)]
    lines = [",".join(names)]
    for row in rows:
        rendered = []
        for name in names:
            v = getattr(row, name)
            rendered.append(repr(v) if isinstance(v, float) else str(v))
        lines.append(",".join(rendered))
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    """Write text to path; a path that cannot be written is bad input."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from exc


def write_results(rows: list[ResultRow], path) -> None:
    if not rows:
        raise ValueError("refusing to write an empty result table")
    write_text(path, format_rows(rows))
