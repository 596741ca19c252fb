"""Parameter sweeps, per-chunk metric totals, and tabular output.

A sweep row's figures are priced from its solve's own tables
(SolverReport.pools) in the evaluator's arithmetic, with no scenario copy
and no second evaluation; the evaluator (cost.evaluate_solution) stays the
independent judge that the tests hold every row to.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .association import Pools
from .config import ExperimentConfig
from .cost import plan_prices
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


def chunked_metrics(pools: Pools, bits, beta, q_m: Position3D,
                    n_chunks: int):
    """(max latency, spread, S-UAV execution energy, relay compute energy)
    over n_chunks sequential chunks of the plan (bits, beta, q_m), with the
    association as per-S-UAV target bitmasks (SolverReport.bits), priced
    from the solve's tables (orchestrator.SolverReport.pools): each
    carrier's record at the mean chunk size (cost.plan_prices) at its link
    rate (Pools.carrier_rates), times n_chunks, as every figure is linear in
    the bits. The arithmetic is the evaluator's, so each figure is
    n_chunks times evaluate_solution's to the bit wherever every chunk is
    positive, as in every drawn scenario: an S-UAV that carries no video
    costs nothing but its hover, and one that offloads still counts in the
    relay's fair share. Raises InvalidDecision if beta offloads past the
    relay cap."""
    prices = plan_prices(pools.prices, beta)
    rates = pools.carrier_rates(bits, q_m)
    latency = np.array([prices[j].latency(r) for j, r in rates.items()])
    exec_energy = sum(prices[j].energy(r) for j, r in rates.items())
    # Summed over every S-UAV, in order, as the evaluator sums it.
    relay_j = float(np.sum([p.relay_j if j in rates else 0.0
                            for j, p in enumerate(prices)]))
    return (n_chunks * float(latency.max()), n_chunks * float(latency.std()),
            n_chunks * exec_energy, n_chunks * relay_j)


def run_cell(config: ExperimentConfig, seed: int, scheme: str,
             param_name: str = "", param_value: float = float("nan"), *,
             scenario: Scenario | None = None, **solver_kwargs) -> ResultRow:
    """One sweep row. solver_kwargs go to run_scheme, which ignores them.
    A failed draw or solve gives a row of NaN metrics and its error. Given
    the draw as `scenario`, the row times only the solve and the row."""
    start = time.monotonic()
    metrics, iters, error = (float("nan"),) * 4, 0, ""
    try:
        if scenario is None:
            scenario = generate_scenario(config, seed)
        report = run_scheme(scenario, scheme, tol=config.tol,
                            r_max=config.r_max, **solver_kwargs)
        metrics = chunked_metrics(report.pools, report.bits, report.beta,
                                  report.q_m, config.n_chunks)
        iters = report.iterations
    except UavMecError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return ResultRow(seed, scheme, param_name, param_value, *metrics, iters,
                     (time.monotonic() - start) * 1e3, error)


def run_group(config: ExperimentConfig, seed: int, schemes,
              param_name: str = "", param_value: float = float("nan")
              ) -> list[ResultRow]:
    """One row per scheme, all solving one draw of (config, seed). The
    draw's time goes to the first scheme's row, so the rows' wall_ms sum
    to the group's work."""
    start = time.monotonic()
    try:
        scenario = generate_scenario(config, seed)
    except UavMecError:
        # Each scheme's run_cell then draws again and gives its error row.
        scenario = None
    draw_ms = (time.monotonic() - start) * 1e3
    rows = [run_cell(config, seed, scheme, param_name, param_value,
                     scenario=scenario) for scheme in schemes]
    rows[0] = replace(rows[0], wall_ms=rows[0].wall_ms + draw_ms)
    return rows


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
    """Every value x seed x scheme. The schemes of one (value, seed) group
    solve one scenario draw, made once per group; a pool runs one group
    per task."""
    if param not in SWEEPABLE:
        raise ValueError(f"cannot sweep {param!r}; choose one of {SWEEPABLE}")
    unknown = sorted(set(schemes) - set(SCHEMES))
    if unknown:
        raise ValidationError(
            f"unknown schemes {unknown}; choose from {list(SCHEMES)}")
    groups = []
    for value in values:
        if param in INTEGER_PARAMS and not float(value).is_integer():
            raise ValidationError(f"{param} takes integer values, got {value!r}")
        cfg = replace(config, **{
            param: int(value) if param in INTEGER_PARAMS else float(value)
        }).validate()
        groups += [(cfg, seed, tuple(schemes), param, float(value))
                   for seed in config.seeds]
    cells = len(groups) * len(schemes)
    if not cells:
        return []
    workers = sweep_workers()
    if workers == 1 or cells == 1:
        rows = [row for group in groups for row in run_group(*group)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for batch in pool.map(run_group, *zip(*groups),
                                              chunksize=1)
                    for row in batch]
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
