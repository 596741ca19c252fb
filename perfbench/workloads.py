"""Workload definitions, the run's inputs drawn from its seed, set-up, and
the timed closed loop.

A *unit* is one call into the library: one `orchestrator.run_scheme` call,
or one `experiment.sweep` call over one scenario seed and one relay cap (a
cell per scheme). A *solve* is one `run_scheme` call or one sweep cell. A run
draws a fixed cycle of units from its seed and repeats the whole cycle until
its seconds have passed, so every run of a seed solves the same inputs in the
same proportions, whatever the machine's speed. The first cycle is the
quality set: its objectives make the digest.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from uav_mec import experiment, orchestrator
from uav_mec import scenario as scenario_mod
from uav_mec.config import ExperimentConfig
from uav_mec.orchestrator import SCHEMES

import checks
import speed

# Scenario seeds reserved per run seed. Development runs use even scenario
# seeds and held-out runs odd ones, so the two sets never meet.
SEED_STRIDE = 10_000
SWEEP_PARAM = "n0_cap"
SWEEP_VALUES = tuple(range(1, 9))
SETUP_REPS = 3
# Samples a cycle needs beyond its tail percentile. Each workload's tail
# percentile leaves 17-40 beyond it: the highest percentile with ten beyond
# it is set by a handful of slow scenarios and differs from seed to seed by
# more than the bound.
TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    config: ExperimentConfig
    schemes: tuple[str, ...]
    kind: str                    # "solve" (run_scheme per unit) or "sweep"
    scenarios: int               # scenario seeds per cycle
    tail_pct: float              # the percentile solve_ms_tail reports
    solver_kwargs: dict = field(default_factory=dict)
    # (scheme, problem) pairs that count as failed solves without making the
    # run incorrect: defects of the program that this workload exposes.
    known_failures: frozenset = frozenset()


# Each workload stresses a different block, so a change to one block has a
# workload that shows it and one that should show no change. A cycle takes
# 10-25 s at baseline and holds enough solves for its tail percentile.
WORKLOADS = {
    w.name: w for w in (
        # The paper's configuration (8 S-UAVs x 20 targets), all four schemes.
        # Placement takes most of the time. About 1 scenario in 150 needs
        # ~1e5 association nodes (1.5 s against a median of 85 ms), so at
        # the default budgets a cycle's throughput depends on whether its
        # seed draws one; 10,000 nodes (above the 98th percentile) bounds
        # that, and leaves association exact on nearly every call. The
        # default 10 s clock budget would make results depend on machine
        # speed, so it is set out of reach.
        Workload(name="reference", config=ExperimentConfig(),
                 schemes=SCHEMES, kind="solve", scenarios=100, tail_pct=90.0,
                 solver_kwargs={"node_budget": 10_000,
                                "time_budget_s": 1e9}),
        # 16 x 40, proposed only. Association is the largest block (about
        # half the time) and its node budget ends nearly every search. The
        # clock budget is set out of reach so results do not depend on
        # machine speed. 8,000 nodes rather than 50,000 fits ~6x more solves
        # in a run, which steadies its figures.
        Workload(name="fleet",
                 config=replace(ExperimentConfig(), n_suavs=16, n_targets=40),
                 schemes=("proposed",), kind="solve", scenarios=70,
                 tail_pct=75.0,
                 solver_kwargs={"node_budget": 8_000, "time_budget_s": 1e9}),
        # Sequential sweep over the relay cap with a 5 J relay budget, which
        # binds from cap 3 up. The only workload whose timed solves go through
        # experiment.run_cell, chunked_metrics and per-cell scenario
        # generation. ruav_only offloads regardless of relay energy and
        # breaks the budget: a known defect, counted as failed solves.
        # experiment.sweep drops its solver keyword arguments, so these
        # cells run at the default association budgets. 16 targets rather
        # than 20: at 20, about one scenario in 150 needs ~1e5 nodes (see
        # reference); at 16, none of 300 needed more than ~11,000.
        Workload(name="relay_sweep",
                 config=replace(ExperimentConfig(), n_targets=16,
                                energy_budget_ruav_j=5.0),
                 schemes=SCHEMES, kind="sweep", scenarios=56, tail_pct=90.0,
                 known_failures=frozenset(
                     {("ruav_only", checks.RELAY_BUDGET_FAILURE)})),
    )
}


def scenario_seeds(run_seed: int, count: int, held_out: bool) -> list[int]:
    if run_seed < 0:
        raise ValueError("run seed must be nonnegative")
    if count > SEED_STRIDE:
        raise ValueError(f"at most {SEED_STRIDE} scenario seeds per run")
    base = run_seed * SEED_STRIDE
    return [2 * (base + i) + int(held_out) for i in range(count)]


@dataclass
class Solve:
    """One solve's outcome; `output` is what the output check inspects."""

    key: tuple
    scheme: str
    ms: float
    objective: float
    output: object
    cycle: int = 0
    norm_ms: float = math.nan    # `ms` at the nominal machine speed
    problems: list = field(default_factory=list)


@dataclass
class Pool:
    """The units of one cycle, in order, and the scenarios they solve."""

    units: list       # (scenario seed, scheme) or (scenario seed, relay cap)
    scenarios: dict   # scenario seed -> scenario ("solve" workloads only)


def set_up(workload: Workload, seeds: list):
    """Generate the cycle's scenarios and run one warm-up cell.

    Returns (pool, warm-up row).
    """
    if workload.kind == "sweep":
        # One cap per scenario, from the highest down, so a cycle covers
        # every cap over eight times as many scenarios as a full sweep per
        # scenario would.
        caps = SWEEP_VALUES[::-1]
        pool = Pool(units=[(s, caps[i % len(caps)])
                           for i, s in enumerate(seeds)], scenarios={})
    else:
        pool = Pool(units=[(s, k) for s in seeds for k in workload.schemes],
                    scenarios={s: scenario_mod.generate_scenario(
                        workload.config, s) for s in seeds})
    warm_value = SWEEP_VALUES[-1] if workload.kind == "sweep" else math.nan
    row = experiment.run_cell(
        workload.config, seeds[0], workload.schemes[0],
        SWEEP_PARAM if workload.kind == "sweep" else "", warm_value,
        **workload.solver_kwargs)
    return pool, row


def _failed_solve(key, scheme, ms, exc) -> Solve:
    return Solve(key=key, scheme=scheme, ms=ms, objective=math.nan,
                 output=None, problems=[f"raised {type(exc).__name__}: {exc}"])


def run_unit(workload: Workload, pool: Pool, unit: tuple) -> list[Solve]:
    cfg = workload.config
    if workload.kind == "sweep":
        seed, value = unit
        start = time.perf_counter()
        try:
            rows = experiment.sweep(replace(cfg, seeds=(seed,)), SWEEP_PARAM,
                                    (value,), schemes=workload.schemes,
                                    **workload.solver_kwargs)
        except Exception as exc:  # every cell of the call counts as failed
            ms = (time.perf_counter() - start) * 1e3
            return [_failed_solve((seed, s, float(value)), s, ms, exc)
                    for s in workload.schemes]
        return [Solve(key=(seed, r.scheme, r.swept_value), scheme=r.scheme,
                      ms=r.wall_ms, objective=r.objective_s, output=r)
                for r in rows]
    seed, scheme = unit
    scenario = pool.scenarios[seed]
    start = time.perf_counter()
    try:
        report = orchestrator.run_scheme(scenario, scheme, tol=cfg.tol,
                                         r_max=cfg.r_max,
                                         **workload.solver_kwargs)
    except Exception as exc:  # a solve that raises is a counted failure
        return [_failed_solve(unit, scheme,
                              (time.perf_counter() - start) * 1e3, exc)]
    ms = (time.perf_counter() - start) * 1e3
    return [Solve(key=unit, scheme=scheme, ms=ms,
                  objective=report.objective_s, output=(scenario, report))]


def check(workload: Workload, solve: Solve) -> list[str]:
    """Output-check problems of one solve (empty when it passes)."""
    if solve.output is None:  # the solve raised
        return solve.problems
    cfg = workload.config
    try:
        if workload.kind == "sweep":
            return checks.check_row(solve.output, cfg.n_chunks,
                                    cfg.energy_budget_ruav_j)
        scenario, report = solve.output
        return checks.check_plan(scenario, solve.scheme, report)
    except Exception as exc:  # a plan the checker chokes on is invalid
        return [f"check raised {type(exc).__name__}: {exc}"]


@dataclass
class Loop:
    """What a timed loop did: its solves, and its time inside units."""

    solves: list
    cycles: int
    wall_s: float     # wall seconds inside units
    norm_s: float     # the same at the nominal machine speed
    kernel_ms: list   # every calibration kernel time, in order


def timed_loop(workload: Workload, pool: Pool, seconds: float,
               cycles: int | None = None) -> Loop:
    """Repeat whole cycles of units until `seconds` of solving have passed,
    or exactly `cycles` cycles if given.

    The calibration kernel runs between units, so every unit's wall time is
    rescaled by the kernel times right before and right after it. Each
    unit's solves are checked after that kernel, outside the timed interval,
    and their outputs dropped, so the benchmark's heap stays flat.
    """
    loop = Loop(solves=[], cycles=0, wall_s=0.0, norm_s=0.0,
                kernel_ms=[speed.kernel_ms()])
    while (loop.cycles < cycles if cycles is not None
           else loop.wall_s < seconds):
        for unit in pool.units:
            start = time.perf_counter()
            batch = run_unit(workload, pool, unit)
            wall_s = time.perf_counter() - start
            loop.kernel_ms.append(speed.kernel_ms())
            factor = speed.scale(*loop.kernel_ms[-2:])
            loop.wall_s += wall_s
            loop.norm_s += wall_s * factor
            for s in batch:
                s.cycle = loop.cycles
                s.norm_ms = s.ms * factor
                s.problems = check(workload, s)
                s.output = None
            loop.solves.extend(batch)
        loop.cycles += 1
    return loop
