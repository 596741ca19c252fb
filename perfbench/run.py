#!/usr/bin/env python3
"""Benchmark of the uav-mec planner: end-to-end solve time and plan quality,
and (with --trace 1) the time spent in each solver block.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload reference --seed 0 --seconds 15 \
        --trace 0 [--held-out] [--quick]
    python3 perfbench/run.py --workload all ...   # every workload in turn

One process runs a closed loop with one client: each solve starts when the
previous one returns. Times are reported at a nominal machine speed, set by
a calibration kernel timed between solves (speed.py); wall-clock figures are
printed too. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Results, per-seed
objective digests and (traced runs) the spans are also written under
perfbench/out/.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("reference", "fleet", "relay_sweep")
IMPORT_PLANNER = "import uav_mec.experiment, uav_mec.orchestrator"
# Times are at the nominal machine speed (see speed.py); setup_s too.
END_TO_END_UNITS = {
    "norm.solves_per_s": "1/s",
    "norm.solve_ms_p50": "ms",
    "norm.solve_ms_tail": "ms",
    "norm.scheme_ms_p50.proposed": "ms",
    "objective_mean_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True,
                        help="run seed; the scenarios are drawn from it")
    parser.add_argument("--seconds", type=float, required=True,
                        help="seconds of solving in the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--held-out", action="store_true",
                        help="draw from the held-out scenario seeds, which "
                             "development runs never use")
    parser.add_argument("--quick", action="store_true",
                        help="reduced size, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def cap_blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    cap = int(current) if current.isdigit() and 0 < int(current) < nproc \
        else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(cap)
    return cap


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(blas_threads: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": blas_threads,
    }


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.glob("uav_mec/*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def objective_digest(solves) -> tuple[str, dict]:
    """sha256 over every (key, objective), overall and per scenario seed."""
    overall = hashlib.sha256()
    per_seed: dict = {}
    for s in sorted(solves, key=lambda s: s.key):
        line = f"{s.key!r}={s.objective!r}\n".encode()
        overall.update(line)
        per_seed.setdefault(s.key[0], hashlib.sha256()).update(line)
    return overall.hexdigest(), {k: h.hexdigest() for k, h in per_seed.items()}


def repeat_problems(solves) -> list[str]:
    """The same input must give the same plan objective every time."""
    seen: dict = {}
    for s in solves:
        prev = seen.setdefault(s.key, s.objective)
        if prev != s.objective and not (math.isnan(prev)
                                        and math.isnan(s.objective)):
            return [f"objective of {s.key} changed between repeats: "
                    f"{prev!r} -> {s.objective!r}"]
    return []


def earlier_run_problems(path: Path, code: str, digest: str,
                         nodes: list) -> list[str]:
    """An earlier run of the same code and seed must agree exactly."""
    if not path.is_file():
        return []
    old = json.loads(path.read_text(encoding="utf-8"))
    if old.get("code_hash") != code:
        return []
    problems = []
    if old["digest"] != digest:
        problems.append("objective digest differs from an earlier run of "
                        "the same code and seed")
    if old["warmup_nodes"] != nodes:
        problems.append(f"association nodes differ from an earlier run: "
                        f"{old['warmup_nodes']} -> {nodes}")
    return problems


def print_trace(phase, first, second, span_path, overhead):
    times = phase.layer_times()
    self_total = sum(v[2] for v in times.values())
    print(f"trace: {len(phase.spans)} spans -> {span_path}")
    print(f"trace: self times sum to {self_total / 1e6:.1f} ms over "
          f"{len(second.solves)} traced solves ({second.wall_s * 1e3:.1f} ms "
          f"timed from outside); the same solves took "
          f"{first.wall_s * 1e3:.1f} ms untraced; overhead at nominal speed "
          f"{overhead:+.2%}")
    for self_ns, name in sorted(((v[2], k) for k, v in times.items()),
                                reverse=True):
        print(f"  self {name:34s} {self_ns / 1e6:10.1f} ms "
              f"{self_ns / max(self_total, 1):7.1%}")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--held-out"] * args.held_out + ["--quick"] * args.quick
        print(f"=== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def import_seconds() -> float:
    """Wall seconds a fresh interpreter takes to import the planner."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PLANNER], env=env,
                   check=True, timeout=120)
    return time.perf_counter() - start


def time_metrics(solves, busy_s: float, pct: float, field: str) -> dict:
    """Throughput and latency figures of `solves`, from one of their time
    fields ("ms" for wall time, "norm_ms" for nominal speed)."""
    import numpy as np
    ms = [getattr(s, field) for s in solves]
    by_scheme: dict = {}
    for s in solves:
        by_scheme.setdefault(s.scheme, []).append(getattr(s, field))
    out = {"solves_per_s": len(solves) / busy_s,
           "solve_ms_p50": statistics.median(ms),
           "solve_ms_tail": float(np.percentile(ms, pct))}
    for scheme, values in by_scheme.items():
        out[f"scheme_ms_p50.{scheme}"] = statistics.median(values)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "uav_mec" / "__init__.py").is_file():
        print(f"error: the uav_mec sources are missing ({SRC}); run from a "
              "full checkout", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    # The relay sweep must run its cells in this process, one after another.
    os.environ["UAV_MEC_WORKERS"] = "1"
    sys.path.insert(0, str(SRC))

    import uav_mec
    if not Path(uav_mec.__file__).resolve().is_relative_to(SRC):
        print(f"error: uav_mec imported from {uav_mec.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import checks
    import speed
    import tracer
    import workloads
    kernel = [speed.kernel_ms()]

    workload = workloads.WORKLOADS[args.workload]
    cfg = workload.config
    quick = args.quick
    n_scenarios = 1 if quick else workload.scenarios
    setup_reps = 1 if quick else workloads.SETUP_REPS
    seeds = workloads.scenario_seeds(args.seed, n_scenarios, args.held_out)
    machine = machine_info(blas_threads)
    print("machine " + " ".join(f"{k}={v!r}" if isinstance(v, str)
                                else f"{k}={v}" for k, v in machine.items()))
    print(f"workload={workload.name} seed={args.seed} "
          f"held_out={int(args.held_out)} trace={args.trace} "
          f"seconds={args.seconds:g} quick={int(quick)} loop=closed clients=1 "
          f"scenarios_per_cycle={len(seeds)} first_scenario_seeds={seeds[:3]}")
    incorrect: list[str] = []

    # Set-up, several times: import the planner in a fresh interpreter, then
    # generate the cycle's scenarios and run one warm-up cell. Each step is
    # timed at nominal speed by the kernel runs around it. Untraced runs
    # wrap only the association solve, for the warm-up's node counts.
    setup_tracer = tracer.Tracer(tracer.TARGETS if args.trace
                                 else tracer.ASSOCIATION)
    assoc_values = setup_tracer.values["association.solve_association"]
    import_norm_s, setup_norm_s, warm = [], [], []
    for _ in range(setup_reps):
        elapsed = import_seconds()
        kernel.append(speed.kernel_ms())
        import_norm_s.append(elapsed * speed.scale(*kernel[-2:]))
        before = len(assoc_values)
        setup_tracer.install()
        try:
            t0 = time.perf_counter()
            pool, row = workloads.set_up(workload, seeds)
            elapsed = time.perf_counter() - t0
        finally:
            setup_tracer.uninstall()
        kernel.append(speed.kernel_ms())
        setup_norm_s.append(elapsed * speed.scale(*kernel[-2:]))
        warm.append((row.objective_s,
                     [n for n, _, _ in assoc_values[before:]]))
    setup_s = (statistics.median(import_norm_s)
               + statistics.median(setup_norm_s))
    if any(w != warm[0] for w in warm):
        incorrect.append(f"set-up repeats differ: {warm}")
    warm_problems = checks.check_row(row, cfg.n_chunks,
                                     cfg.energy_budget_ruav_j)
    if any((row.scheme, p) not in workload.known_failures
           for p in warm_problems):
        incorrect.append(f"warm-up cell failed its check: {warm_problems}")
    warm_nodes = warm[0][1]
    # The set-up's objects belong to the benchmark, not the program: keep
    # the collector from rescanning them during the timed phase.
    gc.collect()
    gc.freeze()

    # Timed phase. A traced run spends half the time untraced, then repeats
    # the same cycles traced; the difference is the tracing overhead.
    half = args.seconds / 2 if args.trace else args.seconds
    first = workloads.timed_loop(workload, pool, half)
    second = workloads.Loop(solves=[], cycles=0, wall_s=0.0, norm_s=0.0,
                            kernel_ms=[])
    phase_tracer = tracer.Tracer()
    if args.trace:
        phase_tracer.install()
        try:
            second = workloads.timed_loop(workload, pool, half,
                                          cycles=first.cycles)
        finally:
            phase_tracer.uninstall()
    solves = first.solves + second.solves

    failed = [s for s in solves if s.problems]
    unknown = [s for s in failed
               if any((s.scheme, p) not in workload.known_failures
                      for p in s.problems)]
    if unknown:
        incorrect.append(f"{len(unknown)} solves failed unexpectedly, e.g. "
                         f"{unknown[0].key}: {unknown[0].problems}")
    incorrect += repeat_problems(solves)

    quality = [s for s in first.solves if s.cycle == 0]
    pct = workload.tail_pct
    beyond = len(quality) * (100 - pct) / 100
    if not quick and beyond < workloads.TAIL_SAMPLES:
        incorrect.append(f"{len(quality)} solves per cycle leave fewer than "
                         f"{workloads.TAIL_SAMPLES} beyond p{pct:g}")
    digest, per_seed = objective_digest(quality)
    finite = [s.objective for s in quality if math.isfinite(s.objective)]
    wall = time_metrics(first.solves, first.wall_s, pct, "ms")
    norm = time_metrics(first.solves, first.norm_s, pct, "norm_ms")
    end_to_end = {f"norm.{k}": v for k, v in norm.items()}
    end_to_end.update({
        "objective_mean_s": statistics.fmean(finite) if finite else math.nan,
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })

    OUT.mkdir(exist_ok=True)
    stem = (f"{workload.name}-seed{args.seed}"
            + "-heldout" * args.held_out + "-quick" * quick)
    if args.trace:
        layers = tracer.layer_metrics(phase_tracer, setup_tracer,
                                      len(second.solves),
                                      second.norm_s / second.wall_s)
        layers["trace.overhead_frac"] = second.norm_s / first.norm_s - 1.0
        span_path = OUT / f"{stem}-spans.csv"
        span_path.write_text("phase,solve,name,start_ns,end_ns,parent\n",
                             encoding="utf-8")
        setup_tracer.write(span_path, "setup")
        phase_tracer.write(span_path, "timed")
        print_trace(phase_tracer, first, second, span_path,
                    layers["trace.overhead_frac"])
        metrics = {k: (layers[k], u)
                   for k, u in tracer.PER_LAYER_UNITS.items()}
    else:
        metrics = {k: (end_to_end[k], u) for k, u in END_TO_END_UNITS.items()}

    record_path = OUT / f"{stem}.json"
    this_hash = code_hash()
    incorrect += earlier_run_problems(record_path, this_hash, digest,
                                      warm_nodes)

    kernel += first.kernel_ms + second.kernel_ms
    print(f"solves: {len(first.solves)} in {first.cycles} cycles of "
          f"{len(quality)}, {first.wall_s:.2f} s of solving "
          f"({first.norm_s:.2f} s at nominal speed)")
    print("setup at nominal speed: imports "
          f"{', '.join(f'{t:.3f}' for t in import_norm_s)} s, set-ups "
          f"{', '.join(f'{t:.3f}' for t in setup_norm_s)} s")
    print(f"calibration kernel: median {statistics.median(kernel):.3f} ms "
          f"over {len(kernel)} runs (nominal {speed.NOMINAL_KERNEL_MS:g} ms)")
    for name, value in end_to_end.items():
        unit = END_TO_END_UNITS.get(name, "ms")
        extra = (f" (p{pct:g} of n={len(first.solves)})"
                 if name.endswith("solve_ms_tail") else "")
        print(f"{name} = {value!r} {unit}{extra}")
    for name, value in wall.items():
        unit = "1/s" if name == "solves_per_s" else "ms"
        print(f"wall.{name} = {value!r} {unit}")
    print(f"failed_frac = {len(failed) / len(solves)!r} "
          f"({len(failed)}/{len(solves)}; {len(failed) - len(unknown)} "
          f"known: {sorted(workload.known_failures) or 'none'})")
    print(f"association nodes of the warm-up solve: {warm_nodes}")
    print(f"objective digest sha256={digest} over {len(quality)} solves")
    for seed, h in per_seed.items():
        print(f"  seed {seed}: {h[:16]}")
    for problem in incorrect:
        print(f"INCORRECT: {problem}")

    record = {
        "workload": workload.name, "seed": args.seed,
        "held_out": args.held_out, "quick": quick, "trace": args.trace,
        "seconds": args.seconds, "machine": machine, "code_hash": this_hash,
        "digest": digest, "per_seed_digest": per_seed,
        "objectives": [[list(s.key), s.objective] for s in
                       sorted(quality, key=lambda s: s.key)],
        "warmup_nodes": warm_nodes, "tail_percentile": pct,
        "cycles": first.cycles, "kernel_ms_median": statistics.median(kernel),
        "import_norm_s": import_norm_s, "setup_norm_s": setup_norm_s,
        "solves": [[list(s.key), s.cycle, s.ms, s.norm_ms] for s in solves],
        "kernel_ms": kernel,
        "end_to_end": end_to_end, "wall": wall,
        "attempted": len(solves), "failed": len(failed),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "incorrect": incorrect,
    }
    record_path.write_text(json.dumps(record, indent=1) + "\n",
                           encoding="utf-8")

    finite_metrics = all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": not incorrect and finite_metrics,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
