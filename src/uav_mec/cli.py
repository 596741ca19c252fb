"""Command-line entry points: run, sweep, oracle, trace."""

from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig, load_config
from .errors import ParseError, UavMecError, ValidationError
from .experiment import SWEEPABLE, format_rows, run_group, sweep, write_text
from .orchestrator import SCHEMES, run_scheme
from .oracles import joint_bruteforce
from .scenario import generate_scenario


def _load(args) -> ExperimentConfig:
    """The command's config. --out, if given, is written empty here, so a
    path that cannot be written fails before any solve."""
    if args.seed < 0:
        raise ValidationError(f"--seed must be non-negative, got {args.seed}")
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.out:
        write_text(args.out, "")
    return config


def _add_common(parser):
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="output path (default stdout)")


def _emit(text: str, out_path) -> None:
    if out_path:
        write_text(out_path, text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    config = _load(args)
    rows = run_group(config, args.seed,
                     [args.scheme] if args.scheme else SCHEMES)
    text = format_rows(rows)
    _emit(text, args.out)
    return 1 if any(r.error for r in rows) else 0


def cmd_sweep(args) -> int:
    config = _load(args)
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise ValidationError(f"--values: {exc}") from exc
    schemes = [args.scheme] if args.scheme else SCHEMES
    rows = sweep(config, args.param, values, schemes=schemes)
    _emit(format_rows(rows), args.out)
    return 1 if any(r.error for r in rows) else 0


def cmd_oracle(args) -> int:
    config = _load(args)
    scenario = generate_scenario(config, args.seed)
    report = run_scheme(scenario, "proposed", tol=config.tol, r_max=config.r_max)
    reference = joint_bruteforce(
        scenario, extra_points=report.q_m.array[None, :])
    gap = report.objective_s - reference
    rel = gap / reference if reference > 0 else 0.0
    _emit(f"solver_objective_s = {report.objective_s!r}\n"
          f"oracle_objective_s = {reference!r}\n"
          f"relative_gap = {rel!r}\n", args.out)
    return 0


def cmd_trace(args) -> int:
    config = _load(args)
    scenario = generate_scenario(config, args.seed)
    scheme = args.scheme or "proposed"
    report = run_scheme(scenario, scheme, tol=config.tol, r_max=config.r_max)
    lines = ["iteration,objective_s"]
    for i, value in enumerate(report.objective_trace):
        lines.append(f"{i},{value!r}")
    # The placement block's SCA trace in each outer iteration of the solve.
    lines.append("outer_iteration,sca_iteration,objective_s")
    for k, sca_trace in enumerate(report.sca_traces, start=1):
        for i, value in enumerate(sca_trace):
            lines.append(f"{k},{i},{value!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uav-mec",
        description="Min-max latency planning for a multi-UAV maritime "
                    "surveillance edge-computing system.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one seeded scenario")
    _add_common(p_run)
    p_run.add_argument("--scheme", choices=SCHEMES)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="parameter sweep over seeds and schemes")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    p_sweep.add_argument("--scheme", choices=SCHEMES)
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle", help="compare the solver against the small-instance brute force")
    _add_common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_trace = sub.add_parser("trace", help="emit outer and SCA iterate traces")
    _add_common(p_trace)
    p_trace.add_argument("--scheme", choices=SCHEMES)
    p_trace.set_defaults(func=cmd_trace)
    return parser


def exit_code(run, *args) -> int:
    """run(*args)'s exit code; a bad input prints one config error line and
    gives 2, a solver failure one error line and 1."""
    try:
        return run(*args)
    except (ParseError, ValidationError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except UavMecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return exit_code(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
