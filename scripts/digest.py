#!/usr/bin/env python3
"""Print digests of the planner's results, for a bit-identity check by diff.

One line per (seed, scheme): a sha256 of the repr of the solve's outer
objective trace, its SCA traces, the returned association, offload
decision and relay position, and the report's LP lower bound (nan where
the solve kept no offload decision). Then one line: a sha256 of an n0_cap
1-8 sweep over the same seeds, every column but wall_ms. Two trees give
the same results on these inputs exactly when they print the same output:

    python3 scripts/digest.py --seeds 0-4 > before.txt
    ... change the code ...
    python3 scripts/digest.py --seeds 0-4 | diff before.txt -

A change that must keep every result checks these four runs, before and
after, the last three with the configs committed beside this script:

    python3 scripts/digest.py --seeds 0-19
    python3 scripts/digest.py --seeds 0-9 --config scripts/relay_sweep.cfg
    python3 scripts/digest.py --seeds 0-9 --config scripts/fleet.cfg
    python3 scripts/digest.py --seeds 0-9 --config scripts/link.cfg

link.cfg is the link-bound regime, where the relay's position moves the
answer: at the reference parameters the link is about 2e-4 of the
bottleneck's latency, so only its bits, not its value, show there.

The four gates' outputs are kept in tests/golden/, each headed by the
Python and NumPy versions that made it, and a tier-1 test reruns the gates
and compares (tests/test_scripts.py, TestGoldenDigests). --write reruns the
four gates and rewrites those files; do it only for a change that is meant
to move results, and say so.

Usage:
    python3 scripts/digest.py [--seeds 0-4] [--config cfg.txt]
    python3 scripts/digest.py --write
"""

import argparse
import hashlib
import platform
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from uav_mec.cli import exit_code
from uav_mec.config import ExperimentConfig, load_config, parse_seeds
from uav_mec.experiment import sweep
from uav_mec.orchestrator import SCHEMES, run_scheme
from uav_mec.scenario import generate_scenario

SWEEP_CAPS = range(1, 9)
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# Golden file name -> the gate's arguments; configs are relative to ROOT.
GATES = {
    "reference": ("--seeds", "0-19"),
    "relay_sweep": ("--seeds", "0-9", "--config", "scripts/relay_sweep.cfg"),
    "fleet": ("--seeds", "0-9", "--config", "scripts/fleet.cfg"),
    "link": ("--seeds", "0-9", "--config", "scripts/link.cfg"),
}


def sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-4")
    parser.add_argument("--config", default=None)
    parser.add_argument("--write", action="store_true",
                        help="rerun the four gates into tests/golden/ "
                        "(--seeds and --config are ignored)")
    return parser


def main(argv=None):
    return exit_code(digest, parser().parse_args(argv))


def versions() -> str:
    """What a golden file's header records: results may move in the last
    bit from one Python or NumPy version to another."""
    return f"python {platform.python_version()}, numpy {np.__version__}"


def digest_lines(args) -> list[str]:
    """The digest of the seeds and config that args name, line by line."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    cfg = replace(cfg, seeds=parse_seeds(args.seeds)).validate()
    lines = []
    for seed in cfg.seeds:
        scenario = generate_scenario(cfg, seed)
        for scheme in SCHEMES:
            report = run_scheme(scenario, scheme, tol=cfg.tol,
                                r_max=cfg.r_max)
            lines.append(f"{seed} {scheme} " + sha256((
                report.objective_trace, report.sca_traces,
                report.alpha.tolist(), report.beta.tolist(), report.q_m,
                report.lp_lower_bound)))

    rows = [tuple(getattr(row, f.name) for f in fields(row)
                  if f.name != "wall_ms")
            for row in sweep(cfg, "n0_cap", SWEEP_CAPS)]
    lines.append(f"sweep n0_cap {SWEEP_CAPS[0]}-{SWEEP_CAPS[-1]} "
                 + sha256(rows))
    return lines


def gate_lines(name: str) -> list[str]:
    """One gate's digest, its config read from ROOT whatever the working
    directory."""
    args = parser().parse_args(GATES[name])
    if args.config:
        args.config = str(ROOT / args.config)
    return digest_lines(args)


def digest(args):
    if not args.write:
        print("\n".join(digest_lines(args)))
        return 0
    GOLDEN.mkdir(exist_ok=True)
    for name in GATES:
        path = GOLDEN / f"digest_{name}.txt"
        path.write_text("\n".join([f"# {versions()}",
                                    *gate_lines(name)]) + "\n")
        print("wrote", path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
