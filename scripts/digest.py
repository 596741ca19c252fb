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

Usage:
    python3 scripts/digest.py [--seeds 0-4] [--config cfg.txt]
"""

import argparse
import hashlib
import sys
from dataclasses import fields, replace

from uav_mec.cli import exit_code
from uav_mec.config import ExperimentConfig, load_config, parse_seeds
from uav_mec.experiment import sweep
from uav_mec.orchestrator import SCHEMES, run_scheme
from uav_mec.scenario import generate_scenario

SWEEP_CAPS = range(1, 9)


def sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-4")
    parser.add_argument("--config", default=None)
    return exit_code(digest, parser.parse_args(argv))


def digest(args):
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    cfg = replace(cfg, seeds=parse_seeds(args.seeds)).validate()

    for seed in cfg.seeds:
        scenario = generate_scenario(cfg, seed)
        for scheme in SCHEMES:
            report = run_scheme(scenario, scheme, tol=cfg.tol,
                                r_max=cfg.r_max)
            print(seed, scheme, sha256((
                report.objective_trace, report.sca_traces,
                report.alpha.tolist(), report.beta.tolist(), report.q_m,
                report.lp_lower_bound)))

    rows = [tuple(getattr(row, f.name) for f in fields(row)
                  if f.name != "wall_ms")
            for row in sweep(cfg, "n0_cap", SWEEP_CAPS)]
    print("sweep", f"n0_cap {SWEEP_CAPS[0]}-{SWEEP_CAPS[-1]}", sha256(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
