#!/usr/bin/env python3
"""Run all four schemes on the reference scenarios and print a summary table.

For each seed, solves the proposed three-block scheme and the three baselines
(no offloading, offload up to the cap, no repositioning) and reports the
min-max latency objective, the per-S-UAV latency spread, and iteration counts.

Usage:
    python3 scripts/compare_schemes.py [--seeds 0-19] [--config cfg.txt]
"""

import argparse
import statistics
import sys
from dataclasses import replace

from uav_mec.cli import exit_code
from uav_mec.config import ExperimentConfig, load_config, parse_seeds
from uav_mec.orchestrator import SCHEMES, run_scheme
from uav_mec.scenario import generate_scenario


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19")
    parser.add_argument("--config", default=None)
    return exit_code(compare, parser.parse_args(argv))


def compare(args):
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    seeds = replace(cfg, seeds=parse_seeds(args.seeds)).validate().seeds

    objectives = {scheme: [] for scheme in SCHEMES}
    print(f"{'seed':>4}  " + "  ".join(f"{s:>14}" for s in SCHEMES))
    for seed in seeds:
        scenario = generate_scenario(cfg, seed)
        row = []
        for scheme in SCHEMES:
            report = run_scheme(scenario, scheme, tol=cfg.tol,
                                r_max=cfg.r_max)
            objectives[scheme].append(report.objective_s)
            row.append(f"{report.objective_s:14.4f}")
        print(f"{seed:>4}  " + "  ".join(row))

    print(f"{'mean':>4}  " + "  ".join(
        f"{statistics.mean(objectives[s]):14.4f}" for s in SCHEMES))
    if len(seeds) > 1:
        print(f"{'std':>4}  " + "  ".join(
            f"{statistics.stdev(objectives[s]):14.4f}" for s in SCHEMES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
