#!/usr/bin/env python3
"""Measure solver optimality gaps against brute-force oracles.

On small instances (default 4 S-UAVs, 5 targets) the joint problem can be
solved by exhaustive enumeration of offloading subsets and associations with
a refined grid search over relay positions. This script prints the relative
gap between the proposed solver and that oracle per seed.

Usage:
    python3 scripts/oracle_gaps.py [--seeds 0-9] [--n-suavs 4] [--n-targets 5]
"""

import argparse
import sys
import time
from dataclasses import replace

from uav_mec.cli import exit_code
from uav_mec.config import ExperimentConfig, parse_seeds
from uav_mec.oracles import joint_associations, joint_bruteforce
from uav_mec.orchestrator import run_scheme
from uav_mec.scenario import generate_scenario


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--n-suavs", type=int, default=4)
    parser.add_argument("--n-targets", type=int, default=5)
    return exit_code(measure, parser.parse_args(argv))


def measure(args):
    cfg = replace(ExperimentConfig(), n_suavs=args.n_suavs,
                  n_targets=args.n_targets,
                  n0_cap=max(1, args.n_suavs // 2),
                  seeds=parse_seeds(args.seeds)).validate()
    # Refuse an instance too large to enumerate before printing anything.
    scenarios = [generate_scenario(cfg, seed) for seed in cfg.seeds]
    for scenario in scenarios:
        joint_associations(scenario)

    print(f"{'seed':>4} {'solver_s':>10} {'oracle_s':>10} {'rel_gap':>9} "
          f"{'wall_s':>7}")
    worst = 0.0
    for seed, scenario in zip(cfg.seeds, scenarios):
        start = time.monotonic()
        report = run_scheme(scenario, "proposed")
        oracle = joint_bruteforce(
            scenario, extra_points=report.q_m.array[None, :])
        gap = (report.objective_s - oracle) / oracle
        worst = max(worst, gap)
        print(f"{seed:>4} {report.objective_s:>10.4f} {oracle:>10.4f} "
              f"{gap:>9.4%} {time.monotonic() - start:>7.2f}")
    print(f"worst relative gap: {worst:.4%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
