#!/usr/bin/env python3
"""Print how far the proposed objective moves when the scene is relabelled.

A relabelling lists the same S-UAVs and targets in another order, with ids
renumbered in the new order; the instance is the same, so an exact solver
would give the same objective up to roundoff. Each seed is solved with
`proposed` under its given labels and under 4 relabellings, the k-th taking
the permutations of np.random.default_rng([seed, k]) (S-UAVs first, then
targets). One line per seed holds the spread of its five objectives,
(largest - least) / least; the last line counts the spreads above 1e-6 and
above 1e-3, and gives the largest. A change that must keep every result
prints the same output before and after:

    python3 scripts/relabel_spread.py --seeds 0-19
    python3 scripts/relabel_spread.py --seeds 0-19 --config scripts/fleet.cfg

Usage:
    python3 scripts/relabel_spread.py [--seeds 0-19] [--config cfg.txt]
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from uav_mec.cli import exit_code
from uav_mec.config import ExperimentConfig, load_config, parse_seeds
from uav_mec.orchestrator import run_scheme
from uav_mec.scenario import Scenario, generate_scenario

RELABELLINGS = 4


def relabelled(scenario: Scenario, k: int) -> Scenario:
    """The scenario's S-UAVs and targets in the k-th relabelling's order,
    each renumbered by its new index."""
    rng = np.random.default_rng([scenario.seed, k])
    suavs = [scenario.suavs[j] for j in rng.permutation(scenario.n_suavs)]
    targets = [scenario.targets[i]
               for i in rng.permutation(scenario.n_targets)]
    return replace(
        scenario, suavs=tuple(replace(s, id=j) for j, s in enumerate(suavs)),
        targets=tuple(replace(t, id=i) for i, t in enumerate(targets)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19")
    parser.add_argument("--config", default=None)
    return exit_code(spread, parser.parse_args(argv))


def spread(args):
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    cfg = replace(cfg, seeds=parse_seeds(args.seeds)).validate()

    spreads = []
    for seed in cfg.seeds:
        scenario = generate_scenario(cfg, seed)
        objectives = [run_scheme(sc, "proposed", tol=cfg.tol,
                                 r_max=cfg.r_max).objective_s
                      for sc in [scenario] + [relabelled(scenario, k)
                                              for k in range(RELABELLINGS)]]
        spreads.append((max(objectives) - min(objectives)) / min(objectives))
        print(seed, f"{spreads[-1]:.3e}")
    print("above 1e-6:", sum(s > 1e-6 for s in spreads),
          "above 1e-3:", sum(s > 1e-3 for s in spreads),
          "largest:", f"{max(spreads, default=0.0):.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
