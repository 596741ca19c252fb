#!/usr/bin/env python3
"""Reproduce the reference parameter sweeps for all four schemes.

Runs the four sweeps (video chunk count, transmit power, relay service cap,
S-UAV CPU frequency) over the 20 reference seeds and writes one result file
per sweep into the output directory. Each file is CSV-style text with one row
per (seed, scheme, swept value) cell.

Usage:
    python3 scripts/run_sweeps.py [--out results/] [--seeds 0-19]
                                  [--schemes proposed,suav_only,...]
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from uav_mec.cli import exit_code
from uav_mec.config import ExperimentConfig, parse_seeds
from uav_mec.errors import ValidationError
from uav_mec.experiment import sweep, write_results
from uav_mec.orchestrator import SCHEMES

SWEEPS = {
    "n_chunks": [1, 2, 3, 4, 5],
    "tx_power_w": [0.2, 0.4, 0.6, 0.8, 1.0],
    "n0_cap": [1, 2, 3, 4, 5, 6, 7, 8],
    "cpu_suav_hz": [0.1e9, 0.2e9, 0.3e9, 0.4e9],
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seeds", default="0-19",
                        help="seed range 'a-b' or comma list")
    parser.add_argument("--schemes", default=",".join(SCHEMES),
                        help="comma-separated scheme names")
    return exit_code(run_all, parser.parse_args(argv))


def run_all(args):
    schemes = tuple(args.schemes.split(","))
    cfg = replace(ExperimentConfig(),
                  seeds=parse_seeds(args.seeds)).validate()
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot make {out_dir}: {exc.strerror}") from exc

    for param, values in SWEEPS.items():
        start = time.monotonic()
        rows = sweep(cfg, param, values, schemes=schemes)
        path = out_dir / f"sweep_{param}.txt"
        write_results(rows, path)
        errors = sum(1 for r in rows if r.error)
        print(f"{param}: {len(rows)} rows -> {path} "
              f"({time.monotonic() - start:.1f} s, {errors} errors)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
