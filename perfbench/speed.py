"""Calibration kernel: a fixed piece of work timed between units, so that
solve times can be rescaled to a nominal machine speed.

On a shared host the cores change speed by up to 2x within seconds, and the
process's CPU time follows its wall time, so neither clock gives figures
that repeat from one run to the next. The kernel mixes the kinds of work the
planner does: interpreted Python over dicts and floats, small NumPy array
operations, and one SciPy SLSQP solve. It never calls the planner, so a
change to the planner leaves it alone.

A unit's normalised time is its wall time times NOMINAL_KERNEL_MS over the
mean of the kernel times measured right before and right after it: the time
the unit would have taken on a machine that runs the kernel in
NOMINAL_KERNEL_MS.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np
from scipy.optimize import minimize

# Median kernel time on a 2-vCPU Intel Xeon VM (Python 3, OpenBLAS).
NOMINAL_KERNEL_MS = 6.0

_TARGET = np.array([3.0, -1.0])
_START = np.array([1.0, 2.0])
_BALL = ({"type": "ineq", "fun": lambda x: 4.0 - x @ x},)


def _objective(x) -> float:
    return float(((x - _TARGET) ** 2).sum() + np.sin(x).sum())


def kernel_ms() -> float:
    """Wall milliseconds taken by one run of the fixed kernel.

    The garbage collector is held off while it runs: a collection of the
    program's garbage would otherwise land in the kernel's time.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _timed_kernel()
    finally:
        if collecting:
            gc.enable()


def _timed_kernel() -> float:
    start = time.perf_counter()
    acc = 0.0
    table: dict = {}
    for i in range(3000):
        table[i & 63] = table.get(i & 63, 0.0) + i * 0.5
        acc += (i % 7) * 1.5 if i & 1 else -1.0
    base = np.arange(64.0)
    for i in range(200):
        acc += float((base * 1.0001 + i).sum())
    acc += minimize(_objective, _START, method="SLSQP", constraints=_BALL).fun
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel produced a non-finite value")
    return elapsed_ms


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that turns wall time between two kernel runs into nominal
    time."""
    return NOMINAL_KERNEL_MS / ((before_ms + after_ms) / 2.0)
