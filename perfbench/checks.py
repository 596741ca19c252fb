"""Output checks applied to every solve the benchmark makes.

A plan from `run_scheme` passes when the library's own constraint checker
finds no violation, an independent re-pricing with `cost.evaluate_solution`
reproduces the reported objective, and the objective trace never increases.
A sweep row passes when it carries no error, its values are finite, and the
relay spent no more than its per-chunk energy budget over all chunks.
"""

from __future__ import annotations

import math

import numpy as np

from uav_mec import cost, orchestrator
from uav_mec.experiment import ResultRow
from uav_mec.scenario import (Association, feasible_association_mask,
                              repositioned_scenario)

REL_TOL = 1e-9
TRACE_SLACK_S = 1e-12
# Same wording as `orchestrator.check_constraints`.
RELAY_BUDGET_FAILURE = "relay energy budget exceeded"


def check_plan(scenario, scheme: str, report) -> list[str]:
    """Problems with one `run_scheme` report; empty when the plan is valid."""
    static = scheme == "static_suavs"
    try:
        association = Association(alpha=np.asarray(report.alpha),
                                  feasible_mask=feasible_association_mask(
                                      scenario))
    except ValueError as exc:
        return [f"association rejected: {exc}"]
    problems = list(orchestrator.check_constraints(
        scenario, association, report.beta, report.q_m,
        static_positions=static))
    placed = (scenario if static
              else repositioned_scenario(scenario, association.alpha))
    try:
        repriced = cost.evaluate_solution(placed, association, report.beta,
                                          report.q_m)[0]
    except Exception as exc:  # a plan the pricing rejects is invalid
        problems.append(f"re-pricing raised {type(exc).__name__}: {exc}")
    else:
        if not math.isclose(repriced, report.objective_s, rel_tol=REL_TOL,
                            abs_tol=0.0):
            problems.append(f"reported objective {report.objective_s!r} != "
                            f"re-priced {repriced!r}")
    trace = report.objective_trace
    if not all(math.isfinite(v) for v in trace):
        problems.append("objective trace is not finite")
    elif any(b > a + TRACE_SLACK_S for a, b in zip(trace, trace[1:])):
        problems.append("objective trace increases")
    return problems


def check_row(row: ResultRow, n_chunks: int,
              relay_budget_j: float) -> list[str]:
    """Problems with one sweep row; empty when the row is valid."""
    if row.error:
        return [f"cell error: {row.error}"]
    values = (row.objective_s, row.delay_stddev_s, row.suav_exec_energy_j,
              row.ruav_energy_j)
    if not all(math.isfinite(v) for v in values):
        return ["non-finite value in row"]
    if row.ruav_energy_j > n_chunks * relay_budget_j * (1.0 + REL_TOL):
        return [RELAY_BUDGET_FAILURE]
    return []
