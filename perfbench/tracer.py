"""Spans recorded from outside the program, and the per-layer metrics.

Each layer is timed by wrapping its public functions at the name its caller
looks them up by: a function that a caller imported by name is wrapped in the
caller's module, because patching its home module would miss the call. A span
is (name, start ns, end ns, parent span, solve id); spans stay in memory and
are written out when the run ends. A span opened with no span open starts a
new solve. A layer's self time is its spans' durations minus the time their
child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict

from uav_mec import (association, experiment, offload, orchestrator,
                     placement, scenario, simplex)

# (module, attribute, span name)
TARGETS = (
    (orchestrator, "run_scheme", "orchestrator.run_scheme"),
    (experiment, "run_scheme", "orchestrator.run_scheme"),
    (experiment, "run_cell", "experiment.run_cell"),
    (experiment, "chunked_metrics", "experiment.chunked_metrics"),
    (experiment, "generate_scenario", "scenario.generate_scenario"),
    (scenario, "generate_scenario", "scenario.generate_scenario"),
    (orchestrator, "repositioned_scenario", "scenario.repositioned_scenario"),
    (scenario, "repositioned_scenario", "scenario.repositioned_scenario"),
    (orchestrator, "evaluate_solution", "cost.evaluate_solution"),
    (orchestrator, "solve_sp1", "offload.solve_sp1"),
    (offload, "build_sp1_lp", "offload.build_sp1_lp"),
    (simplex, "solve_lp_arrays", "simplex.solve_lp_arrays"),
    (offload, "enumerate_offload", "offload.enumerate_offload"),
    (placement, "sca_loop", "placement.sca_loop"),
    (placement, "solve_sp2_2", "placement.solve_sp2_2"),
    (placement, "minimize", "placement.slsqp"),
    (association, "solve_association", "association.solve_association"),
    (association, "greedy_incumbent", "association.greedy_incumbent"),
)


def _assoc_stats(out):
    info = out[1]
    return (info.nodes, info.exact, info.gap)


def _lp_ratio(decision):
    return decision.lp_lower_bound / decision.slack_s


# Span name -> what to keep from the wrapped function's return value.
EXTRACT = {
    "orchestrator.run_scheme": lambda report: report.iterations,
    "placement.sca_loop": lambda out: len(out[1]) - 1,
    "placement.slsqp": lambda res: bool(res.success),
    "association.solve_association": _assoc_stats,
    "offload.solve_sp1": _lp_ratio,
}


# The only target a run needs when it is not traced: the warm-up's
# association node counts must repeat exactly.
ASSOCIATION = tuple(t for t in TARGETS
                    if t[2] == "association.solve_association")


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []       # [name, start, end, parent, solve]
        self.values = defaultdict(list)   # span name -> extracted values
        self._stack: list[int] = []
        self._solves = 0
        self._saved: list = []

    def install(self) -> None:
        for module, attr, name in self.targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name):
        spans, stack, values = self.spans, self._stack, self.values
        extract = EXTRACT.get(name)

        def traced(*args, **kwargs):
            if stack:
                parent, solve = stack[-1], spans[stack[-1]][4]
            else:
                parent, solve = -1, self._solves
                self._solves += 1
            record = [name, 0, 0, parent, solve]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if extract is not None:
                values[name].append(extract(out))
            return out

        return traced

    def layer_times(self) -> dict:
        """Span name -> [calls, total ns, self ns]."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for (name, start, end, _, _), child in zip(self.spans, child_ns):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        return dict(out)

    def write(self, path, label: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, solve in self.spans:
                fh.write(f"{label},{solve},{name},{start},{end},{parent}\n")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# Per-layer metrics: name -> unit. "/solve" figures divide by the solves of
# the traced phase; "/call" figures by the layer's own calls. Times are at
# nominal machine speed, like the end-to-end times.
PER_LAYER_UNITS = {
    "placement.sca_loop.calls": "1/solve",
    "placement.sca_loop.ms": "ms/solve",
    "placement.sca_rounds": "rounds/call",
    "placement.solve_sp2_2.ms": "ms/solve",
    "placement.slsqp.calls": "1/solve",
    "placement.slsqp.ms": "ms/solve",
    "placement.slsqp.failed_frac": "frac",
    "placement.polish_ms": "ms/solve",
    "association.solve_association.calls": "1/solve",
    "association.solve_association.ms": "ms/solve",
    "association.nodes": "nodes/call",
    "association.exact_frac": "frac",
    "association.gap_mean_s": "s/call",
    "association.greedy_incumbent.ms": "ms/solve",
    "offload.solve_sp1.calls": "1/solve",
    "offload.solve_sp1.ms": "ms/solve",
    "offload.build_sp1_lp.ms": "ms/solve",
    "simplex.solve_lp_arrays.ms": "ms/solve",
    "offload.enumerate_offload.ms": "ms/solve",
    "offload.lp_bound_ratio": "frac",
    "cost.evaluate_solution.calls": "1/solve",
    "cost.evaluate_solution.ms": "ms/solve",
    "scenario.generate_scenario.ms": "ms/call",
    "scenario.repositioned_scenario.ms": "ms/call",
    "experiment.run_cell.ms": "ms/call",
    "experiment.chunked_metrics.ms": "ms/call",
    "orchestrator.run_scheme.self_ms": "ms/solve",
    "orchestrator.outer_iters": "iters/solve",
    "trace.overhead_frac": "frac",
}


def layer_metrics(phase: Tracer, setup: Tracer, solves: int,
                  scale: float) -> dict:
    """Per-layer values from the traced phase. Layers the phase never calls
    (scenario generation and the harness on the run_scheme workloads) are
    taken from the traced set-up instead. Times are multiplied by `scale`,
    the traced phase's ratio of nominal to wall time."""
    times = phase.layer_times()
    setup_times = setup.layer_times()
    ms_per_ns = scale / 1e6

    def calls(name):
        return times.get(name, [0, 0, 0])[0] / solves

    def self_ms(name):
        return times.get(name, [0, 0, 0])[2] * ms_per_ns / solves

    def per_call_ms(name):
        entry = times.get(name) or setup_times.get(name) or [1, 0, 0]
        return entry[2] * ms_per_ns / entry[0]

    assoc = phase.values["association.solve_association"]
    return {
        "placement.sca_loop.calls": calls("placement.sca_loop"),
        "placement.sca_loop.ms": self_ms("placement.sca_loop"),
        "placement.sca_rounds": _mean(phase.values["placement.sca_loop"]),
        "placement.solve_sp2_2.ms": (times.get("placement.solve_sp2_2",
                                               [0, 0, 0])[1] * ms_per_ns
                                     / solves),
        "placement.slsqp.calls": calls("placement.slsqp"),
        "placement.slsqp.ms": self_ms("placement.slsqp"),
        "placement.slsqp.failed_frac":
            _mean(float(not ok) for ok in phase.values["placement.slsqp"]),
        "placement.polish_ms": self_ms("placement.solve_sp2_2"),
        "association.solve_association.calls":
            calls("association.solve_association"),
        "association.solve_association.ms":
            self_ms("association.solve_association"),
        "association.nodes": _mean(n for n, _, _ in assoc),
        "association.exact_frac": _mean(float(e) for _, e, _ in assoc),
        "association.gap_mean_s": _mean(g for _, _, g in assoc),
        "association.greedy_incumbent.ms":
            self_ms("association.greedy_incumbent"),
        "offload.solve_sp1.calls": calls("offload.solve_sp1"),
        "offload.solve_sp1.ms": self_ms("offload.solve_sp1"),
        "offload.build_sp1_lp.ms": self_ms("offload.build_sp1_lp"),
        "simplex.solve_lp_arrays.ms": self_ms("simplex.solve_lp_arrays"),
        "offload.enumerate_offload.ms": self_ms("offload.enumerate_offload"),
        "offload.lp_bound_ratio": _mean(phase.values["offload.solve_sp1"]),
        "cost.evaluate_solution.calls": calls("cost.evaluate_solution"),
        "cost.evaluate_solution.ms": self_ms("cost.evaluate_solution"),
        "scenario.generate_scenario.ms":
            per_call_ms("scenario.generate_scenario"),
        "scenario.repositioned_scenario.ms":
            per_call_ms("scenario.repositioned_scenario"),
        "experiment.run_cell.ms": per_call_ms("experiment.run_cell"),
        "experiment.chunked_metrics.ms":
            per_call_ms("experiment.chunked_metrics"),
        "orchestrator.run_scheme.self_ms": self_ms("orchestrator.run_scheme"),
        "orchestrator.outer_iters":
            _mean(phase.values["orchestrator.run_scheme"]),
    }
