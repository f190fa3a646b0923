"""Spans around the calls into each netsense layer, and the per-layer metrics.

The traced run replaces each wrapped function under the name its caller looks
it up by (a module attribute), records one span per call and restores the
originals afterwards. Nothing inside netsense changes. Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field

# Each entry: (module, attribute its caller looks up, span name, counter).
WRAPPED = (
    ("netsense.harness", "run_uniqueness_experiment", "harness.run_experiment", None),
    ("netsense.harness", "run_accuracy_experiment", "harness.run_experiment", None),
    ("netsense.harness", "random_scene", "scene.random_scene", None),
    ("netsense.harness", "measure_distances", "harness.measure_distances", None),
    ("netsense.harness", "covered", "link_budget.covered", None),
    ("netsense.harness", "enumerate_feasible", "association.enumerate_feasible", "hypotheses"),
    ("netsense.harness", "solve_association_bnb", "association.solve_association_bnb", None),
    ("netsense.association", "solve_ranges_batch", "localization.solve_ranges_batch", "rows"),
    ("netsense.association", "enumerate_feasible", "association.enumerate_feasible", "hypotheses"),
    ("netsense.association", "solve_association", "association.solve_association", None),
    ("netsense.association", "solve_association_bnb", "association.solve_association_bnb", None),
    ("netsense.waveforms", "ambiguity", "waveforms.ambiguity", "grid"),
    ("netsense.waveforms", "sidelobe_metrics", "waveforms.sidelobe_metrics", None),
    ("netsense.waveforms", "zadoff_chu", "waveforms.sequence", None),
    ("netsense.waveforms", "ofdm_symbol", "waveforms.sequence", None),
    ("netsense.scene", "load_scene", "scene.load_scene", None),
    ("netsense.cli", "emit_report", "cli.emit_report", "bytes"),
)
ROOT = "cli"  # the benchmark's own span around each parse_and_dispatch call
BNB = "association.solve_association_bnb"
SOLVER = "localization.solve_ranges_batch"
ENUMERATE = "association.enumerate_feasible"
COMPLEX128_BYTES = 16


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)


def _with_stats(args: tuple, kwargs: dict) -> dict:
    """The stats dict enumerate_feasible fills, supplying one if the caller did not."""
    if len(args) > 3:
        return args[3] if args[3] is not None else {}
    if kwargs.get("stats") is None:
        kwargs["stats"] = {}
    return kwargs["stats"]


def _counts(kind: str | None, args: tuple, kwargs: dict, result, stats: dict | None) -> dict:
    if kind == "rows":
        _, _, converged, iterations = result
        return {"rows": len(iterations), "gn_iterations": int(iterations.sum()),
                "nonconverged": int((~converged).sum())}
    if kind == "hypotheses":
        return {"hypotheses": stats.get("hypotheses_examined", 0), "feasible": len(result)}
    if kind == "grid":
        # Computed, not measured: the N x N complex128 delay-by-sample grid.
        return {"grid_bytes": COMPLEX128_BYTES * len(args[0]) ** 2}
    if kind == "bytes":
        path = args[2] if len(args) > 2 else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return {}


class Tracer:
    """Records nested spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, kind: str | None = None):
        def traced(*args, **kwargs):
            stats = _with_stats(args, kwargs) if kind == "hypotheses" else None
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = _counts(kind, args, kwargs, result, stats)
            return result
        return traced

    def install(self) -> list[str]:
        """Wrap every WRAPPED function; returns the names that no longer exist."""
        self.missing = []
        for module_name, attr, name, kind in WRAPPED:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self.wrap(name, getattr(module, attr), kind))
        return self.missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for k in sorted(kids, key=lambda k: spans[k].start):
            lo, hi = max(spans[k].start, reach, s.start), min(spans[k].end, s.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append((s.end - s.start) - covered)
    return out


def _nearest(spans: list[Span], index: int, name: str) -> int | None:
    """Index of the closest enclosing span called ``name``, if any."""
    parent = spans[index].parent
    while parent is not None and spans[parent].name != name:
        parent = spans[parent].parent
    return parent


# name -> unit, in the order reported. mapping.json says which are timed,
# counted or computed, and which end-to-end metric each should move.
METRICS = {
    "localization.solve_ranges_batch.calls_per_op": "calls/op",
    "localization.solve_ranges_batch.rows_per_call": "rows/call",
    "localization.solve_ranges_batch.self_ms_per_op": "ms/op",
    "localization.solve_ranges_batch.us_per_row": "us/row",
    "localization.gn_iterations_per_row": "iter/row",
    "localization.nonconverged_rows": "rows/op",
    "association.enumerate_feasible.calls_per_op": "calls/op",
    "association.enumerate_feasible.self_ms_per_op": "ms/op",
    "association.enumerate_feasible.hypotheses_per_call": "hyp/call",
    "association.enumerate_feasible.feasible_per_call": "hyp/call",
    "association.solve_association_bnb.calls_per_op": "calls/op",
    "association.solve_association_bnb.self_ms_per_op": "ms/op",
    "association.bnb.solver_calls_per_call": "calls/call",
    "association.bnb.fallback_frac": "frac",
    "scene.random_scene.self_ms_per_op": "ms/op",
    "harness.measure_distances.self_ms_per_op": "ms/op",
    "link_budget.covered.calls_per_op": "calls/op",
    "link_budget.covered.self_ms_per_op": "ms/op",
    "harness.run_experiment.self_ms_per_op": "ms/op",
    "harness.misassoc_frac": "frac",
    "waveforms.ambiguity.self_ms_per_op": "ms/op",
    "waveforms.ambiguity.grid_bytes_computed": "B/call",
    "waveforms.sidelobe_metrics.self_ms_per_op": "ms/op",
    "waveforms.sequence.self_ms_per_op": "ms/op",
    "cli.emit_report.self_ms_per_op": "ms/op",
    "cli.emit_report.bytes_per_op": "B/op",
    "cli.self_ms_per_op": "ms/op",
    "scene.load_scene.self_ms_per_op": "ms/op",
    "trace.overhead_frac": "frac",
}


def layer_metrics(spans: list[Span], ops: int, untraced_s: float, traced_s: float,
                  misassoc: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics over the traced ops; a ratio with a zero base reads 0."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    totals: dict[str, int] = {}
    for s, own in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        for key, value in s.counts.items():
            totals[key] = totals.get(key, 0) + value

    def ratio(a, b):
        return a / b if b else 0.0

    def n(name):
        return calls.get(name, 0)

    def total(key):
        return totals.get(key, 0)

    def per_op_ms(name):
        return 1000.0 * self_s.get(name, 0.0) / ops

    under_bnb = {name: [_nearest(spans, i, BNB) for i, s in enumerate(spans) if s.name == name]
                 for name in (SOLVER, ENUMERATE)}
    # A bnb call falls back to exhaustive search when an enumerate_feasible
    # span opens inside it.
    fallbacks = {b for b in under_bnb[ENUMERATE] if b is not None}
    return {
        "localization.solve_ranges_batch.calls_per_op": n(SOLVER) / ops,
        "localization.solve_ranges_batch.rows_per_call": ratio(total("rows"), n(SOLVER)),
        "localization.solve_ranges_batch.self_ms_per_op": per_op_ms(SOLVER),
        "localization.solve_ranges_batch.us_per_row":
            1e6 * ratio(self_s.get(SOLVER, 0.0), total("rows")),
        "localization.gn_iterations_per_row": ratio(total("gn_iterations"), total("rows")),
        "localization.nonconverged_rows": total("nonconverged") / ops,
        "association.enumerate_feasible.calls_per_op": n(ENUMERATE) / ops,
        "association.enumerate_feasible.self_ms_per_op": per_op_ms(ENUMERATE),
        "association.enumerate_feasible.hypotheses_per_call":
            ratio(total("hypotheses"), n(ENUMERATE)),
        "association.enumerate_feasible.feasible_per_call": ratio(total("feasible"), n(ENUMERATE)),
        "association.solve_association_bnb.calls_per_op": n(BNB) / ops,
        "association.solve_association_bnb.self_ms_per_op": per_op_ms(BNB),
        "association.bnb.solver_calls_per_call":
            ratio(sum(1 for b in under_bnb[SOLVER] if b is not None), n(BNB)),
        "association.bnb.fallback_frac": ratio(len(fallbacks), n(BNB)),
        "scene.random_scene.self_ms_per_op": per_op_ms("scene.random_scene"),
        "harness.measure_distances.self_ms_per_op": per_op_ms("harness.measure_distances"),
        "link_budget.covered.calls_per_op": n("link_budget.covered") / ops,
        "link_budget.covered.self_ms_per_op": per_op_ms("link_budget.covered"),
        "harness.run_experiment.self_ms_per_op": per_op_ms("harness.run_experiment"),
        "harness.misassoc_frac": ratio(*misassoc),
        "waveforms.ambiguity.self_ms_per_op": per_op_ms("waveforms.ambiguity"),
        "waveforms.ambiguity.grid_bytes_computed":
            ratio(total("grid_bytes"), n("waveforms.ambiguity")),
        "waveforms.sidelobe_metrics.self_ms_per_op": per_op_ms("waveforms.sidelobe_metrics"),
        "waveforms.sequence.self_ms_per_op": per_op_ms("waveforms.sequence"),
        "cli.emit_report.self_ms_per_op": per_op_ms("cli.emit_report"),
        "cli.emit_report.bytes_per_op": total("bytes") / ops,
        "cli.self_ms_per_op": per_op_ms(ROOT),
        "scene.load_scene.self_ms_per_op": per_op_ms("scene.load_scene"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }

