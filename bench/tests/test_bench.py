"""Tests of the benchmark itself. Run from the repository root:

    python -m pytest -q bench/tests
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import TINY, WORKLOADS, run_calls  # noqa: E402

MAPPING = json.loads((BENCH / "mapping.json").read_text())
EXACT_KINDS = ("counted", "computed")


def test_self_time_subtracts_each_child_once():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("a.inner", 2.0, 3.0, 1, 1),  # covered by "a", not again by "root"
        Span("b", 6.0, 7.0, 0, 1),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [Span("root", 0.0, 10.0, None, 1), Span("b", 6.0, 7.0, 0, 1),
             Span("c", 6.5, 8.0, 0, 1), Span("d", 9.0, 12.0, 0, 1)]
    # Children cover [6, 8] and [9, 10] of the parent; "d" is clipped at its end.
    assert tracing.self_times(spans)[0] == pytest.approx(7.0)


@pytest.mark.parametrize("n, value, pct", [
    (100, 90.0, 90.0),     # ten samples (91..100) lie beyond p90
    (25, 15.0, 60.0),
    (11, 1.0, 100.0 / 11),
    (10, 10.0, 100.0),     # too few samples: the maximum, as p100
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, value, pct):
    samples = [float(i) for i in range(n, 0, -1)]
    assert run.tail(samples) == (value, pytest.approx(pct))


def _tiny(name, tmp_path, seed=3):
    return WORKLOADS[name](seed, tmp_path, TINY)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_of_each_workload_has_no_failed_op(name, tmp_path):
    wl = _tiny(name, tmp_path)
    runs = [worker.run_block(wl, worker.parse_and_dispatch, 0, warmup=True)]
    runs += [worker.run_block(wl, worker.parse_and_dispatch, index) for index in (1, 2)]
    attempted = sum(r["ops"] for r in runs)
    assert attempted > 0
    assert sum(r["failed"] for r in runs) / attempted == 0.0


@pytest.mark.parametrize("outcome", ["raise", "exit 1", "unreadable output"])
def test_an_op_that_raises_exits_non_zero_or_prints_unreadable_output_fails(outcome, tmp_path):
    wl = _tiny("associate-large", tmp_path)

    def dispatch(argv):
        if outcome == "raise":
            raise RuntimeError("boom")
        rc = worker.parse_and_dispatch(argv)
        if outcome == "unreadable output":
            print("{}")
        return 1 if outcome == "exit 1" else rc

    r = worker.run_block(wl, dispatch, 1)
    assert r["failed"] == r["ops"] == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counted_metrics_repeat_across_traced_runs_with_one_seed(name, tmp_path):
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        untraced, traced, ops, failed, misassoc = worker.trace_pass(_tiny(name, tmp_path), tracer)
        assert failed == 0 and tracer.missing == []
        runs.append(tracing.layer_metrics(tracer.spans, ops, untraced, traced, misassoc))
    exact = [m for m, spec in MAPPING["per_layer"].items() if spec["kind"] in EXACT_KINDS]
    assert {m: runs[0][m] for m in exact} == {m: runs[1][m] for m in exact}
    assert runs[0]["cli.self_ms_per_op"] > 0.0


def test_tracer_names_a_wrapped_function_that_no_longer_exists(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (
        ("netsense.harness", "no_such_function", "harness.no_such_function", None),))
    tracer = tracing.Tracer()
    assert tracer.install() == ["netsense.harness.no_such_function"]
    tracer.uninstall()
    import netsense.harness
    assert netsense.harness.covered.__module__ == "netsense.link_budget"


def test_ambiguity_check_rejects_side_lobes_above_numerical_zero(tmp_path):
    wl = _tiny("ambiguity", tmp_path)
    block = wl.block(1)
    run_calls(worker.parse_and_dispatch, block.calls)
    assert wl.failures(block) == 0
    ideal = next(c for c in block.calls if c.context["ideal"])
    with open(ideal.context["out"], newline="") as fh:
        rows = list(csv.reader(fh))
    rows[2][1] = "-100.0"
    with open(ideal.context["out"], "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert wl.failures(block) == 1


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRICS
    assert set(MAPPING["per_layer"]) == set(tracing.METRICS)


def test_run_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-uniqueness", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
