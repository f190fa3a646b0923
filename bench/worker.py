"""One benchmark process: set up one workload, then optionally measure it.

Started by run.py, never by hand. Modes:
  setup  import netsense, build the first inputs and run one warm-up op;
  timed  set up, then run blocks untraced until --seconds have passed;
  trace  set up, then run a fixed list of blocks, each untraced and traced,
         until --seconds have passed.
It prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy  # noqa: E402
import netsense  # noqa: E402
from netsense.cli import parse_and_dispatch  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, MonteCarloAccuracy, run_calls  # noqa: E402


def run_block(wl, dispatch, index: int, warmup: bool = False) -> dict:
    """Run and check one block, timing only its CLI calls.

    An op that raises, exits non-zero or fails its check counts as failed;
    the run goes on.
    """
    block = wl.block(index, warmup)
    start = time.perf_counter()
    seconds = None
    try:
        run_calls(dispatch, block.calls)
        seconds = time.perf_counter() - start
        failed = wl.failures(block)
    except Exception:  # noqa: BLE001 - a crash in one op must not end the run
        traceback.print_exc()
        if seconds is None:
            seconds = time.perf_counter() - start
        failed = block.ops
    if failed:
        print(f"{wl.name} block {index}: {failed} of {block.ops} ops failed", file=sys.stderr)
    return {"ops": block.ops, "seconds": seconds, "failed": failed, "block": block}


def trace_pass(wl, tracer: tracing.Tracer) -> tuple[float, float, int, int, tuple[int, int]]:
    """Run blocks 1..wl.trace_blocks untraced and traced, in alternating order.

    Counted metrics are ratios of integers over these blocks, so they repeat
    exactly for a seed however many passes fit in the run.

    Returns (untraced seconds, traced seconds, traced ops, failed ops,
    (mis-associated, completed) noisy trials).
    """
    root = tracer.wrap(tracing.ROOT, parse_and_dispatch)
    seconds = {False: 0.0, True: 0.0}
    ops = failed = wrong = noisy = 0
    for index in range(1, wl.trace_blocks + 1):
        tracer.op = index
        for traced in ((False, True) if index % 2 else (True, False)):
            if traced:
                tracer.install()
                try:
                    r = run_block(wl, root, index)
                finally:
                    tracer.uninstall()
                ops += r["ops"]
                if isinstance(wl, MonteCarloAccuracy) and r["failed"] == 0:
                    w, n = wl.misassociated(r["block"])
                    wrong, noisy = wrong + w, noisy + n
            else:
                r = run_block(wl, parse_and_dispatch, index)
            seconds[traced] += r["seconds"]
            failed += r["failed"]
    return seconds[False], seconds[True], ops, failed, (wrong, noisy)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args(argv)

    if not Path(netsense.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported netsense from {netsense.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        warm = run_block(wl, parse_and_dispatch, 0, warmup=True)
        ready = time.perf_counter()
        out = {"ready": ready, "warmup_ops": warm["ops"], "warmup_failed": warm["failed"],
               "python": platform.python_version(), "numpy": numpy.__version__}

        if args.mode == "timed":
            blocks = []
            deadline = ready + args.seconds
            index = 1
            while not blocks or time.perf_counter() < deadline:
                r = run_block(wl, parse_and_dispatch, index)
                blocks.append({k: r[k] for k in ("ops", "seconds", "failed")})
                index += 1
            out.update(blocks=blocks,
                       peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

        elif args.mode == "trace":
            tracer = tracing.Tracer()
            deadline = ready + args.seconds
            untraced_s = traced_s = 0.0
            traced_ops = failed = passes = 0
            while passes == 0 or time.perf_counter() < deadline:
                u, t, n, f, misassoc = trace_pass(wl, tracer)
                untraced_s, traced_s = untraced_s + u, traced_s + t
                traced_ops, failed, passes = traced_ops + n, failed + f, passes + 1
            out.update(
                attempted=2 * traced_ops, failed=failed, passes=passes, missing=tracer.missing,
                metrics=tracing.layer_metrics(tracer.spans, traced_ops, untraced_s,
                                              traced_s, misassoc),
            )
            if args.trace_out:
                spans = [[s.name, s.start, s.end, s.parent, s.op, s.counts] for s in tracer.spans]
                Path(args.trace_out).write_text(json.dumps(
                    {"fields": ["name", "start", "end", "parent", "op", "counts"],
                     "spans": spans, "missing": tracer.missing}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
