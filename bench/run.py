"""netsense benchmark: four CLI workloads, end-to-end or traced per layer.

Run from the root of a netsense checkout:

    python3 bench/run.py --workload mc-uniqueness --seed 1729 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced run. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Each run starts its own
worker processes (bench/worker.py) and waits for every one of them; this
process imports neither numpy nor netsense, so it adds nothing to what the
workers measure. Results and traces are also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import METRICS as LAYER_METRICS  # noqa: E402  (both stdlib only)
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # set-up-only workers per untraced run, besides the timed one
TAIL_BEYOND = 10
WORKER_GRACE_S = 100.0  # beyond --seconds: set-up plus the block running at the deadline


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies; the
    maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": _git_commit(),
            "src_sha256": digest.hexdigest()}


def _git_commit() -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run one worker to completion: (perf_counter at spawn, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    common = ["--workload", workload, "--seed", str(seed)]
    setups, results = [], []
    for _ in range(SETUP_PROBES):
        spawned, r = _worker(["--mode", "setup", *common], timeout=WORKER_GRACE_S)
        setups.append(r["ready"] - spawned)
        results.append(r)
    spawned, timed = _worker(["--mode", "timed", "--seconds", str(seconds), *common],
                             timeout=seconds + WORKER_GRACE_S)
    setups.append(timed["ready"] - spawned)
    results.append(timed)

    blocks = timed["blocks"]
    timed_ops = sum(b["ops"] for b in blocks)
    op_ms = [1000.0 * b["seconds"] / b["ops"] for b in blocks]
    tail_ms, tail_pct = tail(op_ms)
    attempted = timed_ops + sum(r["warmup_ops"] for r in results)
    failed = sum(b["failed"] for b in blocks) + sum(r["warmup_failed"] for r in results)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (timed_ops / sum(b["seconds"] for b in blocks), "1/s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MiB"),
    }
    notes = [
        f"blocks {len(blocks)}, ops per block {blocks[0]['ops']}, timed ops {timed_ops}",
        f"op_ms_tail is p{tail_pct:.1f} over {len(op_ms)} samples",
        f"setup_s is the median of {len(setups)} set-ups: " + ", ".join(f"{s:.4f}" for s in setups),
        f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} ops)",
    ]
    summary = {"attempted": attempted, "failed": failed, "python": timed["python"],
               "numpy": timed["numpy"], "setups_s": setups, "blocks": blocks}
    return metrics, summary, notes


def traced(workload: str, seed: int, seconds: float, out_dir: Path) -> tuple[dict, dict, list[str]]:
    trace_file = out_dir / f"trace-{workload}-seed{seed}.json"
    _, r = _worker(["--mode", "trace", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace-out", str(trace_file)],
                   timeout=seconds + WORKER_GRACE_S)
    mapping = json.loads((HERE / "mapping.json").read_text())["per_layer"]
    metrics = {name: (r["metrics"][name], unit) for name, unit in LAYER_METRICS.items()}
    notes = [f"missing wrapped name: {name} (its metrics read 0)" for name in r["missing"]]
    notes += [f"{name} [{mapping[name]['kind']}] moves: {'; '.join(mapping[name]['moves'])}"
              for name in LAYER_METRICS]
    notes.append(f"{r['passes']} untraced+traced passes; spans in {trace_file.relative_to(ROOT)}")
    summary = {"attempted": r["attempted"] + r["warmup_ops"],
               "failed": r["failed"] + r["warmup_failed"],
               "python": r["python"], "numpy": r["numpy"], "missing": r["missing"]}
    return metrics, summary, notes


def main(argv=None) -> int:
    defaults = json.loads((HERE / "mapping.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=defaults["default_seed"])
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "netsense" / "__init__.py").is_file():
        print(f"error: no netsense sources at {ROOT / 'src' / 'netsense'}; "
              "run from the root of a netsense checkout", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    try:
        if args.trace:
            metrics, summary, notes = traced(args.workload, args.seed, args.seconds, out_dir)
        else:
            metrics, summary, notes = end_to_end(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    info = {**machine(), "python": summary["python"], "numpy": summary["numpy"]}
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "notes": notes, "summary": summary,
              "result": result}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, 1 client, --workers 1")
    print("machine " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<55} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
