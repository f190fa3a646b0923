"""The four benchmark workloads: inputs from a seed, CLI calls, output checks.

Every workload drives netsense through its public CLI entry point
``netsense.cli.parse_and_dispatch``, in-process, as one closed-loop client:
the next call starts only after the previous one returned. netsense sees only
the generated CLI arguments and scene files, never the benchmark seed.

A *block* is the unit the timed phase measures: one montecarlo call of many
trials, one associate scene (exhaustive then bnb), or one set of four
ambiguity surfaces. ``ops`` is how many benchmark ops a block holds.
Each check rests on a property known apart from the code under test.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Ambiguity surfaces are reported in dB, floored at -300 dB. A sequence with
# ideal cyclic autocorrelation has exactly zero side-lobes at zero Doppler;
# float64 arithmetic leaves them near -240 dB, so anything at or below this
# level counts as numerically zero. A non-ideal sequence sits above -60 dB.
NUMERICAL_ZERO_DB = -200.0
POSITION_AGREEMENT_M = 1e-9
TRUTH_MATCH_M = 1e-3
ACCURACY_SIGMAS = (0.0, 0.1, 0.5, 1.0)
COLLINEARITY_TOL = 1e-9  # the same relative-area test netsense's scene draws use


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, smaller ones serve tests."""

    uniqueness_trials: int = 100
    accuracy_trials: int = 10
    assoc_targets: int = 4
    assoc_bs: int = 5
    zc_length: int = 1021
    zc_root: int = 25
    ofdm_length: int = 1024
    ofdm_cp: int = 72
    doppler_bins: int = 16


TINY = Sizes(uniqueness_trials=3, accuracy_trials=2, assoc_targets=2, assoc_bs=3,
             zc_length=31, zc_root=5, ofdm_length=32, ofdm_cp=4, doppler_bins=4)


@dataclass
class Call:
    """One CLI invocation and what it returned."""

    argv: list[str]
    context: dict = field(default_factory=dict)
    rc: int | None = None
    stdout: str = ""


@dataclass
class Block:
    ops: int
    calls: list[Call]
    context: dict = field(default_factory=dict)


def run_calls(dispatch, calls: list[Call]) -> None:
    """Run each call through the CLI entry point, capturing its standard output.

    Error messages still reach standard error, where a failed op can be read.
    """
    for call in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            call.rc = dispatch(call.argv)
        call.stdout = out.getvalue()


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # Seeding with a string is deterministic across processes (no hash salt).
    return random.Random(f"{workload}:{seed}:{index}")


class Workload:
    name = ""
    trace_blocks = 0  # blocks 1..trace_blocks form the traced run's fixed op list

    def __init__(self, seed: int, workdir: Path, sizes: Sizes = Sizes()):
        self.seed = seed
        self.workdir = Path(workdir)
        self.sizes = sizes

    def block(self, index: int, warmup: bool = False) -> Block:
        """Inputs of block ``index``; a warm-up block holds a single op or trial."""
        raise NotImplementedError

    def failures(self, block: Block) -> int:
        """Ops of a finished block whose output fails its check."""
        if any(c.rc != 0 for c in block.calls):
            return block.ops
        return self.check(block)

    def check(self, block: Block) -> int:
        raise NotImplementedError


class _MonteCarlo(Workload):
    mode = ""
    extra: tuple[str, ...] = ()
    trials_size = ""  # the Sizes field giving trials per block
    ops_per_trial = 1

    def block(self, index: int, warmup: bool = False) -> Block:
        trials = 1 if warmup else getattr(self.sizes, self.trials_size)
        out = self.workdir / f"{self.name}.json"
        argv = ["montecarlo", "--mode", self.mode, *self.extra,
                "--trials", str(trials),
                "--seed", str(_rng(self.name, self.seed, index).getrandbits(32)),
                "--workers", "1", "--out", str(out)]
        return Block(ops=trials * self.ops_per_trial, calls=[Call(argv)],
                     context={"report": out, "trials": trials})

    def records(self, block: Block) -> list[dict]:
        return json.loads(Path(block.context["report"]).read_text())["records"]


class MonteCarloUniqueness(_MonteCarlo):
    """One op is one trial with the CLI defaults: 2 targets, 3 BSs, exact ranges."""

    name = "mc-uniqueness"
    trace_blocks = 4
    mode = "uniqueness"
    trials_size = "uniqueness_trials"

    def check(self, block: Block) -> int:
        records = self.records(block)
        if len(records) != block.context["trials"]:
            return block.ops
        # Exact ranges keep the true association feasible in every trial
        # with full detection.
        return sum(1 for r in records if not r["partial"] and not r["correct_found"])


class MonteCarloAccuracy(_MonteCarlo):
    """One op is one (sigma, trial) with 4 BSs, 3 targets and four sigmas."""

    name = "mc-accuracy"
    trace_blocks = 8
    mode = "accuracy"
    extra = ("--num-bs", "4", "--num-targets", "3",
             "--sigma-list", ",".join(str(s) for s in ACCURACY_SIGMAS))
    trials_size = "accuracy_trials"
    ops_per_trial = len(ACCURACY_SIGMAS)

    def check(self, block: Block) -> int:
        records = self.records(block)
        if len(records) != block.ops:
            return block.ops
        # Zero noise means exact ranges, so the true association is the
        # best feasible one.
        return sum(1 for r in records
                   if r["sigma_m"] == 0.0 and not r["partial"] and not r["correct"])

    def misassociated(self, block: Block) -> tuple[int, int]:
        """(mis-associated or infeasible, completed) over the block's sigma > 0 trials."""
        noisy = [r for r in self.records(block) if r["sigma_m"] > 0.0 and not r["partial"]]
        return sum(1 for r in noisy if r["infeasible"] or not r["correct"]), len(noisy)


def _collinear(p, q, r) -> bool:
    scale = max(math.dist(p, q), math.dist(q, r), math.dist(p, r))
    area = 0.5 * abs((q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1]))
    return area < COLLINEARITY_TOL * scale * scale


def random_scene_dict(rng: random.Random, num_bs: int, num_targets: int,
                      half_width: float = 150.0) -> dict:
    """Uniform scene in a square, redrawing BS layouts with a collinear triple."""
    def point():
        return (rng.uniform(-half_width, half_width), rng.uniform(-half_width, half_width))

    while True:
        bs = [point() for _ in range(num_bs)]
        if not any(_collinear(bs[a], bs[b], bs[c]) for a in range(num_bs)
                   for b in range(a + 1, num_bs) for c in range(b + 1, num_bs)):
            break
    return {
        "bounds": [-half_width, -half_width, half_width, half_width],
        "anchors": [{"id": f"bs{i + 1}", "kind": "bs", "x": x, "y": y}
                    for i, (x, y) in enumerate(bs)],
        "targets": [{"id": f"t{k + 1}", "x": x, "y": y, "rcs_dbsm": -10.0}
                    for k, (x, y) in enumerate(point() for _ in range(num_targets))],
    }


def _matches_truth(estimates: list[dict], truth: list[tuple[float, float]]) -> bool:
    """Every true target has its own estimate within TRUTH_MATCH_M."""
    unused = list(range(len(estimates)))
    for tx, ty in truth:
        near = [i for i in unused
                if math.hypot(estimates[i]["x_m"] - tx, estimates[i]["y_m"] - ty) <= TRUTH_MATCH_M]
        if not near:
            return False
        unused.remove(near[0])
    return True


class AssociateLarge(Workload):
    """One op is one exact-range scene through associate, exhaustive then bnb."""

    name = "associate-large"
    trace_blocks = 4

    def block(self, index: int, warmup: bool = False) -> Block:
        s = self.sizes
        scene = random_scene_dict(_rng(self.name, self.seed, index), s.assoc_bs, s.assoc_targets)
        path = self.workdir / "scene.json"
        path.write_text(json.dumps(scene))
        calls = [Call(["associate", "--scene", str(path), "--tol", "1e-6", "--solver", solver])
                 for solver in ("exhaustive", "bnb")]
        truth = [(t["x"], t["y"]) for t in scene["targets"]]
        return Block(ops=1, calls=calls, context={"truth": truth})

    def check(self, block: Block) -> int:
        exhaustive, bnb = (json.loads(c.stdout) for c in block.calls)
        best_e, best_b = exhaustive["best_solution"], bnb["best_solution"]
        if best_e is None or best_b is None or best_e["assignment"] != best_b["assignment"]:
            return 1
        for e, b in zip(best_e["estimates"], best_b["estimates"]):
            if math.hypot(e["x_m"] - b["x_m"], e["y_m"] - b["y_m"]) > POSITION_AGREEMENT_M:
                return 1
        truth = block.context["truth"]
        found = any(_matches_truth(sol["estimates"], truth)
                    for sol in exhaustive["feasible_solutions"])
        return 0 if found else 1


class Ambiguity(Workload):
    """One op is four surfaces: ZC and OFDM, each cyclic and linear, CSV written."""

    name = "ambiguity"
    trace_blocks = 3

    def block(self, index: int, warmup: bool = False) -> Block:
        s = self.sizes
        ofdm_seed = str(_rng(self.name, self.seed, index).getrandbits(32))
        calls = []
        for waveform, flags, length in (
            ("zc", ["--length", str(s.zc_length), "--root", str(s.zc_root)], s.zc_length),
            ("ofdm", ["--length", str(s.ofdm_length), "--cp", str(s.ofdm_cp),
                      "--seed", ofdm_seed], s.ofdm_length + s.ofdm_cp),
        ):
            for mode in ("cyclic", "linear"):
                out = self.workdir / f"ambiguity-{waveform}-{mode}.csv"
                calls.append(Call(
                    ["ambiguity", "--waveform", waveform, *flags,
                     "--doppler-bins", str(s.doppler_bins), "--mode", mode, "--out", str(out)],
                    context={"out": out, "length": length,
                             "ideal": waveform == "zc" and mode == "cyclic"}))
        return Block(ops=1, calls=calls)

    def check(self, block: Block) -> int:
        for call in block.calls:
            ctx = call.context
            if f"grid,{ctx['length']}x{self.sizes.doppler_bins}" not in call.stdout.splitlines():
                return 1
            with open(ctx["out"], newline="") as fh:
                rows = list(csv.reader(fh))
            header, grid = rows[0], rows[1:]
            if len(grid) != ctx["length"] or header[1] != "doppler_0":
                return 1
            # The surface is normalised to its (0, 0) cell.
            if abs(float(grid[0][1])) > 1e-9:
                return 1
            # Zadoff-Chu sequences have zero cyclic autocorrelation off the peak.
            if ctx["ideal"] and max(float(r[1]) for r in grid[1:]) > NUMERICAL_ZERO_DB:
                return 1
        return 0


WORKLOADS = {w.name: w for w in
             (MonteCarloUniqueness, MonteCarloAccuracy, AssociateLarge, Ambiguity)}
