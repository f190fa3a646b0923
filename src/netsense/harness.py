"""End-to-end experiments: noisy range synthesis, uniqueness and accuracy sweeps.

Every trial draws from its own child stream of the master seed (indexed by
trial number), so reports are byte-identical regardless of execution order
or worker count.

Trials run as streams, which carry each trial as arrays from draw to
record. A stream draws each trial's BS and target coordinates once, builds
no Scene, and draws its measurements at every noise level from one draw
per BS, against coverage radii worked out once per stream. It checks its
first full-detection problem once, and keeps the (M, K) distances of its
full-detection (trial, level) problems; once they span GATE_ROWS
subproblem rows (K^M per problem), and at the end of the stream, it gates
them in one join at each problem's association tolerance, which builds
only the rows that survive. It then solves the gated problems in runs from
the front that hold CHUNK_ROWS survivors each, one call per run, and
scores each problem of a run from its own table against the trial's true
coordinates: a uniqueness record from the rows of every feasible
hypothesis, an accuracy record from the best solution. No ungated row is
ever built. The worker count is clamped to the trials and the CPUs: one
worker runs all trials as one stream in-process, and N > 1 run one
contiguous slice of trials each in a process pool. The report lists
records by sigma, then trial.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .association import (
    DistanceProfile,
    SubproblemBatch,
    _best_solution,
    _check_inputs,
    _search,
    enumerate_feasible,  # noqa: F401  kept under this name for bench/tracing.py
    solve_association_bnb,  # noqa: F401  kept under this name for bench/tracing.py
)
from .link_budget import LinkBudgetParams, max_sensing_range, range_resolution
from .link_budget import covered  # noqa: F401  kept under this name for bench/tracing.py
from .scene import Bounds, Scene, _bs_ids, _draw_layout, scene_to_dict
from .scene import random_scene  # noqa: F401  kept under this name for bench/tracing.py

CORRECT_MATCH_RADIUS_M = 1e-3

# Solver rows stacked into one call. Each solve takes the shortest run of
# gated problems, from the front, that holds this many survivors, so every
# call but a stream's last holds at least CHUNK_ROWS rows and fewer than
# CHUNK_ROWS plus one problem's survivors. At 256 rows the mc-accuracy
# benchmark peaks at 40.3 MiB RSS (median of 10 runs), against 40.5 MiB when
# calls held 256 rows before the gate; 512 rows cost about 1 MiB more and
# 1024 rows about 1.8 MiB, for 1.2-1.6x more speed (2-core x86, Python 3.11,
# numpy 2.4).
CHUNK_ROWS = 256

# Subproblem rows (K^M per problem) a stream gates in one join. At tol = inf
# every row survives, so this also bounds the rows the join holds: one join
# of 51 K=3, M=4 problems (4,131 rows) peaks at 0.91 MB traced (tracemalloc),
# and the largest gate of 20 mc-accuracy calls at 0.37 MB, against 0.52 MB
# when a gate followed every 256 rows (Python 3.11, numpy 2.4).
GATE_ROWS = 1 << 12


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian range error with optional rounding to the range resolution."""

    range_sigma_m: float = 0.0
    quantize_to_resolution: bool = False
    bandwidth_hz: float = 100e6

    def __post_init__(self):
        if self.range_sigma_m < 0:
            raise ValueError("range_sigma_m must be nonnegative")

    def effective_sigma_m(self) -> float:
        """Standard deviation including the quantization contribution."""
        var = self.range_sigma_m ** 2
        if self.quantize_to_resolution:
            step = range_resolution(self.bandwidth_hz)
            var += step * step / 12.0
        return math.sqrt(var)


@dataclass(frozen=True)
class RandomScenePlan:
    """Parameters for drawing a fresh random scene each trial."""

    num_bs: int = 3
    num_targets: int = 2
    bounds: Bounds = Bounds(-150.0, -150.0, 150.0, 150.0)
    rcs_dbsm: float = -10.0


@dataclass(frozen=True)
class ExperimentSpec:
    """A reproducible experiment: scene source, link budget, noise, and seeds."""

    scene: Scene | None = None
    random_plan: RandomScenePlan | None = None
    link: LinkBudgetParams = field(default_factory=LinkBudgetParams)
    snr_min_db: float = 10.0
    noise: NoiseModel = NoiseModel()
    trials: int = 1
    seed: int = 0
    feas_tol_m: float = 1e-4

    def __post_init__(self):
        if (self.scene is None) == (self.random_plan is None):
            raise ValueError("provide exactly one of scene or random_plan")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["scene"] = None if self.scene is None else scene_to_dict(self.scene)
        if self.random_plan is not None:
            out["random_plan"] = {**asdict(self.random_plan),
                                  "bounds": list(self.random_plan.bounds.as_tuple())}
        out["link"] = {f.name: getattr(self.link, f.name) for f in fields(self.link) if f.init}
        out["noise"] = asdict(self.noise)
        return out


@dataclass(frozen=True)
class MeasurementSet:
    """Per-BS distance profiles plus detection and provenance bookkeeping.

    origins[m][i] is the target index behind profiles[m].distances[i]; it is
    simulator-side ground truth used only for scoring, never by the solvers.
    A stream keeps one without profiles per trial, shared by its levels.
    """

    profiles: tuple[DistanceProfile, ...]
    detected: np.ndarray  # (num_bs, num_targets) bool
    origins: tuple[tuple[int, ...], ...]

    @property
    def full_detection(self) -> bool:
        return bool(self.detected.all())


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    spec: dict
    records: tuple[dict, ...]
    aggregates: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "spec": self.spec,
            "records": list(self.records),
            "aggregates": self.aggregates,
        }


def measure_distances(
    scene: Scene,
    link: LinkBudgetParams,
    snr_min_db: float,
    noise: NoiseModel,
    seed: int,
) -> MeasurementSet:
    """Synthesize each BS's unordered distance set with coverage gating.

    A (BS, target) pair contributes a distance only when the sensing SNR at
    the true distance meets the threshold, evaluated with the target's own
    RCS. Covered distances get Gaussian noise, optional quantization to the
    range resolution, and a deterministic per-BS shuffle.
    """
    return _measure_levels(scene, link, snr_min_db, [noise], seed)[0]


def _measure_levels(
    scene: Scene,
    link: LinkBudgetParams,
    snr_min_db: float,
    noises: Sequence[NoiseModel],
    seed: int,
) -> list[MeasurementSet]:
    """``measure_distances`` of one scene at each noise level, from one draw (see
    ``_measure_arrays``)."""
    stations = scene.base_stations
    seen, levels = _measure_arrays(
        scene.bs_positions(), scene.target_positions(),
        _coverage_radii(link, snr_min_db, [t.rcs_dbsm for t in scene.targets]),
        [bs.id for bs in stations], noises, seed)
    return [replace(seen, profiles=tuple(DistanceProfile(bs.id, tuple(values))
                                         for bs, values in zip(stations, level)))
            for level in levels]


def _coverage_radii(link: LinkBudgetParams, snr_min_db: float,
                    rcs_dbsm: Sequence[float]) -> list[float]:
    """Each target's sensing radius, worked out once per distinct RCS; refuses a
    non-finite RCS, as ``Target`` does."""
    for rcs in rcs_dbsm:
        if not math.isfinite(rcs):
            raise ValueError(f"rcs_dbsm must be finite, got {rcs}")
    reach = {rcs: max_sensing_range(replace(link, rcs_dbsm=rcs), snr_min_db)
             for rcs in set(rcs_dbsm)}
    return [reach[rcs] for rcs in rcs_dbsm]


def _measure_arrays(
    bs_xy: np.ndarray,
    target_xy: np.ndarray,
    radii: Sequence[float],
    ids: Sequence[str],
    noises: Sequence[NoiseModel],
    seed: int,
) -> tuple[MeasurementSet, list[list[list[float]]]]:
    """One layout's detections and its distances at each noise level, from one draw.

    ``bs_xy`` (M, 2) and ``target_xy`` (K, 2) place BSs named ``ids`` and
    targets covered within ``radii``. True distances are ``math.hypot`` of
    Python floats, and a target is detected within its radius. BS m's
    generator ``default_rng([seed, m])`` draws one standard normal z per
    covered target, in target order, then a permutation of them. A level's
    distance is ``d_true + (0.0 + sigma * z)``, bitwise numpy's
    ``normal(0, sigma)`` (``loc + scale * z``), then rounded and clamped at 0
    as Python floats, so each level is what its own draw would give.
    Returns the detections and origins, shared by every level, as a
    MeasurementSet without profiles, and ``levels``: ``levels[l][m]`` lists
    BS m's distances at ``noises[l]`` in reported order; a non-finite one
    raises ValueError naming the BS.
    """
    targets = target_xy.tolist()
    flags, draws, origins = [], [], []
    for m, (bx, by) in enumerate(bs_xy.tolist()):
        dists = [math.hypot(bx - tx, by - ty) for tx, ty in targets]
        # Zero distance (target at the BS) is trivially inside coverage.
        flags.append([d == 0.0 or d <= r for d, r in zip(dists, radii)])
        sources = [k for k, seen in enumerate(flags[-1]) if seen]
        rng = np.random.default_rng([seed, m])
        z = rng.standard_normal(len(sources)).tolist()
        perm = rng.permutation(len(sources)).tolist()
        draws.append(([dists[k] for k in sources], z, perm))
        origins.append(tuple(sources[i] for i in perm))
    detected = np.array(flags, dtype=bool).reshape(len(draws), len(targets))

    levels = []
    for noise in noises:
        sigma = noise.range_sigma_m
        step = range_resolution(noise.bandwidth_hz) if noise.quantize_to_resolution else None
        level = []
        for bs_id, (d_true, z, perm) in zip(ids, draws):
            values = [d + (0.0 + sigma * x) for d, x in zip(d_true, z)]
            if step is not None:
                values = [round(d / step) * step for d in values]
            values = [max(values[i], 0.0) for i in perm]
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{bs_id}: distances must be finite")
            level.append(values)
        levels.append(level)
    return MeasurementSet(profiles=(), detected=detected, origins=tuple(origins)), levels


def _trial_seeds(seed: int, trials: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(trials)]


def _association_tol(base_tol: float, sigma_eff: float) -> float:
    # Exact ranges keep the configured tolerance. Noisy ranges widen it to
    # 3 sigma, a bound on the true row's rms: the least-squares rms of that
    # row is at most the rms of its M noise draws, which exceeds 3 sigma
    # only when chi^2_M > 9M (below 6e-6 per row at M = 3, less beyond).
    if sigma_eff == 0.0:
        return base_tol
    return max(base_tol, 3.0 * sigma_eff)


def _score(assignment: tuple[tuple[int, ...], ...], positions: Sequence[Sequence[float]],
           truth_xy: Sequence[Sequence[float]],
           origins: tuple[tuple[int, ...], ...]) -> tuple[bool, bool, float]:
    """Score one hypothesis against ground truth via measurement provenance.

    ``positions`` holds each slot's (x, y) estimate and ``truth_xy`` each
    target's. Returns (consistent, matched, rmse): whether every slot's
    distances come from one true target, whether additionally every
    estimate lies within CORRECT_MATCH_RADIUS_M of it, and the RMS position
    error.
    """
    consistent = all(
        origins[m][assignment[m][k]] == origins[0][k]
        for m in range(len(assignment))
        for k in range(len(assignment[0]))
    )
    errors = [(x - tx) ** 2 + (y - ty) ** 2
              for (x, y), (tx, ty) in zip(positions, (truth_xy[t] for t in origins[0]))]
    # Left to right, as sum() adds numpy floats: from Python 3.12 sum()
    # compensates Python floats, which can move the last bit of rmse_m.
    total = 0.0
    for e in errors:
        total += e
    rmse = math.sqrt(total / len(errors))
    matched = consistent and all(math.sqrt(e) <= CORRECT_MATCH_RADIUS_M for e in errors)
    return consistent, matched, rmse


def _uniqueness_record(trial: int, trial_seed: int, truth_xy: Sequence[Sequence[float]],
                       noise: NoiseModel, ms: MeasurementSet, table) -> dict:
    record = {
        "trial": trial,
        "seed": trial_seed,
        "detected_pairs": int(ms.detected.sum()),
        "total_pairs": int(ms.detected.size),
        "partial": not ms.full_detection,
        "feasible_count": None,
        "ghost": None,
        "correct_found": None,
        "rmse_m": None,
    }
    if record["partial"]:
        return record

    # Every feasible hypothesis, as enumerate_feasible lists them, unsorted.
    found, _ = _search(table, table.gate_tol, best=False)
    positions = table.positions.tolist()
    scores = [_score(assignment, [positions[r] for r in rows], truth_xy, ms.origins)
              for _, assignment, rows in found]
    correct = [rmse for _, matched, rmse in scores if matched]
    record.update(
        feasible_count=len(found),
        ghost=len(found) > 1,
        correct_found=bool(correct),
        rmse_m=min(correct) if correct else None,
    )
    return record


def _accuracy_record(trial: int, trial_seed: int, truth_xy: Sequence[Sequence[float]],
                     noise: NoiseModel, ms: MeasurementSet, table) -> dict:
    record = {
        "sigma_m": noise.range_sigma_m,
        "trial": trial,
        "seed": trial_seed,
        "partial": not ms.full_detection,
        "infeasible": None,
        "correct": None,
        "rmse_m": None,
    }
    if record["partial"]:
        return record

    solution = _best_solution(table, table.gate_tol)
    if solution is None:
        record.update(infeasible=True, correct=False)
        return record

    positions = [(e.position.x, e.position.y) for e in solution.estimates]
    consistent, _, rmse = _score(solution.hypothesis.assignment, positions, truth_xy,
                                 ms.origins)
    record.update(infeasible=False, correct=consistent, rmse_m=rmse)
    return record


def _run_stream(args: tuple) -> list[dict]:
    """Records of one stream of (trial, trial seed) jobs, trial by trial, each
    at every noise level in order.

    Each trial's coordinates are drawn once as arrays (``_draw_layout``, or
    the fixed scene's), and its measurements at every level come from one
    draw (``_measure_arrays``), with coverage radii worked out once per
    stream; no Scene or DistanceProfile is built. The stream's first
    full-detection problem is checked once (``_check_inputs``): every
    problem of a stream has its K and M, and its anchors are the fixed
    scene's or a layout the draw checked for collinear triples. Each
    full-detection level adds its (M, K) distances at its association
    tolerance (``SubproblemBatch._add``). Once the problems added span
    GATE_ROWS subproblem rows, and at the end of the stream, they are gated
    in one join, which builds only the survivors. After each gate, every
    shortest run of gated problems, from the front, that holds CHUNK_ROWS
    survivors is solved in one call, and the stream's last solve takes
    what is left. The problems of each solve are scored in trial order
    from their own tables with ``make_record``, which searches each table
    at its ``gate_tol``, the problem's association tolerance, and scores
    against the trial's true target coordinates.
    """
    make_record, spec, noises, jobs = args
    records: list[dict] = []
    batch, drawn = SubproblemBatch(), deque()
    if spec.scene is not None:
        scene = spec.scene
        layout = scene.bs_positions(), scene.target_positions()
        ids = [bs.id for bs in scene.base_stations]
        rcs = [t.rcs_dbsm for t in scene.targets]
    else:
        plan, layout = spec.random_plan, None
        ids = _bs_ids(plan.num_bs)
        rcs = [plan.rcs_dbsm] * plan.num_targets
    radii, checked = None, False

    def score(ready: SubproblemBatch) -> None:
        for table in ready.solve():
            while not drawn[0][-1].full_detection:
                records.append(make_record(*drawn.popleft(), None))
            records.append(make_record(*drawn.popleft(), table))

    def gate() -> None:
        batch.gate()
        while (ready := batch.split(CHUNK_ROWS)) is not None:
            score(ready)

    for trial, trial_seed in jobs:
        bs_xy, target_xy = layout or _draw_layout(plan.num_bs, plan.num_targets, plan.bounds,
                                                  trial_seed)
        if radii is None:  # after the first draw, which refuses a bad plan first
            radii = _coverage_radii(spec.link, spec.snr_min_db, rcs)
        seen, levels = _measure_arrays(bs_xy, target_xy, radii, ids, noises, trial_seed)
        truth_xy = target_xy.tolist()
        for noise, level in zip(noises, levels):
            drawn.append((trial, trial_seed, truth_xy, noise, seen))
            if not seen.full_detection:
                continue
            if not checked:
                _check_inputs([len(values) for values in level], bs_xy)
                checked = True
            batch._add(np.array(level), bs_xy,
                       _association_tol(spec.feas_tol_m, noise.effective_sigma_m()))
            if batch.ungated_rows >= GATE_ROWS:
                gate()
    gate()
    score(batch)
    records.extend(make_record(*d, None) for d in drawn)
    return records


def _run_trials(make_record, spec: ExperimentSpec, noises: Sequence[NoiseModel], jobs: list,
                workers: int) -> list[dict]:
    """Run (trial, trial seed) jobs as one stream in-process when ``workers``,
    clamped to the jobs and the CPUs, is 1, else as one contiguous slice per
    worker in a pool."""
    workers = min(workers, len(jobs), os.cpu_count() or 1)  # the pool forks all at once
    if workers == 1:
        return _run_stream((make_record, spec, noises, jobs))
    size = -(-len(jobs) // workers)
    slices = [(make_record, spec, noises, jobs[i:i + size]) for i in range(0, len(jobs), size)]
    with ProcessPoolExecutor(max_workers=len(slices)) as pool:
        return [record for records in pool.map(_run_stream, slices) for record in records]


def uniqueness_aggregates(records: Sequence[dict]) -> dict:
    completed = [r for r in records if not r["partial"]]
    ghosts = sum(1 for r in completed if r["ghost"])
    correct = sum(1 for r in completed if r["correct_found"])
    rmses = [r["rmse_m"] for r in completed if r["rmse_m"] is not None]
    detected = sum(r["detected_pairs"] for r in records)
    total = sum(r["total_pairs"] for r in records)
    return {
        "trials": len(records),
        "completed": len(completed),
        "partial": len(records) - len(completed),
        "ghost_count": ghosts,
        "ghost_fraction": ghosts / len(completed) if completed else 0.0,
        "correct_rate": correct / len(completed) if completed else 0.0,
        "rmse_m": math.sqrt(sum(r * r for r in rmses) / len(rmses)) if rmses else None,
        "detection_fraction": detected / total if total else 0.0,
    }


def accuracy_aggregates(records: Sequence[dict]) -> dict:
    by_sigma: dict[float, list[dict]] = {}
    for r in records:
        by_sigma.setdefault(r["sigma_m"], []).append(r)
    levels = []
    for sigma in sorted(by_sigma):
        rows = by_sigma[sigma]
        completed = [r for r in rows if not r["partial"]]
        solved = [r for r in completed if not r["infeasible"]]
        rmses = [r["rmse_m"] for r in solved if r["rmse_m"] is not None]
        levels.append({
            "sigma_m": sigma,
            "trials": len(rows),
            "completed": len(completed),
            "infeasible": sum(1 for r in completed if r["infeasible"]),
            "correct_rate": (sum(1 for r in solved if r["correct"]) / len(solved))
            if solved else 0.0,
            "rmse_m": math.sqrt(sum(r * r for r in rmses) / len(rmses)) if rmses else None,
        })
    return {"levels": levels}


def _run_experiment(kind: str, make_record, aggregate, spec: ExperimentSpec,
                    noises: Sequence[NoiseModel], workers: int) -> ExperimentReport:
    """The report of every seeded trial at each noise level, in order of sigma, then trial."""
    jobs = list(enumerate(_trial_seeds(spec.seed, spec.trials)))
    records = _run_trials(make_record, spec, noises, jobs, workers)  # trial by trial
    # A stable sort, so a sigma listed twice keeps its levels in list order.
    keys = [(noise.range_sigma_m, trial) for trial in range(spec.trials) for noise in noises]
    records = [r for _, r in sorted(zip(keys, records), key=lambda kr: kr[0])]
    return ExperimentReport(kind=kind, spec=spec.to_dict(), records=tuple(records),
                            aggregates=aggregate(records))


def run_uniqueness_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentReport:
    """Exact-range association uniqueness over seeded trials.

    Trials without full detection are recorded but excluded from the
    headline ghost fraction.
    """
    exact = NoiseModel(0.0, False, spec.noise.bandwidth_hz)
    return _run_experiment("uniqueness", _uniqueness_record, uniqueness_aggregates, spec,
                           [exact], workers)


def run_accuracy_experiment(
    spec: ExperimentSpec,
    sigma_list_m: Sequence[float],
    workers: int = 1,
) -> ExperimentReport:
    """Noisy-range association accuracy across a sigma sweep."""
    if not sigma_list_m:
        raise ValueError("sigma_list_m must not be empty")
    noises = [NoiseModel(float(sigma), spec.noise.quantize_to_resolution,
                         spec.noise.bandwidth_hz) for sigma in sigma_list_m]
    return _run_experiment("accuracy", _accuracy_record, accuracy_aggregates, spec, noises,
                           workers)
