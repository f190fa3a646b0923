"""Range data association: feasible matchings, ghost detection, and solvers.

Each BS reports an unordered set of target distances. A hypothesis assigns
every BS distance to a target slot; anchor 1's assignment is fixed to the
identity, so the search space holds (K!)^(M-1) hypotheses for K targets and
M anchors. A hypothesis is feasible when every target slot trilaterates with
residual at or below the feasibility tolerance.

A target slot's residual depends only on the distance index chosen at each
anchor, so every solver works on one shared subproblem table: all K^M index
combinations trilaterated in one batch. ``SubproblemBatch`` stacks the tables
of many problems into a single solver call. The exhaustive scan and the
branch-and-bound search are then index work over those residuals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GeometryError, InfeasibleAssociationError, UnequalCardinalityError
from .link_budget import LinkBudgetParams
from .localization import PositionEstimate, solve_ranges_batch
from .scene import Bounds, Point2, Scene, points_are_collinear, true_distance

# Residuals within this band of the minimum are treated as ties and broken
# by lexicographic hypothesis order, keeping runs reproducible when several
# hypotheses are feasible at numerical-zero residual.
RESIDUAL_TIE_EPS_M = 1e-12

# Most hypotheses the exhaustive scan materializes at once. Its index table
# alone takes hypotheses x M x 8 bytes, 40 MB at this cap with M=5; K=4
# targets at M=5 anchors (331,776 hypotheses) is the largest size in use,
# and K=5 at M=5 would take 8.3 GB.
MAX_HYPOTHESES = 1_000_000

@dataclass(frozen=True)
class DistanceProfile:
    """One BS's unordered set of extracted target distances, meters."""

    anchor_id: str
    distances: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(d) for d in self.distances):
            raise ValueError(f"{self.anchor_id}: distances must be finite")
        if any(d < 0 for d in self.distances):
            raise ValueError("distances must be nonnegative")


@dataclass(frozen=True)
class AssociationHypothesis:
    """Per-anchor mapping from target slot k to a distance index.

    assignment[m][k] indexes anchor m's distance list; assignment[0] is the
    identity by construction.
    """

    assignment: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AssociationSolution:
    hypothesis: AssociationHypothesis
    estimates: tuple[PositionEstimate, ...]
    max_residual_m: float


@dataclass(frozen=True)
class GhostReport:
    feasible_solutions: tuple[AssociationSolution, ...]
    unique: bool
    ghost_positions: tuple[Point2, ...]


def _as_anchor_array(anchors) -> np.ndarray:
    if isinstance(anchors, np.ndarray):
        return np.asarray(anchors, float).reshape(-1, 2)
    return np.array([[a.x, a.y] for a in anchors], dtype=float).reshape(-1, 2)


def _check_inputs(profiles: Sequence[DistanceProfile], anchors_xy: np.ndarray) -> tuple[int, int]:
    n_anchors = len(anchors_xy)
    if len(profiles) != n_anchors:
        raise ValueError("one distance profile per anchor required")
    if n_anchors < 3:
        raise ValueError("need at least 3 anchors")
    cardinalities = {len(p.distances) for p in profiles}
    if len(cardinalities) > 1:
        raise UnequalCardinalityError(
            f"profiles report different target counts: {sorted(cardinalities)}"
        )
    n_targets = cardinalities.pop()
    if n_targets == 0:
        raise ValueError("profiles are empty")
    for triple in itertools.combinations(range(n_anchors), 3):
        if points_are_collinear(anchors_xy[list(triple)]):
            raise GeometryError(f"anchors {triple} are collinear")
    return n_targets, n_anchors


class _SubproblemTable:
    """Trilateration results for every distance index combination.

    The residual of target slot k under a hypothesis depends only on the
    chosen distance index at each anchor, so all K^M combinations are solved
    once and shared by every hypothesis. Row ``flat`` holds the combination
    whose anchor-wise indices are the base-K digits of ``flat``, anchor 1
    most significant.
    """

    def __init__(self, n_targets: int, n_anchors: int, positions: np.ndarray,
                 rms: np.ndarray, converged: np.ndarray, iterations: np.ndarray):
        self.k = n_targets
        self.m = n_anchors
        self.positions, self.rms = positions, rms
        self.converged, self.iterations = converged, iterations

    def estimate(self, flat: int) -> PositionEstimate:
        return PositionEstimate(
            position=Point2(float(self.positions[flat, 0]), float(self.positions[flat, 1])),
            residual_rms_m=float(self.rms[flat]),
            converged=bool(self.converged[flat]),
            iterations=int(self.iterations[flat]),
        )


class SubproblemBatch:
    """Subproblem rows of several association problems, solved in one call.

    ``add`` validates one problem and stacks its K^M rows, each with that
    problem's own anchors; ``solve`` runs them all through a single
    ``solve_ranges_batch`` call and returns one table per added problem, in
    order. Every row's result is bitwise what a separate call would give.
    All problems in a batch need the same anchor count M.
    """

    def __init__(self):
        self._shapes: list[tuple[int, int]] = []
        self._anchors: list[np.ndarray] = []
        self._rows: list[np.ndarray] = []

    def add(self, profiles: Sequence[DistanceProfile], anchors) -> None:
        anchors_xy = _as_anchor_array(anchors)
        n_targets, n_anchors = _check_inputs(profiles, anchors_xy)
        if self._shapes and self._shapes[0][1] != n_anchors:
            raise ValueError("every problem in a batch needs the same anchor count")
        combos = np.indices((n_targets,) * n_anchors).reshape(n_anchors, -1).T  # (K^M, M)
        dists = [np.array(p.distances, float) for p in profiles]
        self._shapes.append((n_targets, n_anchors))
        self._rows.append(np.stack([dists[m][combos[:, m]] for m in range(n_anchors)], axis=1))
        self._anchors.append(np.broadcast_to(anchors_xy, (len(combos),) + anchors_xy.shape))

    def solve(self) -> list[_SubproblemTable]:
        if not self._rows:
            return []
        results = solve_ranges_batch(np.concatenate(self._anchors), np.concatenate(self._rows))
        tables, start = [], 0
        for (n_targets, n_anchors), rows in zip(self._shapes, self._rows):
            stop = start + len(rows)
            tables.append(_SubproblemTable(n_targets, n_anchors,
                                           *(r[start:stop] for r in results)))
            start = stop
        return tables


def subproblem_table(profiles: Sequence[DistanceProfile], anchors) -> _SubproblemTable:
    """The validated, solved subproblem table of one association problem."""
    batch = SubproblemBatch()
    batch.add(profiles, anchors)
    return batch.solve()[0]


def _hypothesis_tables(n_targets: int, n_anchors: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """All hypotheses as per-anchor permutation indices, in lexicographic order.

    Returns (perms, perm_idx) where perms lists the K! permutations and
    perm_idx has shape (H, M-1) with H = (K!)^(M-1). Raises ValueError when
    H exceeds MAX_HYPOTHESES.
    """
    n_free = n_anchors - 1
    total = math.factorial(n_targets) ** n_free
    if total > MAX_HYPOTHESES:
        raise ValueError(
            f"K={n_targets} targets at M={n_anchors} anchors give {total:,} association "
            f"hypotheses, about {total * n_anchors * 8:,} bytes of index tables; "
            f"the exhaustive scan is capped at {MAX_HYPOTHESES:,}")
    perms = list(itertools.permutations(range(n_targets)))
    n_perms = len(perms)
    h = np.arange(total)
    cols = [(h // n_perms ** (n_free - 1 - j)) % n_perms for j in range(n_free)]
    return perms, np.stack(cols, axis=1)


def _slot_residuals(table: _SubproblemTable, perms: list[tuple[int, ...]],
                    perm_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual and flat subproblem index per (hypothesis, slot)."""
    k = table.k
    perm_arr = np.array(perms)  # (K!, K)
    flat = np.broadcast_to(np.arange(k), (len(perm_idx), k)).copy()  # anchor 1 identity
    for m in range(perm_idx.shape[1]):
        flat = flat * k + perm_arr[perm_idx[:, m]]
    return table.rms[flat], flat


def enumerate_feasible(
    profiles: Sequence[DistanceProfile],
    anchors,
    feas_tol_m: float,
    stats: dict | None = None,
    table: _SubproblemTable | None = None,
) -> list[AssociationSolution]:
    """Exhaustively test every association hypothesis and keep the feasible ones.

    Anchor 1's assignment is fixed to the identity; all (K!)^(M-1)
    permutation tuples for anchors 2..M are examined. A hypothesis is kept
    iff every target slot trilaterates with residual_rms <= feas_tol_m.
    Results are sorted by max residual ascending (ties in lexicographic
    hypothesis order). Raises ValueError above MAX_HYPOTHESES hypotheses.

    When given, ``stats`` receives bookkeeping: hypotheses_examined and
    best_max_residual_m over the whole search space. ``table`` is the
    subproblem table of these profiles and anchors, already validated and
    solved (see ``SubproblemBatch``); without it the table is built here.
    """
    if table is None:
        table = subproblem_table(profiles, anchors)
    n_targets, n_anchors = table.k, table.m

    perms, perm_idx = _hypothesis_tables(n_targets, n_anchors)
    residuals, flat = _slot_residuals(table, perms, perm_idx)
    max_residual = residuals.max(axis=1)
    feasible = (residuals <= feas_tol_m).all(axis=1)

    if stats is not None:
        stats["hypotheses_examined"] = len(perm_idx)
        stats["best_max_residual_m"] = float(max_residual.min())

    solutions = []
    for h in np.flatnonzero(feasible):
        assignment = (tuple(range(n_targets)),) + tuple(
            perms[perm_idx[h, m]] for m in range(n_anchors - 1)
        )
        estimates = tuple(table.estimate(int(flat[h, k])) for k in range(n_targets))
        solutions.append(AssociationSolution(
            hypothesis=AssociationHypothesis(assignment),
            estimates=estimates,
            max_residual_m=float(max_residual[h]),
        ))
    solutions.sort(key=lambda s: (s.max_residual_m, s.hypothesis.assignment))
    return solutions


def _pick_minimal(solutions: Sequence[AssociationSolution]) -> AssociationSolution:
    best = min(s.max_residual_m for s in solutions)
    tied = [s for s in solutions if s.max_residual_m <= best + RESIDUAL_TIE_EPS_M]
    return min(tied, key=lambda s: s.hypothesis.assignment)


def _infeasible(feas_tol_m: float, best_residual_m: float) -> InfeasibleAssociationError:
    return InfeasibleAssociationError(
        f"no hypothesis met tol {feas_tol_m}; best max residual was {best_residual_m:.6g} m",
        best_residual_m=best_residual_m,
    )


def solve_association(
    profiles: Sequence[DistanceProfile],
    anchors,
    feas_tol_m: float,
) -> AssociationSolution:
    """Best feasible hypothesis by exhaustive search.

    Returns the feasible solution with minimal max residual; residuals within
    RESIDUAL_TIE_EPS_M of the minimum tie and are broken by lexicographic
    hypothesis order. Raises InfeasibleAssociationError (carrying the best
    residual found) when nothing meets the tolerance.
    """
    stats: dict = {}
    solutions = enumerate_feasible(profiles, anchors, feas_tol_m, stats=stats)
    if not solutions:
        raise _infeasible(feas_tol_m, stats["best_max_residual_m"])
    return _pick_minimal(solutions)


def solve_association_bnb(
    profiles: Sequence[DistanceProfile],
    anchors,
    feas_tol_m: float,
    table: _SubproblemTable | None = None,
) -> AssociationSolution:
    """Branch-and-bound over the subproblem table, equal to solve_association.

    The search fills target slots in order. Slot k's candidates are the
    table rows whose anchor-1 index is k and whose residual meets the
    tolerance; a candidate is taken only if none of its distance indices at
    anchors 2..M is used yet, and a branch is cut once its partial max
    residual exceeds the best complete one by more than RESIDUAL_TIE_EPS_M.
    Every hypothesis within that band of the optimum survives, so the
    tie-break by lexicographic hypothesis order picks exactly what the
    exhaustive search picks. When nothing is feasible, the
    InfeasibleAssociationError carries the best max residual from a full
    scan of the same table, which is subject to MAX_HYPOTHESES. ``table`` is
    as in ``enumerate_feasible``.
    """
    if table is None:
        table = subproblem_table(profiles, anchors)
    k, m = table.k, table.m
    rest = np.indices((k,) * (m - 1)).reshape(m - 1, -1).T  # indices at anchors 2..M
    rms = table.rms.reshape(k, len(rest))  # row s: anchor-1 index s
    candidates = [
        [(tuple(int(j) for j in rest[i]), float(rms[s, i]), s * len(rest) + int(i))
         for i in np.flatnonzero(rms[s] <= feas_tol_m)]
        for s in range(k)
    ]

    used = [[False] * k for _ in range(m - 1)]
    chosen: list[tuple[tuple[int, ...], int]] = []
    incumbent = math.inf
    complete: list[tuple[tuple[tuple[int, ...], ...], float, tuple[int, ...]]] = []

    def dfs(slot: int, partial_max: float) -> None:
        nonlocal incumbent
        if slot == k:
            assignment = (tuple(range(k)),) + tuple(
                tuple(combo[a] for combo, _ in chosen) for a in range(m - 1))
            complete.append((assignment, partial_max, tuple(flat for _, flat in chosen)))
            incumbent = min(incumbent, partial_max)
            complete[:] = [c for c in complete if c[1] <= incumbent + RESIDUAL_TIE_EPS_M]
            return
        for combo, residual, flat in candidates[slot]:
            new_max = max(partial_max, residual)
            if new_max > incumbent + RESIDUAL_TIE_EPS_M:
                continue
            if any(used[a][j] for a, j in enumerate(combo)):
                continue
            for a, j in enumerate(combo):
                used[a][j] = True
            chosen.append((combo, flat))
            dfs(slot + 1, new_max)
            chosen.pop()
            for a, j in enumerate(combo):
                used[a][j] = False

    dfs(0, 0.0)
    if not complete:
        perms, perm_idx = _hypothesis_tables(k, m)
        residuals, _ = _slot_residuals(table, perms, perm_idx)
        raise _infeasible(feas_tol_m, float(residuals.max(axis=1).min()))

    # Pruning left exactly the solutions within the tie band of the best.
    assignment, _, flats = min(complete, key=lambda c: c[0])
    estimates = tuple(table.estimate(f) for f in flats)
    return AssociationSolution(
        hypothesis=AssociationHypothesis(assignment),
        estimates=estimates,
        max_residual_m=max(e.residual_rms_m for e in estimates),
    )


def build_ghost_report(
    solutions: Sequence[AssociationSolution],
    ground_truth: Sequence[Point2] | None = None,
    match_radius_m: float = 1e-3,
) -> GhostReport:
    """Summarize feasible solutions and flag estimates far from every true target."""
    ghosts: list[Point2] = []
    if ground_truth:
        for sol in solutions:
            for est in sol.estimates:
                p = est.position
                if min(true_distance(p, t) for t in ground_truth) <= match_radius_m:
                    continue
                if any(true_distance(p, g) <= match_radius_m for g in ghosts):
                    continue
                ghosts.append(p)
    return GhostReport(
        feasible_solutions=tuple(solutions),
        unique=len(solutions) == 1,
        ghost_positions=tuple(ghosts),
    )


def exact_profiles(scene: Scene) -> list[DistanceProfile]:
    """Noiseless per-BS distance profiles in target order."""
    profiles = []
    for bs in scene.base_stations:
        d = tuple(true_distance(bs.position, t.position) for t in scene.targets)
        profiles.append(DistanceProfile(anchor_id=bs.id, distances=d))
    return profiles


@dataclass(frozen=True)
class GhostTrialOutcome:
    trial: int
    seed: int
    feasible_count: int
    ghost: bool
    infeasible: bool
    correct_found: bool


@dataclass(frozen=True)
class GhostProbabilityResult:
    """Monte Carlo estimate of how often multiple feasible associations exist."""

    fraction: float
    num_trials: int
    ghost_seeds: tuple[int, ...]
    infeasible_seeds: tuple[int, ...]
    outcomes: tuple[GhostTrialOutcome, ...]


def ghost_probability(
    num_trials: int,
    num_bs: int,
    num_targets: int,
    bounds: Bounds,
    feas_tol_m: float = 1e-4,
    seed: int = 0,
    scene: Scene | None = None,
) -> GhostProbabilityResult:
    """Fraction of trials whose exact-range association is non-unique.

    The harness's uniqueness experiment with every (BS, target) pair
    detected: each trial draws a fresh random scene (or reuses ``scene``
    when given), synthesizes exact distances, and counts the feasible
    hypotheses. Trials with zero feasible hypotheses are reported separately.
    """
    from . import harness  # harness imports this module

    if num_trials < 1:
        raise ValueError("num_trials must be at least 1")
    if num_bs < 3:
        raise ValueError("num_bs must be at least 3")
    spec = harness.ExperimentSpec(
        scene=scene,
        random_plan=None if scene is not None else harness.RandomScenePlan(
            num_bs, num_targets, bounds),
        # Unbounded transmit power makes covered() true at every distance.
        link=LinkBudgetParams(pt_watts=math.inf),
        trials=num_trials,
        seed=seed,
        feas_tol_m=feas_tol_m,
    )
    outcomes = tuple(
        GhostTrialOutcome(
            trial=r["trial"], seed=r["seed"], feasible_count=r["feasible_count"],
            ghost=r["ghost"], infeasible=r["feasible_count"] == 0,
            correct_found=r["correct_found"],
        )
        for r in harness.run_uniqueness_experiment(spec).records
    )
    return GhostProbabilityResult(
        fraction=sum(o.ghost for o in outcomes) / num_trials,
        num_trials=num_trials,
        ghost_seeds=tuple(o.seed for o in outcomes if o.ghost),
        infeasible_seeds=tuple(o.seed for o in outcomes if o.infeasible),
        outcomes=outcomes,
    )
