"""Range data association: feasible matchings, ghost detection, and solvers.

Each BS reports an unordered set of target distances. A hypothesis assigns
every BS distance to a target slot; anchor 1's assignment is fixed to the
identity, so the search space holds (K!)^(M-1) hypotheses for K targets and
M anchors. A hypothesis is feasible when every target slot trilaterates with
residual at or below the feasibility tolerance.

A target slot's residual depends only on the distance index chosen at each
anchor, so every solver works on one shared subproblem table over all K^M
index combinations. Most combinations mix ranges of different targets, and
two tests at the feasibility tolerance prove them infeasible without
solving them: a triangle inequality at every anchor pair, then, for the
rows that pass it, a bound on where the annuli of every anchor triple can
meet. Only the survivors are trilaterated (the gating step of multi-target
tracking: Blackman and Popoli, *Design and Analysis of Modern Tracking
Systems*, 1999); on exact ranges they are about the true rows alone.
Gated rows hold rms +inf, and a
table never changes once solved: it refuses a search at a looser tolerance
than its gate's. The best max residual reported when nothing is feasible
comes from a fresh, ungated table. ``SubproblemBatch`` stacks the survivors
of many problems into a single solver call. Enumeration and branch-and-bound
are then one depth-first search over the table's residuals, which fills
target slots in order and never builds the hypotheses it rules out.
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

# Most hypotheses, (K!)^(M-1), a search may decide. It bounds what an
# enumeration can return (every hypothesis is feasible at a loose enough
# tolerance, each at least M x 8 bytes of indices) and the work of the
# unpruned search behind an infeasible branch-and-bound. K=4 targets at M=5
# anchors (331,776 hypotheses) is the largest size in use.
MAX_HYPOTHESES = 1_000_000

# Most subproblem rows (K^M, one per distance index combination) a problem
# may stack. Building and solving the table takes about
# SUBPROBLEM_BYTES_PER_ROW_ANCHOR bytes per row and anchor (measured
# 130-170 up to M=12), so the cap bounds it near 270 MB at M=6; K=6 at M=6
# (46,656 rows) fits, K=8 at M=8 (16.8M rows, ~23 GB) does not.
MAX_SUBPROBLEM_ROWS = 1 << 18
SUBPROBLEM_BYTES_PER_ROW_ANCHOR = 170

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
    rows = n_targets ** n_anchors
    if rows > MAX_SUBPROBLEM_ROWS:
        raise ValueError(
            f"K={n_targets} targets at M={n_anchors} anchors give {rows:,} subproblem rows, "
            f"about {rows * n_anchors * SUBPROBLEM_BYTES_PER_ROW_ANCHOR:,} bytes to build "
            f"and solve; the table is capped at {MAX_SUBPROBLEM_ROWS:,} rows")
    for triple in itertools.combinations(range(n_anchors), 3):
        if points_are_collinear(anchors_xy[list(triple)]):
            raise GeometryError(f"anchors {triple} are collinear")
    return n_targets, n_anchors


# Relative allowance for rounding in the gate, in units of the magnitudes
# its tests compare. A target on the line through two BSs meets one of its
# triangle inequalities with equality, so without this allowance the gate
# could drop the true row by one ulp at a tiny tolerance.
GATE_ROUNDING = 16 * np.finfo(float).eps

# Largest length ratio the triple test computes with: rows whose lengths
# exceed TRIPLE_RANGE times min(1, D), for D the closest anchor pair, or
# whose D is below 1 / TRIPLE_RANGE, are admitted untested, so no square or
# square over D in the test overflows or leaves the normal range.
TRIPLE_RANGE = 2.0 ** 470

# Most row-triple elements one pass of the triple test computes with, beyond
# its M - 2 triples per row, so its temporaries stay O(rows (M - 2)).
TRIPLE_BLOCK = 1 << 12


def _gate(ranges: np.ndarray, anchors: np.ndarray, problem: np.ndarray,
          tol: np.ndarray) -> np.ndarray:
    """Rows that can trilaterate with rms at most their tolerance.

    ``ranges`` is (N, M), one row per distance index combination;
    ``anchors`` (P, M, 2) and ``tol`` (P,) are the problems' anchors and
    tolerances, and ``problem`` (N,) says which problem each row belongs to.
    Every row must pass the pairwise test, and the rows that pass it must
    pass the triple test; a row failing either can never be feasible. Rows
    where the triple test is vacuous skip it: when a row's slack is at least
    the anchor extent and every one of its distances, the anchor mean lies
    in all its annuli (so every row at tol = inf passes). So do rows whose
    lengths could overflow or underflow the test's squares.
    """
    n_anchors = ranges.shape[1]
    offsets = anchors - anchors.mean(axis=1, keepdims=True)
    extent = np.hypot(offsets[:, :, 0], offsets[:, :, 1]).max(axis=1)
    spreads = {pair: np.hypot(*(anchors[:, pair[0]] - anchors[:, pair[1]]).T)
               for pair in itertools.combinations(range(n_anchors), 2)}
    with np.errstate(over="ignore"):  # a huge tolerance saturates to an inf slack
        pair_slack, slack = ((s + GATE_ROUNDING * (extent + s))[problem] for s in (
            math.sqrt(2 * n_anchors) * tol, math.sqrt(n_anchors) * tol))
    admissible = _pairwise_admissible(ranges, spreads, problem, pair_slack)
    closest = np.min(list(spreads.values()), axis=0)
    reach = np.maximum(extent[problem], ranges.max(axis=1))
    tested = admissible & (slack < reach) & (closest[problem] >= 1 / TRIPLE_RANGE) & (
        reach <= TRIPLE_RANGE * np.minimum(closest, 1.0)[problem])
    rows = np.flatnonzero(tested)
    admissible[rows] = _triple_admissible(ranges[rows], anchors, problem[rows], slack[rows])
    return admissible


def _pairwise_admissible(ranges: np.ndarray, spreads: dict, problem: np.ndarray,
                         slack: np.ndarray) -> np.ndarray:
    """Rows that pass the triangle inequality at every anchor pair.

    A row with rms <= tol has r_i^2 + r_j^2 <= M tol^2 at every anchor pair,
    so |r_i| + |r_j| <= sqrt(2M) tol, and the triangle inequality through
    the solution gives |d_i - d_j| <= |a_i - a_j| + sqrt(2M) tol and
    d_i + d_j >= |a_i - a_j| - sqrt(2M) tol. ``spreads`` maps each anchor
    pair to the problems' |a_i - a_j|, and ``slack`` (N,) is each row's
    sqrt(2M) tol plus GATE_ROUNDING of every magnitude the solver's rms and
    this test round at, including the anchor extent of the solver's centred
    frame.
    """
    admissible = np.ones(len(ranges), bool)
    for (i, j), spread in spreads.items():
        spread = spread[problem]
        di, dj = ranges[:, i], ranges[:, j]
        pair_slack = slack + GATE_ROUNDING * (di + dj + spread)
        admissible &= (np.abs(di - dj) <= spread + pair_slack) & (di + dj >= spread - pair_slack)
    return admissible


def _triple_admissible(ranges: np.ndarray, anchors: np.ndarray, problem: np.ndarray,
                       slack: np.ndarray) -> np.ndarray:
    """Rows whose every anchor triple leaves room for a target within tolerance.

    A row with rms <= tol has |r_m| <= sqrt(M) tol at every anchor, so its
    target lies in the annulus [lo_m, hi_m] = [d_m - s, d_m + s] around
    every a_m, where ``slack`` s (N,) is sqrt(M) tol plus the pairwise
    test's allowance for the solver's rounding (its extent and tolerance
    terms; each radius also gets GATE_ROUNDING d_m). For a triple i < j < k, take
    the frame with origin a_i and x-axis toward a_j, at distance D. A point
    at distances rho_i, rho_j from a_i, a_j has
    x = (rho_i^2 - rho_j^2 + D^2) / 2D, which grows with rho_i and falls with
    rho_j, and y^2 = rho_i^2 - x^2 = rho_j^2 - (x - D)^2. So the annuli of
    a_i and a_j meet inside the box [x_lo, x_hi] x [y_lo, y_hi] and its
    mirror image in the x-axis: x from the extreme radii, clipped to
    |x| <= hi_i and |x - D| <= hi_j, and |y| from both annuli over that x
    range. A row is gated when the box is empty, or when neither box's
    distance range to a_k meets [lo_k, hi_k]. Each triple is tested once,
    with base pair (i, j). The anchors' rotated coordinates are computed
    once per problem; triples are tested in passes of at least M - 2, and
    of more while the rows times the triples stay within TRIPLE_BLOCK, and
    a row gated by one pass is not tested by the next.

    Rounding: in a triple every length below is at most
    L = hi_i + hi_j + hi_k + D + |a_k - a_i| (up to its own widening), every
    square at most L^2, and x at most L^2 / D before clipping. Each bound
    takes a few roundings of such terms and of inputs that are themselves
    within a few ulps, so it is off by fewer than 16 ulps of its magnitude
    (x, the worst, by about 9); widening every length by
    E = GATE_ROUNDING (L + L^2 / D) and every square by GATE_ROUNDING L^2
    keeps each bound on its safe side. The caller admits untested the rows
    whose lengths could overflow or leave the normal range.
    """
    n_anchors = ranges.shape[1]
    pad = slack[:, None] + GATE_ROUNDING * ranges
    lo, hi = np.maximum(ranges - pad, 0.0), ranges + pad
    triples = np.array(list(itertools.combinations(range(n_anchors), 3)))
    base = anchors[:, triples[:, 1]] - anchors[:, triples[:, 0]]
    rel = anchors[:, triples[:, 2]] - anchors[:, triples[:, 0]]
    span = np.hypot(base[..., 0], base[..., 1])
    unit = base / span[..., None]
    geometry = np.stack([  # D, a_k in the frame, and |a_k - a_i| of every problem's triples
        span, rel[..., 0] * unit[..., 0] + rel[..., 1] * unit[..., 1],
        rel[..., 1] * unit[..., 0] - rel[..., 0] * unit[..., 1], np.hypot(rel[..., 0], rel[..., 1])])

    rows, done = np.arange(len(ranges)), 0
    while done < len(triples) and len(rows):
        cols = slice(done, done + max(n_anchors - 2, TRIPLE_BLOCK // len(rows)))
        done = cols.stop
        d, u, v, r = geometry[:, problem[rows], cols]
        lo_i, lo_j, lo_k = (lo[rows][:, triples[cols, c]] for c in range(3))
        hi_i, hi_j, hi_k = (hi[rows][:, triples[cols, c]] for c in range(3))
        size = hi_i + hi_j + hi_k + d + r
        err = GATE_ROUNDING * (size + size * (size / d))
        sq_err = GATE_ROUNDING * size * size
        x_lo = np.maximum(np.maximum((lo_i * lo_i - hi_j * hi_j + d * d) / (2 * d), -hi_i),
                          d - hi_j) - err
        x_hi = np.minimum(np.minimum((hi_i * hi_i - lo_j * lo_j + d * d) / (2 * d), hi_i),
                          d + hi_j) + err
        # Nearest and farthest |x| and |x - D| over [x_lo, x_hi].
        near_i = np.maximum(np.maximum(x_lo, -x_hi), 0.0)
        near_j = np.maximum(np.maximum(x_lo - d, d - x_hi), 0.0)
        far_i = np.maximum(-x_lo, x_hi)
        far_j = np.maximum(d - x_lo, x_hi - d)
        y_hi_sq = np.minimum(hi_i * hi_i - near_i * near_i, hi_j * hi_j - near_j * near_j) + sq_err
        y_lo_sq = np.maximum(lo_i * lo_i - far_i * far_i, lo_j * lo_j - far_j * far_j) - sq_err
        box = (x_lo <= x_hi) & (y_hi_sq >= 0)
        y_hi = np.sqrt(np.maximum(y_hi_sq, 0.0)) + err
        y_lo = np.maximum(np.sqrt(np.maximum(y_lo_sq, 0.0)) - err, 0.0)

        # Squared distance ranges from a_k to the box (v) and to its mirror image (-v).
        x_gap = np.maximum(np.maximum(x_lo - u, u - x_hi), 0.0)
        x_far = np.maximum(u - x_lo, x_hi - u)
        side = np.stack([v, -v])
        y_gap = np.maximum(np.maximum(y_lo - side, side - y_hi), 0.0)
        y_far = np.maximum(side - y_lo, y_hi - side)
        hi_k, lo_k = hi_k + err, np.maximum(lo_k - err, 0.0)
        meets = ((x_gap * x_gap + y_gap * y_gap <= hi_k * hi_k + sq_err)
                 & (x_far * x_far + y_far * y_far >= lo_k * lo_k - sq_err)).any(axis=0)
        rows = rows[(box & meets).all(axis=1)]
    admissible = np.zeros(len(ranges), bool)
    admissible[rows] = True
    return admissible


class _SubproblemTable:
    """Trilateration results for every distance index combination.

    The residual of target slot k under a hypothesis depends only on the
    chosen distance index at each anchor, so all K^M combinations are solved
    once and shared by every hypothesis. Row ``flat`` holds the combination
    whose anchor-wise indices are the base-K digits of ``flat``, anchor 1
    most significant.

    Rows the gate ruled out at ``gate_tol``, by its pairwise or its triple
    test, were never solved and hold rms +inf; ``solved`` marks the others,
    and ``results`` holds the solver's four columns for them, in row order.
    ``solved_rows`` and ``gated_rows`` count the two kinds.
    """

    def __init__(self, n_targets: int, n_anchors: int, gate_tol: float, solved: np.ndarray,
                 results: Sequence[np.ndarray]):
        self.k = n_targets
        self.m = n_anchors
        self.gate_tol, self.solved = gate_tol, solved
        self.positions, self.rms, self.converged, self.iterations = columns = (
            np.full((len(solved), 2), np.nan), np.full(len(solved), np.inf),
            np.zeros(len(solved), bool), np.zeros(len(solved), int))
        for column, values in zip(columns, results):
            column[solved] = values
        self.solved_rows = int(np.count_nonzero(solved))
        self.gated_rows = len(solved) - self.solved_rows

    def estimate(self, flat: int) -> PositionEstimate:
        return PositionEstimate(
            position=Point2(float(self.positions[flat, 0]), float(self.positions[flat, 1])),
            residual_rms_m=float(self.rms[flat]),
            converged=bool(self.converged[flat]),
            iterations=int(self.iterations[flat]),
        )


class SubproblemBatch:
    """Subproblem rows of several association problems, solved in one call.

    ``add`` validates one problem and stacks its K^M rows with that
    problem's anchors and feasibility tolerance, counting them in
    ``ungated_rows``; ``gate`` tests every row stacked since the last gate
    at its problem's tolerance (the pairwise test, then the triple test on
    the rows that pass it) in one pass, keeps only the ``survivors`` and
    frees the rest; ``solve`` gates what is
    left, runs every survivor through a single ``solve_ranges_batch`` call,
    and returns one table per added problem, in order. Every solved row's
    result is bitwise what a separate call would give. All problems in a
    batch need the same anchor count M.
    """

    def __init__(self):
        self._shapes: list[tuple[int, int]] = []
        self._anchors: list[np.ndarray] = []
        self._tols: list[float] = []
        self._dense: list[np.ndarray] = []  # K^M rows of each problem not yet gated
        self._solved: list[np.ndarray] = []  # admissible mask of each gated problem
        self._kept: list[np.ndarray] = []  # surviving rows of each gate, in problem order
        self.ungated_rows = self.survivors = 0

    def add(self, profiles: Sequence[DistanceProfile], anchors, tol: float = math.inf) -> None:
        """Stack one problem's rows; ``tol`` = inf gates nothing."""
        anchors_xy = _as_anchor_array(anchors)
        n_targets, n_anchors = _check_inputs(profiles, anchors_xy)
        if self._shapes and self._shapes[0][1] != n_anchors:
            raise ValueError("every problem in a batch needs the same anchor count")
        combos = np.indices((n_targets,) * n_anchors).reshape(n_anchors, -1).T  # (K^M, M)
        dists = [np.array(p.distances, float) for p in profiles]
        self._shapes.append((n_targets, n_anchors))
        self._dense.append(np.stack([dists[m][combos[:, m]] for m in range(n_anchors)], axis=1))
        self._anchors.append(anchors_xy)
        self._tols.append(tol)
        self.ungated_rows += len(combos)

    def gate(self) -> None:
        """Gate the rows of every problem added since the last gate, in one pass."""
        if not self._dense:
            return
        start = len(self._solved)
        sizes = [len(rows) for rows in self._dense]
        rows = np.concatenate(self._dense)
        admissible = _gate(rows, np.stack(self._anchors[start:]),
                           np.repeat(np.arange(len(sizes)), sizes), np.array(self._tols[start:]))
        self._solved.extend(np.split(admissible, np.cumsum(sizes)[:-1]))
        self._kept.append(rows[admissible])
        self.survivors += len(self._kept[-1])
        self._dense, self.ungated_rows = [], 0

    def solve(self) -> list[_SubproblemTable]:
        if not self._shapes:
            return []
        self.gate()
        counts = [int(np.count_nonzero(solved)) for solved in self._solved]
        problem = np.repeat(np.arange(len(counts)), counts)
        results = solve_ranges_batch(np.stack(self._anchors)[problem], np.concatenate(self._kept))
        per_problem = zip(*(np.split(values, np.cumsum(counts)[:-1]) for values in results))
        return [_SubproblemTable(*shape, tol, solved, own) for shape, tol, solved, own
                in zip(self._shapes, self._tols, self._solved, per_problem)]


def subproblem_table(profiles: Sequence[DistanceProfile], anchors,
                     tol: float = math.inf) -> _SubproblemTable:
    """The validated, solved subproblem table of one association problem, gated at ``tol``."""
    batch = SubproblemBatch()
    batch.add(profiles, anchors, tol)
    return batch.solve()[0]


def _hypothesis_count(n_targets: int, n_anchors: int) -> int:
    """(K!)^(M-1); raises ValueError above MAX_HYPOTHESES."""
    total = math.factorial(n_targets) ** (n_anchors - 1)
    if total > MAX_HYPOTHESES:
        raise ValueError(
            f"K={n_targets} targets at M={n_anchors} anchors give {total:,} association "
            f"hypotheses, about {total * n_anchors * 8:,} bytes of indices if all were "
            f"feasible; the search is capped at {MAX_HYPOTHESES:,}")
    return total


def _search(table: _SubproblemTable, tol: float, best: bool) -> list[tuple]:
    """Depth-first search for hypotheses whose every slot meets ``tol``.

    Slot k's candidates are the table rows whose anchor-1 index is k and
    whose residual is at most ``tol``, in ascending residual order (stable);
    a candidate is taken only if none of its distance indices at anchors
    2..M is used yet. With ``best`` false every complete hypothesis is
    returned. With ``best`` true a branch is cut once its partial max
    residual exceeds the best complete one by more than RESIDUAL_TIE_EPS_M,
    and exactly the hypotheses within that band of the optimum are returned.
    Each result is (max_residual_m, assignment, flat row per slot). Raises
    ValueError when ``tol`` is looser than the table's gate, which left rows
    unsolved that such a search would need.
    """
    if tol > table.gate_tol:
        raise ValueError(f"a search at tol {tol} needs rows that the table's gate at tol "
                         f"{table.gate_tol} left unsolved")
    k, m = table.k, table.m
    per_slot = k ** (m - 1)
    rms = table.rms.reshape(k, per_slot)  # row s: anchor-1 index s
    candidates = []
    for s in range(k):
        rows = np.flatnonzero(rms[s] <= tol)
        rows = rows[np.argsort(rms[s, rows], kind="stable")]
        combos = zip(*(a.tolist() for a in np.unravel_index(rows, (k,) * (m - 1))))
        candidates.append([(combo, float(rms[s, i]), s * per_slot + i)
                           for combo, i in zip(combos, rows.tolist())])

    used = [[False] * k for _ in range(m - 1)]
    chosen: list[tuple[tuple[int, ...], int]] = []
    incumbent = math.inf
    found: list[tuple] = []

    def dfs(slot: int, partial_max: float) -> None:
        nonlocal incumbent
        if slot == k:
            assignment = (tuple(range(k)),) + tuple(
                tuple(combo[a] for combo, _ in chosen) for a in range(m - 1))
            found.append((partial_max, assignment, tuple(flat for _, flat in chosen)))
            if best and partial_max < incumbent:
                incumbent = partial_max
                found[:] = [f for f in found if f[0] <= incumbent + RESIDUAL_TIE_EPS_M]
            return
        for combo, residual, flat in candidates[slot]:
            new_max = max(partial_max, residual)
            if new_max > incumbent + RESIDUAL_TIE_EPS_M:
                break  # candidates ascend, so every later one is cut too
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
    return found


def _best_max_residual(profiles: Sequence[DistanceProfile], anchors) -> float:
    """Smallest max slot residual over all hypotheses, searched on a fresh ungated table."""
    table = subproblem_table(profiles, anchors)
    _hypothesis_count(table.k, table.m)
    return min(f[0] for f in _search(table, math.inf, best=True))


def enumerate_feasible(
    profiles: Sequence[DistanceProfile],
    anchors,
    feas_tol_m: float,
    stats: dict | None = None,
    table: _SubproblemTable | None = None,
) -> list[AssociationSolution]:
    """Every association hypothesis whose target slots all meet the tolerance.

    Anchor 1's assignment is fixed to the identity; the search decides all
    (K!)^(M-1) permutation tuples for anchors 2..M. A hypothesis is kept
    iff every target slot trilaterates with residual_rms <= feas_tol_m.
    Solutions within RESIDUAL_TIE_EPS_M of the smallest max residual tie and
    come first, in lexicographic hypothesis order, so the first solution is
    the best one; the rest follow by max residual, then hypothesis order.
    Raises ValueError above MAX_HYPOTHESES hypotheses.

    When given, ``stats`` receives bookkeeping: hypotheses_examined and
    best_max_residual_m over the whole search space, the table's gated_rows,
    and solved_rows, the rows given to the solver: the table's, plus K^M
    when nothing is feasible and the best max residual needs every row.
    ``table`` is the subproblem table of these profiles and anchors, already
    validated and solved (see ``SubproblemBatch``) and gated at no tighter a
    tolerance than ``feas_tol_m``; without it the table is built here, gated
    at ``feas_tol_m``.
    """
    if table is None:
        table = subproblem_table(profiles, anchors, feas_tol_m)
    total = _hypothesis_count(table.k, table.m)

    solutions = [
        AssociationSolution(
            hypothesis=AssociationHypothesis(assignment),
            estimates=tuple(table.estimate(f) for f in flats),
            max_residual_m=max_residual,
        )
        for max_residual, assignment, flats in _search(table, feas_tol_m, best=False)
    ]
    best = min((s.max_residual_m for s in solutions), default=math.inf)
    # Every tie sorts as if at the top of the band, so only the order breaks it.
    solutions.sort(key=lambda s: (max(s.max_residual_m, best + RESIDUAL_TIE_EPS_M),
                                  s.hypothesis.assignment))

    if stats is not None:
        stats["hypotheses_examined"] = total
        # A hypothesis below the best solution's max residual would be feasible too.
        stats["best_max_residual_m"] = best if solutions else _best_max_residual(profiles, anchors)
        stats["solved_rows"] = table.solved_rows + (0 if solutions else len(table.rms))
        stats["gated_rows"] = table.gated_rows
    return solutions


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
    return solutions[0]


def solve_association_bnb(
    profiles: Sequence[DistanceProfile],
    anchors,
    feas_tol_m: float,
    table: _SubproblemTable | None = None,
) -> AssociationSolution:
    """Branch-and-bound over the subproblem table, equal to solve_association.

    The enumeration's search, with a branch cut once its partial max
    residual exceeds the best complete one by more than RESIDUAL_TIE_EPS_M.
    Every hypothesis within that band of the optimum survives, so the
    tie-break by lexicographic hypothesis order picks exactly what the
    exhaustive search picks. When nothing is feasible, the
    InfeasibleAssociationError carries the exact best max residual, from the
    same search with no tolerance over a fresh, ungated table, which is
    subject to MAX_HYPOTHESES.
    ``table`` is as in ``enumerate_feasible``.
    """
    if table is None:
        table = subproblem_table(profiles, anchors, feas_tol_m)
    tied = _search(table, feas_tol_m, best=True)
    if not tied:
        raise _infeasible(feas_tol_m, _best_max_residual(profiles, anchors))

    # Pruning left exactly the solutions within the tie band of the best.
    _, assignment, flats = min(tied, key=lambda t: t[1])
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
