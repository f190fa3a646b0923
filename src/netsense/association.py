"""Range data association: feasible matchings, ghost detection, and solvers.

Each BS reports an unordered set of target distances. A hypothesis assigns
every BS distance to a target slot; anchor 1's assignment is fixed to the
identity, so the search space holds (K!)^(M-1) hypotheses for K targets and
M anchors. A hypothesis is feasible when every target slot trilaterates with
residual at or below the feasibility tolerance.

A target slot's residual depends only on the distance index chosen at each
anchor, so every solver works on one shared table of the K^M combinations
(an index column per anchor). Most mix ranges of different targets, and
two tests at the feasibility tolerance prove them infeasible without
solving them: a triangle inequality at every anchor pair and a bound on
where the annuli of every anchor triple can meet. The gate builds the rows
that pass both anchor by anchor (the gating step of multi-target tracking,
Blackman and Popoli 1999, layered like the S-D assignment of Deb et al.,
IEEE TAES 1997), so it never holds the rows it rules out; on exact ranges
the survivors are about the true rows alone. Only they are trilaterated,
into a table that never changes once solved. The best max residual
reported when nothing is feasible comes from the same search on tables
gated at a tolerance that grows fourfold until one holds a hypothesis.
``_solved_tables`` batches a stream of problems: it gates them in joins of
about GATE_ROWS rows and stacks the survivors of several into each solver
call of about CHUNK_ROWS rows. Enumeration and branch-and-bound are one
depth-first search over a table's residuals, which never builds the
hypotheses it rules out.
Refusals count work done: the rows the gate holds (MAX_GATE_ROWS) and the
candidates a search examines (MAX_SEARCH_NODES).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import GeometryError, InfeasibleAssociationError, UnequalCardinalityError
from .link_budget import LinkBudgetParams
from .localization import PositionEstimate, solve_ranges_batch
from .scene import Bounds, Point2, Scene, collinear_triples, true_distance

# Residuals within this band of the minimum are treated as ties and broken
# by lexicographic hypothesis order, keeping runs reproducible when several
# hypotheses are feasible at numerical-zero residual.
RESIDUAL_TIE_EPS_M = 1e-12

# Most rows the gate holds for one problem at one anchor: the rows that
# passed the anchors before, each extended by K indices. At tol = inf every
# row passes, so K^M is refused above this: K=8 at M=6 (262,144) fits.
MAX_GATE_ROWS = 1 << 18

# Most candidate rows one search may examine, counted as it runs: 1.5-2 s of
# search (`associate --tol 1e300` on an exact K=4, M=5 scene, 2-core x86,
# Python 3.11); the largest tier-1 search examines 38,556.
MAX_SEARCH_NODES = 1 << 22

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


def _check_inputs(sizes: Sequence[int], anchors_xy: np.ndarray) -> tuple[int, int]:
    """(K, M) of a problem whose profiles hold ``sizes`` distances each; refuses bad input."""
    n_anchors = len(anchors_xy)
    if len(sizes) != n_anchors:
        raise ValueError("one distance profile per anchor required")
    if n_anchors < 3:
        raise ValueError("need at least 3 anchors")
    cardinalities = set(sizes)
    if len(cardinalities) > 1:
        raise UnequalCardinalityError(
            f"profiles report different target counts: {sorted(cardinalities)}"
        )
    n_targets = cardinalities.pop()
    if n_targets == 0:
        raise ValueError("profiles are empty")
    triple = next(collinear_triples(anchors_xy), None)
    if triple is not None:
        raise GeometryError(f"anchors {triple} are collinear")
    return n_targets, n_anchors


# Relative allowance for rounding in the gate, in units of the magnitudes
# its tests compare. A target on the line through two BSs meets one of its
# triangle inequalities with equality, so without this allowance the gate
# could drop the true row by one ulp at a tiny tolerance.
GATE_ROUNDING = 16 * np.finfo(float).eps

# Largest length ratio the triple test computes with: problems whose lengths
# exceed TRIPLE_RANGE times min(1, D), for D the closest anchor pair, or
# whose D is below 1 / TRIPLE_RANGE, skip it, so no square or square over D
# in the test overflows or leaves the normal range.
TRIPLE_RANGE = 2.0 ** 470

# Most row-triple elements one pass of the triple test computes with, beyond
# its M - 2 triples per row, so its temporaries stay O(rows (M - 2)); the
# gate's join puts its triple tests off while they fit in one pass.
TRIPLE_BLOCK = 1 << 12

# Most rows one triple test takes: the gate tests its rows in blocks of this
# many, so a join over thousands of rows keeps the test's temporaries small.
# On mc-accuracy calls (K=3, M=4, about 1,000 rows tested per call) 128-row
# blocks peak at 0.40 MB traced (median call) against 0.58 MB for 256-row
# blocks and 0.47 MB for a gate per trial, and 256-row blocks read 1.4% more
# benchmark RSS than a gate per trial; 64-row blocks cost 10% more time
# (2-core x86, Python 3.11, numpy 2.4).
TRIPLE_ROWS = 1 << 7

# Subproblem rows (K^M per problem) gated in one join. At tol = inf every
# row survives, so this also bounds the rows the join holds: one join of 51
# K=3, M=4 problems (4,131 rows) peaks at 0.91 MB traced (tracemalloc), and
# the largest gate of 20 mc-accuracy calls at 0.37 MB, against 0.52 MB when
# a gate followed every 256 rows (Python 3.11, numpy 2.4).
GATE_ROWS = 1 << 12

# Solver rows stacked into one call. Each solve takes the shortest run of
# gated problems, from the front, that holds this many survivors, so every
# call but a stream's last holds at least CHUNK_ROWS rows and fewer than
# CHUNK_ROWS plus one problem's survivors. At 256 rows the mc-accuracy
# benchmark peaks at 40.3 MiB RSS (median of 10 runs), against 40.5 MiB when
# calls held 256 rows before the gate; 512 rows cost about 1 MiB more and
# 1024 rows about 1.8 MiB, for 1.2-1.6x more speed (2-core x86, Python 3.11,
# numpy 2.4).
CHUNK_ROWS = 256


def _gate(dists: Sequence[np.ndarray], anchors: np.ndarray,
          tol: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row of several problems that can trilaterate within tolerance, built anchor by anchor.

    ``dists`` holds each problem's (M, K) distances, ``anchors`` (P, M, 2) and
    ``tol`` (P,) its anchors and tolerance. Returns the ``problem``, distance
    ``index`` (rows, M) and ``ranges`` of every survivor, in problem order and
    lexicographic ``index`` order within a problem. The join extends each
    partial row by every index at the next anchor m and keeps it only if it
    passes the pairwise test against every earlier anchor and the triple test
    on every triple (i, j, m); a row failing either can never be feasible.
    While the rows times the triples pending fit TRIPLE_BLOCK, the triple
    tests wait and run together: on so few rows a numpy pass costs its call,
    not its arithmetic, and the survivors are the same. The triple tests run
    in row blocks of at most TRIPLE_ROWS, as no row's outcome depends on the
    others. Before each extension the rows a problem would hold are counted,
    and more than MAX_GATE_ROWS are refused.

    Pairwise test: a row with rms <= tol has r_i^2 + r_j^2 <= M tol^2 at
    every anchor pair, so |r_i| + |r_j| <= sqrt(2M) tol, and the triangle
    inequality through the solution gives |d_i - d_j| <= |a_i - a_j| +
    sqrt(2M) tol and d_i + d_j >= |a_i - a_j| - sqrt(2M) tol. Its slack is
    sqrt(2M) tol plus GATE_ROUNDING of every magnitude the solver's rms and
    this test round at, including the anchor extent of the solver's centred
    frame. A problem skips the triple test where it is vacuous (its slack
    is at least the anchor extent and every one of its distances, so the
    anchor mean lies in all annuli of every row, as at tol = inf) and where
    its lengths could overflow or underflow the test's squares.
    """
    n_problems, n_anchors = anchors.shape[:2]
    sizes = np.array([d.shape[1] for d in dists])
    first = np.cumsum(sizes) - sizes  # each problem's first column of ``columns``
    columns = np.concatenate(dists, axis=1)
    offsets = anchors - anchors.mean(axis=1, keepdims=True)
    extent = np.hypot(offsets[:, :, 0], offsets[:, :, 1]).max(axis=1)
    gaps = anchors[:, :, None] - anchors[:, None, :]  # a_i - a_j at [:, i, j]
    spread = np.hypot(gaps[..., 0], gaps[..., 1])
    closest = (spread + np.diag(np.full(n_anchors, np.inf))).min(axis=(1, 2))
    with np.errstate(over="ignore"):  # a huge tolerance saturates to an inf slack
        pair_slack, slack = (s + GATE_ROUNDING * (extent + s) for s in (
            math.sqrt(2 * n_anchors) * tol, math.sqrt(n_anchors) * tol))
    reach = np.maximum(extent, np.maximum.reduceat(columns.max(axis=0), first))
    tested = (slack < reach) & (closest >= 1 / TRIPLE_RANGE) & (
        reach <= TRIPLE_RANGE * np.minimum(closest, 1.0))
    triples = _triples(n_anchors)
    i, j, k = triples.T  # D, a_k in the frame and |a_k - a_i| of every triple
    base, rel, span = gaps[:, j, i], gaps[:, k, i], spread[:, j, i]
    unit = base / span[..., None]
    geometry = np.stack([
        span, rel[..., 0] * unit[..., 0] + rel[..., 1] * unit[..., 1],
        rel[..., 1] * unit[..., 0] - rel[..., 0] * unit[..., 1], spread[:, k, i]])

    def with_triples(problem, index, ranges, pending: slice):
        """The rows that pass the ``pending`` triples, or whose problem skips them."""
        keep = ~tested[problem]
        untested = np.flatnonzero(~keep)
        for start in range(0, len(untested), TRIPLE_ROWS):
            rows = untested[start:start + TRIPLE_ROWS]
            keep[rows] = _triple_admissible(ranges[rows], geometry[:, :, pending],
                                            triples[pending], problem[rows], slack[problem[rows]])
        return problem[keep], index[keep], ranges[keep]

    problem = np.repeat(np.arange(n_problems), sizes)
    # int16 holds any index: MAX_GATE_ROWS refuses K^2 > 2^18, so K <= 512.
    index = np.zeros((len(problem), n_anchors), np.int16)
    index[:, 0] = np.arange(len(problem)) - first[problem]
    ranges = np.zeros((len(problem), n_anchors))
    ranges[:, 0] = columns[0]
    done = 0  # triples tested so far, in order of their last anchor
    for m in range(1, n_anchors):
        width = sizes[problem]
        held = width.sum()  # rows after the extension, all problems together
        if held * (math.comb(m + 1, 3) - done) > TRIPLE_BLOCK or held > MAX_GATE_ROWS:
            problem, index, ranges = with_triples(problem, index, ranges,
                                                  slice(done, math.comb(m, 3)))
            done, width = math.comb(m, 3), sizes[problem]
            held = np.bincount(problem, minlength=n_problems) * sizes
            if held.max() > MAX_GATE_ROWS:
                p = int(held.argmax())
                raise ValueError(
                    f"K={sizes[p]} targets at M={n_anchors} anchors leave {held[p]:,} candidate "
                    f"rows at anchor {m + 1}; the gate holds at most {MAX_GATE_ROWS:,} per problem")
        parent = np.repeat(np.arange(len(problem)), width)
        problem, index, ranges = problem[parent], index[parent], ranges[parent]
        index[:, m] = np.arange(len(parent)) - (np.cumsum(width) - width)[parent]
        ranges[:, m] = columns[m, first[problem] + index[:, m]]
        di, dj, gap = ranges[:, :m], ranges[:, m:m + 1], spread[problem, :m, m]
        allowance = pair_slack[problem, None] + GATE_ROUNDING * (di + dj + gap)
        keep = ((np.abs(di - dj) <= gap + allowance) & (di + dj >= gap - allowance)).all(axis=1)
        problem, index, ranges = problem[keep], index[keep], ranges[keep]
    # The last extension's arrays (di and dj view its unfiltered ranges) are dead.
    del width, parent, di, dj, gap, allowance, keep
    return with_triples(problem, index, ranges, slice(done, len(triples)))


@functools.cache
def _triples(n_anchors: int) -> np.ndarray:
    """Index triples i < j < k of M anchors, (T, 3), in order of k; shared, so read-only."""
    triples = np.array(sorted(itertools.combinations(range(n_anchors), 3), key=lambda t: t[2]))
    triples.flags.writeable = False
    return triples


def _triple_admissible(ranges: np.ndarray, geometry: np.ndarray, triples: np.ndarray,
                       problem: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """Rows whose every anchor triple in ``triples`` leaves room for a target within tolerance.

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
    with base pair (i, j); ``geometry`` holds D, a_k's coordinates in the
    frame and |a_k - a_i| for every problem. Triples are tested in passes
    of at least M - 2, and of more while the rows times the triples stay
    within TRIPLE_BLOCK, and a row gated by one pass is not tested by the
    next.

    Rounding: in a triple every length below is at most
    L = hi_i + hi_j + hi_k + D + |a_k - a_i| (up to its own widening), every
    square at most L^2, and x at most L^2 / D before clipping. Each bound
    takes a few roundings of such terms and of inputs that are themselves
    within a few ulps, so it is off by fewer than 16 ulps of its magnitude
    (x, the worst, by about 9); widening every length by
    E = GATE_ROUNDING (L + L^2 / D) and every square by GATE_ROUNDING L^2
    keeps each bound on its safe side. The caller skips the problems whose
    lengths could overflow or leave the normal range.
    """
    pad = slack[:, None] + GATE_ROUNDING * ranges
    lo, hi = np.maximum(ranges - pad, 0.0), ranges + pad
    radii = np.stack([lo, hi, lo * lo, hi * hi])
    rows, done = np.arange(len(ranges)), 0
    while done < len(triples) and len(rows):
        cols = slice(done, done + max(ranges.shape[1] - 2, TRIPLE_BLOCK // len(rows)))
        done = cols.stop
        d, u, v, r = geometry[:, problem[rows], cols]
        d_sq, d_twice = d * d, 2 * d
        (lo_i, lo_j, lo_k), (hi_i, hi_j, hi_k), (lo_sq_i, lo_sq_j, _), (hi_sq_i, hi_sq_j, _) = (
            np.moveaxis(radii[:, rows][:, :, triples[cols]], 3, 1))
        size = hi_i + hi_j + hi_k + d + r
        err = GATE_ROUNDING * (size + size * (size / d))
        sq_err = GATE_ROUNDING * size * size
        x_lo = np.maximum(np.maximum((lo_sq_i - hi_sq_j + d_sq) / d_twice, -hi_i), d - hi_j) - err
        x_hi = np.minimum(np.minimum((hi_sq_i - lo_sq_j + d_sq) / d_twice, hi_i), d + hi_j) + err
        # Nearest and farthest |x| and |x - D| over [x_lo, x_hi].
        near_i = np.maximum(np.maximum(x_lo, -x_hi), 0.0)
        near_j = np.maximum(np.maximum(x_lo - d, d - x_hi), 0.0)
        far_i = np.maximum(-x_lo, x_hi)
        far_j = np.maximum(d - x_lo, x_hi - d)
        y_hi_sq = np.minimum(hi_sq_i - near_i * near_i, hi_sq_j - near_j * near_j) + sq_err
        y_lo_sq = np.maximum(lo_sq_i - far_i * far_i, lo_sq_j - far_j * far_j) - sq_err
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
    """Trilateration results for the distance index combinations the gate kept.

    The residual of target slot k under a hypothesis depends only on the
    chosen distance index at each anchor, so each of the K^M combinations is
    solved at most once and shared by every hypothesis. Row i of ``index``
    (rows, M) holds the index at each anchor of a combination that passed
    the gate at ``gate_tol``, rows in lexicographic order, and row i of
    ``positions``, ``rms``, ``converged`` and ``iterations`` the solver's
    result for it. The others were never solved and have no row.
    ``solved_rows`` and ``gated_rows`` count the two kinds.
    """

    def __init__(self, n_targets: int, n_anchors: int, gate_tol: float, index: np.ndarray,
                 results: Sequence[np.ndarray]):
        self.k, self.m = n_targets, n_anchors
        self.gate_tol, self.index = gate_tol, index
        self.positions, self.rms, self.converged, self.iterations = results
        self.solved_rows = len(index)
        self.gated_rows = n_targets ** n_anchors - self.solved_rows

    def estimate(self, row: int) -> PositionEstimate:
        return PositionEstimate(
            position=Point2(float(self.positions[row, 0]), float(self.positions[row, 1])),
            residual_rms_m=float(self.rms[row]),
            converged=bool(self.converged[row]),
            iterations=int(self.iterations[row]),
        )


def _solved_tables(problems: Iterable[tuple[np.ndarray, np.ndarray, float]]
                   ) -> Iterator[_SubproblemTable]:
    """The table of each problem, in order, from few gates and few solver calls.

    ``problems`` yields (M, K) distances, (M, 2) anchors and a feasibility
    tolerance (inf gates nothing) that passed ``_check_inputs``, all with
    the same M. They are gated in one join (see ``_gate``) once they span
    GATE_ROWS subproblem rows (K^M per problem), and at the end. The gated
    problems are solved in runs from the front, each the shortest that
    holds CHUNK_ROWS survivors, one ``_solve_run`` call per run; at the end
    the last run takes the rest. Every row's result is bitwise what a
    separate call would give.
    """
    problems = iter(problems)
    # Gated problems not yet solved, with their index columns, and their survivors' ranges.
    gated, survivors, more = [], np.empty((0, 0)), True
    while more:
        fresh, rows = [], 0
        for dists, anchors, tol in problems:
            fresh.append((dists, anchors, tol))
            rows += dists.shape[1] ** dists.shape[0]
            if rows >= GATE_ROWS:
                break
        else:
            more = False
        if fresh:
            dists, anchors, tols = zip(*fresh)
            problem, index, kept = _gate(dists, np.stack(anchors), np.array(tols))
            counts = np.bincount(problem, minlength=len(fresh))
            survivors = np.concatenate([survivors, kept]) if gated else kept
            gated += zip(fresh, np.split(index, np.cumsum(counts)[:-1]))
        ends = list(itertools.accumulate(len(index) for _, index in gated))
        start = cut = 0  # the next run's first problem and first survivor
        for n, end in enumerate(ends):
            if end - cut >= CHUNK_ROWS or (not more and n == len(gated) - 1):
                yield from _solve_run(gated[start:n + 1], survivors[cut:end])
                start, cut = n + 1, end
        gated, survivors = gated[start:], survivors[cut:]


def _solve_run(run: list, ranges: np.ndarray) -> list[_SubproblemTable]:
    """The tables of a ``run`` of gated ((dists, anchors, tol), index) problems, from one
    ``solve_ranges_batch`` call on their survivors' ``ranges``, in problem order."""
    counts = [len(index) for _, index in run]
    anchors = np.stack([anchors for (_, anchors, _), _ in run])
    results = solve_ranges_batch(anchors[np.repeat(np.arange(len(run)), counts)], ranges)
    per_problem = zip(*(np.split(values, np.cumsum(counts)[:-1]) for values in results))
    return [_SubproblemTable(*dists.shape[::-1], tol, index, own)
            for ((dists, _, tol), index), own in zip(run, per_problem)]


def subproblem_table(profiles: Sequence[DistanceProfile], anchors,
                     tol: float = math.inf) -> _SubproblemTable:
    """The validated, solved subproblem table of one association problem, gated at ``tol``."""
    anchors_xy = np.asarray(anchors, float).reshape(-1, 2)
    _check_inputs([len(p.distances) for p in profiles], anchors_xy)
    dists = np.array([p.distances for p in profiles], float)
    return next(_solved_tables([(dists, anchors_xy, tol)]))


def _search(table: _SubproblemTable, tol: float, best: bool) -> tuple[list[tuple], int]:
    """Depth-first search for hypotheses whose every slot meets ``tol``.

    Slot k's candidates are the table rows whose ``index`` column 0 (anchor
    1) is k and whose residual is at most ``tol``, in ascending residual
    order, ties in row order; a candidate is taken only if none of its other
    columns, its indices at anchors 2..M, is used yet. With ``best`` false
    every complete hypothesis is returned. With ``best`` true a branch is
    cut once its partial max residual exceeds the best complete one by more
    than RESIDUAL_TIE_EPS_M, and exactly the hypotheses within that band of
    the optimum are returned. Each result is (max_residual_m, assignment,
    table row per slot); they come with the number of candidates examined.
    Raises ValueError when ``tol`` is NaN or negative, when it is looser than
    the table's gate, which left rows unsolved that such a search would
    need, and once the search examines more than MAX_SEARCH_NODES
    candidates.
    """
    if not tol >= 0:  # 0 and inf are allowed
        raise ValueError(f"feasibility tolerance must be nonnegative, got {tol}")
    if tol > table.gate_tol:
        raise ValueError(f"a search at tol {tol} needs rows that the table's gate at tol "
                         f"{table.gate_tol} left unsolved")
    k, m = table.k, table.m
    rows = np.flatnonzero(table.rms <= tol)
    rows = rows[np.lexsort((table.rms[rows], table.index[rows, 0]))]  # stable: ties keep row order
    # Bit a * k + j of a candidate's mask marks its index j at anchor a + 1.
    candidates: list[list[tuple]] = [[] for _ in range(k)]
    for index, residual, row in zip(table.index[rows].tolist(), table.rms[rows].tolist(),
                                    rows.tolist()):
        mask = sum(1 << (a * k + j) for a, j in enumerate(index))
        candidates[index[0]].append((index, mask, residual, row))

    chosen: list[tuple[list[int], int]] = []
    incumbent = math.inf
    found: list[tuple] = []
    nodes = 0

    def dfs(slot: int, used: int, partial_max: float) -> None:
        nonlocal incumbent, nodes
        if slot == k:
            assignment = tuple(zip(*(index for index, _ in chosen)))  # the chosen rows' columns
            found.append((partial_max, assignment, tuple(row for _, row in chosen)))
            if best and partial_max < incumbent:
                incumbent = partial_max
                found[:] = [f for f in found if f[0] <= incumbent + RESIDUAL_TIE_EPS_M]
            return
        for index, mask, residual, row in candidates[slot]:
            nodes += 1
            if nodes > MAX_SEARCH_NODES:
                raise ValueError(f"K={k} targets at M={m} anchors: the search examined {nodes:,} "
                                 f"candidate rows; it is capped at {MAX_SEARCH_NODES:,}")
            new_max = max(partial_max, residual)
            if new_max > incumbent + RESIDUAL_TIE_EPS_M:
                break  # candidates ascend, so every later one is cut too
            if used & mask:
                continue
            chosen.append((index, row))
            dfs(slot + 1, used | mask, new_max)
            chosen.pop()

    dfs(0, 0, 0.0)
    return found, nodes


def _best_max_residual(profiles: Sequence[DistanceProfile], anchors,
                       table: _SubproblemTable, tol: float) -> float:
    """Smallest max slot residual over all hypotheses, when none meets ``tol``.

    A table gated at t holds every row whose rms is at most t, with bitwise
    the rms an ungated table gives, so a best search at t on it finds the
    exact optimum once that is at most t. The search runs on ``table`` when
    its gate is looser than ``tol``, then on fresh tables gated at 4 times
    the last gate (at least RESIDUAL_TIE_EPS_M, so a gate of 0 grows too)
    until one holds a hypothesis; the last, at inf, gates nothing.
    """
    gate = table.gate_tol
    found = _search(table, gate, best=True)[0] if gate > tol else []
    while not found and gate < math.inf:
        gate = max(4 * gate, RESIDUAL_TIE_EPS_M)
        found, _ = _search(subproblem_table(profiles, anchors, gate), gate, best=True)
    return min(f[0] for f in found)


def _best_solution(table: _SubproblemTable, tol: float) -> AssociationSolution | None:
    """The best hypothesis on ``table`` whose every slot meets ``tol``, or None.

    The enumeration's search, with a branch cut once its partial max
    residual exceeds the best complete one by more than RESIDUAL_TIE_EPS_M:
    every hypothesis within that band of the optimum survives, so the
    lexicographic tie-break picks exactly what the exhaustive search picks.
    """
    tied, _ = _search(table, tol, best=True)
    if not tied:
        return None
    _, assignment, rows = min(tied, key=lambda t: t[1])
    estimates = tuple(table.estimate(row) for row in rows)
    return AssociationSolution(AssociationHypothesis(assignment), estimates,
                               max(e.residual_rms_m for e in estimates))


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
    Raises ValueError when the table's gate or the search is refused (see
    MAX_GATE_ROWS and MAX_SEARCH_NODES).

    When given, ``stats`` receives bookkeeping: hypotheses_examined and
    best_max_residual_m over the whole search space (see
    ``_best_max_residual`` when nothing is feasible), search_nodes, the
    candidates the search examined, and the table's gated_rows and
    solved_rows, the rows given to the solver.
    ``table`` is the subproblem table of these profiles and anchors, already
    validated and solved (see ``_solved_tables``) and gated at no tighter a
    tolerance than ``feas_tol_m``; without it the table is built here, gated
    at ``feas_tol_m``.
    """
    if table is None:
        table = subproblem_table(profiles, anchors, feas_tol_m)
    found, nodes = _search(table, feas_tol_m, best=False)
    solutions = [
        AssociationSolution(
            hypothesis=AssociationHypothesis(assignment),
            estimates=tuple(table.estimate(row) for row in rows),
            max_residual_m=max_residual,
        )
        for max_residual, assignment, rows in found
    ]
    best = min((s.max_residual_m for s in solutions), default=math.inf)
    # Every tie sorts as if at the top of the band, so only the order breaks it.
    solutions.sort(key=lambda s: (max(s.max_residual_m, best + RESIDUAL_TIE_EPS_M),
                                  s.hypothesis.assignment))

    if stats is not None:
        stats["hypotheses_examined"] = math.factorial(table.k) ** (table.m - 1)
        stats["search_nodes"] = nodes
        # A hypothesis below the best solution's max residual would be feasible too.
        stats["best_max_residual_m"] = (
            best if solutions else _best_max_residual(profiles, anchors, table, feas_tol_m))
        stats["solved_rows"] = table.solved_rows
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

    See ``_best_solution``. When nothing is feasible, the
    InfeasibleAssociationError carries the exact best max residual, from the
    same search on tables gated at a growing tolerance (see
    ``_best_max_residual``).
    ``table`` is as in ``enumerate_feasible``.
    """
    if table is None:
        table = subproblem_table(profiles, anchors, feas_tol_m)
    solution = _best_solution(table, feas_tol_m)
    if solution is None:
        raise _infeasible(feas_tol_m, _best_max_residual(profiles, anchors, table, feas_tol_m))
    return solution


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
