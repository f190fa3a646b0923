"""Position estimation primitives: circle intersection, trilateration, triangulation.

Trilateration minimizes sum_i (|x - a_i| - d_i)^2: one Gauss-Newton pass,
halving any step that does not lower the residual, refines the linearized
least-squares solution of the squared-range equations. The batch variant
solves many independent range problems, each row against its own anchor
set and in its own centred, scaled frame: the data-association search
solves every distance-index combination of a problem at once, and the
experiment harness stacks the rows of many trials that survive the
association gate into one call. Rows never interact, so a row's result is bitwise the same in any
batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import BehindRayError, GeometryError, NoIntersectionError
from .scene import Point2, points_are_collinear

STEP_TOL_M = 1e-10
IMPROVE_TOL_M = 1e-12
MAX_ITERATIONS = 50


@dataclass(frozen=True)
class RangeMeasurement:
    """A single anchor-to-target range: finite and nonnegative."""

    anchor_id: str
    distance_m: float

    def __post_init__(self):
        if not math.isfinite(self.distance_m):
            raise ValueError(f"{self.anchor_id}: distance_m must be finite")
        if self.distance_m < 0:
            raise ValueError("distance_m must be nonnegative")


@dataclass(frozen=True)
class PositionEstimate:
    position: Point2
    residual_rms_m: float
    converged: bool
    iterations: int


def circle_intersections(c1: Point2, r1: float, c2: Point2, r2: float) -> tuple[Point2, ...]:
    """Intersection points of two circles: zero, one (tangent), or two points.

    Raises GeometryError for coincident centers. Disjoint or nested circles
    return an empty tuple.
    """
    if r1 < 0 or r2 < 0:
        raise ValueError("radii must be nonnegative")
    dx, dy = c2.x - c1.x, c2.y - c1.y
    d = math.hypot(dx, dy)
    if d == 0.0:
        raise GeometryError("circle centers coincide")
    if d > r1 + r2 or d < abs(r1 - r2):
        return ()
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h_sq = r1 * r1 - a * a
    h = math.sqrt(max(h_sq, 0.0))
    bx, by = c1.x + a * dx / d, c1.y + a * dy / d
    ox, oy = h * dy / d, -h * dx / d
    if h == 0.0:
        return (Point2(bx, by),)
    return (Point2(bx + ox, by + oy), Point2(bx - ox, by - oy))


def range_residuals(p: np.ndarray, anchors_xy: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Per-anchor range misfits |p - a_i| - d_i."""
    return np.linalg.norm(np.asarray(p, float) - anchors_xy, axis=1) - distances


def range_jacobian(p: np.ndarray, anchors_xy: np.ndarray) -> np.ndarray:
    """Jacobian of the range residuals: row i is the unit vector (p - a_i)/|p - a_i|."""
    diff = np.asarray(p, float) - anchors_xy
    norms = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
    return diff / norms[:, None]


def _frame(anchors_xy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's anchor mean and scale, and its anchors in that frame, (B, M, 2).

    The scale is the power of two just above the row's largest anchor offset
    from the mean, so scaling is exact and squares of frame coordinates stay
    far from overflow and underflow at any anchor spread and offset.
    """
    centre = anchors_xy.mean(axis=1)
    local = anchors_xy - centre[:, None, :]
    _, exponent = np.frexp(np.abs(local).max(axis=(1, 2)))
    scale = np.ldexp(1.0, exponent)
    local /= scale[:, None, None]
    return centre, scale, local


def _normal_solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Each row's least-squares x of jac @ x = rhs, from the 2x2 normal equations.

    ``jac`` is (B, M, 2) and ``rhs`` (B, M); a singular row gives a non-finite x.
    """
    jx, jy = jac[:, :, 0], jac[:, :, 1]
    gxx, gxy, gyy = np.sum(jx * jx, axis=1), np.sum(jx * jy, axis=1), np.sum(jy * jy, axis=1)
    hx, hy = np.sum(jx * rhs, axis=1), np.sum(jy * rhs, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = gxx * gyy - gxy * gxy
        return np.stack([gyy * hx - gxy * hy, gxx * hy - gxy * hx], axis=1) / det[:, None]


def _linear_start(local: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """Linearized least-squares position of each row, in the row's frame.

    Subtracting the mean of the squared-range equations |x - a_i|^2 = d_i^2
    leaves M equations linear in x, a_i . x = b_i, since the frame puts the
    anchor mean at the origin (Caffery, "A new approach to the geometry of
    TOA location", IEEE VTC 2000). A singular or non-finite row starts at
    the origin, its anchor centroid. On nearly collinear anchors the linear
    system is ill-conditioned and can put the start far outside the scene,
    so a start is pulled back onto the disk of radius min_i(d_i + |a_i|)
    around the origin: a point within d_i of every anchor a_i lies in it.
    """
    sq = 0.5 * (np.sum(local ** 2, axis=2) - ranges ** 2)
    start = _normal_solve(local, sq - sq.mean(axis=1)[:, None])
    start = np.where(np.isfinite(start).all(axis=1)[:, None], start, 0.0)
    radius = np.min(ranges + np.hypot(local[:, :, 0], local[:, :, 1]), axis=1)
    norm = np.hypot(start[:, 0], start[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        shrink = np.where(norm > radius, radius / norm, 1.0)
    return start * shrink[:, None]


def _gauss_newton(
    start: np.ndarray,
    local: np.ndarray,
    ranges: np.ndarray,
    step_tol: np.ndarray,
    improve_tol: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Gauss-Newton with step halving over B range problems.

    Each iteration evaluates one trial point per live row. A trial that
    lowers the row's rms is kept and the next step is taken from it;
    otherwise the row halves its last step from its best point. A row stops
    when its step falls below ``step_tol`` or a kept trial gains less than
    ``improve_tol`` (both per row), or after MAX_ITERATIONS. A row's
    arithmetic never depends on the others, so its result is the same in
    any batch.
    """
    n_rows = len(start)
    best, trial = start, start.copy()
    best_rms = np.full(n_rows, np.inf)
    step = np.zeros((n_rows, 2))
    converged = np.zeros(n_rows, bool)
    iterations = np.zeros(n_rows, int)
    live = np.arange(n_rows)

    for it in range(1, MAX_ITERATIONS + 1):
        if not len(live):
            break
        diff = trial[live, None, :] - local[live]
        norms = np.linalg.norm(diff, axis=2)
        residuals = norms - ranges[live]
        rms = np.sqrt(np.mean(residuals ** 2, axis=1))
        gain = best_rms[live] - rms
        kept = gain > 0

        gn_step = -_normal_solve(diff / np.maximum(norms, 1e-12)[:, :, None], residuals)
        gn_step[~np.isfinite(gn_step).all(axis=1)] = 0.0

        rows = live[kept]
        best[rows] = trial[rows]
        best_rms[rows] = rms[kept]
        step[rows] = gn_step[kept]
        step[live[~kept]] *= 0.5
        stop = (kept & (gain < improve_tol[live])) | (
            np.hypot(step[live, 0], step[live, 1]) < step_tol[live])
        converged[live[stop]] = True
        iterations[live] = it
        live = live[~stop]
        trial[live] = best[live] + step[live]

    return best, best_rms, converged, iterations


def solve_ranges_batch(
    anchors_xy: np.ndarray,
    distances: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve B independent range problems, each against its own anchor set.

    Args:
        anchors_xy: (M, 2) anchor coordinates shared by every row, or
            (B, M, 2) with one anchor set per row. M >= 3 and no row's
            anchors may be all collinear.
        distances: (B, M) measured ranges, one row per problem.

    Returns:
        (positions (B, 2), residual_rms (B,), converged (B,), iterations (B,)).
        Each row starts from its linearized least-squares position and ends
        at the lowest residual its Gauss-Newton pass reached; ``converged``
        is false only for a row stopped by MAX_ITERATIONS. Each row's
        result is bitwise the same whichever batch it is solved in, so
        stacking the rows of many problems into one call changes nothing
        but the speed.
    """
    anchors_xy = np.asarray(anchors_xy, float)
    distances = np.atleast_2d(np.asarray(distances, float))
    per_row = anchors_xy.ndim == 3
    if not per_row:
        anchors_xy = anchors_xy.reshape(-1, 2)
    if anchors_xy.shape[-2] < 3:
        raise ValueError("need at least 3 anchors")
    if distances.shape[1] != anchors_xy.shape[-2]:
        raise ValueError("one distance per anchor required")
    if per_row and len(anchors_xy) != len(distances):
        raise ValueError("one anchor set per distance row required")
    if not np.all((distances >= 0) & (distances < np.inf)):
        raise ValueError("distances must be finite and nonnegative")
    if per_row:
        # Stacked problems share their anchor set over runs of rows; check
        # each run once.
        first = np.ones(len(anchors_xy), bool)
        first[1:] = (anchors_xy[1:] != anchors_xy[:-1]).any(axis=(1, 2))
        for row in np.flatnonzero(first):
            if points_are_collinear(anchors_xy[row]):
                raise GeometryError(f"anchors of row {row} are collinear")
    elif points_are_collinear(anchors_xy):
        raise GeometryError("anchors are collinear")
    else:
        anchors_xy = np.broadcast_to(anchors_xy, (len(distances),) + anchors_xy.shape)

    centre, scale, local = _frame(anchors_xy)
    ranges = distances / scale[:, None]
    p, rms, converged, iterations = _gauss_newton(
        _linear_start(local, ranges), local, ranges, STEP_TOL_M / scale, IMPROVE_TOL_M / scale)
    return centre + scale[:, None] * p, rms * scale, converged, iterations


def solve_ranges(anchors_xy: np.ndarray, distances: np.ndarray) -> PositionEstimate:
    """Single range problem; see solve_ranges_batch."""
    positions, rms, converged, iterations = solve_ranges_batch(anchors_xy, np.atleast_2d(distances))
    return PositionEstimate(
        position=Point2(float(positions[0, 0]), float(positions[0, 1])),
        residual_rms_m=float(rms[0]),
        converged=bool(converged[0]),
        iterations=int(iterations[0]),
    )


def trilaterate(anchors: Mapping[str, Point2],
                measurements: Sequence[RangeMeasurement]) -> PositionEstimate:
    """Estimate a position from >= 3 anchor ranges, matched by anchor id.

    Raises GeometryError when the anchors are collinear and ValueError when
    the measurement set does not cover each anchor exactly once.
    """
    ids = [m.anchor_id for m in measurements]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate anchor_id in measurements")
    if set(ids) != set(anchors):
        raise ValueError("measurements must cover every anchor exactly once")
    anchors_xy = np.array([[anchors[i].x, anchors[i].y] for i in ids])
    distances = np.array([m.distance_m for m in measurements])
    return solve_ranges(anchors_xy, distances)


def triangulate(a1: Point2, bearing1: float, a2: Point2, bearing2: float) -> Point2:
    """Intersection of two bearing rays, bearings counterclockwise from +x, radians.

    Raises NoIntersectionError for (anti)parallel bearings and BehindRayError
    when the line intersection lies behind either ray origin.
    """
    if a1.x == a2.x and a1.y == a2.y:
        raise ValueError("anchor positions must differ")
    if abs(math.sin(bearing1 - bearing2)) < 1e-12:
        raise NoIntersectionError("bearings are parallel or antiparallel")
    d1 = (math.cos(bearing1), math.sin(bearing1))
    d2 = (math.cos(bearing2), math.sin(bearing2))
    det = d1[0] * (-d2[1]) - (-d2[0]) * d1[1]
    rx, ry = a2.x - a1.x, a2.y - a1.y
    t1 = (rx * (-d2[1]) - (-d2[0]) * ry) / det
    t2 = (d1[0] * ry - rx * d1[1]) / det
    if t1 < -1e-12 or t2 < -1e-12:
        raise BehindRayError("intersection lies behind a ray origin")
    return Point2(a1.x + t1 * d1[0], a1.y + t1 * d1[1])
