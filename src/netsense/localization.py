"""Position estimation primitives: circle intersection, trilateration, triangulation.

Trilateration minimizes sum_i (|x - a_i| - d_i)^2 with Gauss-Newton, seeded
from the intersection points of the two nearest-anchor range circles. The
batch variant solves many independent range problems, each row against its
own anchor set: the data-association search solves every distance-index
combination of a problem at once, and the experiment harness stacks those
rows for a whole chunk of trials into one call. Rows never interact, so a
row's result is bitwise the same in any batch.
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
    """A single anchor-to-target range, optionally with its noise sigma."""

    anchor_id: str
    distance_m: float
    sigma_m: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.distance_m):
            raise ValueError(f"{self.anchor_id}: distance_m must be finite")
        if self.distance_m < 0:
            raise ValueError("distance_m must be nonnegative")
        if self.sigma_m < 0:
            raise ValueError("sigma_m must be nonnegative")


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


def _seed_pair(anchors_xy: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Two Gauss-Newton seeds per problem row, shape (B, 2, 2).

    ``anchors_xy`` holds each row's own anchor set, shape (B, M, 2). Seeds are
    the intersections of the range circles around the row's two anchors with
    the smallest measured distances. When those circles are disjoint, nested,
    or their centers coincide, both seeds fall back to the row's anchor
    centroid.
    """
    d = distances
    order = np.argsort(d, axis=1, kind="stable")[:, :2]
    rows = np.arange(len(d))
    c1 = anchors_xy[rows, order[:, 0]]
    c2 = anchors_xy[rows, order[:, 1]]
    r1 = d[rows, order[:, 0]]
    r2 = d[rows, order[:, 1]]

    delta = c2 - c1
    sep = np.linalg.norm(delta, axis=1)
    safe_sep = np.maximum(sep, 1e-300)
    a = (sep ** 2 + r1 ** 2 - r2 ** 2) / (2.0 * safe_sep)
    h_sq = r1 ** 2 - a ** 2
    # Tolerate slightly negative h^2 (numerically tangent circles).
    tangent_slack = 1e-9 * np.maximum(r1, r2) ** 2
    valid = (sep > 1e-12) & (sep <= r1 + r2) & (sep >= np.abs(r1 - r2)) & (h_sq >= -tangent_slack)
    h = np.sqrt(np.maximum(h_sq, 0.0))

    ex = delta / safe_sep[:, None]
    ey = np.stack([ex[:, 1], -ex[:, 0]], axis=1)
    base = c1 + a[:, None] * ex
    plus = base + h[:, None] * ey
    minus = base - h[:, None] * ey

    centroid = anchors_xy.mean(axis=1)
    seeds = np.empty((len(d), 2, 2))
    seeds[:, 0] = np.where(valid[:, None], plus, centroid)
    seeds[:, 1] = np.where(valid[:, None], minus, centroid)
    return seeds


def _gauss_newton(
    seeds: np.ndarray,
    anchors_xy: np.ndarray,
    distances: np.ndarray,
    tol_m: float,
    max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Gauss-Newton over B independent range problems.

    ``anchors_xy`` is (B, M, 2). Each iteration works only on the rows that
    have not converged yet; a row's arithmetic never depends on the others,
    so its result is the same in any batch.
    """
    p = seeds.copy()
    n_rows = len(p)
    converged = np.zeros(n_rows, bool)
    iterations = np.zeros(n_rows, int)
    prev_rms = np.full(n_rows, np.inf)
    live = np.arange(n_rows)

    for it in range(1, max_iterations + 1):
        if not len(live):
            break
        diff = p[live, None, :] - anchors_xy[live]
        norms = np.linalg.norm(diff, axis=2)
        residuals = norms - distances[live]
        rms = np.sqrt(np.mean(residuals ** 2, axis=1))
        # A row stops when its residual no longer improves ...
        stop = prev_rms[live] - rms < IMPROVE_TOL_M

        unit = diff / np.maximum(norms, 1e-12)[:, :, None]
        a11 = np.sum(unit[:, :, 0] ** 2, axis=1)
        a12 = np.sum(unit[:, :, 0] * unit[:, :, 1], axis=1)
        a22 = np.sum(unit[:, :, 1] ** 2, axis=1)
        b1 = np.sum(unit[:, :, 0] * residuals, axis=1)
        b2 = np.sum(unit[:, :, 1] * residuals, axis=1)
        det = a11 * a22 - a12 * a12
        safe_det = np.where(np.abs(det) < 1e-300, 1.0, det)
        dx = -(a22 * b1 - a12 * b2) / safe_det
        dy = -(a11 * b2 - a12 * b1) / safe_det
        degenerate = np.abs(det) < 1e-300
        dx = np.where(degenerate, 0.0, dx)
        dy = np.where(degenerate, 0.0, dy)

        # ... or when its step falls below tolerance; the other rows move.
        stop |= np.hypot(dx, dy) < tol_m
        converged[live[stop]] = True
        iterations[live] = it
        move = ~stop
        live = live[move]
        p[live, 0] += dx[move]
        p[live, 1] += dy[move]
        prev_rms[live] = rms[move]

    final = np.linalg.norm(p[:, None, :] - anchors_xy, axis=2) - distances
    rms = np.sqrt(np.mean(final ** 2, axis=1))
    return p, rms, converged, iterations


def solve_ranges_batch(
    anchors_xy: np.ndarray,
    distances: np.ndarray,
    tol_m: float = STEP_TOL_M,
    max_iterations: int = MAX_ITERATIONS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve B independent range problems, each against its own anchor set.

    Args:
        anchors_xy: (M, 2) anchor coordinates shared by every row, or
            (B, M, 2) with one anchor set per row. M >= 3 and no row's
            anchors may be all collinear.
        distances: (B, M) measured ranges, one row per problem.

    Returns:
        (positions (B, 2), residual_rms (B,), converged (B,), iterations (B,)).
        Both circle-intersection seeds are tried for every row and the lower
        residual result is kept. Each row's result is bitwise the same
        whichever batch it is solved in, so stacking the rows of many
        problems into one call changes nothing but the speed.
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
    if np.any(distances < 0):
        raise ValueError("distances must be nonnegative")
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

    seeds = _seed_pair(anchors_xy, distances)
    p0, rms0, conv0, it0 = _gauss_newton(seeds[:, 0], anchors_xy, distances, tol_m, max_iterations)
    p1, rms1, conv1, it1 = _gauss_newton(seeds[:, 1], anchors_xy, distances, tol_m, max_iterations)

    pick1 = rms1 < rms0
    positions = np.where(pick1[:, None], p1, p0)
    rms = np.where(pick1, rms1, rms0)
    converged = np.where(pick1, conv1, conv0)
    iterations = np.where(pick1, it1, it0)
    return positions, rms, converged, iterations


def solve_ranges(
    anchors_xy: np.ndarray,
    distances: np.ndarray,
    tol_m: float = STEP_TOL_M,
    max_iterations: int = MAX_ITERATIONS,
) -> PositionEstimate:
    """Single range problem; see solve_ranges_batch."""
    positions, rms, converged, iterations = solve_ranges_batch(
        anchors_xy, np.atleast_2d(distances), tol_m, max_iterations
    )
    return PositionEstimate(
        position=Point2(float(positions[0, 0]), float(positions[0, 1])),
        residual_rms_m=float(rms[0]),
        converged=bool(converged[0]),
        iterations=int(iterations[0]),
    )


def trilaterate(
    anchors: Mapping[str, Point2],
    measurements: Sequence[RangeMeasurement],
    tol_m: float = STEP_TOL_M,
    max_iterations: int = MAX_ITERATIONS,
) -> PositionEstimate:
    """Estimate a position from >= 3 anchor ranges, matched by anchor id.

    Raises GeometryError when the anchors are collinear and ValueError when
    the measurement set does not cover each anchor exactly once.
    """
    ids = [m.anchor_id for m in measurements]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate anchor_id in measurements")
    if set(ids) != set(anchors):
        raise ValueError("measurements must cover every anchor exactly once")
    if len(ids) < 3:
        raise ValueError("need at least 3 anchors")
    anchors_xy = np.array([[anchors[i].x, anchors[i].y] for i in ids])
    distances = np.array([m.distance_m for m in measurements])
    return solve_ranges(anchors_xy, distances, tol_m, max_iterations)


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
