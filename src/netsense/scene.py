"""Geometric ground truth: anchors, passive targets, and scene validation.

Scenes are immutable once constructed and safe to share across workers.
All coordinates are meters in a flat 2D plane; RCS values are dB re 1 m².
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import SceneGenerationError

DEFAULT_COLLINEARITY_TOL = 1e-9


class AnchorKind(str, Enum):
    BS = "bs"
    IRS = "irs"


@dataclass(frozen=True)
class Point2:
    """A point in the plane, meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class Anchor:
    id: str
    kind: AnchorKind
    position: Point2


@dataclass(frozen=True)
class Target:
    id: str
    position: Point2
    rcs_dbsm: float = -10.0

    def __post_init__(self):
        if not math.isfinite(self.rcs_dbsm):
            raise ValueError(f"rcs_dbsm must be finite, got {self.rcs_dbsm}")


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned rectangle, meters."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        width, height = self.xmax - self.xmin, self.ymax - self.ymin
        if not (0 < width < math.inf and 0 < height < math.inf):
            raise ValueError(f"bounds must have positive, finite extent, got {self.as_tuple()}")

    def contains(self, p: Point2) -> bool:
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)


@dataclass(frozen=True)
class Scene:
    anchors: tuple[Anchor, ...]
    targets: tuple[Target, ...]
    bounds: Bounds

    @property
    def base_stations(self) -> tuple[Anchor, ...]:
        return tuple(a for a in self.anchors if a.kind is AnchorKind.BS)

    @property
    def irs_anchors(self) -> tuple[Anchor, ...]:
        return tuple(a for a in self.anchors if a.kind is AnchorKind.IRS)

    def bs_positions(self) -> np.ndarray:
        """Active-BS coordinates as an (M, 2) array."""
        return np.array([[a.position.x, a.position.y] for a in self.base_stations],
                        dtype=float).reshape(-1, 2)

    def target_positions(self) -> np.ndarray:
        return np.array([[t.position.x, t.position.y] for t in self.targets],
                        dtype=float).reshape(-1, 2)


def true_distance(a: Point2, b: Point2) -> float:
    """Euclidean distance between two points, meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


def _collinear(p: Point2, q: Point2, r: Point2, tol: float) -> bool:
    scale = max(true_distance(p, q), true_distance(q, r), true_distance(p, r))
    return 0.5 * abs((q.x - p.x) * (r.y - p.y) - (r.x - p.x) * (q.y - p.y)) < tol * scale * scale


def collinear_triples(points, tol: float = DEFAULT_COLLINEARITY_TOL):
    """Index triples i < j < k of the (x, y) ``points`` that are collinear within ``tol``.

    Yields them lazily, in ``itertools.combinations`` order. A triple is
    collinear when its triangle's area is below ``tol`` times its squared
    diameter, so the test is scale invariant. Raises ValueError on a
    non-finite coordinate.
    """
    pts = [Point2(float(x), float(y)) for x, y in points]
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        if _collinear(pts[i], pts[j], pts[k], tol):
            yield i, j, k


def points_are_collinear(points: np.ndarray) -> bool:
    """True when an entire point set fails to span the plane.

    The set is collinear when every triple is collinear within
    DEFAULT_COLLINEARITY_TOL, so the first triple that spans the plane
    decides. Fewer than three points are always considered collinear.
    """
    pts = [Point2(float(x), float(y)) for x, y in np.asarray(points, dtype=float).reshape(-1, 2)]
    return all(_collinear(p, q, r, DEFAULT_COLLINEARITY_TOL)
               for p, q, r in itertools.combinations(pts, 3))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_scene; empty violations means the scene is valid."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _duplicate_ids(kind: str, items) -> list[str]:
    """One 'duplicate <kind> id: <id>' line per entry whose id an earlier entry has."""
    seen: set[str] = set()
    lines = []
    for item in items:
        if item.id in seen:
            lines.append(f"duplicate {kind} id: {item.id}")
        seen.add(item.id)
    return lines


def validate_scene(scene: Scene) -> ValidationReport:
    """Check a scene for duplicate ids, stray targets, and collinear BS triples.

    Validation never raises; every problem found is reported as one line.
    """
    violations = _duplicate_ids("anchor", scene.anchors) + _duplicate_ids("target", scene.targets)

    for t in scene.targets:
        if not scene.bounds.contains(t.position):
            violations.append(f"target {t.id} outside bounds at ({t.position.x}, {t.position.y})")

    return ValidationReport(tuple(violations + collinear_bs_lines(scene)))


def collinear_bs_lines(scene: Scene) -> list[str]:
    """One 'collinear BS triple: <ids>' line per collinear triple of the scene's BSs."""
    ids = [a.id for a in scene.base_stations]
    return [f"collinear BS triple: {', '.join(ids[n] for n in triple)}"
            for triple in collinear_triples(scene.bs_positions())]


def random_scene(
    num_bs: int,
    num_targets: int,
    bounds: Bounds,
    rcs_dbsm: float = -10.0,
    seed: int = 0,
    collinearity_tol: float = DEFAULT_COLLINEARITY_TOL,
    max_attempts: int = 1000,
) -> Scene:
    """Draw a uniform random scene, rejecting BS layouts with collinear triples.

    Deterministic for a given seed. Raises SceneGenerationError when the
    rejection loop exceeds max_attempts (e.g. with an absurd tolerance).
    """
    if num_bs < 3:
        raise ValueError("need at least 3 base stations")
    if num_targets < 0:
        raise ValueError("num_targets must be nonnegative")

    rng = np.random.default_rng(seed)
    lo = np.array([bounds.xmin, bounds.ymin])
    hi = np.array([bounds.xmax, bounds.ymax])

    for _ in range(max_attempts):
        xy = rng.uniform(lo, hi, size=(num_bs, 2))
        if next(collinear_triples(xy, collinearity_tol), None) is None:
            anchors = tuple(Anchor(f"bs{i + 1}", AnchorKind.BS, Point2(float(x), float(y)))
                            for i, (x, y) in enumerate(xy))
            break
    else:
        raise SceneGenerationError(
            f"could not place {num_bs} BSs without a collinear triple "
            f"in {max_attempts} attempts (tol={collinearity_tol})"
        )

    txy = rng.uniform(lo, hi, size=(num_targets, 2))
    targets = tuple(
        Target(f"t{i + 1}", Point2(float(x), float(y)), rcs_dbsm)
        for i, (x, y) in enumerate(txy)
    )
    return Scene(anchors=anchors, targets=targets, bounds=bounds)


# --- JSON serialization -----------------------------------------------------
#
# Schema: {"bounds": [xmin, ymin, xmax, ymax],
#          "anchors": [{"id", "kind": "bs"|"irs", "x", "y"}],
#          "targets": [{"id", "x", "y", "rcs_dbsm"}]}
# Units: meters and dBsm throughout.


def scene_to_dict(scene: Scene) -> dict:
    return {
        "bounds": list(scene.bounds.as_tuple()),
        "anchors": [
            {"id": a.id, "kind": a.kind.value, "x": a.position.x, "y": a.position.y}
            for a in scene.anchors
        ],
        "targets": [
            {"id": t.id, "x": t.position.x, "y": t.position.y, "rcs_dbsm": t.rcs_dbsm}
            for t in scene.targets
        ],
    }


def _describe(exc: Exception) -> str:
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _entries(kind: str, items, make) -> tuple:
    """make() of each JSON entry; a bad entry raises ValueError naming its id."""
    out = []
    for i, item in enumerate(items, start=1):
        try:
            out.append(make(item))
        except (KeyError, TypeError, ValueError) as exc:
            name = item.get("id", f"#{i}") if isinstance(item, dict) else f"#{i}"
            raise ValueError(f"{kind} {name}: {_describe(exc)}") from None
    return tuple(out)


def scene_from_dict(data: dict) -> Scene:
    """The scene a JSON dict describes; a bad entry or a repeated id raises ValueError."""
    bounds = Bounds(*[float(v) for v in data["bounds"]])
    anchors = _entries("anchor", data["anchors"], lambda a: Anchor(
        str(a["id"]), AnchorKind(a["kind"]), Point2(float(a["x"]), float(a["y"]))))
    targets = _entries("target", data["targets"], lambda t: Target(
        str(t["id"]), Point2(float(t["x"]), float(t["y"])), float(t.get("rcs_dbsm", -10.0))))
    duplicates = _duplicate_ids("anchor", anchors) + _duplicate_ids("target", targets)
    if duplicates:
        raise ValueError("; ".join(duplicates))
    return Scene(anchors=anchors, targets=targets, bounds=bounds)


def save_scene(scene: Scene, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=2) + "\n")


def load_scene(path: str | Path) -> Scene:
    """Read a scene JSON file; a missing key, bad value or repeated anchor or target id
    raises ValueError naming the file."""
    try:
        return scene_from_dict(json.loads(Path(path).read_text()))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {_describe(exc)}") from None
