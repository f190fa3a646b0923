"""Heterogeneous-anchor ranging: recover target-IRS distances from path lengths.

A BS measures two round trips for a target: the direct echo
BS -> target -> BS (length 2*L1) and the composite echo
BS -> target -> IRS -> BS (length L1 + L2 + L3). With the BS-IRS baseline
L3 known from geometry, the target-IRS distance follows as
L2 = composite - L1 - L3, which turns the passive IRS into a usable
ranging anchor for trilateration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InconsistentMeasurementError
from .localization import PositionEstimate, RangeMeasurement, solve_ranges
from .scene import Point2, true_distance

NEGATIVE_L2_TOL_M = 1e-6


@dataclass(frozen=True)
class IrsPathMeasurement:
    """Round-trip path lengths observed by one BS for one target."""

    bs_id: str
    irs_id: str
    direct_roundtrip_m: float    # BS -> target -> BS, equals 2*L1
    composite_roundtrip_m: float  # BS -> target -> IRS -> BS, equals L1+L2+L3

    def __post_init__(self):
        if self.direct_roundtrip_m < 0 or self.composite_roundtrip_m < 0:
            raise ValueError("round-trip lengths must be nonnegative")
        if self.composite_roundtrip_m < self.direct_roundtrip_m / 2.0:
            raise ValueError(
                "composite round trip cannot be shorter than the one-way direct path"
            )


def irs_target_distance(m: IrsPathMeasurement, bs_pos: Point2, irs_pos: Point2) -> float:
    """Target-IRS distance by path subtraction: L2 = composite - L1 - L3.

    Raises InconsistentMeasurementError when the subtraction goes negative
    beyond tolerance; tiny negative values from noise are clamped to zero.
    """
    if bs_pos.x == irs_pos.x and bs_pos.y == irs_pos.y:
        raise ValueError("BS and IRS positions must differ")
    l1 = m.direct_roundtrip_m / 2.0
    l3 = true_distance(bs_pos, irs_pos)
    l2 = m.composite_roundtrip_m - l1 - l3
    if l2 < -NEGATIVE_L2_TOL_M:
        raise InconsistentMeasurementError(
            f"path subtraction gave target-IRS distance {l2:.6g} m < 0 "
            f"(bs={m.bs_id}, irs={m.irs_id})"
        )
    return max(l2, 0.0)


def synthesize_path_measurement(
    bs_pos: Point2, irs_pos: Point2, target_pos: Point2, bs_id: str = "bs",
) -> IrsPathMeasurement:
    """Exact path lengths for a known geometry (test and simulation helper)."""
    l1 = true_distance(bs_pos, target_pos)
    l2 = true_distance(target_pos, irs_pos)
    l3 = true_distance(irs_pos, bs_pos)
    return IrsPathMeasurement(
        bs_id=bs_id, irs_id="irs",
        direct_roundtrip_m=2.0 * l1,
        composite_roundtrip_m=l1 + l2 + l3,
    )


def localize_with_heterogeneous_anchors(
    bs_positions: Mapping[str, Point2],
    bs_measurements: Sequence[RangeMeasurement],
    irs_pos: Point2,
    irs_distance_m: float,
) -> PositionEstimate:
    """Trilaterate using BS ranges plus one recovered IRS range.

    The IRS is treated as an ordinary anchor at its known position. The
    combined anchor set must contain at least three non-collinear points;
    collinear geometry raises GeometryError via the range solver.
    """
    if len(bs_measurements) < 2:
        raise ValueError("need at least 2 BS range measurements")
    if irs_distance_m < 0:
        raise ValueError("irs_distance_m must be nonnegative")
    ids = [m.anchor_id for m in bs_measurements]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate anchor_id in measurements")
    missing = [i for i in ids if i not in bs_positions]
    if missing:
        raise ValueError(f"no position known for anchors: {missing}")

    anchors_xy = np.array(
        [[bs_positions[i].x, bs_positions[i].y] for i in ids] + [[irs_pos.x, irs_pos.y]]
    )
    distances = np.array([m.distance_m for m in bs_measurements] + [irs_distance_m])
    return solve_ranges(anchors_xy, distances)
