"""Heterogeneous-anchor ranging: recover target-IRS distances from path lengths.

A BS measures two round trips for a target: the direct echo
BS -> target -> BS (length 2*L1) and the composite echo
BS -> target -> IRS -> BS (length L1 + L2 + L3). With the BS-IRS baseline
L3 known from geometry, the target-IRS distance follows as
L2 = composite - L1 - L3, which turns the passive IRS into a usable
ranging anchor for trilateration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InconsistentMeasurementError
from .localization import PositionEstimate, RangeMeasurement, trilaterate
from .scene import Point2, true_distance

NEGATIVE_L2_TOL_M = 1e-6

# The IRS's anchor id in the range problem it shares with the BSs.
IRS_ANCHOR_ID = "irs"


@dataclass(frozen=True)
class IrsPathMeasurement:
    """Round-trip path lengths observed by one BS for one target."""

    bs_id: str
    irs_id: str
    direct_roundtrip_m: float    # BS -> target -> BS, equals 2*L1
    composite_roundtrip_m: float  # BS -> target -> IRS -> BS, equals L1+L2+L3

    def __post_init__(self):
        if not all(0.0 <= v < math.inf
                   for v in (self.direct_roundtrip_m, self.composite_roundtrip_m)):
            raise ValueError("round-trip lengths must be finite and nonnegative")
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

    This is ``trilaterate``, and refuses what it refuses, with the IRS as one
    more anchor after the BSs, keyed IRS_ANCHOR_ID, which no BS id may
    equal. ``bs_positions`` may hold BSs that were not measured.
    """
    ids = [m.anchor_id for m in bs_measurements]
    if IRS_ANCHOR_ID in ids:
        raise ValueError(f"BS id {IRS_ANCHOR_ID!r} is the IRS's anchor id")
    missing = [i for i in ids if i not in bs_positions]
    if missing:
        raise ValueError(f"no position known for anchors: {missing}")
    anchors = {**{i: bs_positions[i] for i in ids}, IRS_ANCHOR_ID: irs_pos}
    return trilaterate(anchors, [*bs_measurements, RangeMeasurement(IRS_ANCHOR_ID, irs_distance_m)])
