import math

import numpy as np
import pytest

from netsense.errors import GeometryError, InconsistentMeasurementError
from netsense.irs import (
    IRS_ANCHOR_ID,
    IrsPathMeasurement,
    irs_target_distance,
    localize_with_heterogeneous_anchors,
    synthesize_path_measurement,
)
from netsense.localization import RangeMeasurement, solve_ranges
from netsense.scene import Point2, true_distance


class TestIrsTargetDistance:
    def test_three_four_five_geometry(self):
        # BS (0,0), IRS (4,0), target (0,3): direct 6, composite 12, L2 = 5.
        m = IrsPathMeasurement("bs", "irs", direct_roundtrip_m=6.0, composite_roundtrip_m=12.0)
        assert irs_target_distance(m, Point2(0, 0), Point2(4, 0)) == pytest.approx(5.0, abs=1e-12)

    def test_target_collocated_with_irs(self):
        bs, irs_pos = Point2(0, 0), Point2(4, 0)
        m = synthesize_path_measurement(bs, irs_pos, irs_pos)
        assert irs_target_distance(m, bs, irs_pos) == pytest.approx(0.0, abs=1e-12)

    def test_generate_and_recover_100_placements(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            bs = Point2(*rng.uniform(-100, 100, 2))
            irs_pos = Point2(*rng.uniform(-100, 100, 2))
            target = Point2(*rng.uniform(-100, 100, 2))
            if true_distance(bs, irs_pos) < 1e-6:
                continue
            m = synthesize_path_measurement(bs, irs_pos, target)
            got = irs_target_distance(m, bs, irs_pos)
            assert abs(got - true_distance(target, irs_pos)) < 1e-9

    def test_inconsistent_paths_rejected(self):
        m = IrsPathMeasurement("bs", "irs", direct_roundtrip_m=6.0, composite_roundtrip_m=6.0)
        # L1 + L3 = 3 + 4 = 7 > 6: subtraction would go 1 m negative.
        with pytest.raises(InconsistentMeasurementError):
            irs_target_distance(m, Point2(0, 0), Point2(4, 0))

    def test_tiny_negative_clamped_to_zero(self):
        l1, l3 = 3.0, 4.0
        m = IrsPathMeasurement("bs", "irs", 2 * l1, l1 + l3 - 1e-8)
        assert irs_target_distance(m, Point2(0, 0), Point2(4, 0)) == 0.0

    def test_invariant_composite_vs_direct(self):
        with pytest.raises(ValueError):
            IrsPathMeasurement("bs", "irs", direct_roundtrip_m=10.0, composite_roundtrip_m=4.0)
        with pytest.raises(ValueError):
            IrsPathMeasurement("bs", "irs", direct_roundtrip_m=-1.0, composite_roundtrip_m=4.0)

    @pytest.mark.parametrize("direct, composite", [
        (math.nan, 12.0), (6.0, math.nan), (6.0, math.inf), (math.inf, math.inf),
    ])
    def test_non_finite_round_trip_rejected(self, direct, composite):
        with pytest.raises(ValueError, match="finite"):
            IrsPathMeasurement("bs", "irs", direct, composite)

    def test_coincident_bs_irs_rejected(self):
        m = IrsPathMeasurement("bs", "irs", 6.0, 12.0)
        with pytest.raises(ValueError):
            irs_target_distance(m, Point2(1, 1), Point2(1, 1))


def _fig5_setup(target=Point2(3.0, 2.0)):
    bs = {"bs1": Point2(0.0, 0.0), "bs2": Point2(8.0, 0.0)}
    irs_pos = Point2(4.0, 6.0)
    return bs, irs_pos, target


class TestHeterogeneousLocalization:
    def test_two_bs_plus_irs_recovers_target(self):
        bs, irs_pos, target = _fig5_setup()
        measurements = [
            RangeMeasurement(i, true_distance(p, target)) for i, p in bs.items()
        ]
        m = synthesize_path_measurement(bs["bs1"], irs_pos, target, bs_id="bs1")
        irs_distance = irs_target_distance(m, bs["bs1"], irs_pos)
        est = localize_with_heterogeneous_anchors(bs, measurements, irs_pos, irs_distance)
        assert math.hypot(est.position.x - target.x, est.position.y - target.y) < 1e-6

    def test_end_to_end_100_random_scenes(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            b1 = Point2(*rng.uniform(-50, 50, 2))
            b2 = Point2(*rng.uniform(-50, 50, 2))
            irs_pos = Point2(*rng.uniform(-50, 50, 2))
            target = Point2(*rng.uniform(-50, 50, 2))
            area = abs((b2.x - b1.x) * (irs_pos.y - b1.y) - (irs_pos.x - b1.x) * (b2.y - b1.y))
            if area < 1.0:
                continue
            bs = {"bs1": b1, "bs2": b2}
            measurements = [RangeMeasurement(i, true_distance(p, target)) for i, p in bs.items()]
            m = synthesize_path_measurement(b1, irs_pos, target, bs_id="bs1")
            irs_distance = irs_target_distance(m, b1, irs_pos)
            est = localize_with_heterogeneous_anchors(bs, measurements, irs_pos, irs_distance)
            assert math.hypot(est.position.x - target.x, est.position.y - target.y) < 1e-6

    def test_collinear_anchor_set_rejected(self):
        bs = {"bs1": Point2(0, 0), "bs2": Point2(8, 0)}
        measurements = [RangeMeasurement(i, 5.0) for i in bs]
        with pytest.raises(GeometryError):
            localize_with_heterogeneous_anchors(bs, measurements, Point2(4, 0), 3.0)

    def test_requires_two_bs_measurements(self):
        bs = {"bs1": Point2(0, 0)}
        with pytest.raises(ValueError):
            localize_with_heterogeneous_anchors(
                bs, [RangeMeasurement("bs1", 5.0)], Point2(4, 6), 3.0
            )

    def test_is_trilateration_with_the_irs_as_last_anchor(self):
        bs, irs_pos, target = _fig5_setup()
        measurements = [RangeMeasurement(i, true_distance(p, target) + 0.1)
                        for i, p in reversed(bs.items())]
        est = localize_with_heterogeneous_anchors(bs, measurements, irs_pos, 4.2)
        anchors_xy = np.array([[8.0, 0.0], [0.0, 0.0], [4.0, 6.0]])
        distances = [m.distance_m for m in measurements] + [4.2]
        assert est == solve_ranges(anchors_xy, distances)

    @pytest.mark.parametrize("ids, irs_distance, message", [
        (["bs1", "bs2"], math.nan, "irs: distance_m must be finite"),
        (["bs1", "bs2"], math.inf, "irs: distance_m must be finite"),
        (["bs1", "bs2"], -1.0, "distance_m must be nonnegative"),
        (["bs1", "bs2", "bs1"], 3.0, "duplicate anchor_id in measurements"),
        (["bs1", "bs9"], 3.0, r"no position known for anchors: \['bs9'\]"),
        (["bs1", IRS_ANCHOR_ID], 3.0, f"BS id '{IRS_ANCHOR_ID}' is the IRS's anchor id"),
    ])
    def test_refusals(self, ids, irs_distance, message):
        bs = {"bs1": Point2(0, 0), "bs2": Point2(8, 0), IRS_ANCHOR_ID: Point2(8, 8)}
        measurements = [RangeMeasurement(i, 5.0) for i in ids]
        with pytest.raises(ValueError, match=message):
            localize_with_heterogeneous_anchors(bs, measurements, Point2(4, 6), irs_distance)

    def test_noisy_paths_median_error_below_1m(self):
        bs, irs_pos, target = _fig5_setup()
        rng = np.random.default_rng(123)
        sigma = 0.1
        errors = []
        for _ in range(200):
            measurements = []
            for i, p in bs.items():
                noisy_direct = 2 * true_distance(p, target) + rng.normal(0, sigma)
                measurements.append(RangeMeasurement(i, max(noisy_direct / 2, 0.0)))
            m = synthesize_path_measurement(bs["bs1"], irs_pos, target, bs_id="bs1")
            noisy = IrsPathMeasurement(
                "bs1", "irs",
                max(m.direct_roundtrip_m + rng.normal(0, sigma), 0.0),
                m.composite_roundtrip_m + rng.normal(0, sigma),
            )
            irs_distance = irs_target_distance(noisy, bs["bs1"], irs_pos)
            est = localize_with_heterogeneous_anchors(bs, measurements, irs_pos, irs_distance)
            errors.append(math.hypot(est.position.x - target.x, est.position.y - target.y))
        assert np.median(errors) < 1.0

    def test_error_propagation_variance(self):
        # L2 = composite - direct/2 - const, so var(L2) = var_c + var_d / 4.
        bs, irs_pos, target = _fig5_setup()
        m = synthesize_path_measurement(bs["bs1"], irs_pos, target, bs_id="bs1")
        rng = np.random.default_rng(5)
        sigma_c, sigma_d = 0.2, 0.3
        n = 10_000
        composites = m.composite_roundtrip_m + rng.normal(0, sigma_c, n)
        directs = m.direct_roundtrip_m + rng.normal(0, sigma_d, n)
        l3 = true_distance(bs["bs1"], irs_pos)
        l2 = composites - directs / 2.0 - l3
        expected_var = sigma_c ** 2 + sigma_d ** 2 / 4.0
        assert np.var(l2) == pytest.approx(expected_var, rel=0.2)
