import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netsense import localization
from netsense.errors import BehindRayError, GeometryError, NoIntersectionError
from netsense.localization import (
    PositionEstimate,
    RangeMeasurement,
    circle_intersections,
    range_jacobian,
    range_residuals,
    solve_ranges,
    solve_ranges_batch,
    triangulate,
    trilaterate,
)
from netsense.scene import Point2, points_are_collinear

EXAMPLE_BS = {
    "bs1": Point2(-3.5, 0.0),
    "bs2": Point2(5.0, 0.0),
    "bs3": Point2(0.0, -4.5),
}
EXAMPLE_BS_XY = np.array([[-3.5, 0.0], [5.0, 0.0], [0.0, -4.5]])


class TestCircleIntersections:
    def test_tangent_circles_single_point(self):
        pts = circle_intersections(Point2(0, 0), 1.0, Point2(2, 0), 1.0)
        assert len(pts) == 1
        assert pts[0] == Point2(1.0, 0.0)

    def test_three_four_five(self):
        pts = circle_intersections(Point2(0, 0), 5.0, Point2(6, 0), 5.0)
        got = np.array(sorted((p.x, p.y) for p in pts))
        assert np.allclose(got, [[3.0, -4.0], [3.0, 4.0]], atol=1e-12)

    def test_disjoint_circles_empty(self):
        assert circle_intersections(Point2(0, 0), 1.0, Point2(10, 0), 1.0) == ()

    def test_nested_circles_empty(self):
        assert circle_intersections(Point2(0, 0), 5.0, Point2(1, 0), 1.0) == ()

    def test_coincident_centers_rejected(self):
        with pytest.raises(GeometryError):
            circle_intersections(Point2(1, 1), 2.0, Point2(1, 1), 3.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            circle_intersections(Point2(0, 0), -1.0, Point2(1, 0), 1.0)

    def test_points_satisfy_both_circle_equations(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            c1 = Point2(*rng.uniform(-50, 50, 2))
            c2 = Point2(*rng.uniform(-50, 50, 2))
            if c1 == c2:
                continue
            r1, r2 = rng.uniform(0.1, 80, 2)
            for p in circle_intersections(c1, float(r1), c2, float(r2)):
                tol = 1e-9 * max(r1, r2)
                assert abs(math.hypot(p.x - c1.x, p.y - c1.y) - r1) <= tol
                assert abs(math.hypot(p.x - c2.x, p.y - c2.y) - r2) <= tol


class TestTrilaterate:
    def test_worked_example_target_one(self):
        measurements = [
            RangeMeasurement("bs1", math.sqrt(51.25)),
            RangeMeasurement("bs2", math.sqrt(13.0)),
            RangeMeasurement("bs3", math.sqrt(65.25)),
        ]
        est = trilaterate(EXAMPLE_BS, measurements)
        assert est.converged
        assert est.residual_rms_m < 1e-6
        assert math.hypot(est.position.x - 3.0, est.position.y - 3.0) < 1e-6

    def test_worked_example_target_two(self):
        measurements = [
            RangeMeasurement("bs1", math.sqrt(9.25)),
            RangeMeasurement("bs2", math.sqrt(73.0)),
            RangeMeasurement("bs3", math.sqrt(11.25)),
        ]
        est = trilaterate(EXAMPLE_BS, measurements)
        assert math.hypot(est.position.x + 3.0, est.position.y + 3.0) < 1e-6

    def test_zero_distance_recovers_anchor(self):
        anchors = EXAMPLE_BS
        target = anchors["bs2"]
        measurements = [
            RangeMeasurement(i, math.hypot(target.x - p.x, target.y - p.y))
            for i, p in anchors.items()
        ]
        est = trilaterate(anchors, measurements)
        assert math.hypot(est.position.x - target.x, est.position.y - target.y) < 1e-9

    def test_generate_and_recover_100_random_targets(self):
        rng = np.random.default_rng(17)
        anchors_xy = rng.uniform(-100, 100, (4, 2))
        targets = rng.uniform(-100, 100, (100, 2))
        distances = np.linalg.norm(targets[:, None, :] - anchors_xy[None, :, :], axis=2)
        positions, rms, converged, _ = solve_ranges_batch(anchors_xy, distances)
        assert converged.all()
        assert np.linalg.norm(positions - targets, axis=1).max() < 1e-6
        assert rms.max() < 1e-6

    def test_collinear_anchors_rejected(self):
        anchors = {
            "a": Point2(0, 0), "b": Point2(1, 0), "c": Point2(2, 0),
        }
        measurements = [RangeMeasurement(i, 1.0) for i in anchors]
        with pytest.raises(GeometryError):
            trilaterate(anchors, measurements)

    def test_inconsistent_ranges_fall_back_never_error(self):
        # All-tiny distances fit no point: Gauss-Newton stops at its best.
        measurements = [RangeMeasurement(i, 0.001) for i in EXAMPLE_BS]
        est = trilaterate(EXAMPLE_BS, measurements)
        assert isinstance(est, PositionEstimate)
        assert est.iterations <= 50

    def test_measurement_anchor_mismatch_rejected(self):
        measurements = [
            RangeMeasurement("bs1", 1.0),
            RangeMeasurement("bs2", 1.0),
            RangeMeasurement("nope", 1.0),
        ]
        with pytest.raises(ValueError):
            trilaterate(EXAMPLE_BS, measurements)

    def test_duplicate_measurement_rejected(self):
        measurements = [
            RangeMeasurement("bs1", 1.0),
            RangeMeasurement("bs1", 2.0),
            RangeMeasurement("bs2", 1.0),
        ]
        with pytest.raises(ValueError):
            trilaterate(EXAMPLE_BS, measurements)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            RangeMeasurement("bs1", -1.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        targets = rng.uniform(-50, 50, (20, 2))
        distances = np.linalg.norm(targets[:, None, :] - EXAMPLE_BS_XY[None, :, :], axis=2)
        positions, rms, _, _ = solve_ranges_batch(EXAMPLE_BS_XY, distances)
        for i in range(len(targets)):
            single = solve_ranges(EXAMPLE_BS_XY, distances[i])
            assert single.position.x == positions[i, 0]
            assert single.position.y == positions[i, 1]
            assert single.residual_rms_m == rms[i]


class TestKernel:
    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 6))
    def test_exact_ranges_recovered(self, seed, m):
        rng = np.random.default_rng(seed)
        anchors_xy = rng.uniform(-100, 100, (m, 2))
        assume(not points_are_collinear(anchors_xy))
        target = rng.uniform(-300, 300, 2)
        distances = np.hypot(*(target - anchors_xy).T)
        positions, rms, converged, _ = solve_ranges_batch(anchors_xy, distances)
        assert np.hypot(*(positions[0] - target)) <= 1e-6
        assert rms[0] <= 1e-6
        assert converged[0]

    def test_rows_end_no_worse_than_their_start(self):
        rng = np.random.default_rng(12)
        anchors_xy = rng.uniform(-100, 100, (500, 3, 2))
        distances = rng.uniform(0.0, 250.0, (500, 3))
        centre, scale, local = localization._frame(anchors_xy)
        ranges = distances / scale[:, None]
        start = centre + scale[:, None] * localization._linear_start(local, ranges)
        start_rms = [np.sqrt(np.mean(range_residuals(p, a, d) ** 2))
                     for p, a, d in zip(start, anchors_xy, distances)]
        _, rms, _, _ = solve_ranges_batch(anchors_xy, distances)
        assert (rms <= np.array(start_rms) * (1 + 1e-12)).all()

    @pytest.mark.parametrize("spread", [1e-300, 1e-150, 1e-50, 1.0, 1e50, 1e100, 1e150])
    def test_finite_at_any_anchor_spread(self, spread):
        anchors_xy = spread * EXAMPLE_BS_XY / 5.0
        targets = spread * np.array([[0.6, 0.6], [-0.6, -0.6], [3.0, -7.0]])
        exact = np.hypot(*(targets[:, None, :] - anchors_xy).transpose(2, 0, 1))
        inconsistent = spread * np.random.default_rng(4).uniform(0.0, 3.0, (20, 3))
        positions, rms, _, _ = solve_ranges_batch(anchors_xy, np.concatenate([exact, inconsistent]))
        assert np.isfinite(positions).all()
        assert np.isfinite(rms).all()
        errors = np.hypot(*(positions[:len(targets)] - targets).T)
        assert (errors <= 1e-9 * spread).all()


class TestJacobian:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(5)
        anchors_xy = rng.uniform(-100, 100, (4, 2))
        step = 1e-6
        for _ in range(100):
            p = rng.uniform(-100, 100, 2)
            if np.linalg.norm(p - anchors_xy, axis=1).min() < 1.0:
                continue
            d = np.zeros(len(anchors_xy))
            analytic = range_jacobian(p, anchors_xy)
            fd = np.empty_like(analytic)
            for axis in range(2):
                ep = np.zeros(2)
                ep[axis] = step
                fd[:, axis] = (
                    range_residuals(p + ep, anchors_xy, d)
                    - range_residuals(p - ep, anchors_xy, d)
                ) / (2 * step)
            assert np.abs(analytic - fd).max() / np.abs(fd).max() < 1e-5


class TestNoiseConsistency:
    def test_median_error_grows_with_sigma(self):
        rng = np.random.default_rng(31)
        anchors_xy = rng.uniform(-100, 100, (3, 2))
        while np.linalg.matrix_rank(anchors_xy - anchors_xy.mean(0)) < 2:
            anchors_xy = rng.uniform(-100, 100, (3, 2))
        targets = rng.uniform(-100, 100, (1000, 2))
        exact = np.linalg.norm(targets[:, None, :] - anchors_xy[None, :, :], axis=2)
        noise = rng.normal(0.0, 1.0, exact.shape)
        medians = []
        for sigma in (0.01, 0.1, 1.0):
            noisy = np.maximum(exact + sigma * noise, 0.0)
            positions, _, _, _ = solve_ranges_batch(anchors_xy, noisy)
            medians.append(np.median(np.linalg.norm(positions - targets, axis=1)))
        assert medians[0] < medians[1] < medians[2]


class TestTriangulate:
    def test_symmetric_wedge(self):
        p = triangulate(Point2(0, 0), math.radians(45), Point2(2, 0), math.radians(135))
        assert p.x == pytest.approx(1.0, abs=1e-12)
        assert p.y == pytest.approx(1.0, abs=1e-12)

    def test_parallel_rays_rejected(self):
        with pytest.raises(NoIntersectionError):
            triangulate(Point2(0, 0), 0.0, Point2(0, 2), 0.0)

    def test_antiparallel_rays_rejected(self):
        with pytest.raises(NoIntersectionError):
            triangulate(Point2(0, 0), 0.0, Point2(0, 2), math.pi)

    def test_behind_ray_rejected(self):
        # Lines meet at (2, 0), behind the first ray pointing along -x.
        with pytest.raises(BehindRayError):
            triangulate(Point2(0, 0), math.pi, Point2(2, 1), -math.pi / 2)

    def test_coincident_anchors_rejected(self):
        with pytest.raises(ValueError):
            triangulate(Point2(1, 1), 0.0, Point2(1, 1), 1.0)

    def test_generate_and_recover(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a1 = Point2(*rng.uniform(-100, 100, 2))
            a2 = Point2(*rng.uniform(-100, 100, 2))
            t = Point2(*rng.uniform(-100, 100, 2))
            b1 = math.atan2(t.y - a1.y, t.x - a1.x)
            b2 = math.atan2(t.y - a2.y, t.x - a2.x)
            if abs(math.sin(b1 - b2)) < 1e-6:
                continue
            p = triangulate(a1, b1, a2, b2)
            assert math.hypot(p.x - t.x, p.y - t.y) < 1e-9


def subproblem_rows(anchors_xy, targets_xy, noise=0.0, rng=None):
    """All K^M anchor-wise index combinations of the exact (or noisy) ranges."""
    m, k = len(anchors_xy), len(targets_xy)
    d = np.linalg.norm(anchors_xy[:, None, :] - targets_xy[None, :, :], axis=2)  # (M, K)
    if noise:
        d = np.abs(d + rng.normal(0.0, noise, d.shape))
    combos = np.indices((k,) * m).reshape(m, -1).T
    return d[np.arange(m), combos]


class TestPerRowAnchors:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_stacked_solve_bitwise_equals_separate_calls(self, m):
        rng = np.random.default_rng(40 + m)
        problems = []
        for i in range(10):
            anchors = rng.uniform(-100, 100, (m, 2))
            targets = rng.uniform(-150, 150, (int(rng.integers(1, 4)), 2))
            noise = (0.0, 0.1, 5.0)[i % 3]
            problems.append((anchors, subproblem_rows(anchors, targets, noise, rng)))
        separate = [solve_ranges_batch(a, d) for a, d in problems]
        stacked = solve_ranges_batch(
            np.concatenate([np.broadcast_to(a, (len(d),) + a.shape) for a, d in problems]),
            np.concatenate([d for _, d in problems]),
        )
        for got, parts in zip(stacked, zip(*separate)):
            want = np.concatenate(parts)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_shared_anchor_form_matches_per_row_form(self):
        rng = np.random.default_rng(3)
        distances = rng.uniform(0.0, 12.0, (50, 3))
        shared = solve_ranges_batch(EXAMPLE_BS_XY, distances)
        per_row = solve_ranges_batch(np.broadcast_to(EXAMPLE_BS_XY, (50, 3, 2)), distances)
        for a, b in zip(shared, per_row):
            assert np.array_equal(a, b)

    def test_collinear_row_rejected(self):
        anchors = np.stack([EXAMPLE_BS_XY, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
        with pytest.raises(GeometryError, match="row 1"):
            solve_ranges_batch(anchors, np.ones((2, 3)))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_ranges_batch(np.broadcast_to(EXAMPLE_BS_XY, (2, 3, 2)), np.ones((3, 3)))

    def test_too_few_anchors_rejected(self):
        with pytest.raises(ValueError):
            solve_ranges_batch(np.zeros((4, 2, 2)), np.ones((4, 2)))


class TestNonFiniteRanges:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_range_measurement_rejects(self, bad):
        with pytest.raises(ValueError, match="bs1.*finite"):
            RangeMeasurement("bs1", bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_solve_ranges_batch_rejects(self, bad):
        distances = np.ones((3, 3))
        distances[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_ranges_batch(EXAMPLE_BS_XY, distances)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_trilaterate_rejects(self, bad):
        # A measurement-like object that never went through RangeMeasurement's check.
        measurements = [RangeMeasurement("bs1", 1.0), RangeMeasurement("bs2", 1.0),
                        SimpleNamespace(anchor_id="bs3", distance_m=bad)]
        with pytest.raises(ValueError, match="finite"):
            trilaterate(EXAMPLE_BS, measurements)
