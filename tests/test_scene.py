import json
import math

import numpy as np
import pytest

from netsense import scene
from netsense.errors import SceneGenerationError
from netsense.scene import (
    Anchor,
    AnchorKind,
    Bounds,
    Point2,
    Scene,
    Target,
    load_scene,
    points_are_collinear,
    random_scene,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    true_distance,
    validate_scene,
)

BOUNDS = Bounds(-150.0, -150.0, 150.0, 150.0)


def _scene(bs_xy, target_xy, bounds=Bounds(-10, -10, 10, 10)):
    anchors = tuple(
        Anchor(f"bs{i+1}", AnchorKind.BS, Point2(x, y)) for i, (x, y) in enumerate(bs_xy)
    )
    targets = tuple(
        Target(f"t{i+1}", Point2(x, y)) for i, (x, y) in enumerate(target_xy)
    )
    return Scene(anchors=anchors, targets=targets, bounds=bounds)


class TestTrueDistance:
    def test_identity(self):
        assert true_distance(Point2(0, 0), Point2(0, 0)) == 0.0

    def test_worked_example_distances(self):
        # BS at (-3.5, 0) / (5, 0) against target (3, 3) resp. (-3, -3).
        assert true_distance(Point2(-3.5, 0), Point2(3, 3)) == pytest.approx(math.sqrt(51.25), rel=1e-15)
        assert true_distance(Point2(5, 0), Point2(-3, -3)) == pytest.approx(math.sqrt(73), rel=1e-15)

    def test_symmetric_and_triangle_inequality(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a, b, c = (Point2(*rng.uniform(-100, 100, 2)) for _ in range(3))
            assert true_distance(a, b) == true_distance(b, a)
            assert true_distance(a, c) <= true_distance(a, b) + true_distance(b, c) + 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point2(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Point2(0.0, float("inf"))


class TestValidateScene:
    def test_worked_example_layout_is_valid(self):
        scene = _scene([(-3.5, 0), (5, 0), (0, -4.5)], [(3, 3), (-3, -3)])
        assert validate_scene(scene).ok

    def test_exactly_collinear_triple_flagged(self):
        scene = _scene([(0, 0), (1, 0), (2, 0)], [])
        report = validate_scene(scene)
        assert not report.ok
        assert any("collinear" in v for v in report.violations)

    def test_duplicate_target_id_flagged(self):
        scene = Scene(
            anchors=_scene([(-3.5, 0), (5, 0), (0, -4.5)], []).anchors,
            targets=(Target("t1", Point2(1, 1)), Target("t1", Point2(2, 2))),
            bounds=Bounds(-10, -10, 10, 10),
        )
        assert any("duplicate target id" in v for v in validate_scene(scene).violations)

    def test_duplicate_anchor_id_flagged(self):
        scene = Scene(
            anchors=(
                Anchor("bs1", AnchorKind.BS, Point2(0, 0)),
                Anchor("bs1", AnchorKind.BS, Point2(1, 2)),
                Anchor("bs3", AnchorKind.BS, Point2(2, 1)),
            ),
            targets=(),
            bounds=Bounds(-10, -10, 10, 10),
        )
        assert any("duplicate anchor id" in v for v in validate_scene(scene).violations)

    def test_out_of_bounds_target_flagged(self):
        scene = _scene([(-3.5, 0), (5, 0), (0, -4.5)], [(99, 99)])
        assert any("outside bounds" in v for v in validate_scene(scene).violations)

    def test_two_bs_scene_with_irs_is_valid(self, scenes_dir):
        # A heterogeneous-anchor layout has no BS triple to check.
        assert validate_scene(load_scene(scenes_dir / "fig5.json")).ok


class TestPointsAreCollinear:
    @pytest.mark.parametrize("points, expected", [
        ([], True),
        ([(0.0, 0.0), (1.0, 1.0)], True),
        ([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (-5.0, -5.0)], True),
        ([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.0, 1.0)], False),  # only the last point spans
        ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], False),
    ])
    def test_answers(self, points, expected):
        assert points_are_collinear(np.array(points, float)) == expected

    def test_stops_at_the_first_spanning_triple(self, monkeypatch):
        points = random_scene(12, 0, BOUNDS, seed=1).bs_positions()  # no collinear triple
        calls = []

        def counted(a, b):
            calls.append(1)
            return math.hypot(a.x - b.x, a.y - b.y)

        monkeypatch.setattr(scene, "true_distance", counted)
        assert not points_are_collinear(points)
        assert len(calls) == 3  # one triangle's three sides, not all 220 triangles'


class TestRandomScene:
    def test_deterministic_for_seed(self):
        a = random_scene(3, 2, BOUNDS, seed=7)
        b = random_scene(3, 2, BOUNDS, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        assert random_scene(3, 2, BOUNDS, seed=1) != random_scene(3, 2, BOUNDS, seed=2)

    def test_zero_targets(self):
        scene = random_scene(3, 0, BOUNDS, seed=0)
        assert scene.targets == ()

    def test_requires_three_bs(self):
        with pytest.raises(ValueError):
            random_scene(2, 1, BOUNDS, seed=0)

    def test_thousand_draws_all_validate(self):
        for seed in range(1000):
            scene = random_scene(3, 2, BOUNDS, seed=seed)
            assert validate_scene(scene).ok, f"seed {seed}"

    def test_rejection_limit_raises(self):
        # An absurd tolerance rejects every layout.
        with pytest.raises(SceneGenerationError):
            random_scene(3, 1, BOUNDS, seed=0, collinearity_tol=10.0, max_attempts=25)


class TestBounds:
    @pytest.mark.parametrize("xy", [(0.0, 0.0, 0.0, 1.0), (0.0, 0.0, math.inf, 1.0),
                                    (-1.7e308, 0.0, 1.7e308, 1.0), (0.0, math.nan, 1.0, 1.0)])
    def test_rejects_empty_or_unbounded_extent(self, xy):
        with pytest.raises(ValueError, match="positive, finite extent"):
            Bounds(*xy)


class TestTarget:
    @pytest.mark.parametrize("rcs", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rcs(self, rcs):
        with pytest.raises(ValueError, match="rcs_dbsm must be finite"):
            Target("t1", Point2(0.0, 0.0), rcs)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        scene = random_scene(4, 3, BOUNDS, seed=123)
        assert scene_from_dict(scene_to_dict(scene)) == scene

    def test_file_round_trip_bit_exact(self, tmp_path):
        scene = random_scene(3, 2, BOUNDS, seed=55)
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        assert load_scene(path) == scene

    def test_awkward_floats_survive(self, tmp_path):
        scene = _scene([(0.1 + 0.2, 1e-17), (5, 0), (0, -4.5)], [(1 / 3, 2 / 7)])
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        assert load_scene(path) == scene

    def test_schema_shape(self, scenes_dir):
        data = json.loads((scenes_dir / "example1.json").read_text())
        assert set(data) == {"bounds", "anchors", "targets"}
        assert data["bounds"] == [-6.0, -6.0, 6.0, 6.0]
        assert all(set(a) == {"id", "kind", "x", "y"} for a in data["anchors"])
        assert all(set(t) == {"id", "x", "y", "rcs_dbsm"} for t in data["targets"])

    def test_bad_entry_without_id_named_by_position(self):
        data = scene_to_dict(_scene([(0, 0), (5, 0), (0, 5)], [(1, 1)]))
        del data["targets"][0]["id"]
        with pytest.raises(ValueError, match="target #1: missing key 'id'"):
            scene_from_dict(data)

    @pytest.mark.parametrize("kind, field", [("anchor", "anchors"), ("target", "targets")])
    def test_repeated_id_refused(self, kind, field):
        data = scene_to_dict(_scene([(0, 0), (5, 0), (0, 5)], [(1, 1), (2, 1)]))
        data[field][1]["id"] = data[field][0]["id"]
        with pytest.raises(ValueError, match=f"duplicate {kind} id: {data[field][0]['id']}"):
            scene_from_dict(data)


def _two_draw_layout(num_bs, num_targets, bounds, seed, tol):
    """Reference draw: BS layouts from one generator until one has no collinear
    triple within ``tol``, then the targets from the same generator."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array([bounds.xmin, bounds.ymin]), np.array([bounds.xmax, bounds.ymax])
    while True:
        bs_xy = rng.uniform(lo, hi, size=(num_bs, 2))
        if next(scene.collinear_triples(bs_xy, tol), None) is None:
            return bs_xy, rng.uniform(lo, hi, size=(num_targets, 2))


def _hex(xy):
    return [[v.hex() for v in row] for row in np.asarray(xy).tolist()]


class TestDrawLayout:
    @pytest.mark.parametrize("num_bs, num_targets, seeds",
                             [(3, 2, 2000), (4, 3, 200), (6, 8, 200), (12, 2, 200), (3, 0, 200)])
    def test_equals_the_two_draw_loop_and_random_scene(self, num_bs, num_targets, seeds):
        for seed in range(seeds):
            bs_xy, target_xy = scene._draw_layout(num_bs, num_targets, BOUNDS, seed)
            ref_bs, ref_targets = _two_draw_layout(num_bs, num_targets, BOUNDS, seed, 1e-9)
            assert (_hex(bs_xy), _hex(target_xy)) == (_hex(ref_bs), _hex(ref_targets)), seed
            drawn = random_scene(num_bs, num_targets, BOUNDS, seed=seed)
            assert _hex(drawn.bs_positions()) == _hex(bs_xy)
            assert _hex(drawn.target_positions().reshape(-1, 2)) == _hex(target_xy)

    def test_rejected_first_layouts_are_redrawn(self):
        # At this tolerance about a fifth of first layouts have a collinear
        # triple, so the draw goes on to later layouts of the same generator.
        tol, rejected = 0.05, 0
        for seed in range(2000):
            first = np.random.default_rng(seed).uniform(-150.0, 150.0, size=(3, 2))
            rejected += next(scene.collinear_triples(first, tol), None) is not None
            bs_xy, target_xy = scene._draw_layout(3, 2, BOUNDS, seed, collinearity_tol=tol)
            ref_bs, ref_targets = _two_draw_layout(3, 2, BOUNDS, seed, tol)
            assert (_hex(bs_xy), _hex(target_xy)) == (_hex(ref_bs), _hex(ref_targets)), seed
            drawn = random_scene(3, 2, BOUNDS, seed=seed, collinearity_tol=tol)
            assert _hex(drawn.bs_positions()) == _hex(bs_xy)
        assert rejected >= 200

    def test_refusals(self):
        with pytest.raises(ValueError, match="num_targets must be nonnegative"):
            scene._draw_layout(3, -1, BOUNDS, 0)
        # No attempt allowed: the first layout is not taken either.
        with pytest.raises(SceneGenerationError):
            scene._draw_layout(3, 1, BOUNDS, 0, max_attempts=0)
