import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsense import association
from netsense.association import (
    DistanceProfile,
    SubproblemBatch,
    build_ghost_report,
    enumerate_feasible,
    exact_profiles,
    ghost_probability,
    solve_association,
    solve_association_bnb,
    subproblem_table,
)
from netsense.errors import (
    GeometryError,
    InfeasibleAssociationError,
    UnequalCardinalityError,
)
from netsense.scene import Bounds, Point2, load_scene, random_scene

EXAMPLE_BS_XY = np.array([[-3.5, 0.0], [5.0, 0.0], [0.0, -4.5]])


def example1_profiles():
    return [
        DistanceProfile("bs1", (math.sqrt(51.25), math.sqrt(9.25))),
        DistanceProfile("bs2", (math.sqrt(13.0), math.sqrt(73.0))),
        DistanceProfile("bs3", (math.sqrt(65.25), math.sqrt(11.25))),
    ]


def example2_profiles():
    return [
        DistanceProfile("bs1", (math.sqrt(46.25), math.sqrt(9.25))),
        DistanceProfile("bs2", (math.sqrt(8.0), math.sqrt(73.0))),
        DistanceProfile("bs3", (math.sqrt(51.25), math.sqrt(11.25))),
    ]


def positions_of(solution):
    return sorted((round(e.position.x, 6), round(e.position.y, 6)) for e in solution.estimates)


def profiles_for(anchors_xy, targets_xy):
    d = np.linalg.norm(anchors_xy[:, None, :] - targets_xy[None, :, :], axis=2)
    return [DistanceProfile(f"bs{m+1}", tuple(d[m])) for m in range(len(anchors_xy))]


class TestEnumerateFeasible:
    def test_example1_two_feasible_solutions(self):
        stats = {}
        solutions = enumerate_feasible(example1_profiles(), EXAMPLE_BS_XY, 1e-6, stats=stats)
        assert len(solutions) == 2
        assert stats["hypotheses_examined"] == 4  # (2!)^2
        position_sets = [positions_of(s) for s in solutions]
        assert [(-3.0, -3.0), (3.0, 3.0)] in position_sets
        assert [(-3.0, 3.0), (3.0, -3.0)] in position_sets

    def test_example1_positions_within_tolerance(self):
        solutions = enumerate_feasible(example1_profiles(), EXAMPLE_BS_XY, 1e-6)
        truths = [[(3.0, 3.0), (-3.0, -3.0)], [(3.0, -3.0), (-3.0, 3.0)]]
        for sol in solutions:
            estimates = [(e.position.x, e.position.y) for e in sol.estimates]
            best = min(
                max(
                    min(math.hypot(x - tx, y - ty) for (x, y) in estimates)
                    for (tx, ty) in truth
                )
                for truth in truths
            )
            assert best < 1e-6

    def test_example2_unique_solution(self):
        solutions = enumerate_feasible(example2_profiles(), EXAMPLE_BS_XY, 1e-6)
        assert len(solutions) == 1
        assert positions_of(solutions[0]) == [(-3.0, -3.0), (3.0, 2.0)]

    def test_single_target_single_solution(self):
        profiles = [
            DistanceProfile("bs1", (math.sqrt(51.25),)),
            DistanceProfile("bs2", (math.sqrt(13.0),)),
            DistanceProfile("bs3", (math.sqrt(65.25),)),
        ]
        stats = {}
        solutions = enumerate_feasible(profiles, EXAMPLE_BS_XY, 1e-6, stats=stats)
        assert len(solutions) == 1
        assert stats["hypotheses_examined"] == 1

    def test_sorted_by_max_residual(self):
        solutions = enumerate_feasible(example1_profiles(), EXAMPLE_BS_XY, 1e-3)
        residuals = [s.max_residual_m for s in solutions]
        assert residuals == sorted(residuals)

    @pytest.mark.parametrize("k,m", [(2, 3), (3, 3), (2, 4), (3, 4)])
    def test_hypothesis_count(self, k, m):
        rng = np.random.default_rng(k * 10 + m)
        anchors_xy = rng.uniform(-100, 100, (m, 2))
        targets_xy = rng.uniform(-100, 100, (k, 2))
        stats = {}
        enumerate_feasible(profiles_for(anchors_xy, targets_xy), anchors_xy, 1e-6, stats=stats)
        assert stats["hypotheses_examined"] == math.factorial(k) ** (m - 1)

    def test_ground_truth_always_feasible(self):
        for seed in range(50):
            scene = random_scene(3, 2, Bounds(-150, -150, 150, 150), seed=seed)
            solutions = enumerate_feasible(
                exact_profiles(scene), scene.bs_positions(), 1e-6
            )
            truth = scene.target_positions()
            hit = any(
                all(
                    math.hypot(e.position.x - truth[k][0], e.position.y - truth[k][1]) < 1e-6
                    for k, e in enumerate(sol.estimates)
                )
                for sol in solutions
            )
            assert hit, f"seed {seed}"

    def test_anchor_label_invariance(self):
        # Swapping the order of anchors 2..M must not change reported positions.
        profiles = example1_profiles()
        swapped = [profiles[0], profiles[2], profiles[1]]
        anchors_swapped = EXAMPLE_BS_XY[[0, 2, 1]]
        a = enumerate_feasible(profiles, EXAMPLE_BS_XY, 1e-6)
        b = enumerate_feasible(swapped, anchors_swapped, 1e-6)
        sets_a = sorted(positions_of(s) for s in a)
        sets_b = sorted(positions_of(s) for s in b)
        assert sets_a == sets_b

    def test_cardinality_mismatch_rejected(self):
        profiles = example1_profiles()
        profiles[1] = DistanceProfile("bs2", (math.sqrt(13.0),))
        with pytest.raises(UnequalCardinalityError):
            enumerate_feasible(profiles, EXAMPLE_BS_XY, 1e-6)

    def test_empty_profiles_rejected(self):
        profiles = [DistanceProfile(f"bs{i}", ()) for i in range(3)]
        with pytest.raises(ValueError):
            enumerate_feasible(profiles, EXAMPLE_BS_XY, 1e-6)

    def test_collinear_anchors_rejected(self):
        anchors = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(GeometryError):
            enumerate_feasible(example1_profiles(), anchors, 1e-6)


class TestSolveAssociation:
    def test_example2_returns_unique_correct(self):
        sol = solve_association(example2_profiles(), EXAMPLE_BS_XY, 1e-6)
        assert positions_of(sol) == [(-3.0, -3.0), (3.0, 2.0)]
        assert sol.hypothesis.assignment == ((0, 1), (0, 1), (0, 1))

    def test_example1_tie_breaks_to_identity(self):
        # Both feasible hypotheses sit at numerical-zero residual; the
        # lexicographic tie-break returns the identity (correct) one.
        sol = solve_association(example1_profiles(), EXAMPLE_BS_XY, 1e-6)
        assert sol.hypothesis.assignment == ((0, 1), (0, 1), (0, 1))
        assert positions_of(sol) == [(-3.0, -3.0), (3.0, 3.0)]

    def test_infeasible_carries_best_residual(self):
        profiles = example2_profiles()
        profiles[0] = DistanceProfile("bs1", (math.sqrt(46.25) + 0.5, math.sqrt(9.25)))
        with pytest.raises(InfeasibleAssociationError) as err:
            solve_association(profiles, EXAMPLE_BS_XY, 1e-6)
        assert err.value.best_residual_m > 1e-6

    def test_noisy_example2_mostly_correct(self):
        scene = None
        rng_master = np.random.default_rng(2024)
        anchors_xy = EXAMPLE_BS_XY
        targets_xy = np.array([[3.0, 2.0], [-3.0, -3.0]])
        exact = np.linalg.norm(anchors_xy[:, None, :] - targets_xy[None, :, :], axis=2)
        sigma = 0.05
        tol = 3.0 * sigma * math.sqrt(3)
        hits = 0
        for _ in range(100):
            noisy = exact + rng_master.normal(0.0, sigma, exact.shape)
            profiles = [DistanceProfile(f"bs{m+1}", tuple(noisy[m])) for m in range(3)]
            try:
                sol = solve_association(profiles, anchors_xy, tol)
            except InfeasibleAssociationError:
                continue
            if sol.hypothesis.assignment == ((0, 1), (0, 1), (0, 1)):
                hits += 1
        assert hits >= 95


class TestBranchAndBound:
    def test_matches_oracle_on_examples(self):
        for profiles in (example1_profiles(), example2_profiles()):
            a = solve_association(profiles, EXAMPLE_BS_XY, 1e-6)
            b = solve_association_bnb(profiles, EXAMPLE_BS_XY, 1e-6)
            assert a.hypothesis == b.hypothesis
            for ea, eb in zip(a.estimates, b.estimates):
                assert math.hypot(ea.position.x - eb.position.x,
                                  ea.position.y - eb.position.y) < 1e-9

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(99)
        for trial in range(60):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(3, 6))
            scene = random_scene(m, k, Bounds(-100, -100, 100, 100), seed=int(rng.integers(1 << 31)))
            profiles = exact_profiles(scene)
            anchors = scene.bs_positions()
            a = solve_association(profiles, anchors, 1e-6)
            b = solve_association_bnb(profiles, anchors, 1e-6)
            assert a.hypothesis == b.hypothesis, f"trial {trial} (K={k}, M={m})"
            for ea, eb in zip(a.estimates, b.estimates):
                assert math.hypot(ea.position.x - eb.position.x,
                                  ea.position.y - eb.position.y) < 1e-9

    def test_never_worse_than_oracle_on_noisy_ranges(self):
        # Barely-feasible hypotheses on noisy ranges must be found exactly as
        # the oracle finds them, and infeasibility must match too.
        rng = np.random.default_rng(123)
        for _ in range(40):
            k = int(rng.integers(2, 4))
            m = int(rng.integers(3, 5))
            scene = random_scene(m, k, Bounds(-100, -100, 100, 100),
                                 seed=int(rng.integers(1 << 31)))
            anchors = scene.bs_positions()
            targets = scene.target_positions()
            exact = np.linalg.norm(anchors[:, None, :] - targets[None, :, :], axis=2)
            sigma = 0.05
            noisy = np.maximum(exact + rng.normal(0, sigma, exact.shape), 0.0)
            profiles = [DistanceProfile(f"bs{i+1}", tuple(noisy[i])) for i in range(m)]
            tol = 3.0 * sigma * math.sqrt(m)
            try:
                a = solve_association(profiles, anchors, tol)
            except InfeasibleAssociationError:
                with pytest.raises(InfeasibleAssociationError):
                    solve_association_bnb(profiles, anchors, tol)
                continue
            b = solve_association_bnb(profiles, anchors, tol)
            assert a.hypothesis == b.hypothesis

    def test_infeasible_contract_matches(self):
        profiles = example2_profiles()
        profiles[0] = DistanceProfile("bs1", (math.sqrt(46.25) + 0.5, math.sqrt(9.25)))
        with pytest.raises(InfeasibleAssociationError) as exhaustive_err:
            solve_association(profiles, EXAMPLE_BS_XY, 1e-6)
        with pytest.raises(InfeasibleAssociationError) as bnb_err:
            solve_association_bnb(profiles, EXAMPLE_BS_XY, 1e-6)
        assert bnb_err.value.best_residual_m == pytest.approx(
            exhaustive_err.value.best_residual_m, rel=1e-9
        )


def noisy_problem(seed, k, m, sigma):
    scene = random_scene(m, k, Bounds(-100, -100, 100, 100), seed=seed)
    anchors = scene.bs_positions()
    exact = np.linalg.norm(anchors[:, None, :] - scene.target_positions()[None, :, :], axis=2)
    noisy = np.maximum(exact + np.random.default_rng(seed).normal(0, sigma, exact.shape), 0.0)
    return [DistanceProfile(f"bs{i+1}", tuple(noisy[i])) for i in range(m)], anchors


class TestBranchAndBoundProperty:
    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), m=st.integers(3, 4),
           sigma=st.sampled_from([0.01, 0.1, 1.0]), scale=st.floats(0.9, 1.1))
    def test_equals_exhaustive_near_tolerance(self, seed, k, m, sigma, scale):
        # The tolerance sits within +-10% of the true association's worst
        # slot residual, so the truth is barely feasible or barely not.
        profiles, anchors = noisy_problem(seed, k, m, sigma)
        table = subproblem_table(profiles, anchors)
        truth_rows = [sum(j * k ** (m - 1 - a) for a in range(m)) for j in range(k)]
        tol = scale * float(table.rms[truth_rows].max())
        try:
            expected = solve_association(profiles, anchors, tol)
        except InfeasibleAssociationError as exhaustive_err:
            with pytest.raises(InfeasibleAssociationError) as bnb_err:
                solve_association_bnb(profiles, anchors, tol)
            assert bnb_err.value.best_residual_m == exhaustive_err.best_residual_m
            assert str(bnb_err.value) == str(exhaustive_err)
            return
        assert solve_association_bnb(profiles, anchors, tol) == expected
        assert solve_association_bnb(profiles, anchors, tol, table=table) == expected


class TestSubproblemBatch:
    def test_stacked_tables_equal_single_tables(self):
        problems = [noisy_problem(seed, k, 4, 0.1) for seed, k in ((1, 1), (2, 3), (3, 2), (4, 3))]
        batch = SubproblemBatch()
        for profiles, anchors in problems:
            batch.add(profiles, anchors)
        for table, (profiles, anchors) in zip(batch.solve(), problems):
            single = subproblem_table(profiles, anchors)
            assert (table.k, table.m) == (single.k, single.m)
            for got, want in ((table.positions, single.positions), (table.rms, single.rms),
                              (table.converged, single.converged),
                              (table.iterations, single.iterations)):
                assert np.array_equal(got, want)

    def test_shared_table_gives_same_results(self):
        profiles, anchors = noisy_problem(5, 3, 4, 0.1)
        table = subproblem_table(profiles, anchors)
        assert enumerate_feasible(profiles, anchors, 0.6, table=table) == enumerate_feasible(
            profiles, anchors, 0.6)

    def test_empty_batch_solves_nothing(self):
        assert SubproblemBatch().solve() == []

    def test_validates_each_problem(self):
        batch = SubproblemBatch()
        with pytest.raises(UnequalCardinalityError):
            batch.add([DistanceProfile("a", (1.0,)), DistanceProfile("b", (1.0, 2.0)),
                       DistanceProfile("c", (1.0,))], EXAMPLE_BS_XY)

    def test_mixed_anchor_counts_rejected(self):
        batch = SubproblemBatch()
        batch.add(*noisy_problem(1, 2, 3, 0.0))
        with pytest.raises(ValueError):
            batch.add(*noisy_problem(2, 2, 4, 0.0))


class TestNonFiniteProfiles:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_distance_profile_rejects(self, bad):
        with pytest.raises(ValueError, match="bs2.*finite"):
            DistanceProfile("bs2", (1.0, bad))


class TestGhostReport:
    def test_example1_ghosts_identified(self):
        solutions = enumerate_feasible(example1_profiles(), EXAMPLE_BS_XY, 1e-6)
        truth = [Point2(3.0, 3.0), Point2(-3.0, -3.0)]
        report = build_ghost_report(solutions, ground_truth=truth)
        assert not report.unique
        ghosts = sorted((round(p.x, 6), round(p.y, 6)) for p in report.ghost_positions)
        assert ghosts == [(-3.0, 3.0), (3.0, -3.0)]

    def test_example2_no_ghosts(self):
        solutions = enumerate_feasible(example2_profiles(), EXAMPLE_BS_XY, 1e-6)
        truth = [Point2(3.0, 2.0), Point2(-3.0, -3.0)]
        report = build_ghost_report(solutions, ground_truth=truth)
        assert report.unique
        assert report.ghost_positions == ()

    def test_without_ground_truth_no_ghost_positions(self):
        solutions = enumerate_feasible(example1_profiles(), EXAMPLE_BS_XY, 1e-6)
        report = build_ghost_report(solutions)
        assert report.ghost_positions == ()


class TestGhostProbability:
    def test_example1_geometry_always_ghosted(self, scenes_dir):
        scene = load_scene(scenes_dir / "example1.json")
        result = ghost_probability(1, 3, 2, scene.bounds, 1e-6, seed=0, scene=scene)
        assert result.fraction == 1.0
        assert result.outcomes[0].feasible_count == 2

    def test_single_target_never_ghosted(self):
        result = ghost_probability(20, 3, 1, Bounds(-150, -150, 150, 150), 1e-4, seed=1)
        assert result.fraction == 0.0

    def test_desk_scale_fraction_small(self):
        result = ghost_probability(200, 3, 2, Bounds(-150, -150, 150, 150), 1e-4, seed=7)
        assert result.fraction <= 0.01
        assert len(result.infeasible_seeds) == 0
        assert all(o.correct_found for o in result.outcomes)

    def test_deterministic(self):
        a = ghost_probability(25, 3, 2, Bounds(-150, -150, 150, 150), 1e-4, seed=3)
        b = ghost_probability(25, 3, 2, Bounds(-150, -150, 150, 150), 1e-4, seed=3)
        assert a == b

    def test_validations(self):
        with pytest.raises(ValueError):
            ghost_probability(0, 3, 2, Bounds(-1, -1, 1, 1))
        with pytest.raises(ValueError):
            ghost_probability(1, 2, 2, Bounds(-1, -1, 1, 1))


class TestHypothesisCap:
    SCENE = random_scene(4, 3, Bounds(-150, -150, 150, 150), seed=5)  # K=3, M=4: 216

    def test_sizes_in_use_are_admitted(self):
        assert association.MAX_HYPOTHESES >= math.factorial(4) ** 4  # K=4, M=5

    def test_enumeration_refused_above_cap(self, monkeypatch):
        monkeypatch.setattr(association, "MAX_HYPOTHESES", 215)
        with pytest.raises(ValueError, match=r"K=3 targets at M=4 anchors give 216 "
                                             r"association hypotheses, about 6,912 bytes"):
            enumerate_feasible(exact_profiles(self.SCENE), self.SCENE.bs_positions(), 1e-6)

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(association, "MAX_HYPOTHESES", 216)
        stats = {}
        enumerate_feasible(exact_profiles(self.SCENE), self.SCENE.bs_positions(), 1e-6,
                           stats=stats)
        assert stats["hypotheses_examined"] == 216

    def test_bnb_infeasible_scan_refused_above_cap(self, monkeypatch):
        monkeypatch.setattr(association, "MAX_HYPOTHESES", 215)
        profiles = [DistanceProfile(p.anchor_id, tuple(d + 5.0 * m for d in p.distances))
                    for m, p in enumerate(exact_profiles(self.SCENE))]
        with pytest.raises(ValueError, match="K=3 targets at M=4 anchors"):
            solve_association_bnb(profiles, self.SCENE.bs_positions(), 1e-6)
