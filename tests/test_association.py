import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from netsense.localization import PositionEstimate, solve_ranges_batch
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
        # Max residuals within RESIDUAL_TIE_EPS_M of the best count as equal;
        # beyond that band the listing ascends.
        profiles, anchors = noisy_problem(5, 3, 4, 0.1)
        solutions = enumerate_feasible(profiles, anchors, 50.0)
        band = min(s.max_residual_m for s in solutions) + association.RESIDUAL_TIE_EPS_M
        residuals = [max(s.max_residual_m, band) for s in solutions]
        assert len(solutions) > 2 and residuals == sorted(residuals)

    def test_ties_list_in_hypothesis_order(self):
        # Example 1's two exact solutions differ in max residual only by float
        # noise (the identity's is the larger); the identity lists first.
        solutions = enumerate_feasible(example1_profiles(), EXAMPLE_BS_XY, 1e-3)
        assert [s.hypothesis.assignment for s in solutions] == [
            ((0, 1), (0, 1), (0, 1)), ((0, 1), (0, 1), (1, 0))]
        assert solutions[0] == solve_association(example1_profiles(), EXAMPLE_BS_XY, 1e-3)

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
    @settings(max_examples=60)
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


def brute_force_hypotheses(table):
    """(max slot residual, assignment, flat rows) of every hypothesis, in product order.

    Independent of the library's search: all permutation tuples for
    anchors 2..M, each slot's residual read from the table directly.
    """
    k, m = table.k, table.m
    out = []
    for perms in itertools.product(itertools.permutations(range(k)), repeat=m - 1):
        assignment = (tuple(range(k)),) + perms
        flats = tuple(sum(assignment[a][s] * k ** (m - 1 - a) for a in range(m))
                      for s in range(k))
        out.append((max(float(table.rms[f]) for f in flats), assignment, flats))
    return out


def check_against_brute_force(profiles, anchors, tol, table):
    """Every search result for ``tol`` equals what the brute force implies."""
    oracle = brute_force_hypotheses(table)
    best = min(h[0] for h in oracle)
    # Ties within RESIDUAL_TIE_EPS_M of the best come first in hypothesis order.
    band = best + association.RESIDUAL_TIE_EPS_M
    feasible = (sorted((h for h in oracle if h[0] <= min(tol, band)), key=lambda h: h[1])
                + sorted((h for h in oracle if band < h[0] <= tol), key=lambda h: h[:2]))
    stats = {}
    solutions = enumerate_feasible(profiles, anchors, tol, stats=stats, table=table)
    assert [(s.max_residual_m, s.hypothesis.assignment) for s in solutions] == [
        h[:2] for h in feasible]
    for s, (_, _, flats) in zip(solutions, feasible):
        assert s.estimates == tuple(table.estimate(f) for f in flats)
    # Each solution ends at a distinct candidate of the last slot.
    assert stats.pop("search_nodes") >= len(feasible)
    # With nothing feasible, the best max residual solves a fresh table's rows too.
    assert stats == {"hypotheses_examined": len(oracle), "best_max_residual_m": best,
                     "solved_rows": len(table.rms) * (1 if feasible else 2), "gated_rows": 0}

    if not feasible:
        for solve in (solve_association, solve_association_bnb):
            with pytest.raises(InfeasibleAssociationError) as err:
                solve(profiles, anchors, tol)
            assert err.value.best_residual_m == best
            assert str(err.value) == (f"no hypothesis met tol {tol}; "
                                      f"best max residual was {best:.6g} m")
        return
    tied = [h for h in feasible if h[0] <= best + association.RESIDUAL_TIE_EPS_M]
    max_residual, assignment, flats = min(tied, key=lambda h: h[1])
    expected = association.AssociationSolution(
        hypothesis=association.AssociationHypothesis(assignment),
        estimates=tuple(table.estimate(f) for f in flats),
        max_residual_m=max_residual,
    )
    assert solve_association(profiles, anchors, tol) == expected
    assert solve_association_bnb(profiles, anchors, tol) == expected
    assert solve_association_bnb(profiles, anchors, tol, table=table) == expected


class TestSearchAgainstBruteForce:
    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), m=st.integers(3, 4),
           sigma=st.sampled_from([0.01, 0.1, 1.0]), level=st.integers(-1, 10**6),
           nudge=st.sampled_from([-1, 0, 1]))
    def test_noisy_ranges(self, seed, k, m, sigma, level, nudge):
        # The tolerance is half the best max residual (level -1), or one of
        # the hypotheses' max residuals, exactly or one ulp off; the largest
        # of them makes every hypothesis feasible.
        profiles, anchors = noisy_problem(seed, k, m, sigma)
        table = subproblem_table(profiles, anchors)
        levels = sorted({h[0] for h in brute_force_hypotheses(table)})
        tol = levels[0] / 2 if level < 0 else levels[level % len(levels)]
        tol = float(np.nextafter(tol, tol + nudge)) if nudge else tol
        check_against_brute_force(profiles, anchors, tol, table)

    @pytest.mark.parametrize("tol", [1e-16, 1e-6, 2.0])
    def test_near_tie_goes_to_first_hypothesis(self, tol):
        # With bs3's distances swapped, Example 1's identity hypothesis has
        # max residual ~1e-15 m and the ghost hypothesis exactly 0: a tie
        # within RESIDUAL_TIE_EPS_M that the identity must win.
        profiles = example1_profiles()
        profiles[2] = DistanceProfile("bs3", profiles[2].distances[::-1])
        table = subproblem_table(profiles, EXAMPLE_BS_XY)
        check_against_brute_force(profiles, EXAMPLE_BS_XY, tol, table)
        if tol > 1e-15:
            assert solve_association_bnb(profiles, EXAMPLE_BS_XY, tol).hypothesis.assignment == (
                (0, 1), (0, 1), (0, 1))


class DenseTable:
    """Test-local dense oracle: every distance index combination solved, none gated."""

    def __init__(self, profiles, anchors):
        self.k, self.m = len(profiles[0].distances), len(profiles)
        combos = itertools.product(*(p.distances for p in profiles))  # anchor 1 most significant
        self.positions, self.rms, self.converged, self.iterations = solve_ranges_batch(
            np.asarray(anchors, float), np.array(list(combos)))

    def estimate(self, flat):
        return PositionEstimate(Point2(float(self.positions[flat, 0]),
                                       float(self.positions[flat, 1])),
                                float(self.rms[flat]), bool(self.converged[flat]),
                                int(self.iterations[flat]))


class TestPairwiseGate:
    @staticmethod
    def columns(table):
        return table.positions, table.rms, table.converged, table.iterations

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6), m=st.integers(3, 6),
           sigma=st.sampled_from([0.0, 0.01, 0.1, 1.0]), level=st.integers(-1, 10**6))
    def test_matches_dense_oracle(self, seed, k, m, sigma, level):
        # The tolerance is 1e-12 (level -1) or one of the rows' rms values,
        # the largest of which makes every hypothesis feasible. Above 1,296
        # hypotheses only the 2K tightest levels are drawn, so the listings
        # stay short; above 14,400 the brute force itself is too slow, and
        # the listings are checked against the dense table alone.
        hypotheses = math.factorial(k) ** (m - 1)
        profiles, anchors = noisy_problem(seed, k, m, sigma)
        oracle = DenseTable(profiles, anchors)
        levels = sorted(set(oracle.rms.tolist()))[:None if hypotheses <= 1296 else 2 * k]
        tol = 1e-12 if level < 0 else levels[level % len(levels)]

        gated = subproblem_table(profiles, anchors, tol)
        assert np.isin(np.flatnonzero(oracle.rms <= tol), gated.flat).all()  # the gate is sound
        for got, want in zip(self.columns(gated), self.columns(oracle)):
            assert np.array_equal(got, want[gated.flat])
        dense = subproblem_table(profiles, anchors)
        for got, want in zip(self.columns(dense), self.columns(oracle)):
            assert np.array_equal(got, want)

        stats, dense_stats = {}, {}
        solutions = enumerate_feasible(profiles, anchors, tol, stats=stats)
        assert solutions == enumerate_feasible(profiles, anchors, tol, stats=dense_stats,
                                               table=dense)
        solved_rows = k ** m - gated.gated_rows + (0 if solutions else k ** m)
        assert dense_stats["solved_rows"] == k ** m * (1 if solutions else 2)
        assert stats == {**dense_stats, "solved_rows": solved_rows,
                         "gated_rows": gated.gated_rows}
        if hypotheses <= 14_400:
            check_against_brute_force(profiles, anchors, tol, dense)

    def test_collinear_target_stays_feasible(self):
        # The target lies on the line through bs1 and bs2, beyond bs2, so
        # d1 - d2 = |a1 - a2| exactly; in floating point the two sides differ
        # by an ulp larger than sqrt(2M) * tol at this 100 km scale, while
        # the solver reaches the target at rms exactly 0.
        anchors = np.array([[0.0, 0.0], [1e4, 3e4], [1e4, 2e4]])
        profiles = profiles_for(anchors, np.array([[3e4, 9e4]]))
        solutions = enumerate_feasible(profiles, anchors, 1e-12)
        assert len(solutions) == 1
        assert solutions[0].max_residual_m <= 1e-12

    def test_infeasible_best_residual_is_dense(self):
        profiles, anchors = noisy_problem(11, 3, 4, 0.5)
        oracle = DenseTable(profiles, anchors)
        best = min(h[0] for h in brute_force_hypotheses(oracle))
        stats = {}
        assert enumerate_feasible(profiles, anchors, 1e-12, stats=stats) == []
        assert stats["best_max_residual_m"] == best
        # The gated table's survivors, then every row of the fresh table.
        assert stats["solved_rows"] == 2 * 3 ** 4 - stats["gated_rows"]
        assert stats["gated_rows"] > 0
        for solve in (solve_association, solve_association_bnb):
            with pytest.raises(InfeasibleAssociationError) as err:
                solve(profiles, anchors, 1e-12)
            assert err.value.best_residual_m == best

    def test_every_row_gated(self):
        # |d1 - d2| = 99 m exceeds |a1 - a2| = 8.5 m by far: the only row is gated.
        profiles = [DistanceProfile("bs1", (100.0,)), DistanceProfile("bs2", (1.0,)),
                    DistanceProfile("bs3", (1.0,))]
        table = subproblem_table(profiles, EXAMPLE_BS_XY, 1e-6)
        assert (table.solved_rows, table.gated_rows) == (0, 1)
        stats = {}
        assert enumerate_feasible(profiles, EXAMPLE_BS_XY, 1e-6, stats=stats) == []
        assert stats["best_max_residual_m"] == DenseTable(profiles, EXAMPLE_BS_XY).rms[0]
        assert (stats["solved_rows"], stats["gated_rows"]) == (1, 1)

    def test_looser_search_is_refused(self):
        profiles, anchors = noisy_problem(12, 3, 4, 0.0)
        table = subproblem_table(profiles, anchors, 1e-6)
        gated, rms = table.gated_rows, table.rms.copy()
        assert gated > 0 and table.solved_rows == 3 ** 4 - gated
        assert enumerate_feasible(profiles, anchors, 1e-6, table=table)
        for search in (enumerate_feasible, solve_association_bnb):
            with pytest.raises(ValueError, match=r"tol 1\.0 .* gate at tol 1e-06"):
                search(profiles, anchors, 1.0, table=table)
        assert (table.solved_rows, table.gated_rows) == (3 ** 4 - gated, gated)
        assert np.array_equal(table.rms, rms)


def assert_gate_sound(profiles, anchors, tol):
    """No row the dense solve puts within ``tol`` is gated, and solved rows equal the oracle's."""
    oracle = DenseTable(profiles, anchors)
    gated = subproblem_table(profiles, anchors, tol)
    assert np.isin(np.flatnonzero(oracle.rms <= tol), gated.flat).all()
    for got, want in zip(TestPairwiseGate.columns(gated), TestPairwiseGate.columns(oracle)):
        assert np.array_equal(got, want[gated.flat])
    return oracle, gated


def placed_problem(seed, k, m, spread, placement, noise):
    """A random scene scaled to ``spread`` m, its first target placed as named, noisy ranges.

    "segment" puts it on the segment bs1-bs2, where their circles are tangent;
    "beyond" on the line through bs1 and bs2, past bs2; "far" moves every
    target a thousand times farther from the origin than the anchors.
    """
    scene = random_scene(m, k, Bounds(-1, -1, 1, 1), seed=seed)
    anchors, targets = scene.bs_positions() * spread, scene.target_positions() * spread
    if placement == "segment":
        targets[0] = anchors[0] + 0.375 * (anchors[1] - anchors[0])
    elif placement == "beyond":
        targets[0] = anchors[1] + 2.0 * (anchors[1] - anchors[0])
    elif placement == "far":
        targets = targets * 1e3
    exact = np.linalg.norm(anchors[:, None, :] - targets[None, :, :], axis=2)
    ranges = np.maximum(exact + np.random.default_rng(seed).normal(0, noise * spread, exact.shape),
                        0.0)
    return [DistanceProfile(f"bs{i+1}", tuple(ranges[i])) for i in range(m)], anchors


class TestTripleGate:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), m=st.integers(3, 5),
           spread_exp=st.integers(-3, 7),
           placement=st.sampled_from(["inside", "segment", "beyond", "far"]),
           noise=st.sampled_from([0.0, 1e-9, 1e-4, 1e-2]),
           tol_exp=st.floats(-12, 3), level=st.integers(-1, 10**6))
    def test_sound_at_any_scale(self, seed, k, m, spread_exp, placement, noise, tol_exp, level):
        # Anchor spreads from 1e-3 to 1e7 m; the tolerance is 10^tol_exp m
        # (level -1) or one of the dense rows' rms values, so some row sits
        # exactly at it.
        assume(k ** m <= 243)
        profiles, anchors = placed_problem(seed, k, m, 10.0 ** spread_exp, placement, noise)
        oracle = DenseTable(profiles, anchors)
        levels = sorted(set(oracle.rms.tolist()))
        tol = 10.0 ** tol_exp if level < 0 else levels[level % len(levels)]
        assert_gate_sound(profiles, anchors, tol)

    @pytest.mark.parametrize("spread", [1e-3, 1.0, 1e3, 1e7])
    @pytest.mark.parametrize("placement", ["segment", "beyond", "far"])
    def test_true_rows_survive_at_their_own_rms(self, spread, placement):
        # Exact ranges: the true rows' rms is rounding noise, and a tolerance
        # at exactly that rms (or at 1e-12 m) must keep them.
        profiles, anchors = placed_problem(7, 2, 4, spread, placement, 0.0)
        truth = [sum(j * 2 ** (3 - a) for a in range(4)) for j in range(2)]
        for tol in (1e-12, *DenseTable(profiles, anchors).rms[truth]):
            assert_gate_sound(profiles, anchors, tol)

    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-3])
    def test_collinear_targets_at_100_km(self, tol):
        # Each target lies on the line through two BSs, 100 km out, so one
        # pair's circles are tangent and the triple frame puts it at y = 0.
        anchors = np.array([[0.0, 0.0], [1e4, 3e4], [1e4, 2e4], [-2e4, 1e4]])
        targets = np.array([[3e4, 9e4], [1e4, -4e4]])
        profiles = profiles_for(anchors, targets)
        oracle, gated = assert_gate_sound(profiles, anchors, tol)
        assert gated.solved_rows == len(gated.flat) < len(oracle.rms)
        assert enumerate_feasible(profiles, anchors, tol) == enumerate_feasible(
            profiles, anchors, tol, table=subproblem_table(profiles, anchors))

    def test_exact_scene_solves_only_its_targets(self):
        # K=4, M=5: the pairwise test alone leaves about 150 of the 1,024
        # rows; the triple test leaves the 4 true rows, the only ones within
        # tolerance.
        scene = random_scene(5, 4, Bounds(-150, -150, 150, 150), seed=3)
        profiles, anchors = exact_profiles(scene), scene.bs_positions()
        table = subproblem_table(profiles, anchors, 1e-6)
        assert table.solved_rows == 4
        assert len(table.rms) == table.solved_rows  # the table holds its survivors alone
        assert (np.diff(table.flat) > 0).all()
        assert (DenseTable(profiles, anchors).rms <= 1e-6).sum() == 4

    def test_infinite_tolerance_gates_nothing_in_a_mixed_batch(self):
        problems = [noisy_problem(seed, 3, 4, 0.1) for seed in (1, 2, 3, 4, 5)]
        tols = (math.inf, 1e-6, math.inf, 0.6, 1e300)
        batch = SubproblemBatch()
        for (profiles, anchors), tol in zip(problems, tols):
            batch.add(profiles, anchors, tol)
        for table, (profiles, anchors), tol in zip(batch.solve(), problems, tols):
            single = subproblem_table(profiles, anchors, tol)
            assert np.array_equal(table.flat, single.flat)
            for got, want in zip(TestPairwiseGate.columns(table),
                                 TestPairwiseGate.columns(single)):
                assert np.array_equal(got, want)
            assert (len(table.flat) == 3 ** 4) == (tol > 1e3)

    @pytest.mark.parametrize("tol", [1e150, 1e300, 1.7e308, math.inf])
    def test_huge_tolerance_admits_every_row_quietly(self, tol):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = subproblem_table(example1_profiles(), EXAMPLE_BS_XY, tol)
        assert table.gated_rows == 0

    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e160, 1e300])
    def test_extreme_lengths_are_admitted_untested(self, scale):
        # Row (0, 0, 0), ranges (1, 5, 5), fails the pairwise test and row
        # (0, 1, 1), ranges (1, 1, 1), only the triple test. Squares of lengths
        # at the extreme scales leave the normal float range, so there the
        # triple test admits row (0, 1, 1) without computing.
        dists = np.array([[1.0, 1.0], [5.0, 1.0], [5.0, 1.0]]) * scale
        anchors = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, flat, _ = association._gate([dists], anchors, np.array([1e-9 * scale]))
        assert [row in flat for row in (0, 3)] == [False, scale != 1.0]


class TestFeasibleCountInvariance:
    """On exact ranges the feasible count is a property of the geometry alone."""

    @staticmethod
    def count(anchors_xy, targets_xy):
        return len(enumerate_feasible(profiles_for(anchors_xy, targets_xy), anchors_xy, 1e-6))

    @staticmethod
    def scene_xy(seed, k, m):
        scene = random_scene(m, k, Bounds(-150, -150, 150, 150), seed=seed)
        return scene.bs_positions(), scene.target_positions()

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), m=st.integers(3, 4))
    def test_profile_order(self, seed, k, m):
        anchors, targets = self.scene_xy(seed, k, m)
        profiles = profiles_for(anchors, targets)
        rng = np.random.default_rng(seed)
        shuffled = [DistanceProfile(p.anchor_id, tuple(np.array(p.distances)[rng.permutation(k)]))
                    for p in profiles]
        assert len(enumerate_feasible(shuffled, anchors, 1e-6)) == self.count(anchors, targets)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), m=st.integers(3, 4),
           quarter_turns=st.integers(1, 3))
    def test_rotation_by_quarter_turns(self, seed, k, m, quarter_turns):
        anchors, targets = self.scene_xy(seed, k, m)
        rotated = [anchors, targets]
        for _ in range(quarter_turns):  # (x, y) -> (-y, x), exact in floating point
            rotated = [np.stack([-xy[:, 1], xy[:, 0]], axis=1) for xy in rotated]
        assert self.count(*rotated) == self.count(anchors, targets)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), m=st.integers(3, 4),
           shift=st.tuples(st.floats(-1e10, 1e10), st.floats(-1e10, 1e10)))
    def test_translation(self, seed, k, m, shift):
        anchors, targets = self.scene_xy(seed, k, m)
        offset = np.array(shift)
        assert self.count(anchors + offset, targets + offset) == self.count(anchors, targets)


class TestSearchMemory:
    def test_enumeration_peak_heap_is_small(self):
        # All (K!)^(M-1) = 331,776 hypotheses as an index table would take
        # tens of MB; the search holds only its candidates and its path.
        scene = random_scene(5, 4, Bounds(-150, -150, 150, 150), seed=3)
        profiles, anchors = exact_profiles(scene), scene.bs_positions()
        table = subproblem_table(profiles, anchors)
        tracemalloc.start()
        try:
            solutions = enumerate_feasible(profiles, anchors, 1e-6, table=table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(solutions) >= 1
        assert peak < 1 << 20


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

    def test_survivors_equal_dense_rows(self):
        problems = [noisy_problem(seed, k, 4, sigma) for seed, k, sigma in
                    ((1, 1, 0.0), (2, 3, 0.1), (3, 2, 1.0), (4, 3, 0.0))]
        tols = (1e-6, 0.6, 6.0, 1e-12)
        batch = SubproblemBatch()
        for (profiles, anchors), tol in zip(problems, tols):
            batch.add(profiles, anchors, tol)
        for table, (profiles, anchors), tol in zip(batch.solve(), problems, tols):
            dense = subproblem_table(profiles, anchors)
            assert table.gate_tol == tol and len(table.flat)
            for got, want in ((table.positions, dense.positions), (table.rms, dense.rms),
                              (table.converged, dense.converged),
                              (table.iterations, dense.iterations)):
                assert np.array_equal(got, want[table.flat])

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
    """MAX_SEARCH_NODES: the candidate rows one hypothesis search may examine."""

    SCENE = random_scene(4, 3, Bounds(-150, -150, 150, 150), seed=5)  # K=3, M=4

    def nodes(self, profiles, tol):
        stats = {}
        enumerate_feasible(profiles, self.SCENE.bs_positions(), tol, stats=stats)
        return stats["search_nodes"]

    def test_sizes_in_use_are_admitted(self):
        assert association.MAX_SEARCH_NODES >= 32_750  # the largest tier-1 search examines this

    def test_enumeration_refused_above_cap(self, monkeypatch):
        # At tol 1e3 every one of the 216 hypotheses is feasible.
        nodes = self.nodes(exact_profiles(self.SCENE), 1e3)
        assert nodes > 216
        monkeypatch.setattr(association, "MAX_SEARCH_NODES", nodes - 1)
        with pytest.raises(ValueError, match=rf"K=3 targets at M=4 anchors: the search examined "
                                             rf"{nodes:,} candidate rows; it is capped at "
                                             rf"{nodes - 1:,}"):
            enumerate_feasible(exact_profiles(self.SCENE), self.SCENE.bs_positions(), 1e3)

    def test_cap_is_inclusive(self, monkeypatch):
        nodes = self.nodes(exact_profiles(self.SCENE), 1e3)
        monkeypatch.setattr(association, "MAX_SEARCH_NODES", nodes)
        assert self.nodes(exact_profiles(self.SCENE), 1e3) == nodes

    def test_bnb_infeasible_scan_refused_above_cap(self, monkeypatch):
        # The gated search examines nothing; the fresh table's search for the
        # best max residual examines more than one candidate.
        profiles = [DistanceProfile(p.anchor_id, tuple(d + 5.0 * m for d in p.distances))
                    for m, p in enumerate(exact_profiles(self.SCENE))]
        assert self.nodes(profiles, 1e-6) == 0
        monkeypatch.setattr(association, "MAX_SEARCH_NODES", 1)
        with pytest.raises(ValueError, match="K=3 targets at M=4 anchors: the search examined 2 "):
            solve_association_bnb(profiles, self.SCENE.bs_positions(), 1e-6)


class TestSubproblemCap:
    """MAX_GATE_ROWS: the partial rows the gate's join holds for one problem."""

    SCENE = TestHypothesisCap.SCENE  # K=3, M=4: 81 subproblem rows

    def test_sizes_in_use_are_admitted(self):
        assert association.MAX_GATE_ROWS >= 6 ** 6  # K=6, M=6 at tol = inf

    def test_refused_before_any_row_is_stacked(self, monkeypatch):
        # At tol = inf the join would hold all 81 rows at anchor 4; it stops
        # before building them, and nothing reaches the solver.
        monkeypatch.setattr(association, "MAX_GATE_ROWS", 80)
        monkeypatch.setattr(association, "solve_ranges_batch", None)
        batch = SubproblemBatch()
        batch.add(exact_profiles(self.SCENE), self.SCENE.bs_positions())
        with pytest.raises(ValueError, match="K=3 targets at M=4 anchors leave 81 candidate rows "
                                             "at anchor 4; the gate holds at most 80 per problem"):
            batch.solve()
        assert batch.survivors == 0

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(association, "MAX_GATE_ROWS", 81)
        table = subproblem_table(exact_profiles(self.SCENE), self.SCENE.bs_positions())
        assert len(table.rms) == 81

    def test_gated_rows_are_not_counted(self, monkeypatch):
        # At a tight tolerance the join holds at most 21 rows (7 pairs of
        # anchors 1-2, each extended by 3 indices), so a cap of 21, far below
        # K^M = 81, admits the problem.
        monkeypatch.setattr(association, "MAX_GATE_ROWS", 21)
        table = subproblem_table(exact_profiles(self.SCENE), self.SCENE.bs_positions(), 1e-6)
        assert table.solved_rows == 3
