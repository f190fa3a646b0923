import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from netsense import association, harness
from netsense import scene as scene_module
from netsense.errors import GeometryError
from netsense.harness import (
    ExperimentSpec,
    NoiseModel,
    RandomScenePlan,
    accuracy_aggregates,
    measure_distances,
    run_accuracy_experiment,
    run_uniqueness_experiment,
    uniqueness_aggregates,
)
from netsense.link_budget import LinkBudgetParams, covered, max_sensing_range, range_resolution
from netsense.scene import (
    Anchor,
    AnchorKind,
    Bounds,
    Point2,
    Scene,
    Target,
    load_scene,
    random_scene,
    true_distance,
)

PLAN = RandomScenePlan(num_bs=3, num_targets=2, bounds=Bounds(-150, -150, 150, 150))


def fake_pool(monkeypatch) -> list:
    """Swap the harness's process pool for an in-process one; returns the sizes asked for."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
    return sizes


def small_scene():
    return Scene(
        anchors=(
            Anchor("bs1", AnchorKind.BS, Point2(-3.5, 0.0)),
            Anchor("bs2", AnchorKind.BS, Point2(5.0, 0.0)),
            Anchor("bs3", AnchorKind.BS, Point2(0.0, -4.5)),
        ),
        targets=(
            Target("t1", Point2(3.0, 3.0)),
            Target("t2", Point2(-3.0, -3.0)),
        ),
        bounds=Bounds(-6, -6, 6, 6),
    )


def far_target_scene():
    return Scene(
        anchors=(
            Anchor("bs1", AnchorKind.BS, Point2(0.0, 0.0)),
            Anchor("bs2", AnchorKind.BS, Point2(50.0, 0.0)),
            Anchor("bs3", AnchorKind.BS, Point2(0.0, 50.0)),
        ),
        targets=(Target("t1", Point2(500.0, 0.0)),),
        bounds=Bounds(-600, -600, 600, 600),
    )


class TestMeasureDistances:
    def test_exact_mode_returns_true_distances(self):
        scene = small_scene()
        ms = measure_distances(scene, LinkBudgetParams(), 10.0, NoiseModel(), seed=5)
        assert ms.full_detection
        for m, bs in enumerate(scene.base_stations):
            expected = sorted(true_distance(bs.position, t.position) for t in scene.targets)
            assert sorted(ms.profiles[m].distances) == pytest.approx(expected, rel=1e-15)

    def test_origin_bookkeeping_matches_values(self):
        scene = small_scene()
        ms = measure_distances(scene, LinkBudgetParams(), 10.0, NoiseModel(), seed=5)
        for m, bs in enumerate(scene.base_stations):
            for i, d in enumerate(ms.profiles[m].distances):
                k = ms.origins[m][i]
                assert d == pytest.approx(
                    true_distance(bs.position, scene.targets[k].position), rel=1e-15
                )

    def test_quantization_grids_distances(self):
        scene = small_scene()
        noise = NoiseModel(range_sigma_m=0.0, quantize_to_resolution=True, bandwidth_hz=800e6)
        step = range_resolution(800e6)
        ms = measure_distances(scene, LinkBudgetParams(), 10.0, noise, seed=9)
        for profile in ms.profiles:
            for d in profile.distances:
                assert abs(d / step - round(d / step)) < 1e-6

    def test_out_of_coverage_target_absent(self):
        scene = far_target_scene()
        params = LinkBudgetParams()  # pedestrian: max range ~413 m
        assert max_sensing_range(params, 10.0) < 500.0
        ms = measure_distances(scene, params, 10.0, NoiseModel(), seed=1)
        assert not ms.detected[0, 0]  # bs1 at 500 m
        assert ms.profiles[0].distances == ()
        # bs2 sits 450 m away: also out; detection mask agrees with covered().
        for m, bs in enumerate(scene.base_stations):
            d = true_distance(bs.position, scene.targets[0].position)
            assert ms.detected[m, 0] == covered(params, 10.0, d)

    def test_deterministic_per_seed(self):
        scene = small_scene()
        a = measure_distances(scene, LinkBudgetParams(), 10.0, NoiseModel(0.1), seed=3)
        b = measure_distances(scene, LinkBudgetParams(), 10.0, NoiseModel(0.1), seed=3)
        assert a.profiles == b.profiles
        c = measure_distances(scene, LinkBudgetParams(), 10.0, NoiseModel(0.1), seed=4)
        assert a.profiles != c.profiles

    def test_target_collocated_with_bs_is_detected(self):
        scene = Scene(
            anchors=small_scene().anchors,
            targets=(Target("t1", Point2(-3.5, 0.0)),),  # exactly on bs1
            bounds=Bounds(-6, -6, 6, 6),
        )
        ms = measure_distances(scene, LinkBudgetParams(), 10.0, NoiseModel(), seed=0)
        assert ms.full_detection
        assert ms.profiles[0].distances == (0.0,)


def partial_scene():
    # t2 is out of every BS's coverage and t3 out of bs3's only.
    return Scene(
        anchors=(
            Anchor("bs1", AnchorKind.BS, Point2(0.0, 0.0)),
            Anchor("bs2", AnchorKind.BS, Point2(300.0, 0.0)),
            Anchor("bs3", AnchorKind.BS, Point2(0.0, 300.0)),
        ),
        targets=(Target("t1", Point2(10.0, 10.0)), Target("t2", Point2(-380.0, -380.0)),
                 Target("t3", Point2(350.0, 50.0))),
        bounds=Bounds(-400, -400, 400, 400),
    )


def on_bs_scene():
    # t1 sits on bs1, so quantized noise rounds some of its distances to
    # zero from below; t2 has its own RCS, so coverage takes two radii.
    return Scene(
        anchors=small_scene().anchors,
        targets=(Target("t1", Point2(-3.5, 0.0)), Target("t2", Point2(3.0, 3.0), 5.0),
                 Target("t3", Point2(-3.0, -3.0))),
        bounds=Bounds(-6, -6, 6, 6),
    )


def reference_measure(scene, link, snr_min_db, noise, seed):
    """Reference measure_distances: one scalar draw per covered pair, then the shuffle."""
    step = range_resolution(noise.bandwidth_hz) if noise.quantize_to_resolution else None
    profiles, origins = [], []
    detected = np.zeros((len(scene.base_stations), len(scene.targets)), dtype=bool)
    for m, bs in enumerate(scene.base_stations):
        rng = np.random.default_rng([seed, m])
        values, sources = [], []
        for k, target in enumerate(scene.targets):
            d_true = true_distance(bs.position, target.position)
            if d_true > 0.0 and not covered(replace(link, rcs_dbsm=target.rcs_dbsm),
                                            snr_min_db, d_true):
                continue
            detected[m, k] = True
            d = d_true + rng.normal(0.0, noise.range_sigma_m)
            if step is not None:
                d = round(d / step) * step
            values.append(max(d, 0.0))
            sources.append(k)
        perm = rng.permutation(len(values))
        profiles.append((bs.id, [values[i].hex() for i in perm]))
        origins.append(tuple(sources[i] for i in perm))
    return profiles, detected.tolist(), tuple(origins)


def bits(ms):
    """A MeasurementSet as exact values: float.hex tells 0.0 from -0.0."""
    return ([(p.anchor_id, [d.hex() for d in p.distances]) for p in ms.profiles],
            ms.detected.tolist(), ms.origins)


class TestMeasureLevels:
    NOISES = [NoiseModel(0.0), NoiseModel(0.5), NoiseModel(0.5, True), NoiseModel(0.0, True),
              NoiseModel(2.0, True, 800e6), NoiseModel(0.5)]

    @pytest.mark.parametrize("make", [small_scene, partial_scene, on_bs_scene],
                             ids=["full", "partial", "on-bs"])
    def test_each_level_is_its_own_draw(self, make):
        scene = make()
        link = LinkBudgetParams()
        for seed in range(20):
            levels = harness._measure_levels(scene, link, 10.0, self.NOISES, seed)
            assert len(levels) == len(self.NOISES)
            for noise, ms in zip(self.NOISES, levels):
                assert bits(ms) == reference_measure(scene, link, 10.0, noise, seed)
                assert bits(measure_distances(scene, link, 10.0, noise, seed)) == bits(ms)

    def test_scenes_cover_partial_detection_and_zero_from_below(self):
        link = LinkBudgetParams()
        ms = measure_distances(partial_scene(), link, 10.0, NoiseModel(), 0)
        assert ms.detected.tolist() == [[True, False, True], [True, False, True],
                                        [True, False, False]]
        zeros = [d for seed in range(20)
                 for d in measure_distances(on_bs_scene(), link, 10.0,
                                            NoiseModel(0.5, True), seed).profiles[0].distances
                 if d == 0.0]
        assert zeros and all(math.copysign(1.0, d) == 1.0 for d in zeros)


class TestNoisyTolerance:
    def test_true_association_stays_feasible(self):
        # 3 sigma bounds the true row's rms unless chi^2_M > 9M, so in each of
        # these 288 noisy trials every slot's true row passes the gate and
        # the solver at the association tolerance.
        link = LinkBudgetParams(pt_watts=math.inf)  # every pair detected
        for n_bs in range(3, 9):
            for k in range(2, 5):
                for trial in range(16):
                    seed = 1000 * n_bs + 100 * k + trial
                    sigma = (0.1, 0.5, 1.0, 2.0)[trial % 4]
                    scene = random_scene(n_bs, k, Bounds(-150, -150, 150, 150), seed=seed)
                    ms = measure_distances(scene, link, 10.0, NoiseModel(sigma), seed)
                    tol = harness._association_tol(1e-4, sigma)
                    table = association.subproblem_table(ms.profiles, scene.bs_positions(), tol)
                    for slot in range(k):
                        target = ms.origins[0][slot]
                        flat = sum(o.index(target) * k ** (n_bs - 1 - m)
                                   for m, o in enumerate(ms.origins))
                        row = int(np.searchsorted(table.flat, flat))
                        assert row < len(table.flat) and table.flat[row] == flat, (seed, slot)
                        assert table.rms[row] <= tol


class TestUniquenessExperiment:
    def test_example1_counts_two_feasible(self, scenes_dir):
        scene = load_scene(scenes_dir / "example1.json")
        spec = ExperimentSpec(scene=scene, trials=1, seed=0, feas_tol_m=1e-6)
        report = run_uniqueness_experiment(spec)
        assert report.records[0]["feasible_count"] == 2
        assert report.records[0]["ghost"] is True
        assert report.records[0]["correct_found"] is True

    def test_example2_counts_one_feasible(self, scenes_dir):
        scene = load_scene(scenes_dir / "example2.json")
        spec = ExperimentSpec(scene=scene, trials=1, seed=0, feas_tol_m=1e-6)
        report = run_uniqueness_experiment(spec)
        assert report.records[0]["feasible_count"] == 1
        assert report.records[0]["ghost"] is False

    def test_random_trials_rarely_ghost(self):
        spec = ExperimentSpec(random_plan=PLAN, trials=100, seed=42, feas_tol_m=1e-4)
        report = run_uniqueness_experiment(spec)
        assert report.aggregates["ghost_fraction"] <= 0.01
        assert report.aggregates["correct_rate"] == 1.0

    def test_partial_detection_excluded_from_headline(self):
        spec = ExperimentSpec(scene=far_target_scene(), trials=3, seed=1, feas_tol_m=1e-4)
        report = run_uniqueness_experiment(spec)
        assert report.aggregates["partial"] == 3
        assert report.aggregates["completed"] == 0
        assert report.aggregates["ghost_fraction"] == 0.0
        assert report.aggregates["detection_fraction"] < 1.0

    def test_aggregates_recomputable_from_records(self):
        spec = ExperimentSpec(random_plan=PLAN, trials=40, seed=8, feas_tol_m=1e-4)
        report = run_uniqueness_experiment(spec)
        assert uniqueness_aggregates(report.records) == report.aggregates

    @pytest.mark.parametrize("cpus, pool_sizes", [(2, [2]), (None, [])])
    def test_workers_clamped_to_cpu_count(self, monkeypatch, cpus, pool_sizes):
        # More than one worker starts a pool; the fake pool only records its
        # size. An unknown CPU count means one CPU, so the run stays in-process.
        spec = ExperimentSpec(random_plan=PLAN, trials=40, seed=77, feas_tol_m=1e-4)
        sequential = run_uniqueness_experiment(spec).to_dict()
        sizes = fake_pool(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        assert run_uniqueness_experiment(spec, workers=10**6).to_dict() == sequential
        assert sizes == pool_sizes

    def test_determinism_across_workers(self, monkeypatch):
        spec = ExperimentSpec(random_plan=PLAN, trials=16, seed=77, feas_tol_m=1e-4)
        sequential = run_uniqueness_experiment(spec, workers=1)
        started = []
        pool = harness.ProcessPoolExecutor

        def spy(max_workers):
            started.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", spy)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        parallel = run_uniqueness_experiment(spec, workers=2)
        assert started == [2]
        assert json.dumps(sequential.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(scene=None, random_plan=None)
        with pytest.raises(ValueError):
            ExperimentSpec(scene=small_scene(), random_plan=PLAN)
        with pytest.raises(ValueError):
            ExperimentSpec(random_plan=PLAN, trials=0)


class TestAccuracyExperiment:
    def test_zero_sigma_is_exact(self):
        spec = ExperimentSpec(random_plan=PLAN, trials=20, seed=10, feas_tol_m=1e-4)
        report = run_accuracy_experiment(spec, [0.0])
        level = report.aggregates["levels"][0]
        assert level["correct_rate"] == 1.0
        assert level["rmse_m"] < 1e-6

    def test_rmse_monotone_in_sigma(self):
        spec = ExperimentSpec(random_plan=PLAN, trials=30, seed=11, feas_tol_m=1e-4)
        report = run_accuracy_experiment(spec, [0.01, 0.1, 1.0])
        rmses = [lv["rmse_m"] for lv in report.aggregates["levels"]]
        assert rmses[0] < rmses[1] < rmses[2]

    def test_example2_sigma_0p1_mostly_correct(self, scenes_dir):
        scene = load_scene(scenes_dir / "example2.json")
        spec = ExperimentSpec(scene=scene, trials=100, seed=12, feas_tol_m=1e-4)
        report = run_accuracy_experiment(spec, [0.1])
        assert report.aggregates["levels"][0]["correct_rate"] >= 0.95

    def test_aggregates_recomputable(self):
        spec = ExperimentSpec(random_plan=PLAN, trials=15, seed=13, feas_tol_m=1e-4)
        report = run_accuracy_experiment(spec, [0.0, 0.05])
        assert accuracy_aggregates(report.records) == report.aggregates

    def test_nearly_collinear_bs_trial_is_correct(self):
        # Seed 105, trial 60 at sigma 1 m draws three nearly collinear BSs;
        # an unclamped linear start put a true row at (8391, 1527) m, outside
        # this 300 m scene, the row stalled at rms 290 m and a ghost won
        # (rmse 176 m).
        spec = ExperimentSpec(random_plan=PLAN, trials=61, seed=105)
        record = run_accuracy_experiment(spec, [1.0]).records[60]
        assert record["correct"] and record["rmse_m"] < 1.0

    def test_infeasible_trial_skips_the_best_residual(self, monkeypatch):
        # Noisy ranges on a table gated at 1e-9 m: nothing is feasible. The
        # record needs no best max residual, so the ungated table behind it
        # is never built.
        def unreachable(*args, **kwargs):
            raise AssertionError("the best max residual was computed")

        monkeypatch.setattr(association, "_best_max_residual", unreachable)
        scene, noise = small_scene(), NoiseModel(0.5)
        ms = measure_distances(scene, LinkBudgetParams(pt_watts=math.inf), 10.0, noise, 7)
        table = association.subproblem_table(ms.profiles, scene.bs_positions(), 1e-9)
        record = harness._accuracy_record(0, 7, scene, noise, ms, table)
        assert (record["infeasible"], record["correct"], record["rmse_m"]) == (True, False, None)

    def test_empty_sigma_list_rejected(self):
        spec = ExperimentSpec(random_plan=PLAN, trials=2, seed=0)
        with pytest.raises(ValueError):
            run_accuracy_experiment(spec, [])

    def test_noise_model_effective_sigma(self):
        step = range_resolution(800e6)
        quantized = NoiseModel(0.1, True, 800e6)
        assert quantized.effective_sigma_m() == pytest.approx(
            math.sqrt(0.1 ** 2 + step ** 2 / 12.0), rel=1e-12
        )
        assert NoiseModel(0.1).effective_sigma_m() == 0.1


class SolverLog:
    """Rows of each solver call, split into stacked batch solves and the rest.

    The rest would be solver calls outside a batch solve; the harness makes
    none. ``levels`` holds, per batch solve, the gate tolerance of each
    table it returned, and ``solves`` the tables themselves.
    """

    def __init__(self, monkeypatch):
        self.stacked, self.other, self.tables, self.levels, self.solves = [], [], [], [], []
        self._in_batch = False
        solve_rows, batch_solve = association.solve_ranges_batch, association.SubproblemBatch.solve

        def counting_solver(anchors, ranges):
            (self.stacked if self._in_batch else self.other).append(len(ranges))
            return solve_rows(anchors, ranges)

        def logged_solve(batch):
            self._in_batch = True
            try:
                tables = batch_solve(batch)
            finally:
                self._in_batch = False
            self.tables.extend(tables)
            self.levels.append([t.gate_tol for t in tables])
            self.solves.append(tables)
            return tables

        monkeypatch.setattr(association, "solve_ranges_batch", counting_solver)
        monkeypatch.setattr(association.SubproblemBatch, "solve", logged_solve)


class TestChunking:
    PLAN = RandomScenePlan(num_bs=4, num_targets=3, bounds=Bounds(-150, -150, 150, 150))
    SPEC = ExperimentSpec(random_plan=PLAN, trials=12, seed=21, feas_tol_m=1e-4)

    @pytest.mark.parametrize("cap", [1, 81, 200, 100_000])
    def test_reports_independent_of_row_cap(self, monkeypatch, cap):
        unique = run_uniqueness_experiment(self.SPEC).to_dict()
        accuracy = run_accuracy_experiment(self.SPEC, [0.0, 0.5]).to_dict()
        monkeypatch.setattr(harness, "CHUNK_ROWS", cap)
        assert run_uniqueness_experiment(self.SPEC).to_dict() == unique
        assert run_accuracy_experiment(self.SPEC, [0.0, 0.5]).to_dict() == accuracy

    def test_cap_flushes_inside_a_trial(self, monkeypatch):
        # The gate leaves about 3 of a trial's 81 rows at sigma 0 and about 8
        # at sigma 0.5, and a trial adds both levels in turn, so 64 survivors
        # are reached between the two levels of some trial.
        accuracy = run_accuracy_experiment(self.SPEC, [0.0, 0.5]).to_dict()
        monkeypatch.setattr(harness, "CHUNK_ROWS", 64)
        log = SolverLog(monkeypatch)
        assert run_accuracy_experiment(self.SPEC, [0.0, 0.5]).to_dict() == accuracy
        levels = [tols for tols in log.levels if tols]
        exact, noisy = self.SPEC.feas_tol_m, harness._association_tol(self.SPEC.feas_tol_m, 0.5)
        # Some solve ends at a trial's sigma 0 table and the next starts at its sigma 0.5 one.
        assert any(done[-1] == exact and after[0] == noisy
                   for done, after in zip(levels, levels[1:]))

    def test_workers_under_a_row_cap(self, monkeypatch):
        unique = run_uniqueness_experiment(self.SPEC).to_dict()
        accuracy = run_accuracy_experiment(self.SPEC, [0.0, 0.5]).to_dict()
        monkeypatch.setattr(harness, "CHUNK_ROWS", 81)
        assert run_uniqueness_experiment(self.SPEC, workers=2).to_dict() == unique
        assert run_accuracy_experiment(self.SPEC, [0.0, 0.5], workers=2).to_dict() == accuracy

    def test_small_runs_start_the_pool(self, monkeypatch):
        # The worker count alone decides: 3 trials at workers=2 start a pool of 2.
        spec = ExperimentSpec(random_plan=self.PLAN, trials=3, seed=21, feas_tol_m=1e-4)
        unique = run_uniqueness_experiment(spec).to_dict()
        sizes = fake_pool(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        assert run_uniqueness_experiment(spec, workers=2).to_dict() == unique
        assert sizes == [2]

    def test_workers_clamped_to_jobs(self, monkeypatch):
        # A job is one trial at every sigma level.
        spec = ExperimentSpec(random_plan=self.PLAN, trials=1, seed=21, feas_tol_m=1e-4)
        unique = run_uniqueness_experiment(spec).to_dict()
        accuracy = run_accuracy_experiment(spec, [0.0, 0.5]).to_dict()
        two = replace(spec, trials=2)
        two_levels = run_accuracy_experiment(two, [0.0, 0.5]).to_dict()
        sizes = fake_pool(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        assert run_uniqueness_experiment(spec, workers=4).to_dict() == unique
        assert run_accuracy_experiment(spec, [0.0, 0.5], workers=4).to_dict() == accuracy
        assert sizes == []
        assert run_accuracy_experiment(two, [0.0, 0.5], workers=4).to_dict() == two_levels
        assert sizes == [2]

    def test_every_solve_but_the_last_is_full(self, monkeypatch):
        log = SolverLog(monkeypatch)
        spec = ExperimentSpec(random_plan=self.PLAN, trials=40, seed=22, feas_tol_m=1e-4)
        run_accuracy_experiment(spec, [0.0, 0.1, 0.5, 1.0])
        cap, rows = harness.CHUNK_ROWS, 3 ** 4
        assert len(log.stacked) > 2
        assert all(n >= cap for n in log.stacked[:-1])
        # A solve takes the shortest run of gated problems, from the front,
        # that lifts survivors to the cap, so it holds fewer than the cap plus
        # one problem's survivors, at most K^M; the bound below is looser.
        assert max(log.stacked) < 2 * cap + rows
        assert log.other == []
        assert sum(t.solved_rows for t in log.tables) == sum(log.stacked)

    def test_gate_builds_only_survivors(self):
        # K=8, M=6: 262,144 rows, of which the 8 true rows survive. A gate that
        # built every row before testing it would peak near 46 MB.
        scene = random_scene(6, 8, Bounds(-150, -150, 150, 150), seed=1729)
        batch = association.SubproblemBatch()
        batch.add(association.exact_profiles(scene), scene.bs_positions(), 1e-4)
        tracemalloc.start()
        try:
            batch.gate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.survivors == 8
        assert peak < 1e6

    def test_tables_hold_only_survivors(self):
        # K=2, M=12: 4,096 rows per trial, of which a handful survive, so
        # about 130 trials' tables wait for one solve. Tables with a slot
        # for every row would hold some 140 KB each, about 18 MB in all.
        plan = RandomScenePlan(num_bs=12, num_targets=2, bounds=Bounds(-150, -150, 150, 150))
        spec = ExperimentSpec(random_plan=plan, trials=130, seed=1729, feas_tol_m=1e-4)
        run_uniqueness_experiment(replace(spec, trials=2))  # imports and caches stay out
        tracemalloc.start()
        try:
            run_uniqueness_experiment(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_partial_trials_inside_a_chunk(self):
        # Far targets go undetected: a chunk mixes partial and solved trials.
        plan = RandomScenePlan(num_bs=3, num_targets=2, bounds=Bounds(-400, -400, 400, 400))
        spec = ExperimentSpec(random_plan=plan, trials=40, seed=5, feas_tol_m=1e-4)
        report = run_uniqueness_experiment(spec)
        partial = [r["partial"] for r in report.records]
        assert any(partial) and not all(partial)
        assert all(r["correct_found"] for r in report.records if not r["partial"])

    def test_a_short_sweep_gates_once(self, monkeypatch):
        # 10 trials at four levels hold at most 40 * 81 = 3,240 rows, under
        # one gate budget, so the stream gates once, at its end.
        spec = ExperimentSpec(random_plan=self.PLAN, trials=10, seed=21, feas_tol_m=1e-4)
        assert 10 * 4 * 3 ** 4 < harness.GATE_ROWS
        calls, gate = [], association._gate
        monkeypatch.setattr(association, "_gate", lambda *args: calls.append(1) or gate(*args))
        run_accuracy_experiment(spec, [0.0, 0.1, 0.5, 1.0])
        assert len(calls) == 1

    @pytest.mark.parametrize("cap", [64, 256])
    @pytest.mark.parametrize("budget", [1, 81, 4096, 1 << 20])
    def test_reports_independent_of_gate_budget(self, monkeypatch, budget, cap):
        # 40 trials at four levels span 12,960 rows: three full budgets of 4,096.
        spec = replace(self.SPEC, trials=40)
        sigmas = [0.0, 0.1, 0.5, 1.0]
        unique = run_uniqueness_experiment(spec).to_dict()
        accuracy = run_accuracy_experiment(spec, sigmas).to_dict()
        monkeypatch.setattr(harness, "GATE_ROWS", budget)
        monkeypatch.setattr(harness, "CHUNK_ROWS", cap)
        assert run_uniqueness_experiment(spec).to_dict() == unique
        assert run_accuracy_experiment(spec, sigmas).to_dict() == accuracy

    @pytest.mark.parametrize("cap", [64, 256])
    def test_every_solve_but_the_last_stops_at_the_cap(self, monkeypatch, cap):
        # Each solve but the stream's last is the shortest run of problems that
        # reaches the cap: without its last problem it falls short.
        monkeypatch.setattr(harness, "CHUNK_ROWS", cap)
        log = SolverLog(monkeypatch)
        spec = ExperimentSpec(random_plan=self.PLAN, trials=40, seed=22, feas_tol_m=1e-4)
        run_accuracy_experiment(spec, [0.0, 0.1, 0.5, 1.0])
        sizes = [[t.solved_rows for t in tables] for tables in log.solves]
        assert len(sizes) > 2
        for rows in sizes[:-1]:
            assert sum(rows[:-1]) < cap <= sum(rows) < cap + max(rows)
        assert [sum(rows) for rows in sizes if rows] == log.stacked

    def test_one_gate_budget_at_tol_inf(self):
        # At tol = inf every row survives, so one join holds a full budget:
        # 51 K=3, M=4 problems, 4,131 rows. It peaks near 0.91 MB.
        problems = -(-harness.GATE_ROWS // 3 ** 4)
        batch = association.SubproblemBatch()
        for seed in range(problems):
            scene = random_scene(4, 3, Bounds(-150, -150, 150, 150), seed=seed)
            batch.add(association.exact_profiles(scene), scene.bs_positions())
        tracemalloc.start()
        try:
            batch.gate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.survivors == problems * 3 ** 4
        assert peak < 1.2e6


def collinear_scene():
    return Scene(
        anchors=tuple(Anchor(f"bs{i + 1}", AnchorKind.BS, Point2(float(i), 0.0))
                      for i in range(3)),
        targets=(Target("t1", Point2(1.0, 1.0)),),
        bounds=Bounds(-10, -10, 10, 10),
    )


def reference_score(solution, scene, origins):
    """(consistent, matched, rmse) of a solution's estimates against the scene's targets."""
    truth = scene.target_positions()
    assignment = solution.hypothesis.assignment
    consistent = all(origins[m][assignment[m][k]] == origins[0][k]
                     for m in range(len(assignment)) for k in range(len(assignment[0])))
    errors = [(est.position.x - truth[origins[0][k]][0]) ** 2
              + (est.position.y - truth[origins[0][k]][1]) ** 2
              for k, est in enumerate(solution.estimates)]
    rmse = math.sqrt(sum(errors) / len(errors))
    matched = consistent and all(math.sqrt(e) <= harness.CORRECT_MATCH_RADIUS_M for e in errors)
    return consistent, matched, rmse


def reference_records(spec, sigmas):
    """Uniqueness records (sigmas None) or accuracy records of every trial, built one
    problem at a time through Scene, MeasurementSet, enumerate_feasible and _best_solution."""
    records = []
    for trial, trial_seed in enumerate(harness._trial_seeds(spec.seed, spec.trials)):
        scene = spec.scene or random_scene(
            spec.random_plan.num_bs, spec.random_plan.num_targets, spec.random_plan.bounds,
            rcs_dbsm=spec.random_plan.rcs_dbsm, seed=trial_seed)
        for sigma in sigmas or [0.0]:
            noise = NoiseModel(sigma, spec.noise.quantize_to_resolution, spec.noise.bandwidth_hz)
            ms = measure_distances(scene, spec.link, spec.snr_min_db, noise, trial_seed)
            tol = harness._association_tol(spec.feas_tol_m, noise.effective_sigma_m())
            if sigmas is None:
                record = {"trial": trial, "seed": trial_seed,
                          "detected_pairs": int(ms.detected.sum()),
                          "total_pairs": int(ms.detected.size), "partial": not ms.full_detection,
                          "feasible_count": None, "ghost": None, "correct_found": None,
                          "rmse_m": None}
                if ms.full_detection:
                    solutions = association.enumerate_feasible(ms.profiles, scene.bs_positions(),
                                                               tol)
                    correct = [rmse for _, matched, rmse in
                               (reference_score(s, scene, ms.origins) for s in solutions)
                               if matched]
                    record.update(feasible_count=len(solutions), ghost=len(solutions) > 1,
                                  correct_found=bool(correct),
                                  rmse_m=min(correct) if correct else None)
            else:
                record = {"sigma_m": sigma, "trial": trial, "seed": trial_seed,
                          "partial": not ms.full_detection, "infeasible": None, "correct": None,
                          "rmse_m": None}
                if ms.full_detection:
                    table = association.subproblem_table(ms.profiles, scene.bs_positions(), tol)
                    solution = association._best_solution(table, tol)
                    if solution is None:
                        record.update(infeasible=True, correct=False)
                    else:
                        consistent, _, rmse = reference_score(solution, scene, ms.origins)
                        record.update(infeasible=False, correct=consistent, rmse_m=rmse)
            records.append(record)
    return sorted(records, key=lambda r: (r.get("sigma_m", 0.0), r["trial"]))


class TestArrayStream:
    SIGMAS = [0.0, 0.1, 0.5, 1.0]

    def test_example1_records_match_the_reference(self, scenes_dir):
        # Exact ranges on example 1 have a ghost: two feasible hypotheses.
        spec = ExperimentSpec(scene=load_scene(scenes_dir / "example1.json"), trials=4, seed=3,
                              feas_tol_m=1e-6)
        unique = run_uniqueness_experiment(spec).records
        assert all(r["feasible_count"] == 2 for r in unique)
        assert list(unique) == reference_records(spec, None)
        assert list(run_accuracy_experiment(spec, self.SIGMAS).records) == reference_records(
            spec, self.SIGMAS)

    @pytest.mark.parametrize("plan", [
        PLAN,
        RandomScenePlan(num_bs=4, num_targets=3, bounds=Bounds(-150, -150, 150, 150)),
        # Far targets go undetected, so partial trials mix with solved ones.
        RandomScenePlan(num_bs=3, num_targets=2, bounds=Bounds(-400, -400, 400, 400)),
    ], ids=["k2-m3", "k3-m4", "partial"])
    def test_random_records_match_the_reference(self, plan):
        spec = ExperimentSpec(random_plan=plan, trials=200, seed=20, feas_tol_m=1e-4)
        assert list(run_uniqueness_experiment(spec).records) == reference_records(spec, None)
        spec = replace(spec, trials=50)
        assert list(run_accuracy_experiment(spec, self.SIGMAS).records) == reference_records(
            spec, self.SIGMAS)

    def test_a_stream_checks_once_and_builds_no_scene(self, monkeypatch):
        spec = ExperimentSpec(random_plan=PLAN, trials=100, seed=1729, feas_tol_m=1e-4)
        # No trial's first layout is rejected, so each trial draws once.
        seeds = harness._trial_seeds(spec.seed, spec.trials)
        assert not any(next(scene_module.collinear_triples(
            np.random.default_rng(s).uniform(-150.0, 150.0, size=(3, 2))), None)
            for s in seeds)
        checks, scenes = [], []
        check, init = association._check_inputs, Scene.__init__
        for module in (harness, association):
            monkeypatch.setattr(module, "_check_inputs",
                                lambda *args: checks.append(1) or check(*args))
        monkeypatch.setattr(Scene, "__init__",
                            lambda self, *args, **kw: scenes.append(1) or init(self, *args, **kw))
        report = run_uniqueness_experiment(spec)
        assert report.aggregates["completed"] == 100
        assert (len(checks), len(scenes)) == (1, 0)

    def test_squared_errors_add_left_to_right(self):
        # The reference sums numpy floats, which sum() adds left to right on every
        # Python; from 3.12 it compensates Python floats, and here that moves rmse.
        errors = [1.0, 1e-8 ** 2, 1e-8 ** 2]
        assert math.sqrt(math.fsum(errors) / 3) != math.sqrt(sum(map(np.float64, errors)) / 3)
        _, _, rmse = harness._score(((0, 1, 2),) * 3, [(1.0, 0.0), (1e-8, 0.0), (1e-8, 0.0)],
                                    [(0.0, 0.0)] * 3, ((0, 1, 2),) * 3)
        assert rmse == math.sqrt(sum(map(np.float64, errors)) / 3)


class TestStreamRefusals:
    def test_collinear_fixed_scene(self):
        spec = ExperimentSpec(scene=collinear_scene(), trials=3, seed=0)
        with pytest.raises(GeometryError, match=r"^anchors \(0, 1, 2\) are collinear$"):
            run_uniqueness_experiment(spec)

    @pytest.mark.parametrize("spec, sigmas", [
        (ExperimentSpec(random_plan=PLAN, trials=2, seed=0), [math.inf]),
        # Partial trials are checked too: no problem of this scene is ever solved.
        (ExperimentSpec(scene=partial_scene(), trials=2, seed=0), [0.0, math.inf]),
    ], ids=["full", "partial"])
    def test_non_finite_distances(self, spec, sigmas):
        with pytest.raises(ValueError, match="^bs1: distances must be finite$"):
            run_accuracy_experiment(spec, sigmas)
