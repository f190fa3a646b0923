"""The public names of the package, its functions' parameters, its dataclasses' fields and
the CLI's option keys stay stable: a new keyword option or field is a deliberate change to
these lists."""

import dataclasses
import inspect
import types

import netsense
from netsense.cli import allowed_options

PUBLIC_NAMES = [
    "AmbiguitySurface", "Anchor", "AnchorKind", "AssociationHypothesis",
    "AssociationSolution", "BehindRayError", "Bounds", "ComplexSequence", "DistanceProfile",
    "ExperimentReport", "ExperimentSpec", "GeometryError", "GhostProbabilityResult",
    "GhostReport", "InconsistentMeasurementError", "InfeasibleAssociationError",
    "InvalidRootError", "IrsPathMeasurement", "LinkBudgetParams", "MeasurementSet",
    "NetsenseError", "NoIntersectionError", "NoiseModel", "Point2", "PositionEstimate",
    "RandomScenePlan", "RangeMeasurement", "Scene", "SceneGenerationError",
    "SidelobeMetrics", "SnrResult", "Target", "UnequalCardinalityError", "ValidationReport",
    "ambiguity", "build_ghost_report", "circle_intersections", "covered", "db_to_linear",
    "enumerate_feasible", "exact_profiles", "ghost_probability", "guard_interval",
    "irs_target_distance", "linear_to_db", "load_scene",
    "localize_with_heterogeneous_anchors", "max_sensing_range", "measure_distances",
    "ofdm_symbol", "random_scene", "range_jacobian", "range_residuals", "range_resolution",
    "run_accuracy_experiment", "run_uniqueness_experiment", "save_scene", "scene_from_dict",
    "scene_to_dict", "sensing_snr", "sidelobe_metrics", "solve_association",
    "solve_association_bnb", "solve_ranges", "solve_ranges_batch",
    "synthesize_path_measurement", "triangulate", "trilaterate", "true_distance",
    "validate_scene", "zadoff_chu",
]

# Each public function's parameter names, in order.
PARAMETERS = {
    "ambiguity": ["seq", "doppler_bins", "mode"],
    "build_ghost_report": ["solutions", "ground_truth", "match_radius_m"],
    "circle_intersections": ["c1", "r1", "c2", "r2"],
    "covered": ["params", "snr_min_db", "distance_m"],
    "db_to_linear": ["db"],
    "enumerate_feasible": ["profiles", "anchors", "feas_tol_m", "stats", "table"],
    "exact_profiles": ["scene"],
    "ghost_probability": ["num_trials", "num_bs", "num_targets", "bounds", "feas_tol_m", "seed",
                          "scene"],
    "guard_interval": ["max_range_m"],
    "irs_target_distance": ["m", "bs_pos", "irs_pos"],
    "linear_to_db": ["x"],
    "load_scene": ["path"],
    "localize_with_heterogeneous_anchors": ["bs_positions", "bs_measurements", "irs_pos",
                                            "irs_distance_m"],
    "max_sensing_range": ["params", "snr_min_db"],
    "measure_distances": ["scene", "link", "snr_min_db", "noise", "seed"],
    "ofdm_symbol": ["num_subcarriers", "cp_length", "seed"],
    "random_scene": ["num_bs", "num_targets", "bounds", "rcs_dbsm", "seed", "collinearity_tol",
                     "max_attempts"],
    "range_jacobian": ["p", "anchors_xy"],
    "range_residuals": ["p", "anchors_xy", "distances"],
    "range_resolution": ["bandwidth_hz"],
    "run_accuracy_experiment": ["spec", "sigma_list_m", "workers"],
    "run_uniqueness_experiment": ["spec", "workers"],
    "save_scene": ["scene", "path"],
    "scene_from_dict": ["data"],
    "scene_to_dict": ["scene"],
    "sensing_snr": ["params", "range_m"],
    "sidelobe_metrics": ["surface", "mainlobe_exclusion"],
    "solve_association": ["profiles", "anchors", "feas_tol_m"],
    "solve_association_bnb": ["profiles", "anchors", "feas_tol_m", "table"],
    "solve_ranges": ["anchors_xy", "distances"],
    "solve_ranges_batch": ["anchors_xy", "distances"],
    "synthesize_path_measurement": ["bs_pos", "irs_pos", "target_pos", "bs_id"],
    "triangulate": ["a1", "bearing1", "a2", "bearing2"],
    "trilaterate": ["anchors", "measurements"],
    "true_distance": ["a", "b"],
    "validate_scene": ["scene"],
    "zadoff_chu": ["length", "root"],
}

# Each public dataclass's field names, in order.
FIELDS = {
    "AmbiguitySurface": ["magnitudes", "delay_bins", "doppler_bins", "doppler_freqs", "label"],
    "Anchor": ["id", "kind", "position"],
    "AssociationHypothesis": ["assignment"],
    "AssociationSolution": ["hypothesis", "estimates", "max_residual_m"],
    "Bounds": ["xmin", "ymin", "xmax", "ymax"],
    "ComplexSequence": ["samples", "label"],
    "DistanceProfile": ["anchor_id", "distances"],
    "ExperimentReport": ["kind", "spec", "records", "aggregates"],
    "ExperimentSpec": ["scene", "random_plan", "link", "snr_min_db", "noise", "trials", "seed",
                       "feas_tol_m"],
    "GhostProbabilityResult": ["fraction", "num_trials", "ghost_seeds", "infeasible_seeds",
                               "outcomes"],
    "GhostReport": ["feasible_solutions", "unique", "ghost_positions"],
    "IrsPathMeasurement": ["bs_id", "irs_id", "direct_roundtrip_m", "composite_roundtrip_m"],
    "LinkBudgetParams": ["pt_watts", "gt_dbi", "gr_dbi", "gp_db", "carrier_hz", "rcs_dbsm",
                         "temperature_k", "bandwidth_hz", "noise_factor_db", "wavelength_m",
                         "gt_linear", "gr_linear", "gp_linear", "rcs_m2", "noise_factor_linear"],
    "MeasurementSet": ["profiles", "detected", "origins"],
    "NoiseModel": ["range_sigma_m", "quantize_to_resolution", "bandwidth_hz"],
    "Point2": ["x", "y"],
    "PositionEstimate": ["position", "residual_rms_m", "converged", "iterations"],
    "RandomScenePlan": ["num_bs", "num_targets", "bounds", "rcs_dbsm"],
    "RangeMeasurement": ["anchor_id", "distance_m"],
    "Scene": ["anchors", "targets", "bounds"],
    "SidelobeMetrics": ["psl_db", "isl_db"],
    "SnrResult": ["linear", "db"],
    "Target": ["id", "position", "rcs_dbsm"],
    "ValidationReport": ["violations"],
}

LINK_OPTIONS = [
    "bandwidth_hz", "carrier_hz", "gp_db", "gr_dbi", "gt_dbi", "noise_factor_db",
    "pt_watts", "rcs_dbsm", "snr_min_db", "temperature_k",
]

OPTIONS = {
    "ambiguity": ["cp", "doppler_bins", "length", "mainlobe_exclusion", "mode", "out", "root",
                  "seed", "waveform"],
    "associate": ["match_radius", "out", "profiles", "scene", "solver", "tol"],
    "coverage": sorted(LINK_OPTIONS + ["out"]),
    "ghosts": ["bounds", "num_bs", "num_targets", "out", "scene", "seed", "tol", "trials"],
    "irs": ["measurements", "scene"],
    "localize": ["measurements", "scene"],
    "montecarlo": sorted(LINK_OPTIONS + [
        "bounds", "mode", "num_bs", "num_targets", "out", "quantize", "scene", "seed",
        "sigma_list", "tol", "trials", "trials_csv", "workers"]),
}


def test_public_names():
    names = sorted(n for n, v in vars(netsense).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_public_function_parameters():
    functions = {n: v for n, v in vars(netsense).items()
                 if not n.startswith("_") and inspect.isfunction(v)}
    assert {n: list(inspect.signature(f).parameters) for n, f in functions.items()} == PARAMETERS


def test_public_dataclass_fields():
    classes = {n: v for n, v in vars(netsense).items()
               if not n.startswith("_") and dataclasses.is_dataclass(v)}
    assert {n: [f.name for f in dataclasses.fields(c)] for n, c in classes.items()} == FIELDS


def test_cli_option_keys():
    assert {k: sorted(v) for k, v in allowed_options().items()} == OPTIONS
