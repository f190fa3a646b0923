"""The public names of the package and the CLI's option keys stay stable."""

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


def test_cli_option_keys():
    assert {k: sorted(v) for k, v in allowed_options().items()} == OPTIONS
