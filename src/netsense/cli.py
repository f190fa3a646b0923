"""Unified command line: coverage, ambiguity, localize, associate, ghosts, irs, montecarlo.

Exit codes: 0 success, 1 domain error (message names the failing input),
2 usage error. The default seed is DEFAULT_SEED, overridable with the
NETSENSE_SEED environment variable; an explicit --seed always wins.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import association, harness, irs, link_budget, localization, scene, waveforms
from .errors import NetsenseError

DEFAULT_SEED = 1729

COMMANDS = ("coverage", "ambiguity", "localize", "associate", "ghosts", "irs", "montecarlo")

# Coverage table sample points, as fractions of the solved maximum range.
COVERAGE_FRACTIONS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)

# Most --length x --doppler-bins cells an ambiguity run may ask for. Peak
# heap use per cell, measured: about 60 bytes in cyclic mode, 90 in linear
# mode (its FFTs are twice as long) and up to 170 for linear OFDM, whose
# cyclic prefix can double the rows; AMBIGUITY_BYTES_PER_CELL rounds that
# up. 2^22 cells bound a run near 840 MB; the benchmark's largest grid is
# 1024 x 16.
MAX_AMBIGUITY_CELLS = 1 << 22
AMBIGUITY_BYTES_PER_CELL = 200

# Most trial records (montecarlo --trials x sigma levels, ghosts --trials) a
# run may ask for. Peak RSS grows by about 2.2 KB per uniqueness trial (40.4
# MiB at 1,000 trials, 59.7 at 10,000); 2^18 records bound a run near 580 MB.
MAX_TRIAL_RECORDS = 1 << 18
TRIAL_RECORD_BYTES = 2200


class UsageError(ValueError):
    """A bad invocation outside argparse's reach, reported with exit code 2."""


def _default_seed() -> int:
    raw = os.environ.get("NETSENSE_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        seed = int(raw)
    except ValueError:
        raise UsageError(f"NETSENSE_SEED must be an integer, got {raw!r}") from None
    if seed < 0:
        raise UsageError(f"NETSENSE_SEED must be at least 0, got {seed}")
    return seed


def _int_at_least(low: int):
    """An argparse type for integers of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _sigma_list(text: str) -> str:
    """Check a comma-separated list of finite, nonnegative sigmas.

    Returns the text unchanged, so a saved RunConfig keeps the user's form.
    """
    for item in _split_sigmas(text):
        _nonnegative_float(item)
    return text


def _split_sigmas(text: str) -> list[str]:
    return [s for s in text.split(",") if s != ""]


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved invocation: subcommand plus flat option map.

    Serializing and reloading a RunConfig reproduces the identical run.
    """

    command: str
    options: dict

    def to_json(self) -> str:
        return json.dumps({"command": self.command, "options": self.options},
                          sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        command = data.get("command")
        if command not in COMMANDS:
            raise ValueError(f"unknown subcommand: {command!r}")
        return cls(command=command, options=_checked_options(command, data.get("options", {})))


def save_run_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(cfg.to_json())


def load_run_config(path: str | Path) -> RunConfig:
    return RunConfig.from_json(Path(path).read_text())


# --- parser -----------------------------------------------------------------


def _add_link_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("link budget (Table-style defaults)")
    g.add_argument("--pt-watts", type=_finite_float, default=10.0, help="transmit power [W]")
    g.add_argument("--gt-dbi", type=_finite_float, default=20.0,
                   help="transmit antenna gain [dBi]")
    g.add_argument("--gr-dbi", type=_finite_float, default=20.0,
                   help="receive antenna gain [dBi]")
    g.add_argument("--gp-db", type=_finite_float, default=10.0, help="processing gain [dB]")
    g.add_argument("--carrier-hz", type=_finite_float, default=3.5e9,
                   help="carrier frequency [Hz]")
    g.add_argument("--rcs-dbsm", type=_finite_float, default=-10.0, help="target RCS [dBsm]")
    g.add_argument("--temperature-k", type=_finite_float, default=290.0,
                   help="noise temperature [K]")
    g.add_argument("--bandwidth-hz", type=_finite_float, default=100e6, help="bandwidth [Hz]")
    g.add_argument("--noise-factor-db", type=_finite_float, default=5.0,
                   help="noise factor [dB]")
    g.add_argument("--snr-min-db", type=_finite_float, default=10.0,
                   help="sensing SNR threshold [dB]")


def build_parser() -> argparse.ArgumentParser:
    """A new command-line parser; its --seed defaults are NETSENSE_SEED as read now."""
    seed = _default_seed()
    parser = argparse.ArgumentParser(
        prog="netsense",
        description="Networked device-free sensing simulator and analysis toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coverage", help="sensing SNR table and max coverage range")
    _add_link_flags(p)
    p.add_argument("--out", default=None, help="also write the range/SNR table to this CSV")

    p = sub.add_parser("ambiguity", help="waveform ambiguity surface and side-lobe metrics")
    p.add_argument("--waveform", choices=("zc", "ofdm"), default="zc")
    p.add_argument("--length", type=int, default=63,
                   help="sequence length (zc) or subcarrier count (ofdm)")
    p.add_argument("--root", type=int, default=25, help="Zadoff-Chu root")
    p.add_argument("--cp", type=int, default=16, help="OFDM cyclic prefix length")
    p.add_argument("--seed", type=_int_at_least(0), default=seed)
    p.add_argument("--doppler-bins", type=int, default=16)
    p.add_argument("--mode", choices=("cyclic", "linear"), default="cyclic")
    p.add_argument("--mainlobe-exclusion", type=int, default=1)
    p.add_argument("--out", default="ambiguity.csv", help="CSV grid output (values in dB)")

    p = sub.add_parser("localize", help="trilaterate one target from a measurement file")
    p.add_argument("--scene", required=True, help="scene JSON path")
    p.add_argument("--measurements", required=True,
                   help="CSV with header anchor_id,distance_m")

    p = sub.add_parser("associate", help="enumerate feasible associations / ghost report")
    p.add_argument("--scene", required=True, help="scene JSON path")
    p.add_argument("--profiles", default=None,
                   help="CSV with header anchor_id,distance_m; default: exact distances")
    p.add_argument("--tol", type=_positive_float, default=1e-6, help="feasibility tolerance [m]")
    p.add_argument("--solver", choices=("exhaustive", "bnb"), default="exhaustive")
    p.add_argument("--match-radius", type=_nonnegative_float, default=1e-3,
                   help="ghost/ground-truth match radius [m]")
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    p = sub.add_parser("ghosts", help="Monte Carlo ghost-probability estimate")
    p.add_argument("--trials", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=_int_at_least(0), default=seed)
    p.add_argument("--num-bs", type=_int_at_least(3), default=3)
    p.add_argument("--num-targets", type=_int_at_least(1), default=2)
    p.add_argument("--bounds", type=_finite_float, nargs=4, default=[-150.0, -150.0, 150.0, 150.0],
                   metavar=("XMIN", "YMIN", "XMAX", "YMAX"))
    p.add_argument("--tol", type=_positive_float, default=1e-4, help="feasibility tolerance [m]")
    p.add_argument("--scene", default=None, help="fixed scene JSON (replaces random draws)")
    p.add_argument("--out", default="ghosts.csv", help="per-trial outcome CSV")

    p = sub.add_parser("irs", help="IRS path-subtraction ranging and localization")
    p.add_argument("--scene", required=True, help="scene JSON with one IRS anchor")
    p.add_argument("--measurements", required=True,
                   help="CSV: bs_id,irs_id,direct_roundtrip_m,composite_roundtrip_m")

    p = sub.add_parser("montecarlo", help="uniqueness or accuracy experiment")
    p.add_argument("--mode", choices=("uniqueness", "accuracy"), default="uniqueness")
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=_int_at_least(0), default=seed)
    p.add_argument("--sigma-list", type=_sigma_list, default="0.0,0.01,0.1",
                   help="comma-separated range sigmas [m] (accuracy mode)")
    p.add_argument("--scene", default=None, help="fixed scene JSON (default: random per trial)")
    p.add_argument("--num-bs", type=_int_at_least(3), default=3)
    p.add_argument("--num-targets", type=_int_at_least(1), default=2)
    p.add_argument("--bounds", type=_finite_float, nargs=4, default=[-150.0, -150.0, 150.0, 150.0],
                   metavar=("XMIN", "YMIN", "XMAX", "YMAX"))
    p.add_argument("--tol", type=_positive_float, default=1e-4, help="feasibility tolerance [m]")
    p.add_argument("--quantize", action="store_true",
                   help="round ranges to the c/(2B) resolution grid")
    p.add_argument("--workers", type=_int_at_least(1), default=1, help="parallel trial workers")
    p.add_argument("--out", default="report.json", help="JSON report path")
    p.add_argument("--trials-csv", default=None,
                   help="per-trial CSV path (default: report path with .csv suffix)")
    _add_link_flags(p)

    return parser


@functools.cache
def _built() -> tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]],
                      tuple[argparse.Action, ...]]:
    """The process's parser, each subcommand's actions by option key (dest), and
    its --seed actions; built once, on a call of ``_parser`` that has just read
    NETSENSE_SEED."""
    parser = build_parser()
    sub_action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {name: {a.dest: a for a in sp._actions if a.dest != "help"}
               for name, sp in sub_action.choices.items()}
    return parser, actions, tuple(a["seed"] for a in actions.values() if "seed" in a)


def _parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]]]:
    """The process's parser and its actions, with every --seed default set to
    NETSENSE_SEED as read now; raises UsageError if it is not an integer."""
    seed = _default_seed()
    parser, actions, seed_actions = _built()
    for action in seed_actions:
        action.default = seed
    return parser, actions


def _option_actions() -> dict[str, dict[str, argparse.Action]]:
    """Each subcommand's argparse actions by option key (dest)."""
    return _parser()[1]


def allowed_options() -> dict[str, set[str]]:
    """Option keys accepted by each subcommand (argparse dests)."""
    return {name: set(actions) for name, actions in _option_actions().items()}


def _checked_value(action: argparse.Action, value):
    """``value`` as its flag would parse it, element-wise for an nargs list."""
    if action.nargs == 0:  # store_true
        if not isinstance(value, bool):
            raise ValueError("expected true or false")
        return value
    if isinstance(action.nargs, int):
        if not isinstance(value, list) or len(value) != action.nargs:
            raise ValueError(f"expected a list of {action.nargs} values")
        return [_checked_item(action, v) for v in value]
    if value is None and action.default is None and not action.required:
        return value
    return _checked_item(action, value)


def _checked_item(action: argparse.Action, value):
    """One value through the action's argparse type and choices."""
    if not isinstance(value, (str, int, float)) or isinstance(value, bool):
        raise ValueError("expected a number or a string")
    if action.type is not None:
        try:
            value = action.type(str(value))
        except argparse.ArgumentTypeError as exc:
            raise ValueError(str(exc)) from None
    elif not isinstance(value, str):
        raise ValueError("expected a string")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"expected one of {', '.join(action.choices)}")
    return value


def _checked_options(command: str, options: dict) -> dict:
    """A subcommand's option map, each value checked as its command-line flag is.

    Raises ValueError on unknown or missing keys, and on a value that its
    flag's argparse type or choices reject, naming the key and the value.
    """
    actions = _option_actions()[command]
    unknown = sorted(set(options) - set(actions))
    if unknown:
        raise ValueError(f"unknown option keys for {command}: {unknown}")
    missing = sorted(set(actions) - set(options))
    if missing:
        raise ValueError(f"missing option keys for {command}: {missing}")
    checked = {}
    for key, value in options.items():
        try:
            checked[key] = _checked_value(actions[key], value)
        except ValueError as exc:
            raise ValueError(f"{command} option {key}={value!r}: {exc}") from None
    return checked


# --- report emission ---------------------------------------------------------


def emit_report(report: dict, format: str, path: str | Path) -> None:
    """Write a deterministic JSON or CSV report.

    JSON output is stable-key-ordered. CSV expects the report as
    {"fieldnames": [...], "rows": iterable}, each row a sequence of values
    in fieldnames order (None is written as an empty field), and always
    writes a header row.
    """
    path = Path(path)
    if format == "json":
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    elif format == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(report["fieldnames"])
            writer.writerows(report["rows"])
    else:
        raise ValueError(f"unknown report format: {format!r}")


def _read_csv(path: str, required: Sequence[str]) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or any(c not in reader.fieldnames for c in required):
            raise ValueError(f"{path}: expected CSV header with columns {list(required)}")
        return list(reader)


def _csv_distance(path: str, index: int, row: dict, column: str) -> float:
    """Data row ``index``'s ``column`` as a finite, nonnegative float.

    Errors name the file and the row, counted from 1 after the header.
    """
    raw = row[column]
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{path}: row {index}: {column} must be a finite, "
                         f"nonnegative number, got {raw!r}")
    return value


@contextlib.contextmanager
def _naming(path: str):
    """Prefix a ValueError raised inside with ``path``, the CSV it concerns."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# --- subcommand handlers ------------------------------------------------------


def _link_params(opts: dict) -> link_budget.LinkBudgetParams:
    return link_budget.LinkBudgetParams(
        **{f.name: opts[f.name] for f in fields(link_budget.LinkBudgetParams) if f.init})


def _cmd_coverage(opts: dict) -> None:
    params = _link_params(opts)
    max_range = link_budget.max_sensing_range(params, opts["snr_min_db"])
    rows = []
    for frac in COVERAGE_FRACTIONS:
        r = frac * max_range
        rows.append([repr(r), repr(link_budget.sensing_snr(params, r).db)])
    print(f"max_sensing_range_m,{max_range!r}")
    print("range_m,snr_db")
    for row in rows:
        print(",".join(row))
    if opts.get("out"):
        emit_report({"fieldnames": ["range_m", "snr_db"], "rows": rows}, "csv", opts["out"])


def _build_waveform(opts: dict) -> waveforms.ComplexSequence:
    if opts["waveform"] == "zc":
        return waveforms.zadoff_chu(opts["length"], opts["root"])
    return waveforms.ofdm_symbol(opts["length"], opts["cp"], opts["seed"])


def _refuse_above(request: str, count: int, unit: str, cap: int, unit_bytes: int) -> None:
    """Raise a ValueError naming the flags in ``request`` when ``count`` exceeds ``cap``."""
    if count > cap:
        raise ValueError(f"{request} asks for {count:,} {unit}, about {count * unit_bytes:,} "
                         f"bytes; the cap is {cap:,} {unit}")


def _cmd_ambiguity(opts: dict) -> None:
    _refuse_above(f"--length {opts['length']} x --doppler-bins {opts['doppler_bins']}",
                  opts["length"] * opts["doppler_bins"], "ambiguity cells",
                  MAX_AMBIGUITY_CELLS, AMBIGUITY_BYTES_PER_CELL)
    seq = _build_waveform(opts)
    surface = waveforms.ambiguity(seq, doppler_bins=opts["doppler_bins"], mode=opts["mode"])
    metrics = waveforms.sidelobe_metrics(surface, mainlobe_exclusion=opts["mainlobe_exclusion"])

    db = 20.0 * np.log10(np.maximum(surface.magnitudes, 10.0 ** (waveforms.DB_FLOOR / 20.0)))
    fieldnames = ["delay_bin"] + [f"doppler_{f}" for f in surface.doppler_freqs]
    rows = ([tau, *map(repr, db_row)] for tau, db_row in enumerate(db.tolist()))
    emit_report({"fieldnames": fieldnames, "rows": rows}, "csv", opts["out"])

    print(f"waveform,{seq.label}")
    print(f"psl_db,{metrics.psl_db!r}")
    print(f"isl_db,{metrics.isl_db!r}")
    print(f"grid,{surface.delay_bins}x{surface.doppler_bins}")


def _cmd_localize(opts: dict) -> None:
    scn = scene.load_scene(opts["scene"])
    path = opts["measurements"]
    rows = _read_csv(path, ["anchor_id", "distance_m"])
    measurements = [
        localization.RangeMeasurement(row["anchor_id"], _csv_distance(path, i, row, "distance_m"))
        for i, row in enumerate(rows, start=1)
    ]
    positions = {a.id: a.position for a in scn.anchors}
    used = {m.anchor_id: positions[m.anchor_id] for m in measurements
            if m.anchor_id in positions}
    missing = [m.anchor_id for m in measurements if m.anchor_id not in positions]
    if missing:
        raise ValueError(f"{path}: measurements reference unknown anchors: {missing}")
    with _naming(path):
        est = localization.trilaterate(used, measurements)
    print(f"x_m,{est.position.x!r}")
    print(f"y_m,{est.position.y!r}")
    print(f"residual_rms_m,{est.residual_rms_m!r}")
    print(f"converged,{est.converged}")
    print(f"iterations,{est.iterations}")


def _profiles_from_csv(path: str, scn: scene.Scene) -> list[association.DistanceProfile]:
    rows = _read_csv(path, ["anchor_id", "distance_m"])
    by_anchor: dict[str, list[float]] = {}
    for i, row in enumerate(rows, start=1):
        by_anchor.setdefault(row["anchor_id"], []).append(
            _csv_distance(path, i, row, "distance_m"))
    bs_ids = [a.id for a in scn.base_stations]
    missing = [i for i in bs_ids if i not in by_anchor]
    if missing:
        raise ValueError(f"{path}: profiles are missing base stations: {missing}")
    extra = sorted(set(by_anchor) - set(bs_ids))
    if extra:
        raise ValueError(f"{path}: profiles reference unknown base stations: {extra}")
    return [association.DistanceProfile(i, tuple(by_anchor[i])) for i in bs_ids]


def _solution_dict(sol: association.AssociationSolution) -> dict:
    return {
        "assignment": [list(perm) for perm in sol.hypothesis.assignment],
        "max_residual_m": sol.max_residual_m,
        "estimates": [
            {
                "x_m": e.position.x,
                "y_m": e.position.y,
                "residual_rms_m": e.residual_rms_m,
                "converged": e.converged,
                "iterations": e.iterations,
            }
            for e in sol.estimates
        ],
    }


def _cmd_associate(opts: dict) -> None:
    scn = scene.load_scene(opts["scene"])
    report = scene.validate_scene(scn)
    if not report.ok:
        raise ValueError("invalid scene: " + "; ".join(report.violations))
    profiles = (_profiles_from_csv(opts["profiles"], scn) if opts.get("profiles")
                else association.exact_profiles(scn))
    anchors = scn.bs_positions()

    # The enumeration lists the best solution first, which is what either solver picks.
    solutions = association.enumerate_feasible(profiles, anchors, opts["tol"])
    truth = [t.position for t in scn.targets]
    ghost_report = association.build_ghost_report(
        solutions, ground_truth=truth, match_radius_m=opts["match_radius"]
    )

    payload = {
        "solver": opts["solver"],
        "num_feasible": len(solutions),
        "unique": ghost_report.unique,
        "feasible_solutions": [_solution_dict(s) for s in ghost_report.feasible_solutions],
        "ghost_positions": [[p.x, p.y] for p in ghost_report.ghost_positions],
        "best_solution": _solution_dict(solutions[0]) if solutions else None,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if opts.get("out"):
        Path(opts["out"]).write_text(text)
    else:
        print(text, end="")


def _load_sweep_scene(path: str) -> scene.Scene:
    """The scene file of a trial sweep, refused at load when its BSs have a collinear
    triple, on which every trial with full detection would fail."""
    scn = scene.load_scene(path)
    collinear = scene.collinear_bs_lines(scn)
    if collinear:
        raise ValueError(f"{path}: " + "; ".join(collinear))
    return scn


def _cmd_ghosts(opts: dict) -> None:
    _refuse_above(f"--trials {opts['trials']}", opts["trials"], "trial records",
                  MAX_TRIAL_RECORDS, TRIAL_RECORD_BYTES)
    fixed_scene = _load_sweep_scene(opts["scene"]) if opts.get("scene") else None
    bounds = scene.Bounds(*opts["bounds"])
    result = association.ghost_probability(
        num_trials=opts["trials"],
        num_bs=opts["num_bs"],
        num_targets=opts["num_targets"],
        bounds=bounds,
        feas_tol_m=opts["tol"],
        seed=opts["seed"],
        scene=fixed_scene,
    )
    fieldnames = [f.name for f in fields(association.GhostTrialOutcome)]
    rows = [astuple(o) for o in result.outcomes]
    emit_report({"fieldnames": fieldnames, "rows": rows}, "csv", opts["out"])
    print(f"ghost_fraction,{result.fraction!r}")
    print(f"ghost_trials,{len(result.ghost_seeds)}")
    print(f"infeasible_trials,{len(result.infeasible_seeds)}")
    print(f"trials,{result.num_trials}")


def _cmd_irs(opts: dict) -> None:
    scn = scene.load_scene(opts["scene"])
    irs_positions = {a.id: a.position for a in scn.irs_anchors}
    if not irs_positions:
        raise ValueError("scene has no IRS anchor")
    path = opts["measurements"]
    rows = _read_csv(path, ["bs_id", "irs_id", "direct_roundtrip_m", "composite_roundtrip_m"])
    referenced_irs = {row["irs_id"] for row in rows}
    if len(referenced_irs) != 1 or not referenced_irs <= irs_positions.keys():
        raise ValueError(f"{path}: measurements must reference exactly one scene IRS, "
                         f"got {sorted(referenced_irs)}")
    irs_id = referenced_irs.pop()
    irs_pos = irs_positions[irs_id]
    bs_positions = {a.id: a.position for a in scn.base_stations}

    bs_measurements = []
    recovered = []
    for i, row in enumerate(rows, start=1):
        bs_id = row["bs_id"]
        if bs_id not in bs_positions:
            raise ValueError(f"{path}: row {i}: unknown BS id {bs_id!r}")
        m = irs.IrsPathMeasurement(
            bs_id=bs_id,
            irs_id=irs_id,
            direct_roundtrip_m=_csv_distance(path, i, row, "direct_roundtrip_m"),
            composite_roundtrip_m=_csv_distance(path, i, row, "composite_roundtrip_m"),
        )
        recovered.append(irs.irs_target_distance(m, bs_positions[bs_id], irs_pos))
        bs_measurements.append(
            localization.RangeMeasurement(bs_id, m.direct_roundtrip_m / 2.0)
        )
    irs_distance = harness._left_sum(recovered) / len(recovered)
    with _naming(path):
        est = irs.localize_with_heterogeneous_anchors(
            bs_positions, bs_measurements, irs_pos, irs_distance)
    print(f"irs_distance_m,{irs_distance!r}")
    print(f"x_m,{est.position.x!r}")
    print(f"y_m,{est.position.y!r}")
    print(f"residual_rms_m,{est.residual_rms_m!r}")
    print(f"converged,{est.converged}")


def _cmd_montecarlo(opts: dict) -> None:
    sigmas = [float(s) for s in _split_sigmas(opts["sigma_list"])]
    if huge := [sigma for sigma in sigmas if math.isinf(sigma * sigma)]:
        raise ValueError(f"--sigma-list: sigma {huge[0]!r} m is too large; its square overflows")
    accuracy = opts["mode"] == "accuracy"
    levels = len(sigmas) if accuracy else 1
    request = f"--trials {opts['trials']}" + (
        f" x {levels} --sigma-list levels" if accuracy else "")
    _refuse_above(request, opts["trials"] * levels, "trial records",
                  MAX_TRIAL_RECORDS, TRIAL_RECORD_BYTES)
    trials_csv = opts.get("trials_csv") or str(Path(opts["out"]).with_suffix(".csv"))
    if Path(trials_csv).resolve() == Path(opts["out"]).resolve():
        raise ValueError(f"--out and --trials-csv both name {trials_csv}; "
                         "the per-trial CSV would overwrite the JSON report")
    fixed_scene = _load_sweep_scene(opts["scene"]) if opts.get("scene") else None
    plan = None
    if fixed_scene is None:
        plan = harness.RandomScenePlan(
            num_bs=opts["num_bs"],
            num_targets=opts["num_targets"],
            bounds=scene.Bounds(*opts["bounds"]),
            rcs_dbsm=opts["rcs_dbsm"],
        )
    spec = harness.ExperimentSpec(
        scene=fixed_scene,
        random_plan=plan,
        link=_link_params(opts),
        snr_min_db=opts["snr_min_db"],
        noise=harness.NoiseModel(0.0, opts["quantize"], opts["bandwidth_hz"]),
        trials=opts["trials"],
        seed=opts["seed"],
        feas_tol_m=opts["tol"],
    )
    if not accuracy:
        report = harness.run_uniqueness_experiment(spec, workers=opts["workers"])
        print(f"ghost_fraction,{report.aggregates['ghost_fraction']!r}")
        print(f"completed,{report.aggregates['completed']}")
        print(f"partial,{report.aggregates['partial']}")
    else:
        report = harness.run_accuracy_experiment(spec, sigmas, workers=opts["workers"])
        for level in report.aggregates["levels"]:
            rmse = level["rmse_m"]
            print(f"sigma_m,{level['sigma_m']!r},correct_rate,{level['correct_rate']!r},"
                  f"rmse_m,{'' if rmse is None else repr(rmse)}")

    emit_report(report.to_dict(), "json", opts["out"])
    fieldnames = list(report.records[0])
    rows = [[r[k] for k in fieldnames] for r in report.records]
    emit_report({"fieldnames": fieldnames, "rows": rows}, "csv", trials_csv)
    print(f"report,{opts['out']}")
    print(f"trials_csv,{trials_csv}")


_HANDLERS = {
    "coverage": _cmd_coverage,
    "ambiguity": _cmd_ambiguity,
    "localize": _cmd_localize,
    "associate": _cmd_associate,
    "ghosts": _cmd_ghosts,
    "irs": _cmd_irs,
    "montecarlo": _cmd_montecarlo,
}


def _run(command: str, options: dict) -> int:
    try:
        _HANDLERS[command](options)
        return 0
    except (NetsenseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def dispatch_config(cfg: RunConfig) -> int:
    """Execute a resolved RunConfig; returns a process exit code.

    Its options are checked as the command-line flags would check them; a
    bad key or value is a domain error (exit 1) naming it.
    """
    if cfg.command not in _HANDLERS:
        print(f"error: unknown subcommand {cfg.command!r}", file=sys.stderr)
        return 2
    try:
        options = _checked_options(cfg.command, cfg.options)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _run(cfg.command, options)


def parse_and_dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse argv, route to the subcommand, and return the exit code."""
    try:
        parser, _ = _parser()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        namespace = parser.parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    # argparse has checked every value already.
    return _run(namespace.command, {k: v for k, v in vars(namespace).items() if k != "command"})


def main() -> None:
    raise SystemExit(parse_and_dispatch())


if __name__ == "__main__":
    main()
