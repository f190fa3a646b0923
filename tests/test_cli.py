import csv
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from netsense import association, cli, harness, waveforms
from netsense.cli import (
    RunConfig,
    allowed_options,
    build_parser,
    dispatch_config,
    emit_report,
    load_run_config,
    parse_and_dispatch,
    save_run_config,
)
from netsense.scene import Bounds, random_scene, save_scene


def run_cli(capsys, args):
    code = parse_and_dispatch(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv_lines(out):
    values = {}
    for line in out.splitlines():
        parts = line.split(",")
        if len(parts) >= 2:
            values[parts[0]] = parts[1]
    return values


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["frobnicate"])
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["coverage", "--warp-speed", "9"])
        assert code == 2

    def test_non_integer_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("NETSENSE_SEED", "abc")
        code, _, err = run_cli(capsys, ["ghosts", "--trials", "2"])
        assert code == 2
        assert "NETSENSE_SEED" in err
        assert "Traceback" not in err

    def test_negative_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("NETSENSE_SEED", "-5")
        code, out, err = run_cli(capsys, ["ghosts", "--trials", "2"])
        assert (code, out) == (2, "")
        assert err == "error: NETSENSE_SEED must be at least 0, got -5\n"

    @pytest.mark.parametrize("workers", ["-4", "0"])
    def test_nonpositive_workers_is_usage_error(self, capsys, tmp_path, workers):
        code, _, err = run_cli(capsys, [
            "montecarlo", "--trials", "2", "--workers", workers,
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "--workers" in err
        assert not (tmp_path / "r.json").exists()

    def test_domain_error_exit_code_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "bounds": [-10, -10, 10, 10],
            "anchors": [
                {"id": "bs1", "kind": "bs", "x": 0.0, "y": 0.0},
                {"id": "bs2", "kind": "bs", "x": 1.0, "y": 0.0},
                {"id": "bs3", "kind": "bs", "x": 2.0, "y": 0.0},
            ],
            "targets": [{"id": "t1", "x": 1.0, "y": 1.0, "rcs_dbsm": -10.0}],
        }))
        code, _, err = run_cli(capsys, ["associate", "--scene", str(bad)])
        assert code == 1
        assert "collinear" in err

    @pytest.mark.parametrize("argv, flag", [
        (["associate", "--scene", "SCENE", "--tol", "nan"], "--tol"),
        (["associate", "--scene", "SCENE", "--match-radius", "nan"], "--match-radius"),
        (["ghosts", "--tol", "nan"], "--tol"),
        (["ghosts", "--tol", "0"], "--tol"),
        (["montecarlo", "--tol=-1e-4"], "--tol"),
        (["montecarlo", "--bounds", "0", "0", "inf", "5"], "--bounds"),
        (["montecarlo", "--rcs-dbsm=-inf"], "--rcs-dbsm"),
        (["coverage", "--pt-watts", "nan"], "--pt-watts"),
        (["coverage", "--snr-min-db", "inf"], "--snr-min-db"),
        (["associate", "--scene", "SCENE", "--match-radius", "-1"], "--match-radius"),
        (["ghosts", "--num-targets", "0"], "--num-targets"),
        (["montecarlo", "--num-targets", "0"], "--num-targets"),
        (["montecarlo", "--num-bs", "2"], "--num-bs"),
        (["ghosts", "--num-bs", "2"], "--num-bs"),
        (["montecarlo", "--trials", "0"], "--trials"),
        (["ghosts", "--trials", "-1"], "--trials"),
        (["montecarlo", "--seed", "-1"], "--seed"),
        (["ghosts", "--seed", "-3"], "--seed"),
        (["ambiguity", "--waveform", "ofdm", "--length", "64", "--seed", "-1"], "--seed"),
        (["ambiguity", "--waveform", "zc", "--seed", "-1"], "--seed"),
    ])
    def test_bad_float_flag_is_usage_error(self, capsys, tmp_path, scenes_dir, argv, flag):
        argv = [str(scenes_dir / "example1.json") if a == "SCENE" else a for a in argv]
        code, out, err = run_cli(capsys, argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert f"argument {flag}" in err
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sigmas, bad", [
        ("nan", "nan"), ("0.0,inf", "inf"), ("0.0,-0.1", "-0.1"), ("0.1,abc", "abc"),
    ])
    def test_bad_sigma_list_is_usage_error(self, capsys, tmp_path, sigmas, bad):
        report = tmp_path / "r.json"
        code, out, err = run_cli(capsys, [
            "montecarlo", "--mode", "accuracy", "--trials", "3", "--sigma-list", sigmas,
            "--out", str(report),
        ])
        assert code == 2
        assert "argument --sigma-list" in err
        assert repr(bad) in err
        assert out == ""
        assert not report.exists()

    def test_sigma_whose_square_overflows_is_domain_error(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        argv = ["montecarlo", "--mode", "accuracy", "--trials", "1", "--out", str(report)]
        code, out, err = run_cli(capsys, argv + ["--sigma-list", "0.1,1e200"])
        assert (code, out) == (1, "")
        assert err == "error: --sigma-list: sigma 1e+200 m is too large; its square overflows\n"
        assert not report.exists()
        for quantize in ([], ["--quantize"]):
            code, _, err = run_cli(capsys, argv + ["--sigma-list", "1e154"] + quantize)
            assert (code, err) == (0, "")

    @pytest.mark.parametrize("flags", [["--out", "r.csv"],
                                       ["--out", "r.json", "--trials-csv", "./r.json"]])
    def test_trials_csv_on_the_report_path_is_domain_error(self, capsys, tmp_path, monkeypatch,
                                                           flags):
        # The per-trial CSV would overwrite the JSON report; no trial runs.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "run_uniqueness_experiment", None)
        code, out, err = run_cli(capsys, ["montecarlo", "--trials", "2", *flags])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: --out and --trials-csv both name {flags[-1]}; ")
        assert list(tmp_path.iterdir()) == []

    def test_sigma_list_keeps_its_text(self):
        namespace = build_parser().parse_args(["montecarlo", "--sigma-list", "0.10,,1e-1"])
        assert namespace.sigma_list == "0.10,,1e-1"


class TestSceneJson:
    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("bounds"), "missing key 'bounds'"),
        (lambda d: d["targets"][1].update(rcs_dbsm=math.nan), "target t2: rcs_dbsm must be finite"),
        (lambda d: d["anchors"][1].pop("x"), "anchor bs2: missing key 'x'"),
        (lambda d: d["anchors"][0].update(y="far"), "anchor bs1: could not convert"),
    ], ids=["no-bounds", "nan-rcs", "no-x", "text-y"])
    def test_bad_scene_names_file_and_entry(self, capsys, tmp_path, scenes_dir, edit, message):
        data = json.loads((scenes_dir / "example1.json").read_text())
        edit(data)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(data))
        report = tmp_path / "r.json"
        code, out, err = run_cli(capsys, [
            "montecarlo", "--scene", str(path), "--trials", "3", "--out", str(report),
        ])
        assert code == 1
        assert f"{path}: {message}" in err
        assert not report.exists()

    # One call per command that reads a scene; each must refuse a repeated
    # anchor id before using the scene, since a dict keyed by id would keep
    # only the last entry.
    @pytest.mark.parametrize("command", ["localize", "irs", "associate", "ghosts", "montecarlo"])
    def test_repeated_anchor_id_refused(self, capsys, tmp_path, scenes_dir, command):
        source = "fig5.json" if command == "irs" else "example1.json"
        data = json.loads((scenes_dir / source).read_text())
        data["anchors"].append({**data["anchors"][0], "x": 40.0, "y": 40.0})
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(data))
        meas = tmp_path / "meas.csv"
        meas.write_text("bs_id,irs_id,direct_roundtrip_m,composite_roundtrip_m\n"
                        "bs1,irs1,7.2,12.1\nbs2,irs1,11.3,17.1\n" if command == "irs"
                        else "anchor_id,distance_m\nbs1,6.7\nbs2,3.6\nbs3,8.5\n")
        report = tmp_path / "r.json"
        argv = {
            "localize": ["--measurements", str(meas)],
            "irs": ["--measurements", str(meas)],
            "associate": ["--out", str(report)],
            "ghosts": ["--trials", "3", "--out", str(report)],
            "montecarlo": ["--trials", "3", "--out", str(report)],
        }[command]
        code, out, err = run_cli(capsys, [command, "--scene", str(path), *argv])
        assert (code, out) == (1, "")
        assert f"{path}: duplicate anchor id: bs1" in err
        assert not report.exists()

    # Every trial with full detection would fail on these BSs, so the trial
    # sweeps refuse the scene at load, naming the file and the BS ids.
    @pytest.mark.parametrize("command", ["ghosts", "montecarlo"])
    def test_collinear_bs_refused_at_load(self, capsys, tmp_path, monkeypatch, command):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({
            "bounds": [-20, -20, 20, 20],
            "anchors": [{"id": f"bs{i}", "kind": "bs", "x": x, "y": 0.0}
                        for i, x in enumerate([0.0, 5.0, 9.0], start=1)],
            "targets": [{"id": "t1", "x": 3.0, "y": 4.0, "rcs_dbsm": -10.0}],
        }))
        monkeypatch.setattr(harness, "_run_trials", None)  # no trial may run
        report = tmp_path / "r.json"
        code, out, err = run_cli(capsys, [command, "--scene", str(path), "--trials", "3",
                                          "--out", str(report)])
        assert (code, out) == (1, "")
        assert f"{path}: collinear BS triple: bs1, bs2, bs3" in err
        assert not report.exists()



class TestCoverage:
    # CSV and stdout sha256, recorded before emit_report took row sequences.
    GOLDEN = {
        "default": (
            [],
            "671c40511b4082356f52e8126203cffbb225d66a1799beed3c723f156d4f30fb",
            "2efbc9bb2f15c6609129d5cdf00f040c684ad45c2b4e1610ee524052e6736768",
        ),
        "vehicle_mmwave": (
            ["--rcs-dbsm", "15", "--carrier-hz", "28e9"],
            "c62ee3ef90ac960590b0be645472cb1738a29ad468ea8ad521951c1b4fc14ffc",
            "cc771a55a38340aad22474931e8dc42537c940eb6c50e2497dba8e0a5d1799f3",
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_outputs_sha256(self, capsys, tmp_path, name):
        flags, csv_sha, stdout_sha = self.GOLDEN[name]
        out_csv = tmp_path / "cov.csv"
        code, out, _ = run_cli(capsys, ["coverage", *flags, "--out", str(out_csv)])
        assert code == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha

    def test_pedestrian_max_range(self, capsys):
        code, out, _ = run_cli(capsys, ["coverage", "--rcs-dbsm", "-10"])
        assert code == 0
        values = parse_kv_lines(out)
        assert float(values["max_sensing_range_m"]) == pytest.approx(413.0, rel=0.01)

    def test_vehicle_max_range(self, capsys):
        code, out, _ = run_cli(capsys, ["coverage", "--rcs-dbsm", "15"])
        assert code == 0
        assert float(parse_kv_lines(out)["max_sensing_range_m"]) == pytest.approx(1744.0, rel=0.01)

    def test_table_written(self, capsys, tmp_path):
        out_csv = tmp_path / "cov.csv"
        code, _, _ = run_cli(capsys, ["coverage", "--out", str(out_csv)])
        assert code == 0
        rows = list(csv.DictReader(out_csv.open()))
        assert len(rows) == 8
        assert set(rows[0]) == {"range_m", "snr_db"}


class TestAmbiguity:
    def test_csv_shape_64x16(self, capsys, tmp_path):
        out_csv = tmp_path / "amb.csv"
        code, out, _ = run_cli(capsys, [
            "ambiguity", "--waveform", "zc", "--length", "64", "--root", "25",
            "--doppler-bins", "16", "--out", str(out_csv),
        ])
        assert code == 0
        rows = list(csv.reader(out_csv.open()))
        header, data = rows[0], rows[1:]
        assert len(data) == 64
        assert len(header) == 17  # delay index + 16 Doppler columns
        assert header[0] == "delay_bin"

    def test_prints_metrics(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, [
            "ambiguity", "--waveform", "ofdm", "--length", "64", "--cp", "16",
            "--seed", "7", "--doppler-bins", "1", "--out", str(tmp_path / "a.csv"),
        ])
        assert code == 0
        values = parse_kv_lines(out)
        assert float(values["psl_db"]) > -20.0
        assert "isl_db" in values

    def test_invalid_root_is_domain_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, [
            "ambiguity", "--waveform", "zc", "--length", "63", "--root", "21",
            "--out", str(tmp_path / "a.csv"),
        ])
        assert code == 1
        assert "coprime" in err

    def test_sizes_in_use_are_admitted(self):
        assert cli.MAX_AMBIGUITY_CELLS >= (1024 + 72) * 16  # the benchmark's OFDM grid

    @pytest.mark.parametrize("waveform", ["zc", "ofdm"])
    def test_grid_above_cap_refused_before_the_sequence(self, capsys, tmp_path, monkeypatch,
                                                        waveform):
        monkeypatch.setattr(cli, "MAX_AMBIGUITY_CELLS", 64 * 16 - 1)

        def unreachable(*args, **kwargs):
            raise AssertionError("sequence built before the size check")

        monkeypatch.setattr(waveforms, "zadoff_chu", unreachable)
        monkeypatch.setattr(waveforms, "ofdm_symbol", unreachable)
        out_csv = tmp_path / "a.csv"
        code, out, err = run_cli(capsys, [
            "ambiguity", "--waveform", waveform, "--length", "64", "--doppler-bins", "16",
            "--out", str(out_csv),
        ])
        assert code == 1
        assert (f"--length 64 x --doppler-bins 16 asks for 1,024 ambiguity cells, "
                f"about {1024 * cli.AMBIGUITY_BYTES_PER_CELL:,} bytes") in err
        assert out == ""
        assert not out_csv.exists()

    def test_cap_is_inclusive(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_AMBIGUITY_CELLS", 64 * 16)
        code, _, _ = run_cli(capsys, [
            "ambiguity", "--length", "64", "--doppler-bins", "16",
            "--out", str(tmp_path / "a.csv"),
        ])
        assert code == 0


class TestLocalize:
    def test_worked_example(self, capsys, tmp_path, scenes_dir):
        meas = tmp_path / "meas.csv"
        meas.write_text(
            "anchor_id,distance_m\n"
            f"bs1,{math.sqrt(51.25)!r}\n"
            f"bs2,{math.sqrt(13.0)!r}\n"
            f"bs3,{math.sqrt(65.25)!r}\n"
        )
        code, out, _ = run_cli(capsys, [
            "localize", "--scene", str(scenes_dir / "example1.json"),
            "--measurements", str(meas),
        ])
        assert code == 0
        values = parse_kv_lines(out)
        assert float(values["x_m"]) == pytest.approx(3.0, abs=1e-6)
        assert float(values["y_m"]) == pytest.approx(3.0, abs=1e-6)
        assert float(values["residual_rms_m"]) < 1e-6

    def test_non_finite_range_names_file_and_row(self, capsys, tmp_path, scenes_dir):
        meas = tmp_path / "meas.csv"
        meas.write_text("anchor_id,distance_m\nbs1,7.0\nbs2,inf\nbs3,8.0\n")
        code, _, err = run_cli(capsys, [
            "localize", "--scene", str(scenes_dir / "example1.json"),
            "--measurements", str(meas),
        ])
        assert code == 1
        assert f"{meas}: row 2" in err

    def test_unknown_anchor_names_file(self, capsys, tmp_path, scenes_dir):
        meas = tmp_path / "meas.csv"
        meas.write_text("anchor_id,distance_m\nbs1,7.0\nbs9,6.0\nbs3,8.0\n")
        code, out, err = run_cli(capsys, [
            "localize", "--scene", str(scenes_dir / "example1.json"),
            "--measurements", str(meas),
        ])
        assert (code, out) == (1, "")
        assert f"{meas}: measurements reference unknown anchors: ['bs9']" in err

    @pytest.mark.parametrize("rows, message", [
        ("bs1,7.0\nbs2,6.0\nbs3,8.0\nbs1,7.0\n", "duplicate anchor_id in measurements"),
        ("bs1,7.0\nbs2,6.0\n", "need at least 3 anchors"),
    ])
    def test_trilateration_refusal_names_file(self, capsys, tmp_path, scenes_dir, rows,
                                              message):
        meas = tmp_path / "meas.csv"
        meas.write_text("anchor_id,distance_m\n" + rows)
        code, out, err = run_cli(capsys, [
            "localize", "--scene", str(scenes_dir / "example1.json"),
            "--measurements", str(meas),
        ])
        assert (code, out) == (1, "")
        assert f"{meas}: {message}" in err

    def test_missing_header_is_domain_error(self, capsys, tmp_path, scenes_dir):
        meas = tmp_path / "meas.csv"
        meas.write_text("a,b\n1,2\n")
        code, _, _ = run_cli(capsys, [
            "localize", "--scene", str(scenes_dir / "example1.json"),
            "--measurements", str(meas),
        ])
        assert code == 1


class TestAssociate:
    def test_example1_report(self, capsys, scenes_dir):
        code, out, _ = run_cli(capsys, [
            "associate", "--scene", str(scenes_dir / "example1.json"), "--tol", "1e-6",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["num_feasible"] == 2
        assert payload["unique"] is False
        ghosts = sorted(tuple(round(c, 6) for c in g) for g in payload["ghost_positions"])
        assert ghosts == [(-3.0, 3.0), (3.0, -3.0)]

    def test_example2_report_unique(self, capsys, scenes_dir):
        code, out, _ = run_cli(capsys, [
            "associate", "--scene", str(scenes_dir / "example2.json"), "--tol", "1e-6",
        ])
        payload = json.loads(out)
        assert payload["num_feasible"] == 1
        assert payload["unique"] is True
        assert payload["ghost_positions"] == []

    def test_bnb_solver_reports_same_best(self, capsys, scenes_dir):
        code, out_a, _ = run_cli(capsys, [
            "associate", "--scene", str(scenes_dir / "example2.json"), "--solver", "exhaustive",
        ])
        code, out_b, _ = run_cli(capsys, [
            "associate", "--scene", str(scenes_dir / "example2.json"), "--solver", "bnb",
        ])
        a, b = json.loads(out_a), json.loads(out_b)
        assert a["best_solution"]["assignment"] == b["best_solution"]["assignment"]

    def test_bnb_solver_runs_one_search(self, capsys, scenes_dir, monkeypatch):
        # The enumeration already lists the best solution first, so bnb adds no search.
        def unreachable(*args, **kwargs):
            raise AssertionError("associate ran a second search")

        monkeypatch.setattr(association, "solve_association_bnb", unreachable)
        code, out, err = run_cli(capsys, [
            "associate", "--scene", str(scenes_dir / "example1.json"), "--solver", "bnb",
        ])
        assert (code, err) == (0, "")
        assert json.loads(out)["best_solution"]["assignment"] == [[0, 1], [0, 1], [0, 1]]

    def test_profiles_csv_override(self, capsys, tmp_path, scenes_dir):
        prof = tmp_path / "profiles.csv"
        lines = ["anchor_id,distance_m"]
        for bs, d2s in (("bs1", (51.25, 9.25)), ("bs2", (13.0, 73.0)), ("bs3", (65.25, 11.25))):
            for d2 in d2s:
                lines.append(f"{bs},{math.sqrt(d2)!r}")
        prof.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, [
            "associate", "--scene", str(scenes_dir / "example1.json"),
            "--profiles", str(prof), "--tol", "1e-6",
        ])
        assert code == 0
        assert json.loads(out)["num_feasible"] == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1.0", "far"])
    def test_bad_profile_distance_names_file_and_row(self, capsys, tmp_path, scenes_dir, bad):
        prof = tmp_path / "profiles.csv"
        prof.write_text("anchor_id,distance_m\nbs1,1.0\nbs1,2.0\nbs2,1.0\n"
                        f"bs2,{bad}\nbs3,1.0\nbs3,2.0\n")
        code, out, err = run_cli(capsys, [
            "associate", "--scene", str(scenes_dir / "example1.json"), "--profiles", str(prof),
        ])
        assert code == 1
        assert out == ""
        assert f"{prof}: row 4" in err

    @pytest.mark.parametrize("rows, message", [
        ("bs1,1.0\nbs2,1.0\n", "profiles are missing base stations: ['bs3']"),
        ("bs1,1.0\nbs2,1.0\nbs3,1.0\nbs9,1.0\n",
         "profiles reference unknown base stations: ['bs9']"),
    ])
    def test_profile_base_stations_name_file(self, capsys, tmp_path, scenes_dir, rows, message):
        prof = tmp_path / "profiles.csv"
        prof.write_text("anchor_id,distance_m\n" + rows)
        code, out, err = run_cli(capsys, [
            "associate", "--scene", str(scenes_dir / "example1.json"), "--profiles", str(prof),
        ])
        assert (code, out) == (1, "")
        assert f"{prof}: {message}" in err

    def test_output_file(self, capsys, tmp_path, scenes_dir):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, [
            "associate", "--scene", str(scenes_dir / "example1.json"), "--out", str(out_path),
        ])
        assert code == 0
        assert json.loads(out_path.read_text())["num_feasible"] == 2

    @pytest.mark.parametrize("tol", ["1e150", "1e300"])
    @pytest.mark.parametrize("solver", ["exhaustive", "bnb"])
    def test_huge_tolerance_lists_every_hypothesis_quietly(self, capsys, scenes_dir, tol,
                                                           solver):
        # Every one of Example 1's (2!)^2 hypotheses is feasible, and the gate
        # admits every row without arithmetic that could overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "associate", "--scene", str(scenes_dir / "example1.json"), "--tol", tol,
                "--solver", solver,
            ])
        assert (code, err) == (0, "")
        assert json.loads(out)["num_feasible"] == 4

    def test_hypothesis_cap_is_domain_error(self, capsys, tmp_path, monkeypatch):
        # Exact ranges: the search examines one candidate per target slot.
        monkeypatch.setattr(association, "MAX_SEARCH_NODES", 2)
        path = tmp_path / "k3m4.json"
        save_scene(random_scene(4, 3, Bounds(-150, -150, 150, 150), seed=5), path)
        code, out, err = run_cli(capsys, ["associate", "--scene", str(path)])
        assert code == 1
        assert out == ""
        assert "K=3 targets at M=4 anchors: the search examined 3 candidate rows" in err

    def test_subproblem_cap_is_domain_error(self, capsys, tmp_path, monkeypatch):
        # A tolerance of 1e300 m gates nothing, so the join holds all 81 rows.
        monkeypatch.setattr(association, "MAX_GATE_ROWS", 80)
        path = tmp_path / "k3m4.json"
        save_scene(random_scene(4, 3, Bounds(-150, -150, 150, 150), seed=5), path)
        code, out, err = run_cli(capsys, ["associate", "--scene", str(path), "--tol", "1e300"])
        assert code == 1
        assert out == ""
        assert "K=3 targets at M=4 anchors leave 81 candidate rows at anchor 4" in err

    def test_eight_targets_at_six_bs(self, capsys, tmp_path):
        # (8!)^5 ~ 1.1e23 hypotheses over 262,144 rows, of which the 8 true
        # rows survive the gate.
        scn = random_scene(6, 8, Bounds(-150, -150, 150, 150), seed=1729)
        save_scene(scn, tmp_path / "k8m6.json")
        code, out, err = run_cli(capsys, ["associate", "--scene", str(tmp_path / "k8m6.json"),
                                          "--solver", "bnb"])
        assert (code, err) == (0, "")
        best = json.loads(out)["best_solution"]
        assert best["assignment"] == [list(range(8))] * 6  # profiles list targets in order
        for estimate, target in zip(best["estimates"], scn.targets):
            assert math.hypot(estimate["x_m"] - target.position.x,
                              estimate["y_m"] - target.position.y) <= 1e-6


class TestGhostsAndMonteCarlo:
    def test_ghosts_writes_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "g.csv"
        code, out, _ = run_cli(capsys, [
            "ghosts", "--trials", "20", "--seed", "4", "--out", str(out_csv),
        ])
        assert code == 0
        values = parse_kv_lines(out)
        assert float(values["ghost_fraction"]) <= 0.05
        rows = list(csv.DictReader(out_csv.open()))
        assert len(rows) == 20
        assert set(rows[0]) == {"trial", "seed", "feasible_count", "ghost", "infeasible", "correct_found"}

    def test_ghosts_fixed_scene_example1(self, capsys, tmp_path, scenes_dir):
        code, out, _ = run_cli(capsys, [
            "ghosts", "--trials", "1", "--scene", str(scenes_dir / "example1.json"),
            "--tol", "1e-6", "--out", str(tmp_path / "g.csv"),
        ])
        assert code == 0
        assert float(parse_kv_lines(out)["ghost_fraction"]) == 1.0

    def test_montecarlo_uniqueness_outputs(self, capsys, tmp_path):
        out_json = tmp_path / "rep.json"
        code, out, _ = run_cli(capsys, [
            "montecarlo", "--mode", "uniqueness", "--trials", "10", "--seed", "2",
            "--out", str(out_json),
        ])
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["kind"] == "uniqueness"
        assert len(report["records"]) == 10
        csv_rows = list(csv.DictReader((tmp_path / "rep.csv").open()))
        assert len(csv_rows) == 10

    def test_montecarlo_eight_targets_at_six_bs(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, [
            "montecarlo", "--num-targets", "8", "--num-bs", "6", "--trials", "5", "--seed", "2",
            "--out", str(tmp_path / "rep.json"),
        ])
        assert (code, err) == (0, "")
        report = json.loads((tmp_path / "rep.json").read_text())
        assert (report["aggregates"]["completed"], report["aggregates"]["correct_rate"]) == (5, 1.0)

    def test_montecarlo_eight_targets_at_21_bs(self, capsys, tmp_path):
        # 8^21 = 2^63 distance index combinations, more than an int64 can number.
        code, _, err = run_cli(capsys, [
            "montecarlo", "--num-bs", "21", "--num-targets", "8",
            "--bounds", "-20", "-20", "20", "20", "--trials", "1",
            "--out", str(tmp_path / "r.json"),
        ])
        assert (code, err) == (0, "")
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["aggregates"]["completed"] == 1
        assert report["records"][0]["correct_found"] is True

    def test_montecarlo_accuracy_outputs(self, capsys, tmp_path):
        out_json = tmp_path / "acc.json"
        code, out, _ = run_cli(capsys, [
            "montecarlo", "--mode", "accuracy", "--trials", "5", "--seed", "2",
            "--sigma-list", "0.0,0.1", "--out", str(out_json),
        ])
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["kind"] == "accuracy"
        assert len(report["records"]) == 10  # 5 trials x 2 sigma levels
        assert [lv["sigma_m"] for lv in report["aggregates"]["levels"]] == [0.0, 0.1]


class TestTrialRecordCap:
    """montecarlo and ghosts refuse oversized runs before any trial is drawn."""

    RUNS = {
        "uniqueness": (["montecarlo", "--trials", "9"], 9, "--trials 9 asks for 9 trial records"),
        "accuracy": (["montecarlo", "--mode", "accuracy", "--trials", "3",
                      "--sigma-list", "0.0,0.1,0.5"], 9,
                     "--trials 3 x 3 --sigma-list levels asks for 9 trial records"),
        "ghosts": (["ghosts", "--trials", "9"], 9, "--trials 9 asks for 9 trial records"),
    }

    def test_sizes_in_use_are_admitted(self):
        assert cli.MAX_TRIAL_RECORDS >= 10_000  # criterion 5 runs 1,000 ghost trials

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_refused_before_any_allocation(self, capsys, tmp_path, monkeypatch, name):
        argv, records, message = self.RUNS[name]
        monkeypatch.setattr(cli, "MAX_TRIAL_RECORDS", records - 1)

        def unreachable(*args, **kwargs):
            raise AssertionError("trial seeds drawn before the size check")

        monkeypatch.setattr(harness, "_trial_seeds", unreachable)
        out = tmp_path / "out"
        code, printed, err = run_cli(capsys, argv + ["--out", str(out)])
        assert code == 1
        assert message in err
        assert f"about {records * cli.TRIAL_RECORD_BYTES:,} bytes" in err
        assert printed == ""
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_cap_is_inclusive(self, capsys, tmp_path, monkeypatch, name):
        argv, records, _ = self.RUNS[name]
        monkeypatch.setattr(cli, "MAX_TRIAL_RECORDS", records)
        code, _, _ = run_cli(capsys, argv + ["--out", str(tmp_path / "out")])
        assert code == 0


class TestDeterminismAndConfig:
    def test_montecarlo_byte_identical_across_runs_and_workers(self, capsys, tmp_path):
        def run(tag, workers):
            out_json = tmp_path / f"{tag}.json"
            out_csv = tmp_path / f"{tag}.csv"
            code, out, _ = run_cli(capsys, [
                "montecarlo", "--mode", "uniqueness", "--trials", "8", "--seed", "6",
                "--workers", str(workers),
                "--out", str(out_json), "--trials-csv", str(out_csv),
            ])
            assert code == 0
            return out_json.read_bytes(), out_csv.read_bytes()

        j1, c1 = run("a", 1)
        j2, c2 = run("b", 1)
        j3, c3 = run("c", 2)
        assert j1 == j2 == j3
        assert c1 == c2 == c3

    def test_emit_report_deterministic(self, tmp_path):
        report = {"b": 2, "a": [1.5, None], "nested": {"z": 1, "y": 2}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        emit_report(report, "json", p1)
        emit_report(report, "json", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_emit_report_csv_header(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report({"fieldnames": ["x", "y"], "rows": [[1, 2], [0.5, None]]}, "csv", path)
        assert path.read_text().splitlines() == ["x,y", "1,2", "0.5,"]

    def test_emit_report_empty_rows_valid(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report({"fieldnames": ["x"], "rows": []}, "csv", path)
        assert path.read_text().splitlines() == ["x"]

    def test_emit_report_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report({}, "yaml", tmp_path / "r.yaml")

    def test_run_config_round_trip_reproduces_run(self, capsys, tmp_path):
        parser = build_parser()
        args = ["ghosts", "--trials", "6", "--seed", "9", "--out", str(tmp_path / "g1.csv")]
        ns = parser.parse_args(args)
        cfg = RunConfig(command=ns.command,
                        options={k: v for k, v in vars(ns).items() if k != "command"})
        code = dispatch_config(cfg)
        out1 = capsys.readouterr().out
        assert code == 0

        cfg_path = tmp_path / "cfg.json"
        save_run_config(cfg, cfg_path)
        reloaded = load_run_config(cfg_path)
        assert reloaded == cfg
        code = dispatch_config(reloaded)
        out2 = capsys.readouterr().out
        assert code == 0
        assert out1 == out2
        assert (tmp_path / "g1.csv").read_bytes()  # produced by both runs

    def test_run_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            RunConfig.from_json(json.dumps({
                "command": "ghosts",
                "options": {"trials": 3, "seed": 1, "bogus": True},
            }))

    def test_run_config_rejects_unknown_command(self):
        with pytest.raises(ValueError):
            RunConfig.from_json(json.dumps({"command": "warp", "options": {}}))

    def test_run_config_rejects_non_integer_env_seed(self, capsys, monkeypatch):
        cfg = RunConfig(command="ghosts", options=self.parsed_options(["ghosts", "--trials", "2"]))
        monkeypatch.setenv("NETSENSE_SEED", "abc")
        assert dispatch_config(cfg) == 1
        assert "NETSENSE_SEED" in capsys.readouterr().err
        with pytest.raises(ValueError, match="NETSENSE_SEED"):
            allowed_options()

    @staticmethod
    def parsed_options(args):
        ns = build_parser().parse_args(args)
        return {k: v for k, v in vars(ns).items() if k != "command"}

    @pytest.mark.parametrize("args, key, value, message", [
        (["associate", "--scene", "s.json"], "tol", math.nan, "tol=nan: must be finite"),
        (["associate", "--scene", "s.json"], "solver", "greedy", "solver='greedy': expected one"),
        (["montecarlo"], "bounds", [0.0, 0.0, math.inf, 5.0], "bounds=[0.0, 0.0, inf, 5.0]"),
        (["montecarlo"], "bounds", [0.0, 0.0, 5.0], "expected a list of 4 values"),
        (["montecarlo"], "workers", 0, "workers=0: must be at least 1"),
        (["montecarlo"], "trials", 2.5, "trials=2.5"),
        (["montecarlo"], "sigma_list", "0.1,-0.5", "sigma_list='0.1,-0.5': must be nonnegative"),
        (["montecarlo"], "quantize", "yes", "quantize='yes': expected true or false"),
        (["associate", "--scene", "s.json"], "match_radius", -1.0,
         "match_radius=-1.0: must be nonnegative"),
        (["montecarlo"], "num_targets", 0, "num_targets=0: must be at least 1"),
        (["ghosts"], "num_targets", 0, "num_targets=0: must be at least 1"),
        (["montecarlo"], "num_bs", 2, "num_bs=2: must be at least 3"),
        (["ghosts"], "num_bs", 2, "num_bs=2: must be at least 3"),
        (["montecarlo"], "trials", 0, "trials=0: must be at least 1"),
        (["ghosts"], "trials", -1, "trials=-1: must be at least 1"),
        (["montecarlo"], "seed", -1, "seed=-1: must be at least 0"),
        (["ghosts"], "seed", -1, "seed=-1: must be at least 0"),
        (["ambiguity"], "seed", -1, "seed=-1: must be at least 0"),
    ])
    def test_run_config_checks_values_like_the_flags(self, capsys, args, key, value, message):
        options = {**self.parsed_options(args), key: value}
        # json.dumps writes NaN and Infinity, which json.loads reads back.
        with pytest.raises(ValueError, match=f"{args[0]} option {key}=") as err:
            RunConfig.from_json(json.dumps({"command": args[0], "options": options}))
        assert message in str(err.value)
        assert dispatch_config(RunConfig(args[0], options)) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_run_config_nan_tol_is_refused(self, capsys, scenes_dir):
        options = self.parsed_options(["associate", "--scene", str(scenes_dir / "example1.json")])
        assert dispatch_config(RunConfig("associate", options)) == 0
        assert json.loads(capsys.readouterr().out)["num_feasible"] == 2
        code = dispatch_config(RunConfig("associate", {**options, "tol": math.nan}))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "associate option tol=nan" in captured.err

    def test_run_config_missing_key_is_domain_error(self, capsys):
        options = self.parsed_options(["ghosts"])
        del options["trials"]
        assert dispatch_config(RunConfig("ghosts", options)) == 1
        assert "missing option keys for ghosts: ['trials']" in capsys.readouterr().err

    def test_allowed_options_cover_all_commands(self):
        allowed = allowed_options()
        assert set(allowed) == {
            "coverage", "ambiguity", "localize", "associate", "ghosts", "irs", "montecarlo",
        }
        assert "pt_watts" in allowed["coverage"]
        assert "sigma_list" in allowed["montecarlo"]

    def test_env_seed_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("NETSENSE_SEED", "31")
        code, out_env, _ = run_cli(capsys, [
            "ghosts", "--trials", "4", "--out", str(tmp_path / "a.csv"),
        ])
        assert code == 0
        monkeypatch.delenv("NETSENSE_SEED")
        code, out_explicit, _ = run_cli(capsys, [
            "ghosts", "--trials", "4", "--seed", "31", "--out", str(tmp_path / "b.csv"),
        ])
        assert out_env == out_explicit
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_env_seed_read_on_every_call(self, capsys, tmp_path, monkeypatch):
        def ghosts_csv(name, *flags):
            path = tmp_path / f"{name}.csv"
            code, _, _ = run_cli(capsys, ["ghosts", "--trials", "4", "--out", str(path), *flags])
            assert code == 0
            return path.read_bytes()

        from_env = {}
        for seed in ("31", "32"):
            monkeypatch.setenv("NETSENSE_SEED", seed)
            from_env[seed] = ghosts_csv(f"env{seed}")
        monkeypatch.setenv("NETSENSE_SEED", "abc")
        code, _, err = run_cli(capsys, ["ghosts", "--trials", "4"])
        assert code == 2 and "NETSENSE_SEED" in err
        monkeypatch.delenv("NETSENSE_SEED")
        assert from_env["31"] != from_env["32"]
        for seed, csv_bytes in from_env.items():
            assert csv_bytes == ghosts_csv(f"flag{seed}", "--seed", seed)

    def test_list_defaults_survive_runs(self, capsys, tmp_path):
        def list_defaults():
            return {(command, key): list(action.default)
                    for command, actions in cli._option_actions().items()
                    for key, action in actions.items() if isinstance(action.default, list)}

        before = list_defaults()
        assert before  # --bounds of ghosts and montecarlo
        for args in (["ghosts", "--trials", "2", "--out", str(tmp_path / "g.csv")],
                     ["montecarlo", "--trials", "2", "--out", str(tmp_path / "r.json")]):
            assert run_cli(capsys, args)[0] == 0
        assert list_defaults() == before


class TestGoldenReports:
    """Report bytes pinned for fixed seeds; any change to them must be deliberate."""

    # montecarlo reports carry the range solver's last digits (rmse_m near
    # 1e-13 m at sigma 0), so a change to the solver kernel re-records these.
    RUNS = {
        "uniqueness": (
            ["montecarlo", "--mode", "uniqueness", "--trials", "300", "--seed", "2024"],
            "22fb1954de77253789d76cce8e10d1c14df4bde67506094a37a4c293da0e5323",
            "2de5942af1a481ba46f97b4c7e85653eb3e4a2b26d5b1a77b203b70771bcaeb6",
        ),
        "accuracy": (
            ["montecarlo", "--mode", "accuracy", "--num-bs", "4", "--num-targets", "3",
             "--sigma-list", "0.0,0.1,0.5,1.0", "--trials", "20", "--seed", "2025"],
            "6976d5fa1b7a195f5da0667496427348320f41597b8f8ee562bfa3e27ed5b2c8",
            "f58943dbf9514d6de5b8163c23e1b0060828c657082262024b2c9823e3a1bd72",
        ),
        # Levels out of order and one listed twice: records still run by
        # sigma, then trial, with the repeated level's trials in list order.
        "sigma_order": (
            ["montecarlo", "--mode", "accuracy", "--sigma-list", "0.1,0,0.1,0.01",
             "--trials", "40", "--seed", "2026"],
            "d2023a6d2e31138aff9e0eff14da5e077278cb60bf2da0842f7b14777a81b98f",
            "6ca9c6b1fbdaa0ca22a5dbeddb30216c84e75b3d1f30c7d6806f940c54f68f69",
        ),
        "sigma_order_quantized": (
            ["montecarlo", "--mode", "accuracy", "--sigma-list", "0.1,0,0.1,0.01",
             "--trials", "40", "--seed", "2026", "--quantize"],
            "0a74dc044ca619e2c1aaeb04f8d50386772f06df971b41884744d4a38f97dfab",
            "c5ea4c06b31ad59d72bc5625fa53d89f3641e32e7a51336b6bc5b5834cc38994",
        ),
        # Every link flag away from its default pins the serialized spec.link.
        "link": (
            ["montecarlo", "--mode", "uniqueness", "--trials", "200", "--seed", "12",
             "--pt-watts", "5", "--gt-dbi", "18", "--gr-dbi", "19", "--gp-db", "12",
             "--carrier-hz", "3e9", "--rcs-dbsm", "0", "--temperature-k", "300",
             "--bandwidth-hz", "200e6", "--noise-factor-db", "7", "--snr-min-db", "8",
             "--bounds", "-300", "-300", "300", "300"],
            "2e8279675e6c819a995ecde8853d46d54c5069b18ad1ce07a5641c5c4ee3ad3c",
            "04a7c26c5fab56a9572db9512d784567ee61ff1773d37fbd9417b756034523cd",
        ),
    }

    # ghosts runs: CSV sha256 and the exact stdout.
    GHOST_RUNS = {
        "criterion5": (
            ["ghosts", "--trials", "1000", "--seed", "20260810"],
            "76c57f4cf7b9f256b997b0ffd716d3fc88e3f60322e28ead3d371f03fba37556",
            "ghost_fraction,0.0\nghost_trials,0\ninfeasible_trials,0\ntrials,1000\n",
        ),
        # Coverage gating would mark 291 of these 300 trials partial (pairs up
        # to 1131 m apart, against a 413 m radius); ghosts draws are never gated.
        "beyond_coverage": (
            ["ghosts", "--trials", "300", "--bounds", "-400", "-400", "400", "400",
             "--seed", "8"],
            "b7992a61511ccff2bd06d0be3f1f1b707ac375500dc9653cccd9537e59232989",
            "ghost_fraction,0.0\nghost_trials,0\ninfeasible_trials,0\ntrials,300\n",
        ),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_report_sha256(self, capsys, tmp_path, name):
        argv, json_sha, csv_sha = self.RUNS[name]
        out = tmp_path / f"{name}.json"
        code, _, _ = run_cli(capsys, argv + ["--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == json_sha
        assert hashlib.sha256(out.with_suffix(".csv").read_bytes()).hexdigest() == csv_sha

    def test_sigma_order_rmse_adds_left_to_right(self, capsys, tmp_path):
        # Python 3.12's compensating sum() would move the sigma 0.01 level's
        # rmse_m in its last digit; the report adds left to right.
        out = tmp_path / "sigma_order.json"
        assert run_cli(capsys, self.RUNS["sigma_order"][0] + ["--out", str(out)])[0] == 0
        report = json.loads(out.read_text())
        squares = [r["rmse_m"] * r["rmse_m"] for r in report["records"]
                   if r["sigma_m"] == 0.01 and not r["infeasible"] and not r["partial"]]
        level = next(lv for lv in report["aggregates"]["levels"] if lv["sigma_m"] == 0.01)
        assert level["rmse_m"] == math.sqrt(sum(map(np.float64, squares)) / len(squares))
        assert level["rmse_m"] != math.sqrt(math.fsum(squares) / len(squares))

    @pytest.mark.parametrize("name", sorted(GHOST_RUNS))
    def test_ghosts_sha256(self, capsys, tmp_path, name):
        argv, csv_sha, stdout = self.GHOST_RUNS[name]
        out = tmp_path / f"{name}.csv"
        code, printed, _ = run_cli(capsys, argv + ["--out", str(out)])
        assert code == 0
        assert printed == stdout
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha


class TestIrsCli:
    def test_fig5_pipeline(self, capsys, tmp_path, scenes_dir):
        target = (3.0, 2.0)
        irs_pos = (4.0, 6.0)
        rows = ["bs_id,irs_id,direct_roundtrip_m,composite_roundtrip_m"]
        for bs_id, bs in (("bs1", (0.0, 0.0)), ("bs2", (8.0, 0.0))):
            l1 = math.dist(bs, target)
            l2 = math.dist(target, irs_pos)
            l3 = math.dist(irs_pos, bs)
            rows.append(f"{bs_id},irs1,{2 * l1!r},{l1 + l2 + l3!r}")
        meas = tmp_path / "irs.csv"
        meas.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, [
            "irs", "--scene", str(scenes_dir / "fig5.json"), "--measurements", str(meas),
        ])
        assert code == 0
        values = parse_kv_lines(out)
        assert float(values["irs_distance_m"]) == pytest.approx(math.sqrt(17), rel=1e-9)
        assert float(values["x_m"]) == pytest.approx(3.0, abs=1e-6)
        assert float(values["y_m"]) == pytest.approx(2.0, abs=1e-6)

    def test_scene_without_irs_is_domain_error(self, capsys, tmp_path, scenes_dir):
        meas = tmp_path / "irs.csv"
        meas.write_text("bs_id,irs_id,direct_roundtrip_m,composite_roundtrip_m\nbs1,irs1,6.0,12.0\n")
        code, _, err = run_cli(capsys, [
            "irs", "--scene", str(scenes_dir / "example1.json"), "--measurements", str(meas),
        ])
        assert code == 1
        assert "IRS" in err

    @pytest.mark.parametrize("column, row", [
        ("direct_roundtrip_m", "bs2,irs1,nan,12.0"),
        ("composite_roundtrip_m", "bs2,irs1,6.0,inf"),
        ("composite_roundtrip_m", "bs2,irs1,6.0,far"),
    ])
    def test_bad_roundtrip_names_file_row_and_column(self, capsys, tmp_path, scenes_dir,
                                                     column, row):
        meas = tmp_path / "irs.csv"
        meas.write_text("bs_id,irs_id,direct_roundtrip_m,composite_roundtrip_m\n"
                        f"bs1,irs1,6.0,12.0\n{row}\n")
        code, out, err = run_cli(capsys, [
            "irs", "--scene", str(scenes_dir / "fig5.json"), "--measurements", str(meas),
        ])
        assert code == 1
        assert out == ""
        assert f"{meas}: row 2: {column} must be a finite" in err


    @pytest.mark.parametrize("rows, message", [
        ("", "measurements must reference exactly one scene IRS, got []"),
        ("bs1,irs2,6.0,12.0\n", "measurements must reference exactly one scene IRS, got ['irs2']"),
        ("bs1,irs1,6.0,12.0\nbs9,irs1,6.0,12.0\n", "row 2: unknown BS id 'bs9'"),
        # The scene's IRS is an anchor, but not a BS.
        ("irs1,irs1,6.0,12.0\n", "row 1: unknown BS id 'irs1'"),
        # Refusals from the trilateration name the file too.
        ("bs1,irs1,6.0,12.0\nbs2,irs1,10.0,16.0\nbs1,irs1,6.0,12.0\n",
         "duplicate anchor_id in measurements"),
        ("bs1,irs1,6.0,12.0\n", "need at least 3 anchors"),
    ])
    def test_bad_reference_names_file(self, capsys, tmp_path, scenes_dir, rows, message):
        meas = tmp_path / "irs.csv"
        meas.write_text("bs_id,irs_id,direct_roundtrip_m,composite_roundtrip_m\n" + rows)
        code, out, err = run_cli(capsys, [
            "irs", "--scene", str(scenes_dir / "fig5.json"), "--measurements", str(meas),
        ])
        assert (code, out) == (1, "")
        assert f"{meas}: {message}" in err


class TestShippedScenes:
    def test_all_scenes_parse_and_validate(self, scenes_dir):
        from netsense.scene import load_scene, validate_scene

        for name in ("example1.json", "example2.json", "fig5.json"):
            scene = load_scene(scenes_dir / name)
            assert validate_scene(scene).ok, name
