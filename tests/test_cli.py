"""Command-line behavior: exit codes, output files, subcommand plumbing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

import aspill
import aspill.connectedness as connectedness
import aspill.decomposition as decomposition
import aspill.pipeline as pipeline
import aspill.var_engine as var_engine
from aspill.cli import main
from aspill.errors import ConfigError, NonPositiveValueError
from aspill.fred import fetch_fred
from aspill.panel import load_csv, log_transform, write_csv
from aspill.pipeline import RunConfig
from aspill.rolling import RollingTables
from varsim import make_panel, random_walk_matrix
from test_pipeline import read_table_csv, tree_digest, write_decreasing_csv, write_walk_csv


def analyze_args(csv_path: Path, out: Path, *extra: str) -> list[str]:
    return [
        "analyze",
        "--input", str(csv_path),
        "--columns", "aa,bb,cc",
        "--lags", "2",
        "--out", str(out),
        *extra,
    ]


class TestAnalyze:
    def test_full_run(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        code = main(analyze_args(csv_path, out, "--window", "220", "--step", "5"))
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0].startswith("pos: lag=2 index=")
        assert "windows=9" in lines[0]
        assert lines[-1] == f"wrote {out / 'manifest.json'}"
        assert (out / "table_neg.md").is_file()
        assert (out / "rolling_sym.svg").is_file()

    def test_sides_subset(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        code = main(analyze_args(csv_path, out, "--sides", "neg"))
        assert code == 0
        assert (out / "table_neg.csv").is_file()
        assert not (out / "table_pos.csv").exists()
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_from_manifest_reproduces_bytes(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        assert main(analyze_args(csv_path, out)) == 0
        first = tree_digest(out)
        code = main(["analyze", "--from-manifest", str(out / "manifest.json")])
        assert code == 0
        assert tree_digest(out) == first

    def test_from_manifest_with_explicit_out_redirects(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        assert main(analyze_args(csv_path, out)) == 0
        first = tree_digest(out)
        moved = tmp_path / "moved"
        code = main([
            "analyze",
            "--from-manifest", str(out / "manifest.json"),
            "--out", str(moved),
        ])
        assert code == 0
        second = tree_digest(moved)
        # Only the manifest differs, and only in the recorded out_dir.
        for name, digest in first.items():
            if name != "manifest.json":
                assert second[name] == digest
        manifest = json.loads((moved / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["out_dir"] == str(moved)

    def test_defaults_are_run_config_defaults(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(csv_path), "--columns", "aa,bb,cc", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        expected = RunConfig(input_path=str(csv_path), columns=("aa", "bb", "cc"), out_dir=str(out))
        assert manifest["config"] == expected.to_dict()

    def test_from_manifest_rejects_other_run_options(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        assert main(analyze_args(csv_path, out)) == 0
        first = tree_digest(out)
        capsys.readouterr()
        code = main([
            "analyze",
            "--from-manifest", str(out / "manifest.json"),
            "--window", "100",
            "--horizon", "3",
            "--sides", "pos",
            "--log",
            "--out", str(tmp_path / "moved"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            "error: --from-manifest re-runs the recorded configuration and takes only --out "
            "beside it; got --log, --horizon, --sides, --window\n"
        )
        assert tree_digest(out) == first
        assert not (tmp_path / "moved").exists()

    def test_non_positive_value_under_log_is_one_error_line(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        when, aa, _, cc = lines[5].split(",")
        lines[5] = f"{when},{aa},-1.5,{cc}"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        line = f"series 'bb' has non-positive value -1.5 at {when}"
        with pytest.raises(NonPositiveValueError) as info:
            log_transform(load_csv(csv_path, "date", ["aa", "bb", "cc"])[0])
        assert str(info.value) == line
        code = main(analyze_args(csv_path, tmp_path / "out", "--log"))
        assert code == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_missing_input_is_clean_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(analyze_args(tmp_path / "nope.csv", out))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert not out.exists()

    def test_panel_too_short_for_the_trend_fit_is_one_error(self, tmp_path, capsys):
        csv_path = tmp_path / "short.csv"
        write_walk_csv(csv_path, T=3)
        out = tmp_path / "out"
        code = main(analyze_args(csv_path, out))
        assert code == 1
        assert capsys.readouterr().err == "error: " + "; ".join(
            f"series {name!r}: length 3 < 4 needed for trend fit" for name in ("aa", "bb", "cc")
        ) + "\n"
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("exponent, fault", [(200, "overflow"), (-200, "underflow")])
    def test_series_too_large_or_small_to_square_is_one_error(self, tmp_path, capsys, exponent, fault):
        # Left to the fits, every side would fail as rank deficient, which names the wrong cause.
        matrix = random_walk_matrix(np.random.default_rng(85), 400, 3) + 50.0
        matrix[:, 1] *= 10.0**exponent
        csv_path = tmp_path / "scaled.csv"
        write_csv(make_panel(matrix, ["aa", "bb", "cc"]), csv_path)
        peak = np.max(np.abs(load_csv(csv_path, "date", ["bb"])[0].matrix))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(analyze_args(csv_path, out))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: series 'bb': squares {fault} at largest |value| {peak:.3g}\n"
        )
        assert not (out / "manifest.json").exists()

    def test_too_few_rows_for_the_largest_lag_fail_every_side_in_lag_select(self, tmp_path, capsys):
        csv_path = tmp_path / "short.csv"
        write_walk_csv(csv_path, T=35)
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(csv_path), "--columns", "aa,bb,cc", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "".join(
            f"error [{side}/lag-select]: 35 rows give 27 usable observations for 25 regressors and 3 equations\n"
            for side in ("pos", "neg", "sym")
        )
        assert not (out / "manifest.json").exists()

    def test_partial_failure_reports_each_side(self, tmp_path, capsys):
        csv_path = tmp_path / "down.csv"
        write_decreasing_csv(csv_path)
        out = tmp_path / "out"
        code = main([
            "analyze",
            "--input", str(csv_path),
            "--columns", "aa,bb",
            "--lags", "1",
            "--trend", "none",
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error [pos/estimate]:")
        assert (out / "table_sym.csv").is_file()

    @pytest.mark.parametrize(
        "command, message",
        [
            ("analyze", "--input and --columns are required (or use --from-manifest)"),
            ("decompose", "--input and --columns are required"),
            ("roll", "--input and --columns are required"),
        ],
    )
    def test_missing_required_options(self, tmp_path, capsys, command, message):
        # roll cannot re-run a manifest, so its message offers no --from-manifest.
        window = ["--window", "5"] if command == "roll" else []
        code = main([command, *window, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ("--horizon", "0"),
            ("--max-lags", "0"),
            ("--lags", "0"),
            ("--window", "0"),
            ("--step", "0", "--window", "100"),
        ],
    )
    def test_out_of_range_setting_keeps_earlier_outputs(self, tmp_path, capsys, extra):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        assert main(analyze_args(csv_path, out)) == 0
        first = tree_digest(out)
        capsys.readouterr()
        code = main(analyze_args(csv_path, out, *extra))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "must be >= 1" in err
        assert "Traceback" not in err
        assert tree_digest(out) == first

    def test_hand_edited_manifest_with_bad_setting_is_clean_error(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        assert main(analyze_args(csv_path, out)) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        manifest["config"]["lag_select"] = "bic"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        code = main(["analyze", "--from-manifest", str(edited)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: config field 'lag_select' must be one of [")
        assert (out / "manifest.json").is_file()

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda m: m["config"].update(trend="linear"), "config field 'trend'"),
            (lambda m: m["config"].update(horizon="10"), "config field 'horizon'"),
            (lambda m: m["config"].update(lags=True), "config field 'lags'"),
            (lambda m: m["config"].update(sides=["pos", "up"]), "config field 'sides'"),
            (lambda m: m["config"].update(columns="ab"), "config field 'columns'"),
            (lambda m: m["config"].update(windw=100), "unknown config field 'windw'"),
            (lambda m: m["config"].pop("out_dir"), "config field 'out_dir' is missing"),
            (lambda m: m.pop("config"), "no 'config' object"),
            (lambda m: m.update(config=[["aa", "bb"]]), "config must be a JSON object, got [['aa', 'bb']]"),
            (lambda m: m["inputs"].pop("sha256"), "'inputs.sha256'"),
            (None, "not a JSON manifest"),
        ],
    )
    def test_malformed_manifest_is_clean_error(self, tmp_path, capsys, edit, named):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        assert main(analyze_args(csv_path, out)) == 0
        first = tree_digest(out)
        edited = tmp_path / "edited.json"
        if edit is None:
            edited.write_text("{not json", encoding="utf-8")
        else:
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            edit(manifest)
            edited.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        code = main(["analyze", "--from-manifest", str(edited)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert named in err and f"(manifest {edited})" in err
        assert "Traceback" not in err
        assert tree_digest(out) == first


class TestOneReader:
    """A setting means the same on the command line, in a manifest and to RunConfig."""

    @pytest.mark.parametrize(
        "option, text, field, raw, message",
        [
            ("--sides", "pos,pos", "sides", ["pos", "pos"], "side 'pos' is named twice"),
            ("--sides", "pos,up", "sides", ["pos", "up"],
             "config field 'sides' must be a list drawn from ['pos', 'neg', 'sym'], got ['pos', 'up']"),
            ("--trend", "linear", "trend", "linear",
             "config field 'trend' must be one of ['none', 'drift', 'trend'], got 'linear'"),
            ("--sigma-scaling", "ij", "sigma_scaling", "ij",
             "config field 'sigma_scaling' must be one of ['jj', 'ii'], got 'ij'"),
            ("--lag-select", "BIC", "lag_select", "BIC",
             "config field 'lag_select' must be one of ['hjc', 'aic', 'sic', 'hqc'], got 'BIC'"),
            # lag_select matches exactly, like every other choice field.
            ("--lag-select", "HJC", "lag_select", "HJC",
             "config field 'lag_select' must be one of ['hjc', 'aic', 'sic', 'hqc'], got 'HJC'"),
            # Integer options are read as text too, so a word or a fraction
            # is the manifest's error, not a usage error.
            ("--horizon", "ten", "horizon", "ten", "config field 'horizon' must be an integer, got 'ten'"),
            ("--max-lags", "2.5", "max_lags", "2.5", "config field 'max_lags' must be an integer, got '2.5'"),
            ("--lags", "two", "lags", "two", "config field 'lags' must be an integer or null, got 'two'"),
            ("--window", "1e3", "window", "1e3", "config field 'window' must be an integer or null, got '1e3'"),
            ("--step", "five", "step", "five", "config field 'step' must be an integer, got 'five'"),
        ],
    )
    def test_bad_setting_is_one_error_on_both_paths(self, tmp_path, capsys, option, text, field, raw, message):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        assert main(analyze_args(csv_path, out)) == 0
        first = tree_digest(out)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        manifest["config"][field] = raw
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()

        assert main(analyze_args(csv_path, out, option, text)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert main(["analyze", "--from-manifest", str(edited)]) == 1
        assert capsys.readouterr().err == f"error: {message} (manifest {edited})\n"
        with pytest.raises(ConfigError) as info:
            RunConfig(**manifest["config"])
        assert str(info.value) == message
        assert tree_digest(out) == first

    @pytest.mark.parametrize("command", ["analyze", "roll", "decompose"])
    def test_unknown_trend_is_one_error_on_every_command(self, tmp_path, capsys, command):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        target = tmp_path / ("parts.csv" if command == "decompose" else "out")
        extra = ["--window", "220"] if command == "roll" else []
        code = main([command, "--input", str(csv_path), "--columns", "aa,bb", "--trend", "linear",
                     "--out", str(target), *extra])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: config field 'trend' must be one of ['none', 'drift', 'trend'], got 'linear'\n"
        )
        assert not target.exists()


class TestOsErrors:
    """A path the system refuses ends in one error line, not a traceback."""

    def test_manifest_that_is_a_directory(self, tmp_path, capsys):
        code = main(["analyze", "--from-manifest", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_decompose_out_that_is_a_directory(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path, m=2)
        target = tmp_path / "parts"
        target.mkdir()
        code = main(["decompose", "--input", str(csv_path), "--columns", "aa,bb", "--out", str(target)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: [Errno 21] Is a directory:") and len(err.splitlines()) == 1
        # The temporary file beside the target is removed.
        assert sorted(tmp_path.iterdir()) == [target, csv_path]

    def test_analyze_out_that_is_a_file(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        target = tmp_path / "out"
        target.write_text("kept\n", encoding="utf-8")
        code = main(analyze_args(csv_path, target))
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{target}'\n"
        assert target.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("command", ["analyze", "roll", "decompose"])
    def test_input_that_is_a_directory(self, tmp_path, capsys, command):
        folder = tmp_path / "walk.csv"
        folder.mkdir()
        target = tmp_path / ("parts.csv" if command == "decompose" else "out")
        extra = ["--window", "220"] if command == "roll" else []
        code = main([command, "--input", str(folder), "--columns", "aa,bb", "--out", str(target), *extra])
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{folder}'\n"
        assert sorted(tmp_path.iterdir()) == [folder]

    def test_recorded_input_that_is_now_a_directory(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        assert main(analyze_args(csv_path, out)) == 0
        first = tree_digest(out)
        csv_path.unlink()
        csv_path.mkdir()
        capsys.readouterr()
        code = main(["analyze", "--from-manifest", str(out / "manifest.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{csv_path}'\n"
        assert tree_digest(out) == first


class TestColumnLists:
    @pytest.mark.parametrize(
        "columns, named",
        [
            ("aa,aa,bb", "column 'aa' is named twice"),
            ("date,aa", "column 'date' is the date column"),
            (",", "expected a comma-separated list of names, got ','"),
        ],
    )
    @pytest.mark.parametrize("command", ["analyze", "roll", "decompose"])
    def test_bad_value_columns_are_clean_errors(self, tmp_path, capsys, columns, named, command):
        # Rejected before the input is read, so no earlier output goes.
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        assert main(analyze_args(csv_path, out, "--window", "220", "--step", "20")) == 0
        first = tree_digest(out)
        capsys.readouterr()
        target = out / "parts.csv" if command == "decompose" else out
        extra = ["--window", "220"] if command == "roll" else []
        code = main([command, "--input", str(csv_path), "--columns", columns, "--out", str(target), *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert named in err
        assert tree_digest(out) == first

    @pytest.mark.parametrize("command", ["analyze", "roll"])
    def test_one_series_is_one_error_before_the_input_is_read(self, tmp_path, capsys, command):
        # A VAR needs two series: the config stops the run with one line before any side starts.
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        assert main(analyze_args(csv_path, out, "--window", "220", "--step", "20")) == 0
        first = tree_digest(out)
        capsys.readouterr()
        args = ["--input", str(csv_path), "--columns", "aa"]
        assert main([command, *args, "--window", "220", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: a VAR needs at least 2 value columns, got 1: 'aa'\n"
        assert tree_digest(out) == first
        # decompose fits no VAR, so it still splits one series.
        assert main(["decompose", *args, "--out", str(tmp_path / "aa.csv")]) == 0

    def test_series_named_twice_is_clean_error(self, tmp_path, capsys):
        code = main(["fetch", "--series", "AAA,BBB,AAA", "--cache-dir", str(tmp_path), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: column 'AAA' is named twice\n"
        assert not (tmp_path / "x.csv").exists()


class TestRoll:
    def test_rolling_only_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        code = main([
            "roll",
            "--input", str(csv_path),
            "--columns", "aa,bb,cc",
            "--lags", "2",
            "--window", "230",
            "--sides", "sym",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "rolling_sym.csv").is_file()
        assert (out / "rolling_sym.svg").is_file()
        assert (out / "manifest.json").is_file()
        assert not (out / "table_sym.csv").exists()

    def test_window_flag_is_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["roll", "--input", "x.csv", "--columns", "aa,bb"])
        assert info.value.code == 2

    def test_from_manifest_is_not_a_roll_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["roll", "--window", "5", "--from-manifest", str(tmp_path / "manifest.json")])
        assert info.value.code == 2
        assert "unrecognized arguments: --from-manifest" in capsys.readouterr().err

    def test_roll_builds_no_table_and_records_what_analyze_records(self, tmp_path, capsys, monkeypatch):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        calls = []

        def counted(function):
            def wrapper(*args, **kwargs):
                calls.append(function.__name__)
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pipeline, "net_measures", counted(pipeline.net_measures))
        monkeypatch.setattr(RollingTables, "table", counted(RollingTables.table))
        options = ["--input", str(csv_path), "--columns", "aa,bb,cc", "--lags", "2", "--window", "220", "--step", "5"]
        keys = ("lag", "total_spillover", "rolling", "warnings")
        records = {}
        for command, built in (("roll", []), ("analyze", ["table", "net_measures"] * 3)):
            calls.clear()
            out = tmp_path / command
            assert main([command, *options, "--out", str(out)]) == 0
            assert calls == built
            sides = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["sides"]
            records[command] = {side: {key: record[key] for key in keys} for side, record in sides.items()}
        assert records["roll"] == records["analyze"]


class TestDecompose:
    def test_components_reconstruct_source(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path, m=2, seed=105)
        out_csv = tmp_path / "parts.csv"
        code = main([
            "decompose",
            "--input", str(csv_path),
            "--columns", "aa,bb",
            "--out", str(out_csv),
        ])
        assert code == 0
        parts, _ = load_csv(out_csv, "date", ("aa_pos", "aa_neg", "bb_pos", "bb_neg"))
        source, _ = load_csv(csv_path, "date", ("aa", "bb"))
        np.testing.assert_allclose(
            parts.matrix[:, 0] + parts.matrix[:, 1], source.matrix[:, 0], atol=1e-9
        )
        header = out_csv.read_text(encoding="utf-8").splitlines()[0]
        assert header == "date,aa_pos,aa_neg,bb_pos,bb_neg"

    def test_log_components_sum_to_the_log(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path, m=2, seed=105)
        out_csv = tmp_path / "parts.csv"
        code = main([
            "decompose",
            "--input", str(csv_path),
            "--columns", "aa,bb",
            "--log",
            "--out", str(out_csv),
        ])
        assert code == 0
        header = out_csv.read_text(encoding="utf-8").splitlines()[0]
        assert header == "date,aa_log_pos,aa_log_neg,bb_log_pos,bb_log_neg"
        parts, _ = load_csv(out_csv, "date", header.split(",")[1:])
        source, _ = load_csv(csv_path, "date", ("aa", "bb"))
        assert parts.dates == source.dates
        pairs = parts.matrix[:, 0::2] + parts.matrix[:, 1::2]
        np.testing.assert_allclose(pairs, np.log(source.matrix), atol=1e-9)


# The single-model path, captured before any test rebinds a name.
SINGLE_MODEL = (
    decomposition.decompose_panel,
    decomposition.component_panel,
    var_engine.estimate_var,
    var_engine.ma_coefficients,
    var_engine.select_lag,
    connectedness.build_table,
)


class TestKernelOnly:
    """Every command runs the kernel's records, not the single-model functions."""

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("analyze", ["--lags", "2", "--window", "220", "--step", "5", "--out", "out"]),
            ("roll", ["--lags", "2", "--window", "220", "--step", "5", "--decompose-per-window", "--out", "out"]),
            ("decompose", ["--trend", "trend", "--out", "parts.csv"]),
        ],
        ids=["analyze", "roll", "decompose"],
    )
    def test_command_calls_no_single_model_function(self, tmp_path, capsys, monkeypatch, command, extra):
        def refuse(*args, **kwargs):
            raise AssertionError("a command called a single-model function")

        for name, module in list(sys.modules.items()):
            if name == "aspill" or name.startswith("aspill."):
                for attr, value in list(vars(module).items()):
                    if any(value is function for function in SINGLE_MODEL):
                        monkeypatch.setattr(module, attr, refuse)
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        monkeypatch.chdir(tmp_path)
        code = main([command, "--input", str(csv_path), "--columns", "aa,bb,cc", *extra])
        assert code == 0


class TestFetch:
    @staticmethod
    def warm_cache(cache_dir: Path, series_id: str, values, start=date(2020, 1, 1)):
        rows = [
            {"date": (start + timedelta(days=i)).isoformat(), "value": str(v)}
            for i, v in enumerate(values)
        ]
        body = json.dumps({"observations": rows}).encode()
        fetch_fred(
            series_id, api_key="warm", cache_dir=cache_dir, transport=lambda url: (200, body)
        )

    def test_fetch_from_warm_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FRED_API_KEY", raising=False)
        cache = tmp_path / "cache"
        self.warm_cache(cache, "AAA", [1.0, 2.0, 3.0])
        self.warm_cache(cache, "BBB", [4.0, 5.0, 6.0, 7.0])
        out_csv = tmp_path / "fetched.csv"
        code = main([
            "fetch",
            "--series", "AAA,BBB",
            "--cache-dir", str(cache),
            "--out", str(out_csv),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "AAA: 3 observations" in captured.out
        panel, _ = load_csv(out_csv, "date", ("AAA", "BBB"))
        assert len(panel) == 3
        np.testing.assert_array_equal(panel.matrix[:, 1], [4.0, 5.0, 6.0])

    def test_one_series_out_is_its_cache_file(self, tmp_path, capsys, monkeypatch):
        # The cache is the date,<id> CSV that fetch --out writes.
        monkeypatch.delenv("FRED_API_KEY", raising=False)
        cache = tmp_path / "cache"
        self.warm_cache(cache, "AAA", [1.0, 0.1 + 0.2, 1 / 3])
        out_csv = tmp_path / "fetched.csv"
        code = main(["fetch", "--series", "AAA", "--cache-dir", str(cache), "--out", str(out_csv)])
        assert code == 0
        (path,) = cache.glob("*.csv")
        assert out_csv.read_bytes() == path.read_bytes()

    def test_malformed_cache_cell_is_clean_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FRED_API_KEY", raising=False)
        cache = tmp_path / "cache"
        self.warm_cache(cache, "AAA", [1.0, 2.0, 3.0])
        (path,) = cache.glob("*.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = "2020-01-02,abc"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main([
            "fetch",
            "--series", "AAA",
            "--cache-dir", str(cache),
            "--out", str(tmp_path / "fetched.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: row 3, column 'AAA': cannot read 'abc' as a finite number\n"
        )
        assert not (tmp_path / "fetched.csv").exists()

    @pytest.mark.parametrize("option", ["--start", "--end"])
    @pytest.mark.parametrize("text", ["yesterday", "2020-13-01"])
    def test_bad_date_is_one_error_naming_the_option(self, tmp_path, capsys, monkeypatch, option, text):
        monkeypatch.delenv("FRED_API_KEY", raising=False)
        code = main([
            "fetch",
            "--series", "AAA",
            option, text,
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "fetched.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {option} must be a YYYY-MM-DD or YYYY-MM date, got {text!r}\n"
        assert not (tmp_path / "fetched.csv").exists()

    def test_fetch_without_key_or_cache_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FRED_API_KEY", raising=False)
        code = main([
            "fetch",
            "--series", "AAA",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "fetched.csv"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTableFiles:
    """analyze writes each side's table as csv, json and markdown; nothing reads them back."""

    def test_markdown_table_file(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        assert main(analyze_args(csv_path, out, "--sides", "sym")) == 0
        lines = (out / "table_sym.md").read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("| | aa | bb | cc |")

    @pytest.mark.parametrize("side", ["pos", "neg", "sym"])
    def test_json_table_holds_the_csv_values_to_the_bit(self, tmp_path, capsys, side):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        assert main(analyze_args(csv_path, out, "--sides", side)) == 0
        payload = json.loads((out / f"table_{side}.json").read_text(encoding="utf-8"))
        table = read_table_csv(out / f"table_{side}.csv")
        assert tuple(payload["labels"]) == table.labels == ("aa", "bb", "cc")
        assert [float(v).hex() for v in np.ravel(payload["matrix"])] == [
            float(v).hex() for v in np.ravel(table.matrix)
        ]
        assert float(payload["total_spillover"]).hex() == table.total_spillover.hex()

    def test_report_is_no_longer_a_subcommand(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["report", "--table", str(tmp_path / "table_sym.csv")])
        assert info.value.code == 2
        assert "invalid choice: 'report'" in capsys.readouterr().err


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "aspill" in capsys.readouterr().out

    def test_help_lists_the_four_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{analyze,roll,decompose,fetch}" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_bad_side_token(self, capsys):
        # Sides are read by RunConfig, so a bad one is a configuration error
        # (exit 1), checked before the input is opened.
        code = main(["analyze", "--input", "x.csv", "--columns", "a,b", "--sides", "up"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: config field 'sides' must be a list drawn from ['pos', 'neg', 'sym'], got ['up']\n"
        )

    def test_directional_note_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        text = capsys.readouterr().out
        assert "received/transmitted" in text
        assert "identically" in text

    def test_roll_help_has_no_directional_note(self, capsys):
        # roll writes no net measures, so the convention they follow is not its help.
        with pytest.raises(SystemExit):
            main(["roll", "--help"])
        text = capsys.readouterr().out
        assert "--window" in text
        assert "received/transmitted" not in text


class TestImport:
    def test_cli_import_leaves_the_http_stack_unloaded(self):
        src = str(Path(aspill.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = (
            "import sys, aspill.cli; "
            "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl') if m in sys.modules))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, encoding="utf-8", check=True
        )
        assert done.stdout.strip() == "[]"
