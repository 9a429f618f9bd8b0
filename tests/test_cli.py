"""Command-line behavior: exit codes, output files, subcommand plumbing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

import aspill
from aspill.cli import main
from aspill.errors import ConfigError
from aspill.fred import fetch_fred
from aspill.panel import load_csv, write_csv
from aspill.pipeline import RunConfig
from varsim import make_panel, random_walk_matrix
from test_pipeline import tree_digest, write_decreasing_csv, write_walk_csv


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
        manifest = json.loads((moved / "manifest.json").read_text())
        assert manifest["config"]["out_dir"] == str(moved)

    def test_defaults_are_run_config_defaults(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(csv_path), "--columns", "aa,bb,cc", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
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

    def test_missing_required_options(self, tmp_path, capsys):
        code = main(["analyze", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "required" in capsys.readouterr().err

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
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["lag_select"] = "bic"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
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
            manifest = json.loads((out / "manifest.json").read_text())
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
        manifest = json.loads((out / "manifest.json").read_text())
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

    def test_report_table_that_is_a_directory(self, tmp_path, capsys):
        code = main(["report", "--table", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

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
        target.write_text("kept\n")
        code = main(analyze_args(csv_path, target))
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{target}'\n"
        assert target.read_text() == "kept\n"


class TestColumnLists:
    @pytest.mark.parametrize(
        "columns, named",
        [("aa,aa,bb", "column 'aa' is named twice"), ("date,aa", "column 'date' is the date column")],
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
        header = out_csv.read_text().splitlines()[0]
        assert header == "date,aa_pos,aa_neg,bb_pos,bb_neg"


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

    def test_malformed_cache_line_is_clean_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FRED_API_KEY", raising=False)
        cache = tmp_path / "cache"
        self.warm_cache(cache, "AAA", [1.0, 2.0, 3.0])
        (path,) = cache.glob("*.txt")
        lines = path.read_text().splitlines()
        lines[2] = "2020-01-02"
        path.write_text("\n".join(lines) + "\n")
        code = main([
            "fetch",
            "--series", "AAA",
            "--cache-dir", str(cache),
            "--out", str(tmp_path / "fetched.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {path}: line 3:" in err
        assert not (tmp_path / "fetched.csv").exists()

    def test_out_of_order_cache_date_is_clean_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FRED_API_KEY", raising=False)
        cache = tmp_path / "cache"
        self.warm_cache(cache, "AAA", [1.0, 2.0, 3.0])
        (path,) = cache.glob("*.txt")
        lines = path.read_text().splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        path.write_text("\n".join(lines) + "\n")
        code = main([
            "fetch",
            "--series", "AAA",
            "--cache-dir", str(cache),
            "--out", str(tmp_path / "fetched.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {path}: line 4:" in err
        assert "Traceback" not in err
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


class TestReport:
    def test_markdown_to_stdout(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        main(analyze_args(csv_path, out, "--sides", "sym"))
        capsys.readouterr()
        code = main(["report", "--table", str(out / "table_sym.csv")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("| | aa | bb | cc |")

    def test_csv_round_trip_to_file(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        main(analyze_args(csv_path, out, "--sides", "sym"))
        target = tmp_path / "again.csv"
        code = main([
            "report",
            "--table", str(out / "table_sym.csv"),
            "--format", "csv",
            "--out", str(target),
        ])
        assert code == 0
        assert target.read_bytes() == (out / "table_sym.csv").read_bytes()

    def test_non_number_cell_names_file_row_and_column(self, tmp_path, capsys):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        main(analyze_args(csv_path, out, "--sides", "sym"))
        lines = (out / "table_sym.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[2] = "abc"
        lines[2] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["report", "--table", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {bad}: row 3, column 3 (bb): 'abc' is not a finite number\n"

    def test_undecodable_table_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b",aa,bb,from_others\n\xff\xfe,1,2,3\n")
        code = main(["report", "--table", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "aspill" in capsys.readouterr().out

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


class TestImport:
    def test_cli_import_leaves_the_http_stack_unloaded(self):
        src = str(Path(aspill.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = (
            "import sys, aspill.cli; "
            "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl') if m in sys.modules))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"
