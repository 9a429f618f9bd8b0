"""End-to-end runs: outputs, manifest reproducibility, partial failure."""

from __future__ import annotations

import csv
import hashlib
import json
import re
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import aspill.decomposition as decomposition
import aspill.pipeline as pipeline
from aspill.connectedness import build_table, compute_fevd
from aspill.decomposition import ShockSide, TrendSpec, component_panel, decompose_panel
from aspill.errors import ConfigError, ManifestMismatchError, PipelineError, SeriesTooShortError
from aspill.panel import load_csv, log_transform, write_csv
from aspill.pipeline import RunConfig, config_from_manifest, run_pipeline
from aspill.report import render_rolling_csv
from aspill.rolling import RollingConfig, rolling_tables
from aspill.svgchart import render_svg
import aspill.var_engine as var_engine
from aspill.var_engine import VarSpec, estimate_var, ma_coefficients, select_lag
from varsim import make_panel, random_walk_matrix


def write_walk_csv(path: Path, T: int = 260, m: int = 3, seed: int = 100) -> None:
    rng = np.random.default_rng(seed)
    names = ["aa", "bb", "cc"][:m]
    write_csv(make_panel(random_walk_matrix(rng, T, m), names), path)


def write_decreasing_csv(path: Path, T: int = 120) -> None:
    rng = np.random.default_rng(101)
    steps = -(np.abs(rng.standard_normal((T, 2))) + 0.1)
    write_csv(make_panel(np.cumsum(steps, axis=0) + 500.0, ["aa", "bb"]), path)


def base_config(input_path: Path, out_dir: Path, **kw) -> RunConfig:
    defaults = dict(
        input_path=str(input_path),
        columns=("aa", "bb", "cc"),
        out_dir=str(out_dir),
        lags=2,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TableFile(NamedTuple):
    labels: tuple[str, ...]
    matrix: np.ndarray
    total_spillover: float


def read_table_csv(path: Path) -> TableFile:
    """The labels, shares and total spillover cell of a run's table CSV, read by csv.reader."""
    with path.open(encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    labels = tuple(header[1:-1])
    shares = rows[: len(labels)]
    assert len(rows) == len(labels) + 2 and tuple(row[0] for row in shares) == labels
    matrix = np.array([[float(cell) for cell in row[1:-1]] for row in shares])
    return TableFile(labels, matrix, float(rows[-1][-1]))


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestFullRun:
    def test_outputs_and_manifest(self, tmp_path):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        cfg = base_config(csv_path, out, window=200, step=10)
        manifest = run_pipeline(cfg)

        for side in ("pos", "neg", "sym"):
            for name in (
                f"table_{side}.csv",
                f"table_{side}.json",
                f"table_{side}.md",
                f"net_{side}.json",
                f"rolling_{side}.csv",
                f"rolling_{side}.svg",
            ):
                assert (out / name).is_file(), name
        assert (out / "manifest.json").is_file()

        payload = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert payload["inputs"]["sha256"] == hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert payload["inputs"]["rows_loaded"] == 260
        assert set(payload["sides"]) == {"pos", "neg", "sym"}
        for side_summary in payload["sides"].values():
            assert side_summary["lag"] == 2
            assert 0.0 <= side_summary["total_spillover"] <= 100.0
            assert side_summary["rolling"]["windows"] == 7
        assert "timestamp" not in payload
        assert manifest.to_json() == (out / "manifest.json").read_text(encoding="utf-8")

    def test_symmetric_table_matches_direct_computation(self, tmp_path):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        cfg = base_config(csv_path, out, sides=(ShockSide.SYMMETRIC,))
        run_pipeline(cfg)

        panel, _ = load_csv(csv_path, "date", ("aa", "bb", "cc"))
        fit = estimate_var(panel, VarSpec(p=2))
        fevd = compute_fevd(ma_coefficients(fit, 10), fit.Gamma, 10)
        expected = build_table(fevd.normalized, panel.names)

        parsed = read_table_csv(out / "table_sym.csv")
        np.testing.assert_array_equal(parsed.matrix, expected.matrix)
        assert parsed.total_spillover == expected.total_spillover

    def test_reruns_are_byte_identical(self, tmp_path):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        cfg = base_config(csv_path, out, window=220)
        run_pipeline(cfg)
        first = tree_digest(out)
        run_pipeline(cfg)
        assert tree_digest(out) == first
        assert len(first) == 3 * 6 + 1

    def test_lag_selection_recorded(self, tmp_path):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        cfg = base_config(csv_path, out, lags=None, max_lags=4, sides=(ShockSide.SYMMETRIC,))
        manifest = run_pipeline(cfg)
        assert 1 <= manifest.sides["sym"]["lag"] <= 4


class TestWarnings:
    """The manifest lists every unstable fit from the records; any other warning meets the caller's filters."""

    @pytest.mark.parametrize("action", ["ignore", "error"])
    def test_unstable_fits_are_listed_under_an_ignore_filter(self, tmp_path, action):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            manifest = run_pipeline(base_config(csv_path, tmp_path / "out", window=200, step=10))
        listed = [text for summary in manifest.sides.values() for text in summary["warnings"]]
        assert any("spectral radius" in text for text in listed), listed

    def test_every_listed_radius_reads_above_one(self, tmp_path):
        # Seeded so that the neg side's full-sample fit is flagged at radius 1.0000333.
        csv_path = tmp_path / "walk.csv"
        values = np.cumsum(np.random.default_rng(9).normal(scale=0.02, size=(400, 3)), axis=0)
        write_csv(make_panel(values, ["aa", "bb", "cc"]), csv_path)
        manifest = run_pipeline(base_config(csv_path, tmp_path / "out", lags=1))
        radius = re.compile(r"companion spectral radius (\S+) exceeds 1")
        listed = [
            float(match.group(1))
            for summary in manifest.sides.values()
            for text in summary["warnings"]
            if (match := radius.match(text))
        ]
        assert listed and all(value > 1.0 for value in listed), listed
        assert float(radius.match(pipeline._diverging(1.0 + 1.1e-6)).group(1)) > 1.0

    @staticmethod
    def divide_by_zero_in_net_measures(monkeypatch):
        measures = pipeline.net_measures

        def dividing(table):
            np.ones(1) / np.zeros(1)
            return measures(table)

        monkeypatch.setattr(pipeline, "net_measures", dividing)

    def test_runtime_warning_under_the_default_filters_reaches_the_caller(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        self.divide_by_zero_in_net_measures(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            # No filter: every warning meets Python's default action, as under the CLI.
            warnings.resetwarnings()
            manifest = run_pipeline(base_config(csv_path, tmp_path / "out"))
        for summary in manifest.sides.values():
            assert not any("divide by zero" in text for text in summary["warnings"]), summary["warnings"]
        assert any(
            issubclass(w.category, RuntimeWarning) and "divide by zero" in str(w.message) for w in caught
        ), caught

    def test_runtime_warning_under_an_error_filter_fails_the_run(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        self.divide_by_zero_in_net_measures(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="divide by zero"):
                run_pipeline(base_config(csv_path, tmp_path / "out"))
        assert not (tmp_path / "out" / "manifest.json").exists()


class TestOneFactorPerSide:
    """With lags=None, one R factor per side selects the lag and fits the model."""

    def run_and_recompute(self, tmp_path, monkeypatch, **kw) -> list[int]:
        """Run the pipeline, compare each side with select_lag + estimate_var; return factored lags."""
        factored: list[int] = []
        factor_sample = var_engine.factor_sample

        def counting(panel, lags):
            factored.append(lags)
            return factor_sample(panel, lags)

        monkeypatch.setattr(var_engine, "factor_sample", counting)
        monkeypatch.setattr(pipeline, "factor_sample", counting)
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path, T=700)
        out = tmp_path / "out"
        cfg = base_config(csv_path, out, lags=None, **kw)
        manifest = run_pipeline(cfg)
        monkeypatch.undo()

        panel, _ = load_csv(csv_path, "date", cfg.columns)
        decomposed = decompose_panel(panel, cfg.trend)
        for side in cfg.sides:
            side_panel = panel if side is ShockSide.SYMMETRIC else component_panel(decomposed, panel, side)
            lag = select_lag(side_panel, cfg.max_lags, cfg.lag_select)
            assert manifest.sides[side.value]["lag"] == lag
            fit = estimate_var(side_panel, VarSpec(p=lag, ty_extra_lags=1 if cfg.ty_augment else 0))
            fevd = compute_fevd(ma_coefficients(fit, cfg.horizon), fit.Gamma, cfg.horizon)
            expected = build_table(fevd.normalized, panel.names)
            parsed = read_table_csv(out / f"table_{side.value}.csv")
            np.testing.assert_allclose(parsed.matrix, expected.matrix, rtol=0, atol=1e-10)
        return factored

    def test_selected_lag_table_matches_separate_calls(self, tmp_path, monkeypatch):
        factored = self.run_and_recompute(tmp_path, monkeypatch, max_lags=4)
        assert factored == [4, 4, 4]

    def test_augmented_model_beyond_the_factor_is_refactored(self, tmp_path, monkeypatch):
        factored = self.run_and_recompute(tmp_path, monkeypatch, max_lags=1, ty_augment=True)
        assert factored == [1, 2, 1, 2, 1, 2]


class TestSingleWindowPromise:
    """A rolling window spanning the sample against the run's full-sample table."""

    @staticmethod
    def spanning_index(panel, cfg: RunConfig, side: ShockSide, lag: int, per_window: bool) -> float:
        spec = VarSpec(p=lag, ty_extra_lags=1 if cfg.ty_augment else 0)
        rolling_cfg = RollingConfig(
            window=len(panel),
            horizon=cfg.horizon,
            var_spec=spec,
            trend_spec=cfg.trend,
            shock_side=side,
        )
        return float(rolling_tables(panel, rolling_cfg, per_window).index_values[0])

    @pytest.mark.parametrize("per_window", [False, True], ids=["anchored", "per-window"])
    def test_selected_lag_is_within_1e_11_and_a_given_lag_is_exact(self, tmp_path, per_window):
        # Under lag selection the run fits the chosen model from the largest
        # candidate's R factor (SampleFactor.derived_r), and the window folds
        # its own design, so the two R factors round differently. A given lag
        # is factored alike on both paths.
        for seed in range(6):
            csv_path = tmp_path / f"walk{seed}.csv"
            rng = np.random.default_rng(200 + seed)
            levels = np.exp(np.cumsum(rng.normal(scale=0.02, size=(400, 3)), axis=0))
            write_csv(make_panel(levels, ["aa", "bb", "cc"]), csv_path)
            panel = log_transform(load_csv(csv_path, "date", ("aa", "bb", "cc"))[0])
            selected = base_config(csv_path, tmp_path / f"sel{seed}", lags=None, log=True)
            for side, record in run_pipeline(selected).sides.items():
                side = ShockSide(side)
                index = self.spanning_index(panel, selected, side, record["lag"], per_window)
                assert abs(index - record["total_spillover"]) <= 1e-11
                out_dir = str(tmp_path / "given")
                given = replace(selected, out_dir=out_dir, lags=record["lag"], sides=(side,))
                assert index == run_pipeline(given).sides[side.value]["total_spillover"]


class TestRollingOutputs:
    """A run's rolling files and manifest summary are the library's rolling result, rendered."""

    @pytest.mark.parametrize("per_window", [False, True], ids=["anchored", "per-window"])
    def test_run_writes_the_rendered_rolling_tables(self, tmp_path, per_window):
        # Series bb is flat for its first 140 rows, so early windows are gaps.
        rng = np.random.default_rng(102)
        levels = random_walk_matrix(rng, 260, 3)
        levels[:140, 1] = levels[0, 1]
        csv_path = tmp_path / "flat.csv"
        write_csv(make_panel(levels, ["aa", "bb", "cc"]), csv_path)
        cfg = base_config(
            csv_path, tmp_path / "out", trend=TrendSpec.NONE, window=120, step=3, decompose_per_window=per_window
        )
        manifest = run_pipeline(cfg)
        panel, _ = load_csv(csv_path, "date", cfg.columns)
        gap_count = 0
        for side in cfg.sides:
            rolling_cfg = RollingConfig(
                window=cfg.window,
                horizon=cfg.horizon,
                var_spec=VarSpec(p=cfg.lags),
                trend_spec=cfg.trend,
                shock_side=side,
                step=cfg.step,
                sigma_scaling=cfg.sigma_scaling,
            )
            tables = rolling_tables(panel, rolling_cfg, per_window)
            out = Path(cfg.out_dir)
            assert (out / f"rolling_{side.value}.csv").read_bytes() == render_rolling_csv(tables).encode()
            assert (out / f"rolling_{side.value}.svg").read_bytes() == render_svg(tables).encode()
            gaps = {
                when.isoformat(): reason
                for when, reason in zip(tables.window_end_dates, tables.gap_reasons)
                if reason is not None
            }
            rolling = manifest.sides[side.value]["rolling"]
            assert rolling == {"windows": len(tables), "gaps": len(gaps), "gap_reasons": gaps}
            gap_count += len(gaps)
        assert 0 < gap_count < 3 * len(tables)

    def test_one_run_names_each_series_one_way(self, tmp_path, monkeypatch):
        # Under --log the rolling record and its tables name each series by
        # its column, as the full-sample table does, not by the logged name.
        records = []
        roll = pipeline.rolling_tables

        def keep(*args, **kwargs):
            records.append(roll(*args, **kwargs))
            return records[-1]

        monkeypatch.setattr(pipeline, "rolling_tables", keep)
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        cfg = base_config(csv_path, tmp_path / "out", log=True, window=220, step=5)
        run_pipeline(cfg)
        assert [tables.side for tables in records] == list(cfg.sides)
        for tables in records:
            table_csv = tmp_path / "out" / f"table_{tables.side.value}.csv"
            assert tables.labels == cfg.columns == read_table_csv(table_csv).labels
            assert all(tables.table(i).labels == cfg.columns for i in range(len(tables)))


class TestFailFast:
    def test_missing_input_creates_nothing(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(tmp_path / "nope.csv", out)
        with pytest.raises(FileNotFoundError):
            run_pipeline(cfg)
        assert not out.exists()

    def test_unknown_column_creates_nothing(self, tmp_path):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        cfg = base_config(csv_path, out, columns=("aa", "zz"))
        with pytest.raises(Exception):
            run_pipeline(cfg)
        assert not out.exists()

    def test_panel_too_short_for_the_trend_fit_fails_before_any_side(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "short.csv"
        write_walk_csv(csv_path, T=3)
        sides = []
        run_side = pipeline._run_side

        def recording(cfg, side, *rest):
            sides.append(side)
            return run_side(cfg, side, *rest)

        monkeypatch.setattr(pipeline, "_run_side", recording)
        out = tmp_path / "out"
        with pytest.raises(SeriesTooShortError) as info:
            run_pipeline(base_config(csv_path, out))
        assert str(info.value) == "; ".join(
            f"series {name!r}: length 3 < 4 needed for trend fit" for name in ("aa", "bb", "cc")
        )
        assert sides == []
        assert not (out / "manifest.json").exists()


class TestPartialFailure:
    def test_failed_side_keeps_other_outputs(self, tmp_path):
        csv_path = tmp_path / "down.csv"
        write_decreasing_csv(csv_path)
        out = tmp_path / "out"
        cfg = base_config(
            csv_path, out, columns=("aa", "bb"), lags=1, trend=TrendSpec.NONE
        )
        with pytest.raises(PipelineError) as info:
            run_pipeline(cfg)

        failed_sides = {side for side, _, _ in info.value.failures}
        assert failed_sides == {"pos"}
        (failure,) = info.value.failures
        assert failure[1] == "estimate"

        for side in ("neg", "sym"):
            assert (out / f"table_{side}.csv").is_file()
        assert not (out / "table_pos.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_failed_rerun_leaves_no_earlier_manifest(self, tmp_path):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        run_pipeline(base_config(csv_path, out, window=220))
        assert (out / "manifest.json").is_file()
        # The re-run writes its tables, then fails every side at the rolling
        # stage: a window of 11 leaves 2 residual degrees of freedom for m=3
        # and p=2, fewer than the 3 equations.
        with pytest.raises(PipelineError) as info:
            run_pipeline(base_config(csv_path, out, horizon=5, window=11))
        assert {stage for _, stage, _ in info.value.failures} == {"rolling"}
        assert len(info.value.failures) == 3
        assert not (out / "manifest.json").exists()

    def test_lag_selection_failure_names_its_stage(self, tmp_path):
        rng = np.random.default_rng(102)
        walk = random_walk_matrix(rng, 150, 1)[:, 0]
        csv_path = tmp_path / "twins.csv"
        # bb is exactly twice aa, so every side's lag design is rank deficient.
        write_csv(make_panel(np.column_stack([walk, 2.0 * walk]), ["aa", "bb"]), csv_path)
        out = tmp_path / "out"
        cfg = base_config(csv_path, out, columns=("aa", "bb"), lags=None, max_lags=3)
        with pytest.raises(PipelineError) as info:
            run_pipeline(cfg)
        assert [(side, stage) for side, stage, _ in info.value.failures] == [
            ("pos", "lag-select"),
            ("neg", "lag-select"),
            ("sym", "lag-select"),
        ]
        assert all("rank deficient" in message for _, _, message in info.value.failures)
        assert (info.value.side, info.value.stage) == ("pos", "lag-select")
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("scale", [1e100, 1e-100])
    def test_series_out_of_the_decompositions_range_fails_its_stage(self, tmp_path, scale):
        # Such a series fits, since units never decide the rank, but the
        # FEVD's squares of its variance would overflow or underflow: every
        # side fails, none with NaN or silently wrong shares.
        rng = np.random.default_rng(103)
        levels = random_walk_matrix(rng, 260, 3) * np.array([scale, 1.0, 1.0])
        csv_path = tmp_path / "scaled.csv"
        write_csv(make_panel(levels, ["aa", "bb", "cc"]), csv_path)
        with pytest.raises(PipelineError) as info:
            run_pipeline(base_config(csv_path, tmp_path / "out"))
        assert [(side, stage) for side, stage, _ in info.value.failures] == [
            ("pos", "fevd"),
            ("neg", "fevd"),
            ("sym", "fevd"),
        ]
        assert all("a series is too large or too small" in message for _, _, message in info.value.failures)


class TestStaleOutputs:
    @pytest.mark.parametrize("window", [220, None])
    def test_rerun_with_fewer_sides_leaves_only_its_own_files(self, tmp_path, window):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        run_pipeline(base_config(csv_path, out, window=220))
        assert len(list(out.iterdir())) == 3 * 6 + 1
        manifest = run_pipeline(
            base_config(csv_path, out, window=window, sides=(ShockSide.POSITIVE,))
        )
        expected = {"table_pos.csv", "table_pos.json", "table_pos.md", "net_pos.json"}
        if window is not None:
            expected |= {"rolling_pos.csv", "rolling_pos.svg"}
        assert {p.name for p in out.iterdir()} == expected | {"manifest.json"}
        assert set(manifest.sides["pos"]["files"].values()) == expected


class TestManifestReuse:
    def test_round_trip_config(self, tmp_path):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        cfg = base_config(csv_path, out, window=220, step=5)
        run_pipeline(cfg)
        assert config_from_manifest(out / "manifest.json") == cfg

    def test_rerun_from_manifest_is_identical(self, tmp_path):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        run_pipeline(base_config(csv_path, out))
        first = tree_digest(out)
        run_pipeline(config_from_manifest(out / "manifest.json"))
        assert tree_digest(out) == first

    def test_input_digest_streams_the_file(self, tmp_path, monkeypatch):
        # The digest is read in blocks, never as the whole file: with
        # Path.read_bytes gone and blocks of 1000 bytes, the run and the
        # check from the manifest still record sha256 of the file's bytes.
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        expected = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert csv_path.stat().st_size > 3 * 1000

        def whole_file(self):
            raise AssertionError(f"read {self} whole")

        monkeypatch.setattr(Path, "read_bytes", whole_file)
        monkeypatch.setattr(pipeline, "_DIGEST_BLOCK", 1000)
        out = tmp_path / "out"
        cfg = base_config(csv_path, out, sides=(ShockSide.SYMMETRIC,))
        assert run_pipeline(cfg).inputs["sha256"] == expected
        assert config_from_manifest(out / "manifest.json") == cfg

    def test_changed_input_is_rejected(self, tmp_path):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        run_pipeline(base_config(csv_path, out))
        write_walk_csv(csv_path, seed=999)
        with pytest.raises(ManifestMismatchError):
            config_from_manifest(out / "manifest.json")

    def test_missing_input_is_rejected(self, tmp_path):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        run_pipeline(base_config(csv_path, out))
        csv_path.unlink()
        with pytest.raises(ManifestMismatchError):
            config_from_manifest(out / "manifest.json")


class TestSharedOutputDirectory:
    def test_foreign_temp_file_is_left_alone(self, tmp_path):
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        out.mkdir()
        foreign = out / "table_sym.csv.tmp"
        foreign.write_text("another run's partial output", encoding="utf-8")
        run_pipeline(base_config(csv_path, out, sides=(ShockSide.SYMMETRIC,)))
        assert foreign.read_text(encoding="utf-8") == "another run's partial output"
        assert sorted(p.name for p in out.iterdir() if p.suffix == ".tmp") == [foreign.name]


class TestDecompositionReuse:
    def test_rolling_reuses_the_run_decomposition(self, tmp_path, monkeypatch):
        # The pos and neg sides each split their own components once, in
        # their component stage; rolling_tables slides over that split.
        calls = []
        in_rolling = []
        split, roll = decomposition._components, pipeline.rolling_tables

        def counting_split(panel, spec, side):
            calls.append((side, bool(in_rolling)))
            return split(panel, spec, side)

        def marked_roll(*args, **kwargs):
            in_rolling.append(True)
            try:
                return roll(*args, **kwargs)
            finally:
                in_rolling.pop()

        monkeypatch.setattr(decomposition, "_components", counting_split)
        monkeypatch.setattr(pipeline, "rolling_tables", marked_roll)
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        run_pipeline(base_config(csv_path, tmp_path / "out", window=220, step=5))
        assert calls == [(ShockSide.POSITIVE, False), (ShockSide.NEGATIVE, False)]


class TestMemory:
    def test_run_holds_one_component_panel_at_a_time(self, tmp_path, monkeypatch):
        # Past ingest a run holds the panel, one side's components and a few
        # series-length temporaries: about 3.6 panels. Both component panels
        # held at once, as a run splitting every side up front would, make
        # it about 5.4 and fail the 4.5-panel bound.
        rng = np.random.default_rng(15)
        names = [f"s{j}" for j in range(8)]
        source = make_panel(np.exp(np.cumsum(rng.normal(scale=0.01, size=(20000, 8)), axis=0)), names)
        csv_path = tmp_path / "wide.csv"
        write_csv(source, csv_path)
        panel_bytes = source.matrix.nbytes
        del source
        load = pipeline.load_csv

        def load_then_reset_peak(*args, **kwargs):
            loaded = load(*args, **kwargs)
            tracemalloc.reset_peak()
            return loaded

        monkeypatch.setattr(pipeline, "load_csv", load_then_reset_peak)
        cfg = base_config(csv_path, tmp_path / "out", columns=tuple(names), log=True)
        tracemalloc.start()
        try:
            run_pipeline(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * panel_bytes


class TestConfigValidation:
    def test_every_field_reads_back_from_json(self, tmp_path):
        # Each field set away from its default, through JSON text: a field
        # that from_dict cannot read back fails here, not in a user's re-run.
        cfg = RunConfig(
            input_path=str(tmp_path / "x.csv"),
            columns=("a", "b"),
            out_dir=str(tmp_path / "out"),
            date_column="day",
            log=True,
            trend=TrendSpec.NONE,
            lags=2,
            lag_select="aic",
            max_lags=4,
            ty_augment=True,
            sigma_scaling="ii",
            horizon=5,
            sides=(ShockSide.NEGATIVE,),
            window=60,
            step=3,
            decompose_per_window=True,
            emit_tables=False,
        )
        assert all(getattr(cfg, f.name) != f.default for f in fields(RunConfig))
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
        assert RunConfig(**cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("date_column", 5, "config field 'date_column' must be a string, got 5"),
            ("log", "yes", "config field 'log' must be true or false, got 'yes'"),
            ("horizon", True, "config field 'horizon' must be an integer, got True"),
            ("max_lags", 2.5, "config field 'max_lags' must be an integer, got 2.5"),
            ("lags", "2", "config field 'lags' must be an integer or null, got '2'"),
            ("window", False, "config field 'window' must be an integer or null, got False"),
            (
                "trend",
                "linear",
                "config field 'trend' must be one of ['none', 'drift', 'trend'], got 'linear'",
            ),
            ("trend", None, "config field 'trend' must be one of ['none', 'drift', 'trend'], got None"),
            ("columns", "ab", "config field 'columns' must be a list of strings, got 'ab'"),
            ("columns", ["a", 1], "config field 'columns' must be a list of strings, got ['a', 1]"),
            ("sides", None, "config field 'sides' must be a list of strings, got None"),
            (
                "sides",
                ["pos", "up"],
                "config field 'sides' must be a list drawn from ['pos', 'neg', 'sym'], got ['pos', 'up']",
            ),
        ],
    )
    def test_malformed_field_message(self, tmp_path, name, value, message):
        recorded = base_config(tmp_path / "x.csv", tmp_path / "out").to_dict()
        recorded[name] = value
        with pytest.raises(ConfigError) as info:
            RunConfig.from_dict(recorded)
        assert str(info.value) == message
        # A config built directly is read by the same checker.
        with pytest.raises(ConfigError) as info:
            RunConfig(**recorded)
        assert str(info.value) == message

    def test_lists_from_library_callers_are_recorded_as_lists(self, tmp_path):
        cfg = RunConfig(
            input_path=str(tmp_path / "x.csv"),
            columns=["a", "b"],
            out_dir=str(tmp_path / "out"),
            sides=[ShockSide.POSITIVE],
        )
        recorded = json.loads(json.dumps(cfg.to_dict()))
        assert recorded["columns"] == ["a", "b"] and recorded["sides"] == ["pos"]
        back = RunConfig.from_dict(recorded)
        assert back.columns == ("a", "b")
        assert back.sides == (ShockSide.POSITIVE,)

    def test_values_in_place_of_members_run_alike(self, tmp_path):
        # trend "none" runs TrendSpec.NONE, not the drift-and-trend fit, and
        # the recorded config re-runs to the same tree.
        csv_path = tmp_path / "walk.csv"
        write_walk_csv(csv_path)
        out = tmp_path / "out"
        rolling = dict(window=220, step=20)
        members = base_config(csv_path, out, trend=TrendSpec.NONE, sides=(ShockSide.POSITIVE,), **rolling)
        run_pipeline(members)
        first = tree_digest(out)
        values = base_config(
            csv_path, out, trend="none", sides=("pos",), columns=["aa", "bb", "cc"], **rolling
        )
        assert values == members and hash(values) == hash(members)
        run_pipeline(values)
        assert tree_digest(out) == first
        run_pipeline(config_from_manifest(out / "manifest.json"))
        assert tree_digest(out) == first

    def test_side_named_twice_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="^side 'pos' is named twice$"):
            base_config(tmp_path / "x.csv", tmp_path / "out", sides=(ShockSide.POSITIVE, ShockSide.POSITIVE))
        recorded = base_config(tmp_path / "x.csv", tmp_path / "out").to_dict()
        recorded["sides"] = ["neg", "sym", "neg"]
        with pytest.raises(ConfigError, match="^side 'neg' is named twice$"):
            RunConfig.from_dict(recorded)

    def test_legacy_seed_key_is_dropped(self, tmp_path):
        cfg = base_config(tmp_path / "x.csv", tmp_path / "out")
        recorded = cfg.to_dict()
        assert "seed" not in recorded
        recorded["seed"] = 7
        assert RunConfig.from_dict(recorded) == cfg

    def test_empty_sides_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            base_config(tmp_path / "x.csv", tmp_path / "out", sides=())

    @pytest.mark.parametrize(
        "columns, date_column, named",
        [
            (("aa", "bb", "aa"), "date", "column 'aa' is named twice"),
            (("date", "aa"), "date", "column 'date' is the date column"),
            (("aa", "day"), "day", "column 'day' is the date column"),
            ((), "date", "^at least one value column must be named$"),
        ],
    )
    def test_bad_value_columns_rejected(self, tmp_path, columns, date_column, named):
        with pytest.raises(ConfigError, match=named):
            base_config(tmp_path / "x.csv", tmp_path / "out", columns=columns, date_column=date_column)
        with pytest.raises(ConfigError, match=named):
            load_csv(tmp_path / "x.csv", date_column, columns)

    def test_bad_horizon_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            base_config(tmp_path / "x.csv", tmp_path / "out", horizon=0)
