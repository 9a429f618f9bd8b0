"""Rolling spillover-index behavior: window arithmetic, gaps, determinism."""

from __future__ import annotations

import datetime as dt
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspill.connectedness import ConnectednessTable, build_table, compute_fevd
from aspill.decomposition import ShockSide, TrendSpec, component_panel, decompose_panel
from aspill.errors import AllWindowsFailedError, ConfigError, InsufficientDataError
from aspill.panel import Panel
import aspill.pipeline as pipeline
import aspill.rolling as rolling
import aspill.var_engine as var_engine
from aspill.pipeline import RunConfig
from aspill.rolling import RollingConfig, rolling_tables
from aspill.var_engine import (
    _BLOCK_ROWS,
    _UNSTABLE_RADIUS,
    VarSpec,
    design_bytes,
    estimate_var,
    ma_coefficients,
)
from varsim import make_panel, random_walk_matrix, random_walk_panel


def budget_run(panel, cfg, per_window, chunk_bytes, monkeypatch):
    """rolling_tables under a _CHUNK_BYTES of chunk_bytes.

    Returns the tables, their unstable-window count, and the window
    counts of the QR chunks and of the fit batches, in order.
    """
    chunks, batches = [], []
    r_factor, fit_r = var_engine._r_factor, var_engine._fit_r

    def chunk_r_factor(blocks):
        r = r_factor(blocks)
        chunks.append(len(r))
        return r

    def batch_fit_r(r, n, spec):
        batches.append(len(r))
        return fit_r(r, n, spec)

    monkeypatch.setattr(rolling, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(rolling, "_r_factor", chunk_r_factor)
    monkeypatch.setattr(rolling, "_fit_r", batch_fit_r)
    result = rolling_tables(panel, cfg, per_window)
    assert sum(chunks) == sum(batches) == len(result)
    return result, result.unstable, chunks, batches


def assert_same_run(run, reference):
    """Two budget_run results hold the same bits and the same unstable-window count."""
    (tables, unstable), (want, want_unstable) = run[:2], reference[:2]
    assert np.array_equal(tables.percent, want.percent, equal_nan=True)
    assert np.array_equal(tables.radius, want.radius, equal_nan=True)
    assert np.array_equal(tables.singular_values, want.singular_values)
    assert tables.gap_reasons == want.gap_reasons
    assert unstable == want_unstable


def base_config(window: int, **kw) -> RollingConfig:
    defaults = dict(
        window=window,
        horizon=10,
        var_spec=VarSpec(p=2),
        trend_spec=TrendSpec.DRIFT,
        shock_side=ShockSide.SYMMETRIC,
    )
    defaults.update(kw)
    return RollingConfig(**defaults)


def fitted_table(panel, cfg: RollingConfig) -> ConnectednessTable:
    """The table of a full-sample fit of panel as it is, with cfg's model."""
    fit = estimate_var(panel, cfg.var_spec)
    fevd = compute_fevd(
        ma_coefficients(fit, cfg.horizon), fit.Gamma, cfg.horizon, cfg.sigma_scaling
    )
    return build_table(fevd.normalized, panel.names)


def full_sample_table(panel, cfg: RollingConfig) -> ConnectednessTable:
    decomposed = decompose_panel(panel, cfg.trend_spec)
    return fitted_table(component_panel(decomposed, panel, cfg.shock_side), cfg)


def full_sample_index(panel, cfg: RollingConfig) -> float:
    return full_sample_table(panel, cfg).total_spillover


def run_side_record(panel, cfg: RollingConfig, monkeypatch):
    """The full-sample record pipeline._run_side builds for cfg's side and model."""
    records = []

    def keep(*args):
        records.append(rolling.fit_tables(*args))
        return records[-1]

    monkeypatch.setattr(pipeline, "fit_tables", keep)
    run = RunConfig(
        input_path="unread.csv",
        columns=panel.names,
        out_dir="unwritten",
        trend=cfg.trend_spec,
        lags=cfg.var_spec.p,
        ty_augment=cfg.var_spec.ty_extra_lags == 1,
        sigma_scaling=cfg.sigma_scaling,
        horizon=cfg.horizon,
        sides=(cfg.shock_side,),
        emit_tables=False,
    )
    pipeline._run_side(run, cfg.shock_side, panel, Path(run.out_dir))
    (record,) = records
    return record


SIDES_AND_AUGMENTATION = pytest.mark.parametrize(
    "side, extra_lags", [(side, extra) for side in ShockSide for extra in (0, 1)]
)


class TestWindowArithmetic:
    @staticmethod
    def check_single_window_equals_full_sample(panel, monkeypatch, side=ShockSide.SYMMETRIC, extra_lags=0):
        cfg = base_config(
            window=len(panel), shock_side=side, var_spec=VarSpec(p=2, ty_extra_lags=extra_lags)
        )
        tables = rolling_tables(panel, cfg)
        assert len(tables.index_values) == 1
        assert np.array_equal(tables.percent[0], full_sample_table(panel, cfg).matrix)
        assert tables.index_values[0] == full_sample_index(panel, cfg)
        assert tables.window_end_dates[0] == panel.dates[-1]
        # The run's full sample is the record of this one window, field by field.
        sample = run_side_record(panel, cfg, monkeypatch)
        for name in ("side", "labels", "window_end_dates", "gap_reasons"):
            assert getattr(sample, name) == getattr(tables, name)
        for name in ("percent", "radius", "singular_values"):
            assert np.array_equal(getattr(sample, name), getattr(tables, name), equal_nan=True)

    @SIDES_AND_AUGMENTATION
    def test_single_window_equals_full_sample(self, monkeypatch, side, extra_lags):
        rng = np.random.default_rng(60)
        panel = random_walk_panel(rng, T=180, m=3)
        self.check_single_window_equals_full_sample(panel, monkeypatch, side, extra_lags)

    @pytest.mark.parametrize("side", list(ShockSide))
    def test_single_short_window_equals_full_sample(self, monkeypatch, side):
        # 14 rows of 3 series at p=2 leave 5 residual degrees of freedom for 3
        # equations: the full sample fits, so the window spanning it does too.
        rng = np.random.default_rng(67)
        self.check_single_window_equals_full_sample(random_walk_panel(rng, T=14, m=3), monkeypatch, side)

    @SIDES_AND_AUGMENTATION
    def test_single_window_over_several_row_blocks_equals_full_sample(self, monkeypatch, side, extra_lags):
        rng = np.random.default_rng(66)
        panel = random_walk_panel(rng, T=5 * _BLOCK_ROWS // 2, m=3)
        self.check_single_window_equals_full_sample(panel, monkeypatch, side, extra_lags)

    def test_step_one_count(self):
        rng = np.random.default_rng(61)
        panel = random_walk_panel(rng, T=155, m=2)
        tables = rolling_tables(panel, base_config(window=150))
        assert len(tables.index_values) == 6
        assert tables.window_end_dates == panel.dates[149:]

    def test_step_ten_count(self):
        rng = np.random.default_rng(62)
        panel = random_walk_panel(rng, T=250, m=2)
        result = rolling_tables(panel, base_config(window=150, step=10))
        assert len(result) == len(result.percent) == 11
        assert result.window_end_dates == panel.dates[149::10]

    def test_stride_subsamples_stride_one(self):
        rng = np.random.default_rng(63)
        panel = random_walk_panel(rng, T=200, m=2)
        dense = rolling_tables(panel, base_config(window=160, step=1))
        sparse = rolling_tables(panel, base_config(window=160, step=7))
        for k, date in enumerate(sparse.window_end_dates):
            j = dense.window_end_dates.index(date)
            assert sparse.index_values[k] == dense.index_values[j]

    def test_index_values_are_each_window_total_spillover(self):
        rng = np.random.default_rng(64)
        panel = random_walk_panel(rng, T=170, m=2)
        tables = rolling_tables(panel, base_config(window=160, step=2))
        assert tables.side is ShockSide.SYMMETRIC
        totals = [tables.table(i).total_spillover for i in range(len(tables))]
        assert tables.index_values.tolist() == totals


class TestDesignViews:
    """Windows fitted as views of one design, in the geometries that stress it.

    "long": each window has more usable rows than one QR block, so its
    view is folded block by block. "wide-step": the step exceeds a
    window's usable rows, so a chunk's design has rows no window uses.
    """

    GEOMETRIES = {
        "long": dict(T=_BLOCK_ROWS + 300, window=_BLOCK_ROWS + 250, step=13),
        "wide-step": dict(T=600, window=150, step=200),
    }

    @staticmethod
    def setup(name):
        geometry = TestDesignViews.GEOMETRIES[name]
        rng = np.random.default_rng(74)
        panel = random_walk_panel(rng, T=geometry["T"], m=3, drift=0.05)
        cfg = base_config(
            window=geometry["window"], step=geometry["step"], shock_side=ShockSide.POSITIVE
        )
        assert cfg.step > 1 and (name == "long") == (cfg.window - 2 > _BLOCK_ROWS)
        assert (name == "wide-step") == (cfg.step > cfg.window - 2)
        return panel, cfg

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_every_window_equals_the_full_sample_fit_of_its_rows(self, name):
        panel, cfg = self.setup(name)
        component = component_panel(decompose_panel(panel, cfg.trend_spec), panel, cfg.shock_side)
        result = rolling_tables(panel, cfg)
        values = result.index_values
        assert len(result) == len(range(0, len(panel) - cfg.window + 1, cfg.step)) >= 3
        for i, start in enumerate(range(0, len(panel) - cfg.window + 1, cfg.step)):
            alone = fitted_table(component.window(start, start + cfg.window), cfg)
            assert np.array_equal(result.percent[i], alone.matrix)
            assert values[i] == alone.total_spillover
            assert result.table(i).total_spillover == alone.total_spillover

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_single_window_equals_full_sample(self, name):
        panel, cfg = self.setup(name)
        single = replace(cfg, window=len(panel))
        (value,) = rolling_tables(panel, single).index_values
        assert value == full_sample_index(panel, single)

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_strided_run_equals_dense_run_subsampled(self, name):
        panel, cfg = self.setup(name)
        dense = rolling_tables(panel, replace(cfg, step=1))
        strided = rolling_tables(panel, cfg)
        assert np.array_equal(strided.percent, dense.percent[:: cfg.step], equal_nan=True)
        assert strided.window_end_dates == dense.window_end_dates[:: cfg.step]
        assert np.array_equal(strided.index_values, dense.index_values[:: cfg.step])

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_chunk_size_never_changes_a_bit(self, name, monkeypatch):
        panel, cfg = self.setup(name)
        # Half a window's design gives QR chunks of one window and a fit
        # batch of every window.
        half_window = design_bytes(cfg.window, panel.m, cfg.var_spec) // 2
        runs = [
            budget_run(panel, cfg, False, chunk_bytes, monkeypatch)
            for chunk_bytes in (1, half_window, rolling._CHUNK_BYTES, 1 << 40)
        ]
        assert runs[1][2] == [1] * len(runs[1][0]) and runs[1][3] == [len(runs[1][0])]
        for run in runs[1:]:
            assert_same_run(run, runs[0])


class TestConfig:
    def test_trend_and_side_given_as_their_values(self):
        rng = np.random.default_rng(68)
        panel = make_panel(random_walk_matrix(rng, T=160, m=2))
        by_value = base_config(window=150, trend_spec="none", shock_side="pos")
        members = base_config(window=150, trend_spec=TrendSpec.NONE, shock_side=ShockSide.POSITIVE)
        assert by_value == members
        a, b = rolling_tables(panel, by_value), rolling_tables(panel, members)
        assert a.side is ShockSide.POSITIVE
        np.testing.assert_array_equal(a.percent, b.percent)
        with pytest.raises(ConfigError, match="config field 'shock_side' must be one of"):
            base_config(window=150, shock_side="up")
        with pytest.raises(ConfigError, match="config field 'trend_spec' must be one of"):
            base_config(window=150, trend_spec="linear")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("horizon", 2.5),
            ("horizon", True),
            ("step", 2.0),
            ("window", 150.0),
            ("p", True),
            ("p", 2.0),
            ("ty_extra_lags", False),
        ],
    )
    def test_count_that_is_not_an_integer_names_its_field(self, field, value):
        with pytest.raises(ConfigError, match=f"'{field}' must be an integer"):
            if field in ("p", "ty_extra_lags"):
                VarSpec(**{"p": 2, field: value})
            else:
                base_config(**{"window": 150, field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sigma_scaling", "JJ", "config field 'sigma_scaling' must be one of ['jj', 'ii'], got 'JJ'"),
            ("sigma_scaling", None, "config field 'sigma_scaling' must be one of ['jj', 'ii'], got None"),
            ("var_spec", 2, "config field 'var_spec' must be a VarSpec, got 2"),
        ],
    )
    def test_bad_setting_is_rejected_when_the_config_is_built(self, field, value, message):
        # Before any window is fitted, not as a raw error from deep in the run.
        with pytest.raises(ConfigError) as caught:
            base_config(**{"window": 150, field: value})
        assert str(caught.value) == message


class TestMemory:
    # Peaks measured at 3.8 (1,901 windows) and 3.9 (7,901) _CHUNK_BYTES;
    # one fit batch of every window reaches about 8.6 and 35.
    PEAK_BOUND = 5

    @pytest.mark.parametrize("T", [2000, 8000])
    def test_peak_is_flat_in_the_window_count(self, T):
        panel = random_walk_panel(np.random.default_rng(75), T=T, m=3)
        cfg = base_config(window=100)
        tracemalloc.start()
        try:
            result = rolling_tables(panel, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = result.percent.nbytes + result.radius.nbytes + result.singular_values.nbytes
        assert len(result) == T - 99
        assert peak - kept < self.PEAK_BOUND * rolling._CHUNK_BYTES


class TestInvariance:
    def test_date_shift_changes_dates_only(self):
        rng = np.random.default_rng(65)
        values = random_walk_matrix(rng, T=160, m=2)
        dates = tuple(dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(160))
        shifted = tuple(d + dt.timedelta(days=700) for d in dates)
        cfg = base_config(window=150)
        a = rolling_tables(make_panel(values, dates=dates), cfg)
        b = rolling_tables(make_panel(values, dates=shifted), cfg)
        np.testing.assert_array_equal(a.index_values, b.index_values)
        assert b.window_end_dates == tuple(
            d + dt.timedelta(days=700) for d in a.window_end_dates
        )

    def test_appending_rows_keeps_prefix(self):
        rng = np.random.default_rng(66)
        values = random_walk_matrix(rng, T=200, m=2)
        dates = tuple(dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(200))
        cfg = base_config(window=170)
        short = rolling_tables(make_panel(values[:185], dates=dates[:185]), cfg)
        long = rolling_tables(make_panel(values, dates=dates), cfg)
        assert long.window_end_dates[: len(short.window_end_dates)] == short.window_end_dates
        np.testing.assert_array_equal(
            long.index_values[: len(short.index_values)], short.index_values
        )


class TestGaps:
    @staticmethod
    def flat_start_panel() -> Panel:
        rng = np.random.default_rng(67)
        T = 220
        dates = tuple(dt.date(2005, 1, 3) + dt.timedelta(days=i) for i in range(T))
        a = random_walk_matrix(rng, T, 1)[:, 0]
        b = np.concatenate([np.full(140, 50.0), 50.0 + np.cumsum(rng.normal(size=T - 140))])
        return make_panel(np.column_stack([a, b]), names=["a", "b"], dates=dates)

    def test_failed_windows_become_nan_with_reason(self):
        panel = self.flat_start_panel()
        cfg = base_config(window=120, trend_spec=TrendSpec.NONE)
        result = rolling_tables(panel, cfg)
        assert len(result) == 101
        values = result.index_values
        bad = np.isnan(values)
        assert bad.any() and not bad.all()
        for i, (flag, reason) in enumerate(zip(bad, result.gap_reasons)):
            table = result.table(i)
            if flag:
                assert table is None
                assert reason
                assert np.all(np.isnan(result.percent[i]))
            else:
                assert table is not None
                assert reason is None
                assert table.total_spillover == values[i]

    def test_all_windows_failed(self):
        T = 140
        dates = tuple(dt.date(2005, 1, 3) + dt.timedelta(days=i) for i in range(T))
        flat = np.full(T, 10.0)
        panel = make_panel(np.column_stack([flat, flat + 1.0]), names=["a", "b"], dates=dates)
        with pytest.raises(AllWindowsFailedError):
            rolling_tables(panel, base_config(window=120, trend_spec=TrendSpec.NONE))

    @pytest.mark.parametrize("scale", [1e100, 1e-100])
    def test_series_out_of_the_decompositions_range_is_a_gap_without_a_warning(self, scale):
        # Pytest turns a RuntimeWarning into an error, so an overflow or
        # underflow in the FEVD's squares would fail this test.
        rng = np.random.default_rng(69)
        panel = make_panel(random_walk_matrix(rng, 200, 3) * np.array([scale, 1.0, 1.0]))
        message = r"covariance diagonal outside 2\^-500..2\^500"
        with pytest.raises(AllWindowsFailedError, match=message):
            rolling_tables(panel, base_config(window=150, step=10, shock_side=ShockSide.POSITIVE))

    def test_table_checks_rows_at_the_kernel_tolerance(self):
        rng = np.random.default_rng(70)
        tables = rolling_tables(random_walk_panel(rng, T=170, m=2), base_config(window=160, step=5))
        assert tables.table(0) is not None
        skewed = replace(tables, percent=tables.percent + np.array([[1e-3, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="rows of a percent matrix must sum to 100"):
            skewed.table(0)


class TestValidation:
    def test_window_with_fewer_residual_degrees_of_freedom_than_equations(self):
        # Each window of 35 rows fits 25 regressors to 32 observations: 7
        # residual degrees of freedom for 8 equations.
        panel = random_walk_panel(np.random.default_rng(1), T=120, m=8)
        cfg = base_config(window=35, var_spec=VarSpec(p=3))
        with pytest.raises(AllWindowsFailedError, match="all 86 windows failed.*25 regressors and 8 equations"):
            rolling_tables(panel, cfg)
        assert len(rolling_tables(panel, replace(cfg, window=36))) == 85

    def test_window_longer_than_sample(self):
        rng = np.random.default_rng(68)
        panel = random_walk_panel(rng, T=100, m=2)
        with pytest.raises(InsufficientDataError):
            rolling_tables(panel, base_config(window=150))

    def test_window_too_small_for_model(self):
        # check_sample decides for windows as for the full sample: 8 rows leave
        # 1 residual degree of freedom for 5 regressors, fewer than 2 equations.
        rng = np.random.default_rng(69)
        panel = random_walk_panel(rng, T=100, m=2)
        message = (
            "all 93 windows failed; last reason: "
            "8 rows give 6 usable observations for 5 regressors and 2 equations"
        )
        with pytest.raises(AllWindowsFailedError, match=message):
            rolling_tables(panel, base_config(window=8))

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            base_config(window=100, step=0)


class TestDecompositionScope:
    def test_per_window_changes_one_sided_components(self):
        rng = np.random.default_rng(70)
        panel = random_walk_panel(rng, T=200, m=2, drift=0.05)
        cfg = base_config(window=160, shock_side=ShockSide.POSITIVE)
        full = rolling_tables(panel, cfg)
        per_window = rolling_tables(panel, cfg, decompose_per_window=True)
        assert full.window_end_dates == per_window.window_end_dates
        assert not np.array_equal(full.index_values, per_window.index_values)

    @pytest.mark.parametrize("window, step", [(150, 11), (260, 1)], ids=["strided", "single"])
    @pytest.mark.parametrize("side", [ShockSide.POSITIVE, ShockSide.NEGATIVE])
    @pytest.mark.parametrize("trend", list(TrendSpec))
    def test_re_anchored_window_is_the_full_sample_analysis_of_its_rows(self, trend, side, window, step):
        # Log levels near 0. The differences of random_walk_panel's walks
        # around 100 are coarse enough to sum exactly in any order, which
        # would hide a change of summation order.
        log_levels = np.cumsum(np.random.default_rng(81).normal(scale=0.02, size=(260, 3)), axis=0)
        panel = make_panel(log_levels)
        cfg = base_config(window=window, step=step, trend_spec=trend, shock_side=side)
        result = rolling_tables(panel, cfg, decompose_per_window=True)
        starts = range(0, len(panel) - window + 1, step)
        assert len(result) == len(starts)
        for i, start in enumerate(starts):
            alone = full_sample_table(panel.window(start, start + window), cfg)
            assert np.array_equal(result.percent[i], alone.matrix)

    def test_per_window_is_noop_for_symmetric(self):
        rng = np.random.default_rng(71)
        panel = random_walk_panel(rng, T=180, m=2)
        cfg = base_config(window=160)
        a = rolling_tables(panel, cfg)
        b = rolling_tables(panel, cfg, decompose_per_window=True)
        np.testing.assert_array_equal(a.index_values, b.index_values)


class TestWarningDiscipline:
    def test_unstable_windows_reported_once(self):
        # The record counts unstable fits once, as a number; nothing warns.
        # The stale stretch, longer than a window, makes rank-deficient gaps.
        values = random_walk_matrix(np.random.default_rng(72), T=400, m=2)
        values[100:300, 0] = values[100, 0]
        cfg = base_config(window=150, step=10, shock_side=ShockSide.POSITIVE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tables = rolling_tables(make_panel(values), cfg)
        assert np.isnan(tables.radius).any()
        assert tables.unstable == np.count_nonzero(tables.radius > _UNSTABLE_RADIUS) > 0


class TestRandomWalkLevels:
    def test_index_stays_low_without_real_linkage(self):
        worst = 0.0
        for rep in range(10):
            rng = np.random.default_rng(3000 + rep)
            panel = random_walk_panel(rng, T=500, m=3)
            tables = rolling_tables(panel, base_config(window=200, step=25))
            finite = [v for v in tables.index_values if not np.isnan(v)]
            assert finite
            worst = max(worst, max(finite))
        assert worst < 25.0


class TestMirror:
    """The positive side of y is the negative side of -y, bit for bit."""

    @staticmethod
    def mirrored_panels() -> tuple[Panel, Panel]:
        rng = np.random.default_rng(73)
        values = random_walk_matrix(rng, T=600, m=3)
        # A stale stretch longer than a window, so some windows are gaps.
        values[200:400, 0] = values[200, 0]
        return make_panel(values), make_panel(-values)

    @pytest.mark.parametrize("sigma_scaling", ["jj", "ii"])
    @pytest.mark.parametrize("trend", list(TrendSpec))
    def test_positive_side_equals_negative_side_of_negated_series(self, trend, sigma_scaling):
        y, minus_y = self.mirrored_panels()
        kw = dict(var_spec=VarSpec(p=2), trend_spec=trend, sigma_scaling=sigma_scaling)
        pos_cfg = base_config(window=len(y), shock_side=ShockSide.POSITIVE, **kw)
        neg_cfg = base_config(window=len(y), shock_side=ShockSide.NEGATIVE, **kw)
        pos_table = full_sample_table(y, pos_cfg)
        neg_table = full_sample_table(minus_y, neg_cfg)
        assert np.array_equal(pos_table.matrix, neg_table.matrix)
        assert pos_table.total_spillover == neg_table.total_spillover

        pos = rolling_tables(y, replace(pos_cfg, window=150, step=7))
        neg = rolling_tables(minus_y, replace(neg_cfg, window=150, step=7))
        assert pos.gap_reasons == neg.gap_reasons
        # The stale stretch leaves a linear component, collinear with the
        # intercept and its own lags, unless a fitted time trend bends it.
        assert any(pos.gap_reasons) == (trend is not TrendSpec.DRIFT_AND_TREND)
        assert np.array_equal(pos.percent, neg.percent, equal_nan=True)
        assert np.array_equal(pos.index_values, neg.index_values, equal_nan=True)


class TestWindowOutcomes:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(40, 90),
        m=st.sampled_from([2, 3]),
        p=st.sampled_from([1, 2]),
        extra_rows=st.integers(1, 30),
        step=st.integers(1, 4),
        flat=st.tuples(st.integers(0, 89), st.integers(0, 60)),
        tilt=st.one_of(st.none(), st.sampled_from([0.0, 1e-13, 1e-9, 1e-5])),
        side=st.sampled_from(list(ShockSide)),
        trend=st.sampled_from(list(TrendSpec)),
        per_window=st.booleans(),
    )
    def test_every_window_yields_a_table_or_a_gap_reason(
        self, seed, T, m, p, extra_rows, step, flat, tilt, side, trend, per_window
    ):
        rng = np.random.default_rng(seed)
        values = random_walk_matrix(rng, T, m)
        start, length = flat
        start = min(start, T - 1)
        values[start : start + length, 0] = values[start, 0]
        if tilt is not None:
            # The last column is an affine copy of the first, up to a tilt.
            values[:, -1] = 2.0 * values[:, 0] + 1.0 + tilt * rng.normal(size=T)
        # check_sample's smallest window: (m + 1)(p + 1) rows.
        window = min(T, (m + 1) * (p + 1) - 1 + extra_rows)
        cfg = base_config(
            window, var_spec=VarSpec(p=p), shock_side=side, trend_spec=trend, step=step
        )
        try:
            result = rolling_tables(make_panel(values), cfg, decompose_per_window=per_window)
        except AllWindowsFailedError:
            return
        assert len(result) == len(result.gap_reasons) == len(range(0, T - window + 1, step))
        for i, reason in enumerate(result.gap_reasons):
            table = result.table(i)
            if table is None:
                assert isinstance(reason, str) and reason
            else:
                assert reason is None
                assert np.all(np.isfinite(table.matrix))
                assert np.isfinite(table.total_spillover)
