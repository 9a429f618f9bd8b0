"""Rolling spillover-index behavior: window arithmetic, gaps, determinism."""

from __future__ import annotations

import datetime as dt
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspill.connectedness import compute_fevd, build_table
from aspill.decomposition import ShockSide, TrendSpec, component_panel, decompose_panel
from aspill.errors import AllWindowsFailedError, InsufficientDataError
from aspill.panel import Panel
from aspill.rolling import RollingConfig, rolling_tables
from aspill.var_engine import _BLOCK_ROWS, UnstableVarWarning, VarSpec, estimate_var, ma_coefficients
from varsim import make_panel, random_walk_matrix, random_walk_panel


def quiet_tables(panel, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnstableVarWarning)
        return rolling_tables(panel, cfg)


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


def full_sample_index(panel, cfg: RollingConfig) -> float:
    decomposed = decompose_panel(panel, cfg.trend_spec)
    component = component_panel(decomposed, panel, cfg.shock_side)
    fit = estimate_var(component, cfg.var_spec)
    fevd = compute_fevd(
        ma_coefficients(fit, cfg.horizon), fit.Gamma, cfg.horizon, cfg.sigma_scaling
    )
    return build_table(fevd.normalized, component.names).total_spillover


class TestWindowArithmetic:
    @staticmethod
    def check_single_window_equals_full_sample(panel):
        cfg = base_config(window=len(panel))
        series = rolling_tables(panel, cfg).index_series()
        assert len(series.index_values) == 1
        assert series.index_values[0] == full_sample_index(panel, cfg)
        assert series.window_end_dates[0] == panel.dates[-1]

    def test_single_window_equals_full_sample(self):
        rng = np.random.default_rng(60)
        self.check_single_window_equals_full_sample(random_walk_panel(rng, T=180, m=3))

    def test_single_window_over_several_row_blocks_equals_full_sample(self):
        rng = np.random.default_rng(66)
        T = 5 * _BLOCK_ROWS // 2
        self.check_single_window_equals_full_sample(random_walk_panel(rng, T=T, m=3))

    def test_step_one_count(self):
        rng = np.random.default_rng(61)
        panel = random_walk_panel(rng, T=155, m=2)
        series = rolling_tables(panel, base_config(window=150)).index_series()
        assert len(series.index_values) == 6
        assert series.window_end_dates == panel.dates[149:]

    def test_step_ten_count(self):
        rng = np.random.default_rng(62)
        panel = random_walk_panel(rng, T=250, m=2)
        result = quiet_tables(panel, base_config(window=150, step=10))
        assert len(result.tables) == 11
        assert result.window_end_dates == panel.dates[149::10]

    def test_stride_subsamples_stride_one(self):
        rng = np.random.default_rng(63)
        panel = random_walk_panel(rng, T=200, m=2)
        dense = rolling_tables(panel, base_config(window=160, step=1)).index_series()
        sparse = rolling_tables(panel, base_config(window=160, step=7)).index_series()
        for k, date in enumerate(sparse.window_end_dates):
            j = dense.window_end_dates.index(date)
            assert sparse.index_values[k] == dense.index_values[j]

    def test_index_series_matches_rolling_index(self):
        rng = np.random.default_rng(64)
        panel = random_walk_panel(rng, T=170, m=2)
        cfg = base_config(window=160, step=2)
        from_tables = quiet_tables(panel, cfg).index_series()
        direct = rolling_tables(panel, cfg).index_series()
        assert from_tables.window_end_dates == direct.window_end_dates
        np.testing.assert_array_equal(from_tables.index_values, direct.index_values)
        assert from_tables.side is ShockSide.SYMMETRIC
        assert direct.side is ShockSide.SYMMETRIC


class TestInvariance:
    def test_date_shift_changes_dates_only(self):
        rng = np.random.default_rng(65)
        values = random_walk_matrix(rng, T=160, m=2)
        dates = tuple(dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(160))
        shifted = tuple(d + dt.timedelta(days=700) for d in dates)
        cfg = base_config(window=150)
        a = rolling_tables(make_panel(values, dates=dates), cfg).index_series()
        b = rolling_tables(make_panel(values, dates=shifted), cfg).index_series()
        np.testing.assert_array_equal(a.index_values, b.index_values)
        assert b.window_end_dates == tuple(
            d + dt.timedelta(days=700) for d in a.window_end_dates
        )

    def test_appending_rows_keeps_prefix(self):
        rng = np.random.default_rng(66)
        values = random_walk_matrix(rng, T=200, m=2)
        dates = tuple(dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(200))
        cfg = base_config(window=170)
        short = rolling_tables(make_panel(values[:185], dates=dates[:185]), cfg).index_series()
        long = rolling_tables(make_panel(values, dates=dates), cfg).index_series()
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
        result = quiet_tables(panel, cfg)
        assert len(result.tables) == 101
        values = np.asarray(result.index_series().index_values)
        bad = np.isnan(values)
        assert bad.any() and not bad.all()
        for flag, reason, table in zip(bad, result.gap_reasons, result.tables):
            if flag:
                assert table is None
                assert reason
            else:
                assert table is not None
                assert reason is None

    def test_all_windows_failed(self):
        T = 140
        dates = tuple(dt.date(2005, 1, 3) + dt.timedelta(days=i) for i in range(T))
        flat = np.full(T, 10.0)
        panel = make_panel(np.column_stack([flat, flat + 1.0]), names=["a", "b"], dates=dates)
        with pytest.raises(AllWindowsFailedError):
            quiet_tables(panel, base_config(window=120, trend_spec=TrendSpec.NONE))


class TestValidation:
    def test_window_longer_than_sample(self):
        rng = np.random.default_rng(68)
        panel = random_walk_panel(rng, T=100, m=2)
        with pytest.raises(InsufficientDataError):
            rolling_tables(panel, base_config(window=150))

    def test_window_too_small_for_model(self):
        rng = np.random.default_rng(69)
        panel = random_walk_panel(rng, T=100, m=2)
        with pytest.raises(InsufficientDataError):
            rolling_tables(panel, base_config(window=14))

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            base_config(window=100, step=0)


class TestDecompositionScope:
    def test_per_window_changes_one_sided_components(self):
        rng = np.random.default_rng(70)
        panel = random_walk_panel(rng, T=200, m=2, drift=0.05)
        cfg = base_config(window=160, shock_side=ShockSide.POSITIVE)
        full = rolling_tables(panel, cfg).index_series()
        per_window = rolling_tables(panel, cfg, decompose_per_window=True).index_series()
        assert full.window_end_dates == per_window.window_end_dates
        assert not np.array_equal(full.index_values, per_window.index_values)

    def test_per_window_is_noop_for_symmetric(self):
        rng = np.random.default_rng(71)
        panel = random_walk_panel(rng, T=180, m=2)
        cfg = base_config(window=160)
        a = rolling_tables(panel, cfg).index_series()
        b = rolling_tables(panel, cfg, decompose_per_window=True).index_series()
        np.testing.assert_array_equal(a.index_values, b.index_values)


class TestWarningDiscipline:
    def test_unstable_windows_reported_once(self):
        rng = np.random.default_rng(72)
        T = 200
        dates = tuple(dt.date(2010, 1, 4) + dt.timedelta(days=i) for i in range(T))
        drifting = np.cumsum(rng.normal(0.2, 0.05, size=T)) ** 2 + 50.0
        other = random_walk_matrix(rng, T, 1)[:, 0]
        panel = make_panel(np.column_stack([drifting, other]), names=["a", "b"], dates=dates)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rolling_tables(panel, base_config(window=150))
        unstable = [w for w in caught if issubclass(w.category, UnstableVarWarning)]
        assert len(unstable) <= 1
        if unstable:
            assert "windows" in str(unstable[0].message)


class TestRandomWalkLevels:
    def test_index_stays_low_without_real_linkage(self):
        worst = 0.0
        for rep in range(10):
            rng = np.random.default_rng(3000 + rep)
            panel = random_walk_panel(rng, T=500, m=3)
            series = rolling_tables(panel, base_config(window=200, step=25)).index_series()
            finite = [v for v in series.index_values if not np.isnan(v)]
            assert finite
            worst = max(worst, max(finite))
        assert worst < 25.0


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
        window = min(T, m * p + 10 + extra_rows)
        cfg = base_config(
            window, var_spec=VarSpec(p=p), shock_side=side, trend_spec=trend, step=step
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnstableVarWarning)
                result = rolling_tables(make_panel(values), cfg, decompose_per_window=per_window)
        except AllWindowsFailedError:
            return
        assert len(result.tables) == len(result.gap_reasons) == len(range(0, T - window + 1, step))
        for table, reason in zip(result.tables, result.gap_reasons):
            if table is None:
                assert isinstance(reason, str) and reason
            else:
                assert reason is None
                assert np.all(np.isfinite(table.matrix))
                assert np.isfinite(table.total_spillover)
