"""The chunked, stacked rolling kernel against a per-window loop oracle.

The oracle estimates one window at a time with lstsq and plain loops:
trend fit, VAR fit with lstsq's rank rule, companion radius, MA
recursion, generalized FEVD and row normalization, stopping at the first
failure with the message the library uses for it. The kernel reorders
floating-point work (QR instead of lstsq, stacked sums), so index values
are compared within 1e-10 percent; gap reasons must match byte for byte.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import test_rolling
from aspill.connectedness import compute_fevd, gfevd_stack
from aspill.decomposition import ShockSide, TrendSpec, split_side
from aspill.errors import (
    AllWindowsFailedError,
    DegenerateCovarianceError,
    PipelineError,
    SingularDesignError,
)
from aspill.panel import write_csv
from aspill.pipeline import RunConfig, run_pipeline
from aspill.rolling import RollingConfig, rolling_tables
from aspill.var_engine import (
    _BLOCK_ROWS,
    _UNSTABLE_RADIUS,
    VarSpec,
    _fit_r,
    design_bytes,
    factor_sample,
    fit_sample,
    ma_stack,
)
from test_pipeline import read_table_csv
from varsim import make_panel, random_walk_matrix, random_walk_panel

TOLERANCE = 1e-10


def oracle_components(g: np.ndarray, spec: TrendSpec, side: ShockSide) -> np.ndarray:
    """One side's components of a (T, m) matrix, series by series."""
    if side is ShockSide.SYMMETRIC:
        return g
    out = np.empty_like(g)
    t_all = np.arange(g.shape[0], dtype=float)
    for j in range(g.shape[1]):
        dg = np.diff(g[:, j])
        t = np.arange(1, g.shape[0], dtype=float)
        if spec is TrendSpec.NONE:
            c, d = 0.0, 0.0
        elif spec is TrendSpec.DRIFT:
            c, d = float(np.mean(dg)), 0.0
        else:
            c, d = np.linalg.lstsq(np.column_stack([np.ones_like(t), t]), dg, rcond=None)[0]
        v = dg - c - d * t
        shocks = np.maximum(v, 0.0) if side is ShockSide.POSITIVE else np.minimum(v, 0.0)
        half = (c * t_all + d * t_all * (t_all + 1.0) / 2.0 + g[0, j]) / 2.0
        out[:, j] = half + np.concatenate([[0.0], np.cumsum(shocks)])
    return out


def oracle_window(window: np.ndarray, cfg: RollingConfig) -> tuple[float | None, str | None, bool]:
    """(index, gap reason, unstable) of one window, estimated on its own."""
    spec = cfg.var_spec
    T, m = window.shape
    p, p_eff = spec.p, spec.p_effective
    blocks = [window[p_eff - s : T - s] for s in range(1, p_eff + 1)]
    x, y = np.hstack([np.ones((T - p_eff, 1)), *blocks]), window[p_eff:]
    k = x.shape[1]
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < k:
        return None, f"regressor matrix is rank deficient ({rank} < {k})", False
    B = [coef[1 + s * m : 1 + (s + 1) * m].T for s in range(p_eff)]
    residuals = y - x @ coef
    gamma = residuals.T @ residuals / (T - p_eff - k)
    gamma = (gamma + gamma.T) / 2.0

    companion = np.zeros((m * p_eff, m * p_eff))
    companion[:m] = np.hstack(B)
    companion[m:, : m * (p_eff - 1)] = np.eye(m * (p_eff - 1))
    unstable = bool(np.max(np.abs(np.linalg.eigvals(companion))) > 1.0 + 1e-6)

    K = [np.eye(m)]
    for i in range(1, cfg.horizon + 1):
        K.append(sum(B[s - 1] @ K[i - s] for s in range(1, min(i, p) + 1)))
    sigma = np.diag(gamma)
    if np.any(sigma <= 0.0):
        return None, "covariance diagonal must be strictly positive", unstable
    numerator = np.zeros((m, m))
    denominator = np.zeros(m)
    for Ki in K:
        for i in range(m):
            for j in range(m):
                response = Ki[i] @ gamma[:, j]
                numerator[i, j] += response * response
            denominator[i] += Ki[i] @ gamma @ Ki[i]
    if np.any(denominator <= 0.0):
        return None, "zero forecast-error variance in at least one equation", unstable
    scale = sigma[np.newaxis, :] if cfg.sigma_scaling == "jj" else sigma[:, np.newaxis]
    raw = numerator / scale / denominator[:, np.newaxis]
    sums = raw.sum(axis=1)
    if np.any(sums <= 0.0):
        return None, "cannot normalize a row with non-positive sum", unstable
    shares = raw / sums[:, np.newaxis] * 100.0
    return float((shares.sum() - np.trace(shares)) / m), None, unstable


def oracle_rolling(panel, cfg: RollingConfig, per_window: bool):
    matrix = panel.matrix
    if not per_window:
        matrix = oracle_components(matrix, cfg.trend_spec, cfg.shock_side)
    results = []
    for start in range(0, len(panel) - cfg.window + 1, cfg.step):
        window = matrix[start : start + cfg.window]
        if per_window:
            window = oracle_components(window, cfg.trend_spec, cfg.shock_side)
        results.append(oracle_window(window, cfg))
    return results


def run_kernel(panel, cfg: RollingConfig, per_window: bool):
    """Index values, gap reasons and the unstable-window count of rolling_tables."""
    result = rolling_tables(panel, cfg, per_window)
    return result.index_values, result.gap_reasons, result.unstable


def drifting_panel():
    return random_walk_panel(np.random.default_rng(81), T=260, m=3, drift=0.05)


# Windows of more usable rows than one block, so each fit folds two blocks.
LONG_WINDOW = _BLOCK_ROWS + 250


def long_panel():
    return random_walk_panel(np.random.default_rng(84), T=LONG_WINDOW + 100, m=3, drift=0.05)


CASES = {
    "anchored-pos": (
        drifting_panel,
        dict(window=150, step=3, shock_side=ShockSide.POSITIVE, trend_spec=TrendSpec.DRIFT),
        False,
    ),
    "per-window-neg-trend-ii": (
        drifting_panel,
        dict(
            window=150,
            step=4,
            shock_side=ShockSide.NEGATIVE,
            trend_spec=TrendSpec.DRIFT_AND_TREND,
            sigma_scaling="ii",
        ),
        True,
    ),
    "ty-augment-sym": (
        drifting_panel,
        dict(window=140, step=2, var_spec=VarSpec(p=2, ty_extra_lags=1)),
        False,
    ),
    "long-windows-pos": (
        long_panel,
        dict(window=LONG_WINDOW, step=50, shock_side=ShockSide.POSITIVE),
        False,
    ),
    "flat-start-gaps": (
        test_rolling.TestGaps.flat_start_panel,
        dict(window=120, trend_spec=TrendSpec.NONE),
        False,
    ),
    "flat-start-per-window-pos": (
        test_rolling.TestGaps.flat_start_panel,
        dict(window=120, step=2, shock_side=ShockSide.POSITIVE),
        True,
    ),
}


def make_config(**kw) -> RollingConfig:
    defaults = dict(horizon=10, var_spec=VarSpec(p=2))
    defaults.update(kw)
    return RollingConfig(**defaults)


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_loop_oracle(name):
    make_panel, kw, per_window = CASES[name]
    panel, cfg = make_panel(), make_config(**kw)
    values, reasons, unstable = run_kernel(panel, cfg, per_window)
    expected = oracle_rolling(panel, cfg, per_window)
    assert len(values) == len(expected)
    assert reasons == tuple(reason for _, reason, _ in expected)
    for got, (want, _, _) in zip(values, expected):
        if want is None:
            assert np.isnan(got)
        else:
            assert abs(got - want) < TOLERANCE
    assert unstable == sum(flag for _, _, flag in expected)


def test_flat_start_cases_have_gaps():
    for name in ("flat-start-gaps", "flat-start-per-window-pos"):
        make_panel, kw, per_window = CASES[name]
        _, reasons, _ = run_kernel(make_panel(), make_config(**kw), per_window)
        assert any(reasons) and not all(reasons)


@pytest.mark.parametrize("name", ["flat-start-gaps", "flat-start-per-window-pos", "ty-augment-sym"])
def test_chunk_size_never_changes_a_bit(name, monkeypatch):
    make_panel, kw, per_window = CASES[name]
    panel, cfg = make_panel(), make_config(**kw)
    design = design_bytes(cfg.window, panel.m, cfg.var_spec)
    reference = test_rolling.budget_run(panel, cfg, per_window, 1, monkeypatch)
    count = len(reference[0])
    gap_run = next(i for i, reason in enumerate(reference[0].gap_reasons) if reason is None)
    # 7 does not divide the window counts (101, 51, 61), and the leading
    # gap run of the flat-start panel crosses several 7-window chunks. Half
    # a window's design gives fit batches of several one-window QR chunks,
    # and in the flat-start cases a batch ends inside the leading gap run.
    assert count % 7
    several, gap_split = False, False
    for chunk_bytes in (design // 2, design, 7 * design, 32 * design, count * design):
        run = test_rolling.budget_run(panel, cfg, per_window, chunk_bytes, monkeypatch)
        test_rolling.assert_same_run(run, reference)
        chunks, batches = run[2:]
        several |= len(batches) < len(chunks)
        gap_split |= any(0 < end < gap_run for end in np.cumsum(batches)[:-1])
    assert several
    assert gap_split == (gap_run > 0)


def test_degenerate_window_leaves_the_rest_of_its_stack_intact():
    rng = np.random.default_rng(82)
    m, h = 3, 6
    B = rng.normal(scale=0.2, size=(3, 2, m, m))
    K = ma_stack(B, h)
    mix = rng.normal(size=(3, m, m))
    gamma = mix @ mix.swapaxes(1, 2) + np.eye(m)
    gamma[1, 2, :] = gamma[1, :, 2] = 0.0
    raw, reasons = gfevd_stack(K, gamma, h, "jj")
    assert reasons == [None, "covariance diagonal must be strictly positive", None]
    assert np.all(np.isfinite(raw))
    for i in (0, 2):
        alone = compute_fevd(K[i], gamma[i], h).raw
        assert np.array_equal(raw[i], alone)


def test_compute_fevd_on_a_stack_matches_each_window_alone():
    rng = np.random.default_rng(83)
    m, h = 3, 5
    K = ma_stack(rng.normal(scale=0.2, size=(4, 2, m, m)), h)
    mix = rng.normal(size=(4, m, m))
    gamma = mix @ mix.swapaxes(1, 2) + np.eye(m)
    gamma[2, 0, :] = gamma[2, :, 0] = 0.0
    stacked = compute_fevd(K, gamma, h - 1, "ii")
    assert stacked.gap_reasons == (None, None, "covariance diagonal must be strictly positive", None)
    for i in (0, 1, 3):
        alone = compute_fevd(K[i], gamma[i], h - 1, "ii")
        assert np.array_equal(stacked.raw[i], alone.raw)
        assert np.array_equal(stacked.normalized[i], alone.normalized)
    with pytest.raises(ValueError, match="horizon"):
        compute_fevd(K, gamma, h + 1)


def test_one_model_raises_the_gap_reason_of_its_stack_entry():
    # Entry 1 has a zero covariance diagonal. Entry 2's covariance is
    # indefinite, so the forecast-error variance of its first equation is
    # 1 - 2 < 0 at horizon 1.
    K = np.stack([np.stack([np.eye(2), np.array([[1.0, -1.0], [0.0, 0.0]])])] * 3)
    gamma = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.array([[1.0, 2.0], [2.0, 1.0]])])
    stacked = compute_fevd(K, gamma, 1)
    assert stacked.gap_reasons == (
        None,
        "covariance diagonal must be strictly positive",
        "zero forecast-error variance in at least one equation",
    )
    assert np.array_equal(compute_fevd(K[0], gamma[0], 1).normalized, stacked.normalized[0])
    for i in (1, 2):
        with pytest.raises(DegenerateCovarianceError) as info:
            compute_fevd(K[i], gamma[i], 1)
        assert str(info.value) == stacked.gap_reasons[i]


def test_ma_and_covariance_of_different_ranks_are_rejected():
    K = ma_stack(np.full((2, 1, 2, 2), 0.1), 3)
    gamma = np.stack([np.eye(2)] * 2)
    with pytest.raises(ValueError, match="do not match"):
        compute_fevd(K, gamma[0], 3)
    with pytest.raises(ValueError, match="do not match"):
        compute_fevd(K[0], gamma, 3)


def test_unknown_sigma_scaling_is_rejected():
    make_panel, kw, per_window = CASES["ty-augment-sym"]
    with pytest.raises(ValueError, match="sigma_scaling"):
        rolling_tables(make_panel(), make_config(**kw, sigma_scaling="ij"), per_window)


def run_config(tmp_path, panel, **kw) -> RunConfig:
    """A run over panel, written to a CSV under tmp_path, with the config fields given."""
    write_csv(panel, tmp_path / "panel.csv")
    defaults = dict(
        input_path=str(tmp_path / "panel.csv"),
        columns=panel.names,
        out_dir=str(tmp_path / "out"),
        trend=TrendSpec.DRIFT_AND_TREND,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def oracle_side(panel, cfg: RunConfig, side: ShockSide, lag: int):
    """oracle_window over one side's components of the whole panel."""
    spec = VarSpec(p=lag, ty_extra_lags=1 if cfg.ty_augment else 0)
    window = oracle_components(panel.matrix, cfg.trend, side)
    rolling_cfg = make_config(window=len(panel), var_spec=spec, sigma_scaling=cfg.sigma_scaling)
    return oracle_window(window, rolling_cfg)


@pytest.mark.parametrize(
    "lags, ty_augment, sigma_scaling",
    [(2, False, "jj"), (2, True, "ii"), (None, True, "jj"), (None, False, "ii")],
)
def test_run_tables_match_loop_oracle(tmp_path, lags, ty_augment, sigma_scaling):
    # The run's full-sample path, lag selection's derived R factor included,
    # against lstsq and the triple-loop GFEVD.
    panel = drifting_panel()
    cfg = run_config(tmp_path, panel, lags=lags, ty_augment=ty_augment, sigma_scaling=sigma_scaling)
    manifest = run_pipeline(cfg)
    for side in cfg.sides:
        record = manifest.sides[side.value]
        want, reason, _ = oracle_side(panel, cfg, side, record["lag"])
        table_csv = tmp_path / "out" / f"table_{side.value}.csv"
        table = read_table_csv(table_csv)
        assert reason is None
        assert abs(table.total_spillover - want) < TOLERANCE


def test_constant_column_fails_the_run_with_the_spanning_window_reason(tmp_path):
    matrix = drifting_panel().matrix.copy()
    matrix[:, 1] = 4.0
    panel = make_panel(matrix, ["a", "b", "c"])
    cfg = run_config(tmp_path, panel, lags=2)
    with pytest.raises(PipelineError) as info:
        run_pipeline(cfg)
    expected = [
        (side.value, "estimate", oracle_side(panel, cfg, side, 2)[1]) for side in cfg.sides
    ]
    assert info.value.failures == expected
    assert expected[0][2] == "regressor matrix is rank deficient (5 < 7)"


@pytest.mark.parametrize("exponent", [153, 156, 160])
@pytest.mark.parametrize("side", list(ShockSide))
def test_series_too_large_to_square_is_rank_deficient_without_a_warning(side, exponent):
    # A rank-deficient window holds zero coefficients, covariance and radius,
    # so no stacked step squares the residuals of a series near the float limit.
    matrix = random_walk_matrix(np.random.default_rng(85), 400, 3)
    matrix[:, 1] *= 10.0**exponent
    panel = make_panel(matrix)
    components = split_side(panel, TrendSpec.DRIFT, side)
    spec = VarSpec(p=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AllWindowsFailedError, match="reason: regressor matrix is rank deficient"):
            rolling_tables(panel, make_config(window=120, step=20, shock_side=side))
        with pytest.raises(SingularDesignError, match="^regressor matrix is rank deficient"):
            fit_sample(components, spec)
        fit = _fit_r(factor_sample(components, 2).r[np.newaxis], len(panel) - 2, spec)
    assert fit.rank[0] < fit.k
    assert not fit.coef.any() and not fit.Gamma.any() and not fit.radius.any()
    assert not fit.radius[0] > _UNSTABLE_RADIUS
