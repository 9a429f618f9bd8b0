"""Estimation, lag selection, and MA recursion of the VAR engine."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspill.errors import InsufficientDataError, SingularDesignError
from aspill.var_engine import (
    _BLOCK_ROWS,
    UnstableVarWarning,
    VarFit,
    VarSpec,
    estimate_var,
    factor_sample,
    fit_sample,
    ma_coefficients,
    select_lag,
)
from varsim import (
    make_panel,
    random_stable_coefficients,
    random_walk_panel,
    simulate_var,
)


def companion_power_block(B: list[np.ndarray], i: int) -> np.ndarray:
    """Oracle for K_i: top-left block of the companion matrix to the i-th power."""
    m = B[0].shape[0]
    p = len(B)
    companion = np.zeros((m * p, m * p))
    companion[:m, :] = np.hstack(B)
    if p > 1:
        companion[m:, : m * (p - 1)] = np.eye(m * (p - 1))
    return np.linalg.matrix_power(companion, i)[:m, :m]


def exact_var1_path(B1: np.ndarray, intercept: np.ndarray, y0: np.ndarray, T: int) -> np.ndarray:
    y = np.zeros((T, B1.shape[0]))
    y[0] = y0
    for t in range(1, T):
        y[t] = intercept + B1 @ y[t - 1]
    return y


def lagged_regressors(y: np.ndarray, p: int, rows: int) -> np.ndarray:
    """[1, y_{t-1}..y_{t-p}] for the last rows of y."""
    T = y.shape[0]
    return np.hstack([np.ones((rows, 1))] + [y[T - rows - s : T - s] for s in range(1, p + 1)])


def lstsq_var(y: np.ndarray, p: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(coef, residuals) of the last rows of y on [1, y_{t-1}..y_{t-p}] by plain lstsq."""
    x = lagged_regressors(y, p, rows)
    coef = np.linalg.lstsq(x, y[-rows:], rcond=None)[0]
    return coef, y[-rows:] - x @ coef


def fit_residuals(fit: VarFit, y: np.ndarray) -> np.ndarray:
    """y_t - B0 - sum_s B_s y_{t-s} over the fit's usable rows."""
    coef = np.vstack([fit.B0, np.hstack(fit.B).T])
    return y[-fit.T_effective :] - lagged_regressors(y, fit.p_effective, fit.T_effective) @ coef


def assert_matches_lstsq(fit: VarFit, y: np.ndarray, atol: float) -> None:
    """The fit's coefficients and Gamma against a plain lstsq fit of the same rows."""
    coef, residuals = lstsq_var(y, fit.p_effective, fit.T_effective)
    np.testing.assert_allclose(fit.B0, coef[0], rtol=0, atol=atol)
    np.testing.assert_allclose(np.hstack(fit.B), coef[1:].T, rtol=0, atol=atol)
    gamma = residuals.T @ residuals / (residuals.shape[0] - coef.shape[0])
    np.testing.assert_allclose(fit.Gamma, gamma, rtol=0, atol=atol)


class TestVarSpec:
    def test_rejects_zero_lags(self):
        with pytest.raises(ValueError):
            VarSpec(p=0)

    def test_rejects_negative_extra_lags(self):
        with pytest.raises(ValueError):
            VarSpec(p=1, ty_extra_lags=-1)

    def test_effective_order(self):
        assert VarSpec(p=2, ty_extra_lags=1).p_effective == 3


class TestEstimateVar:
    def test_exact_system_recovered(self):
        B1 = np.array([[0.8, 0.3], [-0.2, 0.5]])
        intercept = np.array([1.0, -0.5])
        y = exact_var1_path(B1, intercept, np.array([10.0, -7.0]), 20)
        fit = estimate_var(make_panel(y), VarSpec(p=1))
        np.testing.assert_allclose(fit.B[0], B1, atol=1e-10)
        np.testing.assert_allclose(fit.B0, intercept, atol=1e-9)
        assert np.max(np.abs(fit.Gamma)) < 1e-18

    def test_monte_carlo_recovery(self):
        B1 = np.array([[0.5, 0.1], [0.0, 0.3]])
        rng = np.random.default_rng(11)
        y = simulate_var(rng, [B1], 5000)
        fit = estimate_var(make_panel(y), VarSpec(p=1))
        assert np.max(np.abs(fit.B[0] - B1)) < 0.05
        assert np.max(np.abs(fit.Gamma - np.eye(2))) < 0.06

    def test_too_short(self):
        rng = np.random.default_rng(1)
        m, p = 3, 2
        panel = make_panel(rng.normal(size=(m * p + p, m)))
        with pytest.raises(InsufficientDataError):
            estimate_var(panel, VarSpec(p=p))

    def test_fewer_residual_degrees_of_freedom_than_equations(self):
        # 35 rows, 3 lags: 32 observations for 25 regressors leave 7 residual
        # degrees of freedom, too few for a nonsingular 8 x 8 Gamma.
        panel = random_walk_panel(np.random.default_rng(0), T=35, m=8)
        message = "35 rows give 32 usable observations for 25 regressors and 8 equations"
        with pytest.raises(InsufficientDataError, match=message):
            estimate_var(panel, VarSpec(p=3))
        # One row more leaves 8, and Gamma is positive definite.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnstableVarWarning)
            fit = estimate_var(random_walk_panel(np.random.default_rng(0), T=36, m=8), VarSpec(p=3))
        assert fit.T_effective == 33 and np.linalg.eigvalsh(fit.Gamma)[0] > 0.0

    def test_single_series_rejected(self):
        panel = make_panel(np.arange(50.0))
        with pytest.raises(InsufficientDataError):
            estimate_var(panel, VarSpec(p=1))

    def test_singular_design_reports_condition(self):
        rng = np.random.default_rng(2)
        column = rng.normal(size=60)
        panel = make_panel(np.column_stack([column, 2.0 * column]))
        with pytest.raises(SingularDesignError) as info:
            estimate_var(panel, VarSpec(p=1))
        assert info.value.condition is None or info.value.condition > 1e10

    def test_residuals_orthogonal_to_regressors(self):
        rng = np.random.default_rng(3)
        y = simulate_var(rng, random_stable_coefficients(rng, 3, 2), 400)
        fit = estimate_var(make_panel(y), VarSpec(p=2))
        T_eff = fit.T_effective
        x = lagged_regressors(y, 2, T_eff)
        assert np.max(np.abs(x.T @ fit_residuals(fit, y))) / T_eff < 1e-8
        assert_matches_lstsq(fit, y, atol=1e-8)

    def test_residual_means_near_zero_with_intercept(self):
        rng = np.random.default_rng(4)
        y = simulate_var(rng, random_stable_coefficients(rng, 2, 1), 300)
        fit = estimate_var(make_panel(y), VarSpec(p=1))
        assert np.max(np.abs(fit_residuals(fit, y).mean(axis=0))) < 1e-8
        assert_matches_lstsq(fit, y, atol=1e-8)

    def test_gamma_exactly_symmetric_and_psd(self):
        rng = np.random.default_rng(5)
        y = simulate_var(rng, random_stable_coefficients(rng, 4, 2), 500)
        fit = estimate_var(make_panel(y), VarSpec(p=2))
        assert np.array_equal(fit.Gamma, fit.Gamma.T)
        assert np.min(np.linalg.eigvalsh(fit.Gamma)) >= -1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        y = simulate_var(rng, random_stable_coefficients(rng, 3, 1), 400)
        perm = [2, 0, 1]
        fit = estimate_var(make_panel(y), VarSpec(p=1))
        fit_p = estimate_var(make_panel(y[:, perm]), VarSpec(p=1))
        np.testing.assert_allclose(fit_p.B[0], fit.B[0][np.ix_(perm, perm)], atol=1e-10)
        np.testing.assert_allclose(fit_p.Gamma, fit.Gamma[np.ix_(perm, perm)], atol=1e-10)
        np.testing.assert_allclose(fit_p.B0, fit.B0[perm], atol=1e-10)

    def test_warns_on_explosive_fit(self):
        rng = np.random.default_rng(77)
        T, m = 150, 2
        B = np.array([[1.05, 0.0], [0.1, 0.5]])
        y = np.zeros((T, m))
        y[0] = (1.0, 1.0)
        for t in range(1, T):
            y[t] = B @ y[t - 1] + 0.05 * rng.standard_normal(m)
        with pytest.warns(UnstableVarWarning):
            estimate_var(make_panel(y), VarSpec(p=1))

    def test_stationary_fit_does_not_warn(self):
        rng = np.random.default_rng(7)
        y = simulate_var(rng, random_stable_coefficients(rng, 2, 1, radius=0.5), 300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnstableVarWarning)
            estimate_var(make_panel(y), VarSpec(p=1))

    def test_ty_augmentation_estimates_extra_lag(self):
        rng = np.random.default_rng(8)
        y = simulate_var(rng, random_stable_coefficients(rng, 2, 1), 400)
        fit = estimate_var(make_panel(y), VarSpec(p=1, ty_extra_lags=1))
        assert fit.p == 1
        assert fit.p_effective == 2
        assert len(fit.B) == 2


def lstsq_hjc(y: np.ndarray, p_max: int) -> list[float]:
    """Hatemi-J criterion of lags 1..p_max, one lstsq per candidate on common rows."""
    n, m = y.shape[0] - p_max, y.shape[1]
    values = []
    for j in range(1, p_max + 1):
        _, residuals = lstsq_var(y, j, n)
        logdet = np.linalg.slogdet(residuals.T @ residuals / n)[1]
        values.append(logdet + j * (m * m * np.log(n) + 2.0 * m * m * np.log(np.log(n))) / (2.0 * n))
    return values


class TestSelectLag:
    def test_single_candidate(self):
        rng = np.random.default_rng(20)
        panel = make_panel(rng.normal(size=(100, 2)))
        assert select_lag(panel, 1) == 1

    def test_white_noise_prefers_smallest(self):
        hits = 0
        for rep in range(200):
            rng = np.random.default_rng(1000 + rep)
            panel = make_panel(rng.standard_normal((200, 3)))
            if select_lag(panel, 4, "hjc") == 1:
                hits += 1
        assert hits >= 180

    def test_strong_second_lag_detected(self):
        B1 = np.array([[0.2, 0.0], [0.0, 0.2]])
        B2 = np.array([[0.45, 0.15], [0.1, 0.4]])
        hits = 0
        for rep in range(200):
            rng = np.random.default_rng(2000 + rep)
            panel = make_panel(simulate_var(rng, [B1, B2], 2000))
            if select_lag(panel, 4, "hjc") == 2:
                hits += 1
        assert hits >= 180

    def test_all_criteria_accepted(self):
        rng = np.random.default_rng(21)
        panel = make_panel(simulate_var(rng, random_stable_coefficients(rng, 2, 1), 300))
        for criterion in ("hjc", "aic", "sic", "hqc"):
            assert 1 <= select_lag(panel, 3, criterion) <= 3

    def test_unknown_criterion(self):
        rng = np.random.default_rng(22)
        panel = make_panel(rng.normal(size=(100, 2)))
        with pytest.raises(ValueError):
            select_lag(panel, 2, "bic")

    def test_too_short_for_candidates(self):
        rng = np.random.default_rng(23)
        panel = make_panel(rng.normal(size=(10, 3)))
        with pytest.raises(InsufficientDataError):
            select_lag(panel, 4)

    def test_singular_design_reports_condition(self):
        rng = np.random.default_rng(24)
        column = rng.normal(size=60)
        panel = make_panel(np.column_stack([column, 2.0 * column]))
        with pytest.raises(SingularDesignError, match=r"rank deficient \(2 < 3\)") as info:
            select_lag(panel, 2)
        assert info.value.condition > 1e10


class TestSamplesLongerThanOneRowBlock:
    """Fits whose sample folds several row blocks into one R factor."""

    def test_select_lag_matches_per_candidate_lstsq(self):
        rng = np.random.default_rng(25)
        y = simulate_var(rng, random_stable_coefficients(rng, 3, 2), 3 * _BLOCK_ROWS)
        expected = lstsq_hjc(y, 4)
        got = factor_sample(make_panel(y), 4).criteria("hjc")
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
        assert select_lag(make_panel(y), 4) == int(np.argmin(expected)) + 1

    def test_estimate_var_matches_lstsq(self):
        rng = np.random.default_rng(26)
        y = simulate_var(rng, random_stable_coefficients(rng, 3, 2), 5 * _BLOCK_ROWS // 2)
        fit = estimate_var(make_panel(y), VarSpec(p=2))
        coef, residuals = lstsq_var(y, 2, y.shape[0] - 2)
        np.testing.assert_allclose(fit.B0, coef[0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(np.hstack(fit.B), coef[1:].T, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fit_residuals(fit, y), residuals, rtol=0, atol=1e-10)
        gamma = residuals.T @ residuals / (residuals.shape[0] - coef.shape[0])
        np.testing.assert_allclose(fit.Gamma, gamma, rtol=0, atol=1e-10)
        assert fit.T_effective == y.shape[0] - 2


def assert_close_normwise(got: np.ndarray, want: np.ndarray, rtol: float = 1e-10) -> None:
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.max(np.abs(want)))


class TestDerivedFactor:
    """A model with q <= L lags fitted from the R factor of the L-lag design."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 4),
        L=st.integers(1, 4),
        extra=st.integers(0, 1),
        T=st.integers(40, 160),
    )
    def test_every_smaller_model_matches_a_fresh_fit(self, seed, m, L, extra, T):
        rng = np.random.default_rng(seed)
        y = simulate_var(rng, random_stable_coefficients(rng, m, 1), T)
        panel = make_panel(y)
        factor = factor_sample(panel, L)
        for q in range(1, L + 1 - extra):
            spec = VarSpec(p=q, ty_extra_lags=extra)
            derived, fresh = fit_sample(panel, spec, factor), estimate_var(panel, spec)
            assert_close_normwise(derived.coef[0, 0], fresh.B0)
            assert_close_normwise(derived.B[0], np.stack(fresh.B))
            assert_close_normwise(derived.Gamma[0], fresh.Gamma)
            assert derived.coef.shape[0] == 1 and fresh.T_effective == T - q - extra
            k = 1 + m * spec.p_effective
            r11 = factor.derived_r(spec.p_effective)[:k, :k]
            fresh_r11 = factor_sample(panel, spec.p_effective).r[:k, :k]
            assert_close_normwise(
                np.linalg.svd(r11, compute_uv=False), np.linalg.svd(fresh_r11, compute_uv=False)
            )

    def test_model_with_the_factored_lags_is_the_fresh_fit(self):
        rng = np.random.default_rng(40)
        panel = make_panel(simulate_var(rng, random_stable_coefficients(rng, 3, 2), 2 * _BLOCK_ROWS + 7))
        for spec in (VarSpec(p=3), VarSpec(p=2, ty_extra_lags=1)):
            derived = fit_sample(panel, spec, factor_sample(panel, 3))
            fresh = estimate_var(panel, spec)
            assert np.array_equal(derived.coef[0, 0], fresh.B0)
            assert np.array_equal(derived.B[0], np.stack(fresh.B))
            assert np.array_equal(derived.Gamma[0], fresh.Gamma)

    def test_model_with_more_lags_is_factored_afresh(self):
        rng = np.random.default_rng(41)
        panel = make_panel(simulate_var(rng, random_stable_coefficients(rng, 2, 1), 300))
        spec = VarSpec(p=1, ty_extra_lags=1)
        derived, fresh = fit_sample(panel, spec, factor_sample(panel, 1)), estimate_var(panel, spec)
        assert np.array_equal(derived.B[0], np.stack(fresh.B))
        assert np.array_equal(derived.Gamma[0], fresh.Gamma)

    def test_constant_column_is_singular_on_both_paths(self):
        rng = np.random.default_rng(42)
        y = rng.normal(size=(200, 3))
        y[:, 1] = 4.0
        panel = make_panel(y)
        factor = factor_sample(panel, 3)
        for q in (1, 2, 3):
            with pytest.raises(SingularDesignError, match="rank deficient"):
                fit_sample(panel, VarSpec(p=q), factor)
            with pytest.raises(SingularDesignError, match="rank deficient"):
                estimate_var(panel, VarSpec(p=q))
        with pytest.raises(SingularDesignError, match="rank deficient"):
            factor.select()

    def test_rejects_orders_outside_the_factor(self):
        rng = np.random.default_rng(43)
        factor = factor_sample(make_panel(rng.normal(size=(100, 2))), 2)
        for q in (0, 3):
            with pytest.raises(ValueError):
                factor.derived_r(q)


class TestMaCoefficients:
    def test_k0_is_identity(self):
        rng = np.random.default_rng(30)
        y = simulate_var(rng, random_stable_coefficients(rng, 3, 2), 300)
        fit = estimate_var(make_panel(y), VarSpec(p=2))
        ma = ma_coefficients(fit, 5)
        assert ma.shape == (6, 3, 3)
        np.testing.assert_array_equal(ma[0], np.eye(3))

    def test_var1_powers(self):
        rng = np.random.default_rng(31)
        y = simulate_var(rng, random_stable_coefficients(rng, 2, 1), 300)
        fit = estimate_var(make_panel(y), VarSpec(p=1))
        ma = ma_coefficients(fit, 10)
        for i in range(11):
            np.testing.assert_allclose(
                ma[i], np.linalg.matrix_power(fit.B[0], i), atol=1e-12
            )

    def test_var2_companion_oracle(self):
        rng = np.random.default_rng(32)
        B = random_stable_coefficients(rng, 3, 2)
        y = simulate_var(rng, B, 500)
        fit = estimate_var(make_panel(y), VarSpec(p=2))
        ma = ma_coefficients(fit, 12)
        for i in range(13):
            np.testing.assert_allclose(
                ma[i], companion_power_block(list(fit.B), i), atol=1e-10
            )

    def test_ty_extra_lag_kept_out_of_recursion(self):
        rng = np.random.default_rng(33)
        y = simulate_var(rng, random_stable_coefficients(rng, 2, 1), 400)
        fit = estimate_var(make_panel(y), VarSpec(p=1, ty_extra_lags=1))
        ma = ma_coefficients(fit, 4)
        np.testing.assert_array_equal(ma[1], fit.B[0])
        np.testing.assert_allclose(ma[2], fit.B[0] @ fit.B[0], atol=1e-14)
        with_second_lag = fit.B[0] @ fit.B[0] + fit.B[1]
        assert np.max(np.abs(ma[2] - with_second_lag)) > 1e-6

    def test_decay_on_stable_fixture(self):
        rng = np.random.default_rng(34)
        y = simulate_var(rng, random_stable_coefficients(rng, 3, 2, radius=0.6), 600)
        fit = estimate_var(make_panel(y), VarSpec(p=2))
        ma = ma_coefficients(fit, 50)
        assert np.linalg.norm(ma[50]) < np.linalg.norm(ma[5])

    def test_negative_horizon_rejected(self):
        rng = np.random.default_rng(35)
        y = simulate_var(rng, random_stable_coefficients(rng, 2, 1), 200)
        fit = estimate_var(make_panel(y), VarSpec(p=1))
        with pytest.raises(ValueError):
            ma_coefficients(fit, -1)


class TestRandomWalkLevels:
    def test_levels_fit_runs_without_error(self):
        rng = np.random.default_rng(36)
        panel = random_walk_panel(rng, 300, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnstableVarWarning)
            fit = estimate_var(panel, VarSpec(p=2))
        assert fit.T_effective == 298
