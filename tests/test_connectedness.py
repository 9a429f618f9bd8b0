"""Variance-decomposition shares, table margins, and net measures.

The printed golden matrices below are the three published spillover
tables for negative, positive, and symmetric shocks; margins recomputed
from them must land within one-decimal rounding (+-0.1) of the printed
margins and indices.
"""

from __future__ import annotations

import numpy as np
import pytest

from aspill.connectedness import (
    build_table,
    compute_fevd,
    directional,
    net_measures,
    normalize_stack,
    table_from_percent,
)
from aspill.errors import DegenerateCovarianceError
from aspill.var_engine import VarSpec, estimate_var, ma_coefficients
from varsim import (
    make_panel,
    random_covariance,
    random_stable_coefficients,
    simulate_var,
)

POSITIVE_MATRIX = np.array(
    [
        [99.9, 0.0, 0.1],
        [0.6, 97.9, 1.4],
        [3.3, 65.6, 31.2],
    ]
)
NEGATIVE_MATRIX = np.array(
    [
        [64.3, 18.5, 17.3],
        [5.3, 50.6, 44.1],
        [10.0, 38.4, 51.6],
    ]
)
SYMMETRIC_MATRIX = np.array(
    [
        [75.5, 13.2, 11.3],
        [3.3, 54.3, 42.3],
        [6.8, 38.9, 54.3],
    ]
)
LABELS = ("China", "Euro", "US")


def gfevd_oracle(K: list[np.ndarray], gamma: np.ndarray, n: int, scaling: str = "jj") -> np.ndarray:
    """Scalar triple-loop evaluation with explicit basis vectors."""
    m = gamma.shape[0]
    out = np.zeros((m, m))
    for i in range(m):
        e_i = np.zeros(m)
        e_i[i] = 1.0
        denominator = 0.0
        for l in range(n + 1):
            denominator += float(e_i @ K[l] @ gamma @ K[l].T @ e_i)
        for j in range(m):
            e_j = np.zeros(m)
            e_j[j] = 1.0
            numerator = 0.0
            for l in range(n + 1):
                numerator += float(e_i @ K[l] @ gamma @ e_j) ** 2
            sigma = gamma[j, j] if scaling == "jj" else gamma[i, i]
            out[i, j] = numerator / sigma / denominator
    return out


def random_ma(rng, m: int, p: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    B = random_stable_coefficients(rng, m, p)
    K = [np.eye(m)]
    for i in range(1, horizon + 1):
        acc = np.zeros((m, m))
        for s in range(1, min(i, p) + 1):
            acc += B[s - 1] @ K[i - s]
        K.append(acc)
    return np.stack(K), random_covariance(rng, m)


def random_table(rng, m: int = 3, T: int = 300):
    y = simulate_var(rng, random_stable_coefficients(rng, m, 2), T)
    fit = estimate_var(make_panel(y), VarSpec(p=2))
    ma = ma_coefficients(fit, 10)
    fevd = compute_fevd(ma, fit.Gamma, 10)
    return build_table(fevd.normalized, [f"s{j}" for j in range(m)])


class TestGfevd:
    def test_horizon_zero_is_squared_correlation(self):
        rng = np.random.default_rng(40)
        gamma = random_covariance(rng, 4)
        ma = np.eye(4)[np.newaxis]
        raw = compute_fevd(ma, gamma, 0).raw
        d = np.sqrt(np.diag(gamma))
        rho2 = (gamma / np.outer(d, d)) ** 2
        np.testing.assert_allclose(raw, rho2, atol=1e-12)
        np.testing.assert_allclose(np.diag(raw), 1.0, atol=1e-12)

    def test_diagonal_system_is_identity_patterned(self):
        gamma = np.diag([2.0, 0.5, 1.5])
        K = np.stack([np.eye(3), np.diag([0.5, 0.4, 0.3]), np.diag([0.25, 0.16, 0.09])])
        raw = compute_fevd(K, gamma, 2).raw
        np.testing.assert_allclose(raw, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(raw.sum(axis=1), 1.0, atol=1e-12)

    def test_bivariate_oracle_example(self):
        B1 = np.array([[0.5, 0.2], [0.1, 0.4]])
        gamma = np.array([[1.0, 0.3], [0.3, 1.0]])
        K = [np.linalg.matrix_power(B1, i) for i in range(11)]
        ma = np.stack(K)
        raw = compute_fevd(ma, gamma, 10).raw
        np.testing.assert_allclose(raw, gfevd_oracle(K, gamma, 10), atol=1e-12)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(0, 21))
            ma, gamma = random_ma(rng, m, int(rng.integers(1, 3)), n)
            raw = compute_fevd(ma, gamma, n).raw
            np.testing.assert_allclose(raw, gfevd_oracle(list(ma), gamma, n), atol=1e-12)

    def test_sigma_ii_variant_matches_oracle(self):
        rng = np.random.default_rng(42)
        ma, gamma = random_ma(rng, 3, 2, 8)
        raw = compute_fevd(ma, gamma, 8, sigma_scaling="ii").raw
        np.testing.assert_allclose(raw, gfevd_oracle(list(ma), gamma, 8, "ii"), atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(43)
        ma, gamma = random_ma(rng, 3, 2, 10)
        base = compute_fevd(ma, gamma, 10).raw
        for c in (1e-4, 1.0, 1e4):
            np.testing.assert_allclose(compute_fevd(ma, c * gamma, 10).raw, base, atol=1e-12)

    def test_horizon_beyond_available_terms(self):
        ma = np.stack([np.eye(2)] * 3)
        with pytest.raises(ValueError):
            compute_fevd(ma, np.eye(2), 3)

    def test_non_positive_diagonal_rejected(self):
        ma = np.eye(2)[np.newaxis]
        with pytest.raises(DegenerateCovarianceError):
            compute_fevd(ma, np.array([[1.0, 0.0], [0.0, 0.0]]), 0)

    def test_unknown_scaling_rejected(self):
        ma = np.eye(2)[np.newaxis]
        with pytest.raises(ValueError):
            compute_fevd(ma, np.eye(2), 0, sigma_scaling="kk")


class TestNormalizeRows:
    """Row normalization, through normalize_stack on a stack of one."""

    def test_identity_unchanged(self):
        normalized, reasons = normalize_stack(np.eye(3)[np.newaxis])
        np.testing.assert_array_equal(normalized[0], np.eye(3))
        assert reasons == [None]

    def test_simple_row(self):
        np.testing.assert_allclose(
            normalize_stack(np.array([[[2.0, 2.0]]]))[0][0], [[0.5, 0.5]], atol=1e-15
        )

    def test_total_mass_equals_m(self):
        rng = np.random.default_rng(44)
        ma, gamma = random_ma(rng, 4, 2, 10)
        normalized = compute_fevd(ma, gamma, 10).normalized
        assert normalized.sum() == pytest.approx(4.0, abs=1e-9)

    def test_zero_row_rejected(self):
        _, reasons = normalize_stack(np.array([[[0.0, 0.0], [1.0, 1.0]]]))
        assert reasons == ["cannot normalize a row with non-positive sum"]


class TestGoldenTables:
    def test_negative_shock_table(self):
        table = table_from_percent(NEGATIVE_MATRIX, LABELS)
        np.testing.assert_allclose(table.from_others, [35.7, 49.4, 48.4], atol=0.1)
        np.testing.assert_allclose(table.to_others, [15.4, 56.9, 61.4], atol=0.1)
        np.testing.assert_allclose(table.including_own, [79.6, 107.4, 112.9], atol=0.1)
        assert table.total_spillover == pytest.approx(44.50, abs=0.1)

    def test_positive_shock_table(self):
        table = table_from_percent(POSITIVE_MATRIX, LABELS)
        np.testing.assert_allclose(table.from_others, [0.1, 2.0, 68.8], atol=0.1)
        np.testing.assert_allclose(table.to_others, [3.9, 65.6, 1.5], atol=0.1)
        assert table.total_spillover == pytest.approx(23.70, abs=0.1)

    def test_symmetric_table(self):
        table = table_from_percent(SYMMETRIC_MATRIX, LABELS)
        np.testing.assert_allclose(table.from_others, [24.5, 45.6, 45.7], atol=0.1)
        assert table.total_spillover == pytest.approx(38.60, abs=0.1)

    def test_identity_table_has_no_spillover(self):
        table = table_from_percent(100.0 * np.eye(3), ("a", "b", "c"))
        np.testing.assert_array_equal(table.from_others, 0.0)
        np.testing.assert_array_equal(table.to_others, 0.0)
        assert table.total_spillover == 0.0


class TestBuildTable:
    def test_percent_scaling_and_margins(self):
        normalized = NEGATIVE_MATRIX / 100.0
        normalized = normalized / normalized.sum(axis=1, keepdims=True)
        table = build_table(normalized, LABELS)
        np.testing.assert_allclose(table.matrix.sum(axis=1), 100.0, atol=1e-6)
        assert table.matrix.sum() == pytest.approx(100.0 * 3, abs=1e-6)
        total = table.from_others.sum() / 3
        assert table.total_spillover == pytest.approx(total, abs=1e-9)
        assert table.total_spillover == pytest.approx(table.to_others.sum() / 3, abs=1e-9)

    def test_row_sum_validation(self):
        with pytest.raises(ValueError):
            build_table(np.array([[0.7, 0.1], [0.5, 0.5]]), ("a", "b"))

    def test_label_shape_validation(self):
        with pytest.raises(ValueError):
            build_table(np.eye(3), ("a", "b"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        # A NaN row sum compares False against any tolerance, so only an
        # explicit check stops it.
        with pytest.raises(ValueError, match="finite"):
            table_from_percent(np.array([[bad, 0.0], [50.0, 50.0]]), ("a", "b"))
        with pytest.raises(ValueError, match="finite"):
            build_table(np.array([[0.5, 0.5], [bad, 0.0]]), ("a", "b"))

    def test_aggregates_are_full_sums_over_m(self):
        table = table_from_percent(NEGATIVE_MATRIX, LABELS)
        np.testing.assert_allclose(
            table.aggregates_from, NEGATIVE_MATRIX.sum(axis=1) / 3.0, atol=1e-12
        )
        np.testing.assert_allclose(
            table.aggregates_to, NEGATIVE_MATRIX.sum(axis=0) / 3.0, atol=1e-12
        )


class TestNetMeasures:
    def test_published_negative_shock_nets(self):
        net = net_measures(table_from_percent(NEGATIVE_MATRIX, LABELS))
        us = LABELS.index("US")
        china = LABELS.index("China")
        assert net.net_directional[us] == pytest.approx(13.0, abs=0.25)
        assert net.net_directional[china] == pytest.approx(-20.3, abs=0.25)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(45)
        net = net_measures(random_table(rng))
        assert np.array_equal(net.net_pairwise_simple, -net.net_pairwise_simple.T)
        assert np.array_equal(net.net_pairwise_scaled, -net.net_pairwise_scaled.T)
        np.testing.assert_array_equal(np.diag(net.net_pairwise_simple), 0.0)

    def test_symmetric_matrix_all_zero(self):
        matrix = np.array([[80.0, 12.0, 8.0], [12.0, 70.0, 18.0], [8.0, 18.0, 74.0]])
        net = net_measures(table_from_percent(matrix, LABELS))
        np.testing.assert_allclose(net.net_directional, 0.0, atol=1e-9)
        np.testing.assert_array_equal(net.net_pairwise_simple, 0.0)
        np.testing.assert_array_equal(net.net_pairwise_scaled, 0.0)

    def test_net_directional_sums_to_zero(self):
        rng = np.random.default_rng(46)
        net = net_measures(random_table(rng))
        assert abs(net.net_directional.sum()) < 1e-6

    def test_scaled_is_hundred_times_simple_for_normalized_rows(self):
        rng = np.random.default_rng(47)
        table = random_table(rng)
        net = net_measures(table)
        np.testing.assert_allclose(
            net.net_pairwise_scaled, 100.0 * net.net_pairwise_simple, atol=1e-6
        )


class TestDirectional:
    def test_published_from_value(self):
        from_pct, to_pct = directional(table_from_percent(NEGATIVE_MATRIX, LABELS))
        assert from_pct[LABELS.index("China")] == pytest.approx(35.7 / 3.0, abs=0.05)

    def test_identity_gives_zero(self):
        from_pct, to_pct = directional(table_from_percent(100.0 * np.eye(3), LABELS))
        np.testing.assert_array_equal(from_pct, 0.0)
        np.testing.assert_array_equal(to_pct, 0.0)

    def test_both_sides_sum_to_index(self):
        rng = np.random.default_rng(48)
        table = random_table(rng)
        from_pct, to_pct = directional(table)
        assert from_pct.sum() == pytest.approx(table.total_spillover, abs=1e-9)
        assert to_pct.sum() == pytest.approx(table.total_spillover, abs=1e-9)


class TestRelabeling:
    def test_permutation_consistency(self):
        rng = np.random.default_rng(49)
        ma, gamma = random_ma(rng, 3, 2, 10)
        normalized = compute_fevd(ma, gamma, 10).normalized
        perm = [2, 0, 1]
        table = build_table(normalized, ("a", "b", "c"))
        table_p = build_table(normalized[np.ix_(perm, perm)], ("c", "a", "b"))
        np.testing.assert_allclose(table_p.matrix, table.matrix[np.ix_(perm, perm)], atol=1e-12)
        np.testing.assert_allclose(table_p.from_others, table.from_others[perm], atol=1e-12)
        np.testing.assert_allclose(table_p.to_others, table.to_others[perm], atol=1e-12)
        assert table_p.total_spillover == pytest.approx(table.total_spillover, abs=1e-12)


class TestRandomFitProperties:
    def test_rows_and_bounds(self):
        for seed in range(5):
            rng = np.random.default_rng(500 + seed)
            table = random_table(rng)
            np.testing.assert_allclose(table.matrix.sum(axis=1), 100.0, atol=1e-7)
            assert 0.0 <= table.total_spillover <= 100.0
            assert np.all(table.matrix >= 0.0)


class TestSigmaScalingUnits:
    """jj shares do not depend on the units of the series; ii shares do."""

    SCALE = np.array([2.0, 0.25, 8.0])

    @staticmethod
    def fevd_pair(y: np.ndarray, scaling: str):
        fit = estimate_var(make_panel(y), VarSpec(p=2))
        return compute_fevd(ma_coefficients(fit, 10), fit.Gamma, 10, scaling)

    def test_rescaling_columns_moves_ii_shares_only(self):
        rng = np.random.default_rng(48)
        B = random_stable_coefficients(rng, 3, 2)
        y = simulate_var(rng, B, 400, gamma=random_covariance(rng, 3))
        scaled = y * self.SCALE
        # Power-of-two factors rescale every intermediate exactly.
        jj, jj_scaled = self.fevd_pair(y, "jj"), self.fevd_pair(scaled, "jj")
        assert np.array_equal(jj_scaled.raw, jj.raw)
        assert np.array_equal(jj_scaled.normalized, jj.normalized)
        # Under y -> y D, ii divides share (i, j) by d_i^2 sigma_ii
        # instead of d_j^2 sigma_jj: raw entries move by (d_j / d_i)^2.
        ii, ii_scaled = self.fevd_pair(y, "ii"), self.fevd_pair(scaled, "ii")
        ratio = (self.SCALE[np.newaxis, :] / self.SCALE[:, np.newaxis]) ** 2
        np.testing.assert_allclose(ii_scaled.raw, ii.raw * ratio, rtol=1e-10, atol=0.0)
        # After row normalization that is a large move in percentage points.
        moved = np.max(np.abs(ii_scaled.normalized - ii.normalized)) * 100.0
        assert moved > 10.0
