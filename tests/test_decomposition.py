"""Trend fitting, shock splitting, and component construction.

The frozen expectations below were derived by hand before implementation:
for G = (10, 12, 11, 14) under a drift-only fit, dG = (2, -1, 3) gives
c = 4/3 and shocks v = (2/3, -7/3, 5/3), so v+ = (2/3, 0, 5/3) and
v- = (0, -7/3, 0). Each component is (c t + g0)/2 plus its cumulative
shocks:
  plus  = (5, 17/3 + 2/3, 19/3 + 2/3, 7 + 7/3)  = (5, 19/3, 7, 28/3)
  minus = (5, 17/3,       19/3 - 7/3, 7 - 7/3)  = (5, 17/3, 4, 14/3)
which indeed reconstruct (10, 12, 11, 14) and keep the cumulative-shock
parts monotone.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspill.decomposition import ShockSide, TrendSpec, component_panel, decompose_panel, split_side
from aspill.errors import ConfigError, SeriesTooShortError
from varsim import make_panel, random_walk_matrix

G_EXAMPLE = np.array([10.0, 12.0, 11.0, 14.0])
PLUS_EXPECTED = np.array([5.0, 19.0 / 3.0, 7.0, 28.0 / 3.0])
MINUS_EXPECTED = np.array([5.0, 17.0 / 3.0, 4.0, 14.0 / 3.0])


def clamped_shocks(shocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative parts of shocks, read off their components.

    Series j is (0, v_j, v_j, v_j): without a trend its only shock is v_j,
    its deterministic half is zero, and row 1 of each component panel is
    the clamped shock itself, with no rounding on the way.
    """
    g = np.zeros((4, shocks.size))
    g[1:] = shocks
    decomposed = decompose_panel(make_panel(g), TrendSpec.NONE)
    return decomposed.plus_panel.matrix[1], decomposed.minus_panel.matrix[1]


def shocks_left(g, fit) -> np.ndarray:
    """v_t = dG_t - c - d t for t = 1..T-1: the shocks a trend fit leaves in g."""
    t = np.arange(1, len(g), dtype=float)
    return np.diff(g) - fit.c - fit.d * t


class TestFitTrend:
    def test_exact_linear_walk(self):
        g = [0.0, 1.0, 2.0, 3.0, 4.0]
        fit = decompose_panel(make_panel(g), TrendSpec.DRIFT).fits[0]
        assert fit.c == pytest.approx(1.0, abs=1e-12)
        assert fit.d == 0.0
        np.testing.assert_allclose(shocks_left(g, fit), 0.0, atol=1e-12)

    def test_drift_example(self):
        fit = decompose_panel(make_panel(G_EXAMPLE), TrendSpec.DRIFT).fits[0]
        assert fit.c == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert fit.d == 0.0
        assert fit.g0 == 10.0
        np.testing.assert_allclose(shocks_left(G_EXAMPLE, fit), [2.0 / 3.0, -7.0 / 3.0, 5.0 / 3.0], atol=1e-12)

    def test_none_passes_differences_through(self):
        fit = decompose_panel(make_panel(G_EXAMPLE), TrendSpec.NONE).fits[0]
        assert fit.c == 0.0 and fit.d == 0.0
        np.testing.assert_array_equal(shocks_left(G_EXAMPLE, fit), np.diff(G_EXAMPLE))

    def test_drift_and_trend_recovers_exact_parameters(self):
        c, d, g0 = 0.7, 0.25, 3.0
        t = np.arange(12)
        g = g0 + c * t + d * t * (t + 1) / 2.0
        fit = decompose_panel(make_panel(g), TrendSpec.DRIFT_AND_TREND).fits[0]
        assert fit.c == pytest.approx(c, abs=1e-10)
        assert fit.d == pytest.approx(d, abs=1e-10)
        np.testing.assert_allclose(shocks_left(g, fit), 0.0, atol=1e-10)

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            decompose_panel(make_panel([1.0, 2.0, 3.0]), TrendSpec.DRIFT)


class TestSplitShocks:
    def test_example_continuation(self):
        plus, minus = clamped_shocks(np.array([2.0 / 3.0, -7.0 / 3.0, 5.0 / 3.0]))
        np.testing.assert_array_equal(plus, [2.0 / 3.0, 0.0, 5.0 / 3.0])
        np.testing.assert_array_equal(minus, [0.0, -7.0 / 3.0, 0.0])

    def test_all_zero(self):
        plus, minus = clamped_shocks(np.zeros(4))
        np.testing.assert_array_equal(plus, 0.0)
        np.testing.assert_array_equal(minus, 0.0)

    def test_all_negative(self):
        plus, minus = clamped_shocks(np.array([-1.0, -2.0]))
        np.testing.assert_array_equal(plus, 0.0)
        np.testing.assert_array_equal(minus, [-1.0, -2.0])

    def test_parts_sum_back_exactly(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=200)
        plus, minus = clamped_shocks(v)
        np.testing.assert_array_equal(plus + minus, v)


class TestBuildComponents:
    def test_drift_example_matches_hand_derivation(self):
        decomposed = decompose_panel(make_panel(G_EXAMPLE, names=["g"]), TrendSpec.DRIFT)
        plus, minus = decomposed.plus_panel.matrix[:, 0], decomposed.minus_panel.matrix[:, 0]
        np.testing.assert_allclose(plus, PLUS_EXPECTED, atol=1e-12)
        np.testing.assert_allclose(minus, MINUS_EXPECTED, atol=1e-12)
        np.testing.assert_allclose(plus + minus, G_EXAMPLE, atol=1e-12)

    def test_component_names_and_dates(self):
        decomposed = decompose_panel(make_panel(G_EXAMPLE, names=["g"]), TrendSpec.DRIFT)
        assert decomposed.plus_panel.names == ("g_pos",)
        assert decomposed.minus_panel.names == ("g_neg",)
        assert decomposed.plus_panel.dates == decomposed.minus_panel.dates

    def test_initial_observation_split_in_half(self):
        decomposed = decompose_panel(make_panel(G_EXAMPLE), TrendSpec.DRIFT)
        assert decomposed.plus_panel.matrix[0, 0] == 5.0
        assert decomposed.minus_panel.matrix[0, 0] == 5.0

    def test_exact_linear_walk_gives_deterministic_halves(self):
        g = 2.0 + 1.5 * np.arange(6)
        decomposed = decompose_panel(make_panel(g), TrendSpec.DRIFT)
        expected = (1.5 * np.arange(6) + 2.0) / 2.0
        np.testing.assert_allclose(decomposed.plus_panel.matrix[:, 0], expected, atol=1e-12)
        np.testing.assert_allclose(decomposed.minus_panel.matrix[:, 0], expected, atol=1e-12)

    def test_shock_parts_are_monotone(self):
        rng = np.random.default_rng(8)
        g = np.cumsum(rng.normal(size=80)) + 10.0
        for spec in TrendSpec:
            decomposed = decompose_panel(make_panel(g), spec)
            fit = decomposed.fits[0]
            t = np.arange(g.size)
            deterministic = (fit.c * t + fit.d * t * (t + 1) / 2.0 + fit.g0) / 2.0
            plus_shocks = decomposed.plus_panel.matrix[:, 0] - deterministic
            minus_shocks = decomposed.minus_panel.matrix[:, 0] - deterministic
            assert np.all(np.diff(plus_shocks) >= -1e-12)
            assert np.all(np.diff(minus_shocks) <= 1e-12)

    def test_resplitting_cumulative_shocks_leaves_one_side_zero(self):
        rng = np.random.default_rng(9)
        g = np.cumsum(rng.normal(size=50))
        cumulative_plus = np.concatenate([[0.0], np.cumsum(np.maximum(np.diff(g), 0.0))])
        again = decompose_panel(make_panel(cumulative_plus), TrendSpec.NONE)
        np.testing.assert_array_equal(again.minus_panel.matrix[:, 0], 0.0)
        np.testing.assert_allclose(again.plus_panel.matrix[:, 0], cumulative_plus, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
            min_size=4,
            max_size=60,
        ),
        st.sampled_from(list(TrendSpec)),
    )
    def test_reconstruction_property(self, values, spec):
        g = np.array(values)
        decomposed = decompose_panel(make_panel(g), spec)
        recon = decomposed.plus_panel.matrix[:, 0] + decomposed.minus_panel.matrix[:, 0]
        scale = max(1.0, float(np.max(np.abs(g))))
        np.testing.assert_allclose(recon, g, atol=1e-9 * scale)


class TestDecomposePanel:
    def test_maps_every_series(self):
        rng = np.random.default_rng(10)
        panel = make_panel(random_walk_matrix(rng, 50, 3))
        decomposed = decompose_panel(panel, TrendSpec.DRIFT)
        assert decomposed.plus_panel.m == 3
        assert decomposed.minus_panel.m == 3
        assert len(decomposed.plus_panel) == 50
        assert decomposed.plus_panel.names == ("s0_pos", "s1_pos", "s2_pos")

    def test_single_series_panel_matches_its_column_in_a_wider_panel(self):
        rng = np.random.default_rng(13)
        panel = make_panel(random_walk_matrix(rng, 40, 3))
        wide = decompose_panel(panel, TrendSpec.DRIFT)
        for j in range(panel.m):
            alone = decompose_panel(make_panel(panel.matrix[:, j]), TrendSpec.DRIFT)
            np.testing.assert_array_equal(alone.plus_panel.matrix[:, 0], wide.plus_panel.matrix[:, j])
            np.testing.assert_array_equal(alone.minus_panel.matrix[:, 0], wide.minus_panel.matrix[:, j])
            assert alone.fits[0].c == wide.fits[j].c

    def test_randomized_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            T = int(rng.integers(4, 80))
            panel = make_panel(random_walk_matrix(rng, T, 1))
            decomposed = decompose_panel(panel, TrendSpec.DRIFT)
            recon = decomposed.plus_panel.matrix + decomposed.minus_panel.matrix
            np.testing.assert_allclose(recon, panel.matrix, atol=1e-9)

    def test_failures_name_every_bad_series(self):
        panel = make_panel(np.ones((3, 2)), names=["aa", "bb"])
        with pytest.raises(SeriesTooShortError, match="aa.*bb"):
            decompose_panel(panel, TrendSpec.DRIFT)

    def test_component_panel_selector(self):
        rng = np.random.default_rng(12)
        panel = make_panel(random_walk_matrix(rng, 30, 2))
        decomposed = decompose_panel(panel, TrendSpec.DRIFT)
        assert component_panel(decomposed, panel, ShockSide.POSITIVE) is decomposed.plus_panel
        assert component_panel(decomposed, panel, ShockSide.NEGATIVE) is decomposed.minus_panel
        assert component_panel(decomposed, panel, ShockSide.SYMMETRIC) is panel

    @pytest.mark.parametrize("spec", list(TrendSpec))
    def test_one_side_split_is_that_side_of_the_decomposition_bit_for_bit(self, spec):
        panel = make_panel(random_walk_matrix(np.random.default_rng(16), 300, 3))
        decomposed = decompose_panel(panel, spec)
        for side, expected in ((ShockSide.POSITIVE, decomposed.plus_panel), ("neg", decomposed.minus_panel)):
            split = split_side(panel, spec.value, side)
            assert split.names == expected.names and split.dates == expected.dates
            assert split.matrix.tobytes() == expected.matrix.tobytes()
            assert split.matrix.flags.c_contiguous and not split.matrix.flags.writeable
        assert split_side(panel, spec, ShockSide.SYMMETRIC) is panel

    def test_one_side_split_of_a_short_panel_names_every_series(self):
        panel = make_panel(np.ones((3, 2)), names=["aa", "bb"])
        with pytest.raises(SeriesTooShortError, match="aa.*bb"):
            split_side(panel, TrendSpec.DRIFT, ShockSide.NEGATIVE)

    def test_trend_given_as_its_value(self):
        rng = np.random.default_rng(14)
        panel = make_panel(random_walk_matrix(rng, 30, 2))
        for spec in TrendSpec:
            by_value, by_member = decompose_panel(panel, spec.value), decompose_panel(panel, spec)
            np.testing.assert_array_equal(by_value.plus_panel.matrix, by_member.plus_panel.matrix)
        with pytest.raises(ConfigError, match="config field 'spec' must be one of"):
            decompose_panel(panel, "linear")
        with pytest.raises(ConfigError, match="config field 'spec' must be one of"):
            split_side(panel, "linear", ShockSide.POSITIVE)

    def test_side_given_as_its_value(self):
        rng = np.random.default_rng(15)
        panel = make_panel(random_walk_matrix(rng, 30, 2))
        decomposed = decompose_panel(panel, TrendSpec.DRIFT)
        assert component_panel(decomposed, panel, "pos") is decomposed.plus_panel
        assert component_panel(decomposed, panel, "neg") is decomposed.minus_panel
        with pytest.raises(ConfigError, match="config field 'side' must be one of"):
            component_panel(decomposed, panel, "up")
        with pytest.raises(ConfigError, match="config field 'side' must be one of"):
            split_side(panel, TrendSpec.DRIFT, "up")


def whole_stack_arithmetic(matrix: np.ndarray, spec: TrendSpec):
    """c, d, shocks (m, T-1), plus and minus (m, T) as one (m, T) stack.

    The arithmetic decompose_panel did on all series at once, written out
    plainly: the reference its series-by-series form must equal to the bit.
    """
    g = np.ascontiguousarray(matrix.T)
    shocks = np.diff(g, axis=1)
    t = np.arange(1, g.shape[1], dtype=float)
    zeros = np.zeros(g.shape[0])
    if spec is TrendSpec.NONE:
        c, d = zeros, zeros
    elif spec is TrendSpec.DRIFT:
        c, d = shocks.mean(axis=1), zeros
    else:
        centred = t - t.mean()
        d = (shocks * centred).sum(axis=1) / float(np.sum(centred * centred))
        c = shocks.mean(axis=1) - d * t.mean()
    shocks -= c[:, np.newaxis]
    shocks -= d[:, np.newaxis] * t
    t = np.arange(g.shape[1], dtype=float)
    half = c[:, np.newaxis] * t
    half += d[:, np.newaxis] * t * (t + 1.0) / 2.0
    half += g[:, :1]
    half /= 2.0
    parts = []
    for clamp in (np.maximum, np.minimum):
        part = np.empty_like(half)
        part[:, 0] = 0.0
        np.cumsum(clamp(shocks, 0.0), axis=1, out=part[:, 1:])
        part += half
        parts.append(part)
    return c, d, shocks, parts[0], parts[1]


class TestSeriesBySeries:
    @pytest.mark.parametrize("spec", list(TrendSpec))
    def test_long_panel_matches_whole_stack_arithmetic(self, spec):
        # Long enough that every sum runs through numpy's pairwise blocks.
        rng = np.random.default_rng(12)
        matrix = np.cumsum(rng.normal(size=(5003, 5)), axis=0) - 3.0
        # A falling series that starts at -0.0: the sign of its components'
        # first value depends on every +0 the arithmetic adds.
        matrix[:, 0] = -0.01 * np.arange(5003.0)
        matrix[0, 0] = -0.0
        panel = make_panel(matrix)
        c, d, shocks, plus, minus = whole_stack_arithmetic(panel.matrix, spec)
        decomposed = decompose_panel(panel, spec)
        assert decomposed.plus_panel.matrix.tobytes() == np.ascontiguousarray(plus.T).tobytes()
        assert decomposed.minus_panel.matrix.tobytes() == np.ascontiguousarray(minus.T).tobytes()
        for j, fit in enumerate(decomposed.fits):
            assert (fit.c, fit.d, fit.g0) == (c[j], d[j], panel.matrix[0, j])

    def test_outputs_are_contiguous_and_read_only(self):
        panel = make_panel(np.cumsum(np.random.default_rng(13).normal(size=(50, 3)), axis=0))
        decomposed = decompose_panel(panel, TrendSpec.DRIFT)
        for side in (decomposed.plus_panel, decomposed.minus_panel):
            assert side.matrix.flags.c_contiguous and not side.matrix.flags.writeable

    @pytest.mark.parametrize("spec", list(TrendSpec))
    def test_peak_memory_is_a_few_panels(self, spec):
        # The outputs are two (T, m) panels; the rest is a few T-length
        # temporaries of one series, its shocks among them: about 2.9
        # panels in all. One more panel-sized array held through the run,
        # such as an (m, T) stack or a transposed copy, makes it about 3.9
        # and fails the 3.4-panel bound.
        panel = make_panel(np.cumsum(np.random.default_rng(14).normal(size=(20000, 8)), axis=0))
        tracemalloc.start()
        try:
            decompose_panel(panel, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.4 * panel.matrix.nbytes
