"""Properties of the whole chain that need no oracle.

Each transforms the input panel in a way whose effect on the tables is
known from the method itself, then runs both panels through the
decomposition, the VAR, the generalized FEVD and the table, full sample
and in rolling windows:

- a power-of-two rescale of each column changes no bit of a jj table,
  since every product and sum is rescaled exactly;
- a rescale by powers of ten up to 1e12 either way moves a jj table by
  rounding only and fails no fit that the unscaled panel passes: the
  rank is taken with each regressor column scaled to unit norm;
- adding a constant to a series moves no table by more than rounding:
  each component takes half of it, and the intercept absorbs that;
- permuting the columns permutes the table's rows and columns.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aspill.decomposition import ShockSide, TrendSpec
from aspill.rolling import rolling_tables
from aspill.var_engine import UnstableVarWarning, VarSpec
from test_rolling import base_config, full_sample_table
from varsim import make_panel, random_walk_matrix

# Tables are in percent; a move within this bound is rounding.
TOLERANCE = 1e-10


@st.composite
def scenario(draw, sigma_scalings=("jj", "ii")):
    """A random-walk panel and a model, window and step to run it with."""
    T = draw(st.integers(80, 200))
    m = draw(st.sampled_from([2, 3]))
    p = draw(st.sampled_from([1, 2]))
    values = random_walk_matrix(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), T, m)
    cfg = base_config(
        draw(st.integers(m * p + 25, T)),
        var_spec=VarSpec(p=p),
        trend_spec=draw(st.sampled_from(list(TrendSpec))),
        shock_side=draw(st.sampled_from(list(ShockSide))),
        sigma_scaling=draw(st.sampled_from(sigma_scalings)),
        step=draw(st.integers(1, 9)),
    )
    return values, cfg, draw(st.booleans())


def run(values: np.ndarray, cfg, per_window: bool, names: list[str] | None = None):
    """The full-sample table and the rolling percent stack and gap reasons."""
    panel = make_panel(values, names)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnstableVarWarning)
        table = full_sample_table(panel, replace(cfg, window=len(panel)))
        windows = rolling_tables(panel, cfg, decompose_per_window=per_window)
    return table.matrix, windows.percent, windows.gap_reasons


def assert_close(moved, reference) -> None:
    assert moved[2] == reference[2]
    for got, expected in zip(moved[:2], reference[:2]):
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        assert np.nanmax(np.abs(got - expected), initial=0.0) <= TOLERANCE


@settings(max_examples=40, deadline=None)
@given(case=scenario(sigma_scalings=("jj",)), powers=st.lists(st.integers(-4, 4), min_size=3, max_size=3))
def test_power_of_two_rescale_leaves_jj_tables_exact(case, powers):
    values, cfg, per_window = case
    scaled = values * 2.0 ** np.array(powers[: values.shape[1]], dtype=float)
    reference = run(values, cfg, per_window)
    moved = run(scaled, cfg, per_window)
    assert moved[2] == reference[2]
    for got, expected in zip(moved[:2], reference[:2]):
        assert np.array_equal(got, expected, equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(case=scenario(sigma_scalings=("jj",)), powers=st.lists(st.integers(-12, 12), min_size=3, max_size=3))
def test_units_never_decide_a_fit(case, powers):
    values, cfg, per_window = case
    scaled = values * 10.0 ** np.array(powers[: values.shape[1]], dtype=float)
    assert_close(run(scaled, cfg, per_window), run(values, cfg, per_window))


@settings(max_examples=40, deadline=None)
@given(case=scenario(), shifts=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3))
def test_constant_shift_moves_tables_by_rounding_only(case, shifts):
    values, cfg, per_window = case
    shifted = values + np.array(shifts[: values.shape[1]])
    assert_close(run(shifted, cfg, per_window), run(values, cfg, per_window))


@settings(max_examples=40, deadline=None)
@given(case=scenario(), order=st.permutations([0, 1, 2]))
def test_column_permutation_permutes_tables(case, order):
    values, cfg, per_window = case
    m = values.shape[1]
    perm = [j for j in order if j < m]
    names = [f"s{j}" for j in range(m)]
    table, percent, gaps = run(values, cfg, per_window, names)
    permuted = run(values[:, perm], cfg, per_window, [names[j] for j in perm])
    expected = (table[np.ix_(perm, perm)], percent[:, perm][:, :, perm], gaps)
    assert_close(permuted, expected)
