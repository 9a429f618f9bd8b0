"""Split integrated series into cumulative positive and negative components.

A random walk with deterministic part, G_t = c + d t + G_{t-1} + v_t, is
rebuilt as two series that sum back to the original: each takes half of
the deterministic path and accumulates only the positive (respectively
negative) shocks. Connectedness measures computed on the two component
panels separate how good news and bad news propagate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import _field_from_json
from .errors import SeriesTooShortError
from .panel import Panel

# A trend regression on first differences needs T-1 >= 3 rows so that even
# the two-regressor variant keeps a residual degree of freedom.
_MIN_LENGTH = 4


class TrendSpec(Enum):
    """Deterministic part of the walk: which of c and d are estimated."""

    NONE = "none"
    DRIFT = "drift"
    DRIFT_AND_TREND = "trend"


class ShockSide(Enum):
    """Which transform of the data an analysis runs on."""

    POSITIVE = "pos"
    NEGATIVE = "neg"
    SYMMETRIC = "sym"


@dataclass(frozen=True)
class TrendFit:
    """Estimated deterministic part c + d t of the differences, and the first level g0."""

    c: float
    d: float
    g0: float


@dataclass(frozen=True, eq=False)
class DecomposedPanel:
    """Per-series components reassembled into aligned panels."""

    plus_panel: Panel
    minus_panel: Panel
    fits: tuple[TrendFit, ...]


def _split(g: np.ndarray, spec: TrendSpec, side: ShockSide) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c and d, each (s,), and the (s, T) components on side of (s, T) C-contiguous walks.

    Differencing turns the level recursion into dG_t = c + d t + v_t,
    a plain regression on {1, t}. Variants force c or d to zero rather
    than dropping the corresponding residual structure. The two-regressor
    fit centres t, which makes the regressors orthogonal.

    Each component carries half of the deterministic path
    c t + d t(t+1)/2 + G_0 plus its own cumulative shocks; at t=0 both
    sides equal G_0 / 2, and G+ + G- reproduces the walk. Every sum runs
    along one contiguous row, so a walk's bits do not depend on the rows
    beside it. The shocks are clamped and summed in place, and the
    components are built in the array of the half path.
    """
    shocks = g[:, 1:] - g[:, :-1]
    t = np.arange(1, g.shape[1], dtype=float)
    zeros = np.zeros(len(g))
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
    part = c[:, np.newaxis] * t
    part += d[:, np.newaxis] * t * (t + 1.0) / 2.0
    part += g[:, :1]
    part /= 2.0
    clamp = np.maximum if side is ShockSide.POSITIVE else np.minimum
    clamp(shocks, 0.0, out=shocks)
    np.cumsum(shocks, axis=1, out=shocks)
    # The cumulative shocks start from 0 at t=0: part = half path + [0, shocks].
    # Adding that 0 turns a -0.0 first level into +0.0, as the sum does.
    part[:, :1] += 0.0
    part[:, 1:] += shocks
    return c, d, part


def component_stack(stack: np.ndarray, spec: TrendSpec, side: ShockSide) -> np.ndarray:
    """The components on side of every window in a (c, W, m) stack, each anchored at its first row.

    Each window's series are split as contiguous rows, as decompose_panel
    splits a full sample's, so a window's components are those of the
    full-sample decomposition of its rows, bit for bit. side is
    POSITIVE or NEGATIVE.
    """
    c, W, m = stack.shape
    g = np.ascontiguousarray(stack.swapaxes(1, 2)).reshape(c * m, W)
    return _split(g, spec, side)[2].reshape(c, m, W).swapaxes(1, 2)


def check_length(panel: Panel) -> None:
    """Raise SeriesTooShortError, naming every series, if the panel is too short for the trend fit."""
    if len(panel) < _MIN_LENGTH:
        raise SeriesTooShortError(
            "; ".join(
                f"series {name!r}: length {len(panel)} < {_MIN_LENGTH} needed for trend fit"
                for name in panel.names
            )
        )


def _components(panel: Panel, spec: TrendSpec, side: ShockSide) -> tuple[Panel, list[TrendFit]]:
    """The component panel of side, and each series' trend fit."""
    check_length(panel)
    # One series at a time, as a (1, T) row whose components are written
    # into column j of the (T, m) output: only a few T-length temporaries,
    # the series' shocks among them, are held beside the output.
    T, m = panel.matrix.shape
    components = np.empty((T, m))
    fits = []
    for j in range(m):
        g = np.ascontiguousarray(panel.matrix[:, j])[np.newaxis]
        c, d, components[:, j] = _split(g, spec, side)
        fits.append(TrendFit(c=float(c[0]), d=float(d[0]), g0=float(g[0, 0])))
    names = tuple(f"{name}_{side.value}" for name in panel.names)
    return Panel._on_checked_dates(names, panel.dates, components), fits


def decompose_panel(panel: Panel, spec: TrendSpec) -> DecomposedPanel:
    """Split every series of the panel into G+ and G-, which sum back to it.

    Each side is one split, as split_side makes it. fits[j] holds the
    trend fit of series j. A panel too short for the trend fit names
    every one of its series in the error. spec is a TrendSpec or its
    value; any other value raises ConfigError naming it.
    """
    spec = _field_from_json("spec", TrendSpec, spec)
    plus, fits = _components(panel, spec, ShockSide.POSITIVE)
    minus, _ = _components(panel, spec, ShockSide.NEGATIVE)
    return DecomposedPanel(plus_panel=plus, minus_panel=minus, fits=tuple(fits))


def split_side(panel: Panel, spec: TrendSpec, side: ShockSide) -> Panel:
    """The panel a side runs on: that side's components of panel, or panel itself for sym.

    Only the side asked for is built, so a caller holds one component
    panel, not two; it equals component_panel(decompose_panel(panel,
    spec), panel, side) bit for bit. Raises as decompose_panel does.
    """
    spec, side = _field_from_json("spec", TrendSpec, spec), _field_from_json("side", ShockSide, side)
    if side is ShockSide.SYMMETRIC:
        return panel
    return _components(panel, spec, side)[0]


def component_panel(decomposed: DecomposedPanel, source: Panel, side: ShockSide) -> Panel:
    """Panel an analysis side runs on: a component panel or the source itself."""
    side = _field_from_json("side", ShockSide, side)
    if side is ShockSide.POSITIVE:
        return decomposed.plus_panel
    if side is ShockSide.NEGATIVE:
        return decomposed.minus_panel
    return source
