"""Sliding-window spillover indices for dynamic connectedness.

The partial-sum transform is anchored at the first observation, so by
default the decomposition runs once over the full sample and windows
slide over the component series. Windows whose estimation fails are kept
as flagged gaps so the output length is always predictable from the
window and step sizes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from datetime import date

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .connectedness import ConnectednessTable, compute_fevd, table_from_percent, total_spillovers
from .decomposition import ShockSide, TrendSpec, component_stack, split_side
from .errors import AllWindowsFailedError, InsufficientDataError
from .panel import Panel
from .var_engine import (
    UnstableVarWarning,
    VarSpec,
    VarStack,
    _fit_r,
    _r_factor,
    _window_blocks,
    check_count,
    check_sample,
    design_bytes,
    design_row_bytes,
    ma_stack,
)

# Bound, in bytes, on the stacked design of one QR chunk of windows and on
# the R factors of one fit batch: it keeps peak memory flat in the number
# of windows.
_CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class RollingConfig:
    """Window geometry plus the estimation settings reused in every window."""

    window: int
    horizon: int
    var_spec: VarSpec
    trend_spec: TrendSpec = TrendSpec.DRIFT
    shock_side: ShockSide = ShockSide.SYMMETRIC
    step: int = 1
    sigma_scaling: str = "jj"

    def __post_init__(self) -> None:
        # A value in place of its member is read here once; any other raises ValueError.
        object.__setattr__(self, "trend_spec", TrendSpec(self.trend_spec))
        object.__setattr__(self, "shock_side", ShockSide(self.shock_side))
        for name in ("step", "horizon", "window"):
            check_count(name, getattr(self, name))


@dataclass(frozen=True, eq=False)
class RollingTables:
    """Connectedness of every window, as arrays over the windows.

    percent is the (n, m, m) stack of percent-scaled shares, NaN where a
    window failed; gap_reasons says why. radius is each fit's companion
    spectral radius and singular_values the singular values of its
    regressor matrix (R11), largest first; a rank-deficient window's
    radius is NaN, since it has no coefficients.
    """

    side: ShockSide
    labels: tuple[str, ...]
    window_end_dates: tuple[date, ...]
    percent: np.ndarray
    gap_reasons: tuple[str | None, ...]
    radius: np.ndarray
    singular_values: np.ndarray

    def __len__(self) -> int:
        return len(self.window_end_dates)

    def table(self, i: int) -> ConnectednessTable | None:
        """The connectedness table of window i, or None where it failed."""
        if self.gap_reasons[i] is not None:
            return None
        return table_from_percent(self.percent[i], self.labels)

    @property
    def index_values(self) -> np.ndarray:
        """The total spillover index of every window, NaN where it failed."""
        return total_spillovers(self.percent)


def spillover_shares(fit: VarStack, cfg: RollingConfig) -> tuple[np.ndarray, list[str | None]]:
    """Percent-scaled shares of every fit in the stack, and why each failed (None where none did).

    A rank-deficient fit's reason comes first; a failed fit's shares are finite filler.
    """
    ma = ma_stack(fit.B[:, : fit.p], cfg.horizon)
    fevd = compute_fevd(ma, fit.Gamma, cfg.horizon, cfg.sigma_scaling)
    reasons = list(fevd.gap_reasons)
    for i in np.flatnonzero(fit.rank < fit.k).tolist():
        reasons[i] = fit.failure(i)
    return fevd.normalized * 100.0, reasons


def rolling_tables(
    panel: Panel,
    cfg: RollingConfig,
    decompose_per_window: bool = False,
    components: Panel | None = None,
) -> RollingTables:
    """Estimate a connectedness table in every sliding window.

    panel is the raw (untransformed) panel; the shock side in cfg decides
    what each window actually sees. With decompose_per_window the
    partial-sum transform is re-anchored inside every window instead of
    once over the full sample. components, when given, is the panel the
    side runs on over the full sample, as split_side(panel,
    cfg.trend_spec, cfg.shock_side) returns it, so it is not split again.

    Windows run in two stages under the one _CHUNK_BYTES budget. QR
    chunks of about _CHUNK_BYTES of design fold each window's augmented
    design into its R factor. Without decompose_per_window the windows of
    a chunk are views of design blocks built once over the rows they span;
    with it, each window's components, and so its design, are its own.
    Fit batches of whole QR chunks, about _CHUNK_BYTES of R factors, then
    run the rank, solve, companion radius, MA recursion and generalized
    FEVD once per batch. Every window folds its own rows in the same
    blocks and each stacked step treats the windows one by one, so neither
    the chunk nor the batch size changes a bit of the result.

    Raises:
        InsufficientDataError: the panel is shorter than one window.
        AllWindowsFailedError: no window produced a table; a window
            check_sample rejects fails them all.
    """
    T = len(panel)
    if T < cfg.window:
        raise InsufficientDataError(f"{T} rows cannot fill a window of {cfg.window}")
    m = panel.m
    spec = cfg.var_spec
    p_eff = spec.p_effective
    starts = range(0, T - cfg.window + 1, cfg.step)
    try:
        check_sample(cfg.window, m, spec)
    except InsufficientDataError as exc:
        raise AllWindowsFailedError(
            f"all {len(starts)} windows failed; last reason: {exc}"
        ) from exc

    per_window = decompose_per_window and cfg.shock_side is not ShockSide.SYMMETRIC
    if per_window:
        source = panel.matrix
    else:
        if components is None:
            components = split_side(panel, cfg.trend_spec, cfg.shock_side)
        source = components.matrix
    count = len(starts)
    n = cfg.window - p_eff
    columns = m * (p_eff + 1) + 1
    # A window adds its rows to the QR's copy of the design views, or its
    # step of new rows to the design segment the views share.
    window_bytes = max(design_bytes(cfg.window, m, spec), cfg.step * design_row_bytes(m, spec))
    chunk = max(1, _CHUNK_BYTES // window_bytes)
    # A fit batch is whole QR chunks; a window's R factor is far smaller than its design.
    r_bytes = min(n, columns) * design_row_bytes(m, spec)
    batch = min(count, chunk * max(1, _CHUNK_BYTES // (chunk * r_bytes)))
    r = np.empty((batch, min(n, columns), columns))

    percent = np.empty((count, m, m))
    radius = np.empty(count)
    singular_values = np.empty((count, m * p_eff + 1))
    reasons: list[str | None] = [None] * count
    unstable = 0
    for lo in range(0, count, batch):
        hi = min(lo + batch, count)
        for q_lo in range(lo, hi, chunk):
            q_hi = min(q_lo + chunk, hi)
            rows = source[q_lo * cfg.step : (q_hi - 1) * cfg.step + cfg.window]
            if per_window:
                stack = sliding_window_view(rows, cfg.window, axis=0)[:: cfg.step].swapaxes(1, 2)
                windows, stride = component_stack(stack, cfg.trend_spec, cfg.shock_side), 1
            else:
                windows, stride = rows[np.newaxis], cfg.step
            r[q_lo - lo : q_hi - lo] = _r_factor(_window_blocks(windows, cfg.window, stride, p_eff))
        fit = _fit_r(r[: hi - lo], n, spec)
        percent[lo:hi], reasons[lo:hi] = spillover_shares(fit, cfg)
        unstable += int(np.count_nonzero(fit.unstable))
        radius[lo:hi] = np.where(fit.rank < fit.k, np.nan, fit.radius)
        singular_values[lo:hi] = fit.singular_values
    failed = np.array([reason is not None for reason in reasons])
    percent[failed] = np.nan
    if unstable:
        # One summary instead of a per-window flood.
        warnings.warn(
            f"{unstable} of {count} windows fitted with companion spectral radius above 1",
            UnstableVarWarning,
            stacklevel=2,
        )
    if failed.all():
        raise AllWindowsFailedError(f"all {count} windows failed; last reason: {reasons[-1]}")
    return RollingTables(
        side=cfg.shock_side,
        labels=panel.names,
        window_end_dates=tuple(panel.dates[s + cfg.window - 1] for s in starts),
        percent=percent,
        gap_reasons=tuple(reasons),
        radius=radius,
        singular_values=singular_values,
    )
