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

from .connectedness import ConnectednessTable, build_tables, compute_fevd
from .decomposition import (
    DecomposedPanel,
    ShockSide,
    TrendSpec,
    component_panel,
    component_stack,
    decompose_panel,
)
from .errors import AllWindowsFailedError, InsufficientDataError
from .panel import Panel
from .var_engine import (
    UnstableVarWarning,
    VarSpec,
    check_sample,
    design_bytes,
    fit_var_stack,
    ma_stack,
)

# Bound on the stacked design of one chunk of windows, in bytes: it keeps
# peak memory flat in the number of windows.
_CHUNK_BYTES = 1 << 20


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
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


@dataclass(frozen=True, eq=False)
class SpilloverSeries:
    """Index value per window, NaN where the window could not be estimated."""

    side: ShockSide
    window_end_dates: tuple[date, ...]
    index_values: np.ndarray
    gap_reasons: tuple[str | None, ...] = ()

    def __post_init__(self) -> None:
        if not self.gap_reasons:
            object.__setattr__(self, "gap_reasons", (None,) * len(self.window_end_dates))
        if not (len(self.window_end_dates) == self.index_values.size == len(self.gap_reasons)):
            raise ValueError("dates, values, and gap reasons must have equal length")

    def __len__(self) -> int:
        return self.index_values.size


@dataclass(frozen=True, eq=False)
class RollingTables:
    """Full connectedness table per window; None where a window failed."""

    side: ShockSide
    window_end_dates: tuple[date, ...]
    tables: tuple[ConnectednessTable | None, ...]
    gap_reasons: tuple[str | None, ...]

    def index_series(self) -> SpilloverSeries:
        values = np.array(
            [t.total_spillover if t is not None else np.nan for t in self.tables], dtype=float
        )
        return SpilloverSeries(
            side=self.side,
            window_end_dates=self.window_end_dates,
            index_values=values,
            gap_reasons=self.gap_reasons,
        )


def rolling_tables(
    panel: Panel,
    cfg: RollingConfig,
    decompose_per_window: bool = False,
    decomposed: DecomposedPanel | None = None,
) -> RollingTables:
    """Estimate a connectedness table in every sliding window.

    panel is the raw (untransformed) panel; the shock side in cfg decides
    what each window actually sees. With decompose_per_window the
    partial-sum transform is re-anchored inside every window instead of
    once over the full sample. decomposed, when given, is the full-sample
    decomposition of panel under cfg.trend_spec, so it is not redone.

    Windows go through the stacked kernels in chunks of about
    _CHUNK_BYTES of design; each window's numbers depend only on its own
    rows, so the chunk size never changes a result.

    Raises:
        InsufficientDataError: the panel is shorter than one window, or
            the window cannot accommodate the lag structure.
        AllWindowsFailedError: no window produced a table.
    """
    T = len(panel)
    if T < cfg.window:
        raise InsufficientDataError(f"{T} rows cannot fill a window of {cfg.window}")
    m = panel.m
    p_eff = cfg.var_spec.p_effective
    min_window = m * p_eff + 10
    if cfg.window <= min_window:
        raise InsufficientDataError(
            f"window {cfg.window} too small for m={m}, lags={p_eff}; need more than {min_window}"
        )
    starts = range(0, T - cfg.window + 1, cfg.step)
    try:
        check_sample(cfg.window, m, cfg.var_spec)
    except InsufficientDataError as exc:
        raise AllWindowsFailedError(
            f"all {len(starts)} windows failed; last reason: {exc}"
        ) from exc

    if decompose_per_window or cfg.shock_side is ShockSide.SYMMETRIC:
        source = panel.matrix
    else:
        if decomposed is None:
            decomposed = decompose_panel(panel, cfg.trend_spec)
        source = component_panel(decomposed, panel, cfg.shock_side).matrix
    windows = sliding_window_view(source, cfg.window, axis=0)[:: cfg.step].swapaxes(1, 2)
    chunk = max(1, _CHUNK_BYTES // design_bytes(cfg.window, m, cfg.var_spec))

    labels = panel.names
    tables: list[ConnectednessTable | None] = []
    reasons: list[str | None] = []
    unstable = 0
    for lo in range(0, len(windows), chunk):
        stack = windows[lo : lo + chunk]
        if decompose_per_window:
            stack = component_stack(stack, cfg.trend_spec, cfg.shock_side)
        fit = fit_var_stack(stack, cfg.var_spec)
        ma = ma_stack(fit.B[:, : fit.p], cfg.horizon)
        fevd = compute_fevd(ma, fit.Gamma, cfg.horizon, cfg.sigma_scaling)
        unstable += int(np.count_nonzero(fit.unstable))
        chunk_reasons = [fit.failure(i) or fevd.gap_reasons[i] for i in range(len(stack))]
        ok = [i for i, reason in enumerate(chunk_reasons) if reason is None]
        built = iter(build_tables(fevd.normalized[ok], labels))
        tables.extend(None if reason else next(built) for reason in chunk_reasons)
        reasons.extend(chunk_reasons)
    if unstable:
        # One summary instead of a per-window flood.
        warnings.warn(
            f"{unstable} of {len(tables)} windows fitted with companion spectral radius above 1",
            UnstableVarWarning,
            stacklevel=2,
        )
    if all(t is None for t in tables):
        raise AllWindowsFailedError(
            f"all {len(tables)} windows failed; last reason: {reasons[-1]}"
        )
    return RollingTables(
        side=cfg.shock_side,
        window_end_dates=tuple(panel.dates[s + cfg.window - 1] for s in starts),
        tables=tuple(tables),
        gap_reasons=tuple(reasons),
    )

