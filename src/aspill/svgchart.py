"""Dependency-free SVG line charts for rolling spillover series.

The file content is assembled from the data alone with fixed-precision
coordinates, so identical inputs always produce byte-identical files.
Gaps in the series break the line; nothing is interpolated across them.
"""

from __future__ import annotations

import math
from datetime import date
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .rolling import RollingTables

_WIDTH = 900
_HEIGHT = 360
_MARGIN_LEFT = 56
_MARGIN_RIGHT = 16
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 42
# Top of the value axis: a spillover index is a percentage.
_Y_MAX = 100.0
_DATE_TICKS = 6

_SIDE_TITLES = {
    "pos": "Spillover index, positive shocks",
    "neg": "Spillover index, negative shocks",
    "sym": "Spillover index, symmetric",
}


def _x_positions(dates: tuple[date, ...], x0: float, x1: float) -> list[float]:
    ordinals = np.array([d.toordinal() for d in dates], dtype=float)
    span = ordinals[-1] - ordinals[0]
    if span == 0.0:
        return [float((x0 + x1) / 2.0)] * len(dates)
    return (x0 + (ordinals - ordinals[0]) / span * (x1 - x0)).tolist()


def _tick_indices(count: int) -> list[int]:
    if count <= _DATE_TICKS:
        return list(range(count))
    positions = np.linspace(0, count - 1, _DATE_TICKS)
    return sorted({int(round(p)) for p in positions})


def render_svg(tables: RollingTables) -> str:
    """Build the chart markup of the rolling index of one side's windows."""
    if len(tables) == 0:
        raise ValueError("cannot plot an empty series")
    x0, x1 = float(_MARGIN_LEFT), float(_WIDTH - _MARGIN_RIGHT)
    y0, y1 = float(_HEIGHT - _MARGIN_BOTTOM), float(_MARGIN_TOP)

    def y_pix(value: float) -> float:
        return y0 + (value / _Y_MAX) * (y1 - y0)

    xs = _x_positions(tables.window_end_dates, x0, x1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{x0:.2f}" y="20" font-family="sans-serif" font-size="14" fill="black">'
        f"{_SIDE_TITLES[tables.side.value]}</text>",
    ]
    grid_count = 4
    for step in range(grid_count + 1):
        level = _Y_MAX * step / grid_count
        y = y_pix(level)
        parts.append(
            f'<line x1="{x0:.2f}" y1="{y:.2f}" x2="{x1:.2f}" y2="{y:.2f}" '
            f'stroke="#cccccc" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{y + 4:.2f}" font-family="sans-serif" font-size="11" '
            f'fill="#444444" text-anchor="end">{level:g}</text>'
        )
    for i in _tick_indices(len(tables)):
        x = xs[i]
        parts.append(
            f'<line x1="{x:.2f}" y1="{y0:.2f}" x2="{x:.2f}" y2="{y0 + 5:.2f}" '
            f'stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{y0 + 18:.2f}" font-family="sans-serif" font-size="11" '
            f'fill="#444444" text-anchor="middle">{tables.window_end_dates[i].isoformat()}</text>'
        )
    parts.append(
        f'<rect x="{x0:.2f}" y="{y1:.2f}" width="{x1 - x0:.2f}" height="{y0 - y1:.2f}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    )

    # Consecutive finite points form polyline runs; a lone point gets a dot.
    def flush(run: list[tuple[float, float]]) -> None:
        if len(run) == 1:
            parts.append(f'<circle cx="{run[0][0]:.2f}" cy="{run[0][1]:.2f}" r="2" fill="#1859a9"/>')
        elif len(run) > 1:
            points = " ".join(f"{x:.2f},{y:.2f}" for x, y in run)
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="#1859a9" stroke-width="1.5"/>'
            )

    run: list[tuple[float, float]] = []
    for x, value in zip(xs, tables.index_values.tolist()):
        if math.isnan(value):
            flush(run)
            run = []
        else:
            run.append((x, y_pix(value)))
    flush(run)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_plot(tables: RollingTables, path: str | Path) -> None:
    """Write the chart to a file atomically."""
    write_atomic(path, render_svg(tables))
