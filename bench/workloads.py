"""Seeded benchmark inputs and the run configuration of each workload.

Every workload integrates a stable VAR(2) in log increments into positive
"volatility levels" on consecutive daily dates and writes them as a CSV.
The program only ever sees that file; the seed picks the coefficients,
the shock covariance and the shocks, while sizes and geometry are fixed
per workload so that runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import Any

import numpy as np

SIDES = ("pos", "neg", "sym")


@dataclass(frozen=True)
class Size:
    """Sample length plus the optional stale stretch of series 0."""

    T: int
    flat_start: int = 0
    flat_rows: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    m: int
    full: Size
    smoke: Size
    # RunConfig fields other than input_path, columns and out_dir.
    config: dict[str, Any] = field(default_factory=dict)

    def size(self, smoke: bool) -> Size:
        return self.smoke if smoke else self.full

    def columns(self) -> list[str]:
        return [f"v{j}" for j in range(self.m)]

    def run_config(self, input_path: Path, out_dir: Path) -> dict[str, Any]:
        """Keyword form of aspill.pipeline.RunConfig.from_dict for one run."""
        cfg = {
            "input_path": str(input_path),
            "columns": self.columns(),
            "out_dir": str(out_dir),
            "sides": list(SIDES),
            "trend": "drift",
        }
        cfg.update(self.config)
        return cfg

    def expected_sides(self, smoke: bool) -> dict[str, dict[str, int | None]]:
        """Per side: lag, window count and gap count the manifest must hold.

        None means the value is not fixed by the workload: a selected lag
        is checked against a reference criterion instead.
        """
        size = self.size(smoke)
        lag = self.config.get("lags")
        window = self.config.get("window")
        out: dict[str, dict[str, int | None]] = {}
        for side in SIDES:
            expect: dict[str, int | None] = {"lag": lag, "windows": None, "gaps": None}
            if window is not None:
                step = self.config.get("step", 1)
                starts = range(0, size.T - window + 1, step)
                expect["windows"] = len(starts)
                expect["gaps"] = sum(1 for s in starts if is_flat_window(size, s, s + window))
            out[side] = expect
        return out


def is_flat_window(size: Size, start: int, stop: int) -> bool:
    """Whether series 0 is constant over rows [start, stop).

    A constant column is collinear with the intercept, so every side's
    window fit is rank deficient there and the window is a recorded gap.
    """
    return size.flat_rows > 0 and size.flat_start <= start and stop <= size.flat_start + size.flat_rows


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="roll-dense",
            why="analyze --window 250 --step 1 on m=4, T=2500: the dense rolling loop (VAR fit, MA, GFEVD per window) is nearly all of run_s",
            m=4,
            full=Size(T=2500),
            smoke=Size(T=330),
            config={"lags": 2, "horizon": 10, "window": 250, "step": 1},
        ),
        Workload(
            name="full-wide",
            why="analyze without --window on m=8, T=50000 with --log and hjc lag selection: CSV load and select_lag, no rolling at all",
            m=8,
            full=Size(T=50_000),
            smoke=Size(T=2_000),
            config={"log": True, "lag_select": "hjc", "max_lags": 8, "ty_augment": True, "horizon": 10},
        ),
        Workload(
            name="roll-reanchor",
            why="roll path, m=8, window 150 step 5, per-window decomposition, one series stale for a stretch: re-anchored windows and failing windows",
            m=8,
            full=Size(T=5000, flat_start=2000, flat_rows=400),
            smoke=Size(T=800, flat_start=300, flat_rows=200),
            config={
                "lags": 2,
                "horizon": 10,
                "window": 150,
                "step": 5,
                "decompose_per_window": True,
                "trend": "trend",
                "sigma_scaling": "ii",
                "emit_tables": False,
            },
        ),
    )
}


def _stable_var2(rng: np.random.Generator, m: int, radius: float = 0.6) -> tuple[np.ndarray, np.ndarray]:
    """Two coefficient matrices whose companion spectral radius is `radius`."""
    b1 = rng.normal(scale=0.5, size=(m, m))
    b2 = rng.normal(scale=0.5, size=(m, m))
    companion = np.zeros((2 * m, 2 * m))
    companion[:m, :m] = b1
    companion[:m, m:] = b2
    companion[m:, :m] = np.eye(m)
    factor = radius / float(np.max(np.abs(np.linalg.eigvals(companion))))
    # Scaling lag s by factor**s scales the companion spectrum by factor.
    return b1 * factor, b2 * factor**2


def simulate_levels(seed: int, m: int, size: Size, burn_in: int = 200) -> np.ndarray:
    """(T, m) positive levels: exp of an integrated stable VAR(2) in increments."""
    rng = np.random.default_rng(seed)
    b1, b2 = _stable_var2(rng, m)
    mix = rng.normal(size=(m, m))
    cov = (mix @ mix.T / m + np.eye(m)) * 1e-4
    shocks = rng.multivariate_normal(np.zeros(m), cov, size=size.T + burn_in)
    x = np.zeros_like(shocks)
    for t in range(2, x.shape[0]):
        x[t] = b1 @ x[t - 1] + b2 @ x[t - 2] + shocks[t]
    levels = np.exp(np.log(20.0) + np.cumsum(x[burn_in:], axis=0))
    if size.flat_rows:
        stop = size.flat_start + size.flat_rows
        levels[size.flat_start : stop, 0] = levels[size.flat_start, 0]
    return levels


def write_input(path: Path, workload: Workload, seed: int, smoke: bool) -> None:
    """Write the seeded panel of a workload as `date,v0..v{m-1}` CSV."""
    levels = simulate_levels(seed, workload.m, workload.size(smoke))
    start = date(2000, 1, 1)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["date", *workload.columns()])
        for i, row in enumerate(levels):
            writer.writerow([(start + timedelta(days=i)).isoformat(), *map(repr, row.tolist())])
