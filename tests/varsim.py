"""Seeded simulators shared by the test modules.

Everything is driven by an explicit numpy Generator so each test freezes
its own seed; nothing here touches global random state.
"""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np

from aspill.decomposition import ShockSide
from aspill.panel import Panel


def monthly_dates(T: int, start_year: int = 2000) -> tuple[date, ...]:
    return tuple(date(start_year + i // 12, i % 12 + 1, 1) for i in range(T))


def daily_dates(T: int, start: date = date(2000, 1, 1)) -> tuple[date, ...]:
    return tuple(start + timedelta(days=i) for i in range(T))


def make_panel(
    matrix: np.ndarray,
    names: list[str] | None = None,
    dates: tuple[date, ...] | None = None,
) -> Panel:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[:, np.newaxis]
    T, m = matrix.shape
    names = names or [f"s{j}" for j in range(m)]
    if dates is None:
        dates = monthly_dates(T)
    return Panel(names, dates, matrix)


def random_stable_coefficients(
    rng: np.random.Generator, m: int, p: int, radius: float = 0.7
) -> list[np.ndarray]:
    """Draw VAR coefficient matrices rescaled to a target companion radius."""
    B = [rng.normal(scale=0.5, size=(m, m)) for _ in range(p)]
    companion = np.zeros((m * p, m * p))
    companion[:m, :] = np.hstack(B)
    if p > 1:
        companion[m:, : m * (p - 1)] = np.eye(m * (p - 1))
    rho = np.max(np.abs(np.linalg.eigvals(companion)))
    if rho > 0:
        # Scaling lag s by f**s scales the companion spectrum by f.
        factor = radius / rho
        B = [B[s] * factor ** (s + 1) for s in range(p)]
    return B


def random_covariance(rng: np.random.Generator, m: int) -> np.ndarray:
    """Random symmetric positive-definite matrix with unit-scale diagonal."""
    A = rng.normal(size=(m, m))
    return A @ A.T + m * np.eye(m)


def simulate_var(
    rng: np.random.Generator,
    B: list[np.ndarray],
    T: int,
    intercept: np.ndarray | None = None,
    gamma: np.ndarray | None = None,
    burn: int = 100,
) -> np.ndarray:
    """Simulate a stationary VAR path after a burn-in period."""
    m = B[0].shape[0]
    p = len(B)
    intercept = np.zeros(m) if intercept is None else np.asarray(intercept, dtype=float)
    chol = None if gamma is None else np.linalg.cholesky(np.asarray(gamma, dtype=float))
    total = T + burn
    y = np.zeros((total + p, m))
    for t in range(p, total + p):
        shock = rng.standard_normal(m)
        if chol is not None:
            shock = chol @ shock
        value = intercept + shock
        for s in range(p):
            value = value + B[s] @ y[t - 1 - s]
        y[t] = value
    return y[p + burn :]


def random_walk_matrix(
    rng: np.random.Generator, T: int, m: int, drift: float = 0.0, start: float = 100.0
) -> np.ndarray:
    """Independent random walks, optionally with a common drift."""
    steps = rng.standard_normal((T, m)) + drift
    walk = np.cumsum(steps, axis=0) + start
    return walk


def random_walk_panel(
    rng: np.random.Generator, T: int, m: int, drift: float = 0.0
) -> Panel:
    return make_panel(random_walk_matrix(rng, T, m, drift))


def asymmetric_walks(
    rng: np.random.Generator, planted: ShockSide | None, T: int = 1500, switch_to: ShockSide | None = None
) -> np.ndarray:
    """T log levels of 3 markets; markets 1 and 2 respond to market 0's shocks of one sign.

    Every increment is a normal shock of standard deviation 0.01; markets
    1 and 2 add 0.5 times market 0's previous shock, clamped to its
    negative part (planted NEGATIVE) or its positive part (POSITIVE).
    With planted None the walks are independent. With switch_to, rows
    from T // 2 on respond to the switch_to side instead: a planted break.
    """
    shocks = rng.normal(scale=0.01, size=(T, 3))
    increments = shocks.copy()
    clamp = {ShockSide.NEGATIVE: np.minimum, ShockSide.POSITIVE: np.maximum}
    switch = T if switch_to is None else T // 2
    for side, rows in ((planted, slice(1, switch)), (switch_to, slice(switch, T))):
        if side is not None:
            increments[rows, 1:] += 0.5 * clamp[side](shocks[rows.start - 1 : rows.stop - 1, :1], 0.0)
    return np.cumsum(increments, axis=0)
