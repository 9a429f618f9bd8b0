"""Generalized forecast-error variance decomposition and spillover measures.

The share of variable i's n-step forecast-error variance attributable to
shocks in variable j is computed without orthogonalizing the shocks, so
results do not depend on variable ordering. Row-normalized shares feed a
connectedness table with from/to margins, a total spillover index, and
net directional and pairwise measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateCovarianceError

SIGMA_SCALINGS = ("jj", "ii")

_DIAGONAL_NOT_POSITIVE = "covariance diagonal must be strictly positive"
_DIAGONAL_OUT_OF_RANGE = "covariance diagonal outside 2^-500..2^500: a series is too large or too small"
_ZERO_FEV = "zero forecast-error variance in at least one equation"
_ROW_NOT_POSITIVE = "cannot normalize a row with non-positive sum"

# Percentage points a row of the kernel's shares may miss 100 by; published tables get a looser default.
KERNEL_ROW_SUM_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class FevdResult:
    """Raw and row-normalized variance-decomposition shares (fractions).

    For a stack of windows, gap_reasons says why each window failed.
    """

    raw: np.ndarray
    normalized: np.ndarray
    gap_reasons: tuple[str | None, ...] = ()


@dataclass(frozen=True, eq=False)
class ConnectednessTable:
    """Percent-scaled shares with the margins of a spillover table.

    matrix[i][j] is the share of i's forecast-error variance explained by
    shocks to j, in percent. Margins exclude the diagonal except for
    including_own. aggregates_from and aggregates_to are the full row and
    column sums divided by the variable count.
    """

    labels: tuple[str, ...]
    matrix: np.ndarray
    from_others: np.ndarray
    to_others: np.ndarray
    including_own: np.ndarray
    total_spillover: float
    aggregates_from: np.ndarray
    aggregates_to: np.ndarray

    @property
    def m(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class NetMeasures:
    """Net directional and pairwise spillovers derived from one table."""

    labels: tuple[str, ...]
    net_directional: np.ndarray
    net_pairwise_simple: np.ndarray
    net_pairwise_scaled: np.ndarray


def gfevd_stack(
    K: np.ndarray, gamma: np.ndarray, n: int, sigma_scaling: str
) -> tuple[np.ndarray, list[str | None]]:
    """Raw decomposition of every window at horizon n, and why each failed.

    K is (c, >n, m, m) and gamma (c, m, m). A failed window's reason is
    the message compute_fevd raises for it on its own; its raw matrix is
    finite filler.
    """
    if sigma_scaling not in SIGMA_SCALINGS:
        raise ValueError(f"sigma_scaling must be one of {SIGMA_SCALINGS}, got {sigma_scaling!r}")
    sigma_diag = np.diagonal(gamma, axis1=1, axis2=2)
    c, m = sigma_diag.shape
    bad_sigma = np.any(sigma_diag <= 0.0, axis=1)
    # The squares below of a variance beyond 2^±500 (about 1e±150) leave the normal floats.
    bad_range = ~np.all((sigma_diag >= 2.0**-500) & (sigma_diag <= 2.0**500), axis=1)
    if bad_range.any():
        # Such windows, bad_sigma's among them, run on a zero covariance so that they raise no warning.
        gamma = np.where(bad_range[:, np.newaxis, np.newaxis], 0.0, gamma)
        sigma_diag = np.diagonal(gamma, axis1=1, axis2=2)
    numerator = np.zeros((c, m, m))
    denominator = np.zeros((c, m))
    for i in range(n + 1):
        A = K[:, i] @ gamma
        numerator += A * A
        denominator += (A * K[:, i]).sum(axis=2)
    bad_fev = np.any(denominator <= 0.0, axis=1)
    # Failed windows divide by one so that no warning is raised for them.
    sigma_diag = np.where(sigma_diag <= 0.0, 1.0, sigma_diag)
    denominator = np.where(denominator <= 0.0, 1.0, denominator)
    if sigma_scaling == "jj":
        numerator = numerator / sigma_diag[:, np.newaxis, :]
    else:
        numerator = numerator / sigma_diag[:, :, np.newaxis]
    reasons = [
        _DIAGONAL_NOT_POSITIVE if sigma else _DIAGONAL_OUT_OF_RANGE if scale else _ZERO_FEV if fev else None
        for sigma, scale, fev in zip(bad_sigma.tolist(), bad_range.tolist(), bad_fev.tolist())
    ]
    return numerator / denominator[:, :, np.newaxis], reasons


def normalize_stack(raw: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
    """Scale each row of every (c, a, b) stack entry to sum to one, and say which failed."""
    sums = raw.sum(axis=2)
    bad = np.any(sums <= 0.0, axis=1)
    normalized = raw / np.where(sums <= 0.0, 1.0, sums)[:, :, np.newaxis]
    return normalized, [_ROW_NOT_POSITIVE if flag else None for flag in bad.tolist()]


def compute_fevd(
    ma: np.ndarray, gamma: np.ndarray, n: int, sigma_scaling: str = "jj"
) -> FevdResult:
    """Raw and row-normalized generalized variance decompositions at horizon n.

    Raw entry (i, j) divides the accumulated squared response of variable
    i to a shock in j, scaled by that shock's variance, by the total
    forecast-error variance of variable i. sigma_scaling selects which
    variance scales the numerator: "jj" is the standard generalized form
    (unit diagonal at n=0); "ii" reproduces a variant that scales by the
    responding variable's own variance instead.

    ma is a (c, >n, m, m) stack of K_0.. with a (c, m, m) gamma stack;
    raw and normalized are then stacks too, and gap_reasons says per
    window why it failed (None where it did not). One model's (>n, m, m)
    ma with its (m, m) gamma runs as a stack of one, and a failure raises
    DegenerateCovarianceError with the reason the stack would give.
    """
    K, gammas = np.asarray(ma, dtype=float), np.asarray(gamma, dtype=float)
    single = gammas.ndim == 2
    if K.ndim != gammas.ndim + 1:
        raise ValueError(f"{K.ndim}-d MA terms do not match a {gammas.ndim}-d covariance")
    if single:
        K, gammas = K[np.newaxis], gammas[np.newaxis]
    terms = K.shape[1] - 1
    if not 0 <= n <= terms:
        raise ValueError(f"horizon {n} is outside the {terms} MA terms available")
    raw, reasons = gfevd_stack(K, gammas, n, sigma_scaling)
    normalized, row_reasons = normalize_stack(raw)
    gap_reasons = tuple(a or b for a, b in zip(reasons, row_reasons))
    if not single:
        return FevdResult(raw=raw, normalized=normalized, gap_reasons=gap_reasons)
    if gap_reasons[0] is not None:
        raise DegenerateCovarianceError(gap_reasons[0])
    return FevdResult(raw=raw[0], normalized=normalized[0])


def _off_diagonal(matrix_pct: np.ndarray) -> np.ndarray:
    """A (c, m, m) stack with every diagonal entry zeroed."""
    m = matrix_pct.shape[1]
    diagonal = np.zeros_like(matrix_pct)
    index = np.arange(m)
    diagonal[:, index, index] = matrix_pct[:, index, index]
    return matrix_pct - diagonal


def total_spillovers(matrix_pct: np.ndarray) -> np.ndarray:
    """Total spillover index of every entry of a (c, m, m) stack of percent-scaled matrices."""
    return _off_diagonal(matrix_pct).sum(axis=(1, 2)) / matrix_pct.shape[1]


def build_table(normalized: np.ndarray, labels: Sequence[str]) -> ConnectednessTable:
    """Assemble the spillover table from shares whose rows sum to 1 as the kernel's do."""
    return table_from_percent(np.asarray(normalized, dtype=float) * 100.0, labels, KERNEL_ROW_SUM_TOL)


def table_from_percent(
    matrix_pct: np.ndarray, labels: Sequence[str], row_sum_tol: float = 0.5
) -> ConnectednessTable:
    """Assemble a table from an already percent-scaled matrix.

    The matrix entries are stored untouched, so a table parsed from a
    rendered file reproduces its source exactly. The looser default
    tolerance accommodates published tables rounded to one decimal.

    Raises:
        ValueError: the shape does not match the labels, an entry is not
            finite, or a row does not sum to 100 within row_sum_tol.
    """
    matrix_pct = np.asarray(matrix_pct, dtype=float)
    labels = tuple(labels)
    m = len(labels)
    if matrix_pct.shape != (m, m):
        raise ValueError(f"matrix shape {matrix_pct.shape} does not match {m} labels")
    # A NaN row sum would pass the row-sum check below.
    if not np.isfinite(matrix_pct).all():
        raise ValueError("a percent matrix must hold finite values")
    if np.max(np.abs(matrix_pct.sum(axis=1) - 100.0)) > row_sum_tol:
        raise ValueError("rows of a percent matrix must sum to 100")
    stack = matrix_pct[np.newaxis]
    off_diagonal = _off_diagonal(stack)[0]
    including_own = matrix_pct.sum(axis=0)
    return ConnectednessTable(
        labels=labels,
        matrix=matrix_pct,
        from_others=off_diagonal.sum(axis=1),
        to_others=off_diagonal.sum(axis=0),
        including_own=including_own,
        total_spillover=float(total_spillovers(stack)[0]),
        aggregates_from=matrix_pct.sum(axis=1) / m,
        aggregates_to=including_own / m,
    )


def net_measures(table: ConnectednessTable) -> NetMeasures:
    """Net spillovers: to-minus-from, and both pairwise net matrices.

    net_pairwise_simple works on fractional shares; net_pairwise_scaled
    divides each share by its row sum before differencing and scales to
    percent, which reduces to 100 times the simple measure when rows are
    normalized.
    """
    fractions = table.matrix / 100.0
    row_sums = fractions.sum(axis=1)
    ratio = fractions / row_sums[:, np.newaxis]
    return NetMeasures(
        labels=table.labels,
        net_directional=table.to_others - table.from_others,
        net_pairwise_simple=fractions - fractions.T,
        net_pairwise_scaled=(ratio - ratio.T) * 100.0,
    )


def directional(table: ConnectednessTable) -> tuple[np.ndarray, np.ndarray]:
    """Directional spillovers received from and transmitted to all others.

    Both vectors divide the off-diagonal margins by the variable count,
    so they sum to the total spillover index. This is the received/
    transmitted convention of rolling-spillover analyses; the printed
    ratio form that always yields 100 is intentionally not used.
    """
    return table.from_others / table.m, table.to_others / table.m
