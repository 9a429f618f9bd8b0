"""Vector-autoregression estimation, lag selection, and MA coefficients.

Estimation is multivariate least squares on lagged regressors, solved
through an orthogonal decomposition of the design matrix rather than
normal equations. The lag-augmentation option estimates one extra lag as
a nuisance regressor while keeping it out of the moving-average
recursion, so long-memory levels data can be used without differencing.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import check_count
from .errors import (
    DegenerateCovarianceError,
    InsufficientDataError,
    SeriesScaleError,
    SingularDesignError,
)
from .panel import Panel

CRITERIA = ("hjc", "aic", "sic", "hqc")


class UnstableVarWarning(UserWarning):
    """The fitted companion matrix has spectral radius above one."""


@dataclass(frozen=True)
class VarSpec:
    """Estimation request: propagation lags plus optional augmentation."""

    p: int
    ty_extra_lags: int = 0

    def __post_init__(self) -> None:
        check_count("p", self.p)
        check_count("ty_extra_lags", self.ty_extra_lags, minimum=0)

    @property
    def p_effective(self) -> int:
        return self.p + self.ty_extra_lags


@dataclass(frozen=True, eq=False)
class VarFit:
    """Estimated coefficients and residual moments.

    B holds p_effective matrices; only the first p enter the MA
    recursion. Gamma is degrees-of-freedom corrected and stored exactly
    symmetric. The residuals are y_t - B0 - sum_s B_s y_{t-s} over the
    T_effective = T - p_effective usable rows; they are not stored.
    """

    names: tuple[str, ...]
    p: int
    p_effective: int
    B0: np.ndarray
    B: tuple[np.ndarray, ...]
    Gamma: np.ndarray
    T_effective: int


# A fit whose companion spectral radius exceeds this is unstable.
_UNSTABLE_RADIUS = 1.0 + 1e-6


def _diverging(radius: float) -> str:
    """An unstable full-sample fit's report: estimate_var's warning and the manifest's entry."""
    return f"companion spectral radius {radius:.4f} exceeds 1; impulse responses may diverge"


@dataclass(frozen=True, eq=False)
class VarStack:
    """Least-squares fits of a stack of c equally long windows.

    coef is (c, k, m), one column per equation, regressors ordered
    [1, y_{t-1}, .., y_{t-p_effective}]; B (c, p_effective, m, m) holds
    the lag matrices of coef. A window whose regressors are rank
    deficient holds zero coefficients, covariance and radius so that the
    stacked steps after it stay finite; callers treat it as failed.
    """

    p: int
    coef: np.ndarray
    B: np.ndarray
    Gamma: np.ndarray
    singular_values: np.ndarray
    rank: np.ndarray
    radius: np.ndarray

    @property
    def k(self) -> int:
        return self.coef.shape[1]


# Usable rows of augmented design per QR step. A window with no more
# usable rows than this factors in one QR; a longer one folds block after
# block into its R factor, so memory stays flat in the sample length.
_BLOCK_ROWS = 512


def _stacked_design(stack: np.ndarray, lags: int) -> np.ndarray:
    """Rows t = lags..W-1 of every window as [1, y_{t-1}, .., y_{t-lags}, y_t]."""
    c, W, m = stack.shape
    blocks = [stack[:, lags - s : W - s] for s in (*range(1, lags + 1), 0)]
    return np.concatenate([np.ones((c, W - lags, 1)), *blocks], axis=2)


def _window_blocks(source: np.ndarray, window: int, step: int, lags: int) -> Iterator[np.ndarray]:
    """Augmented designs of the windows [s, s + window), s = 0, step, .., of a (c, T, m) source.

    Yields (c n, rows, k + m) row blocks of at most _BLOCK_ROWS usable
    rows, n windows per entry, entry by entry. Each block's design is
    built once over the rows its windows span, and every window gets a
    strided view of it. A full sample is the one window of length T;
    windows with their own rows are a stack of entries, one window each.
    """
    last = (source.shape[1] - window) // step * step
    n = window - lags
    for lo in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - lo)
        design = _stacked_design(source[:, lo : lo + last + rows + lags], lags)
        views = sliding_window_view(design, rows, axis=1)[:, ::step].swapaxes(2, 3)
        yield views.reshape(-1, rows, design.shape[2])


def _r_factor(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """R of the QR of each window's augmented design, folded over (c, rows, k + m) row blocks.

    Stacking R on the next block and factoring again leaves the same R,
    up to row signs, as one QR of all rows (TSQR).
    """
    r = None
    for block in blocks:
        r = np.linalg.qr(block if r is None else np.concatenate([r, block], axis=1), mode="r")
    return r


def _rank(r11: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of each (..., k, k) R11 with its columns scaled to unit norm, and its rank.

    The rank is lstsq's rule on these, so units never decide it: those
    above eps * max(rows, k) times the largest.
    """
    norms = np.sqrt(np.einsum("...ij,...ij->...j", r11, r11))[..., np.newaxis, :]
    sv = np.linalg.svd(r11 / np.where(norms == 0.0, 1.0, norms), compute_uv=False)
    k = sv.shape[-1]
    return sv, np.count_nonzero(sv > np.finfo(float).eps * max(rows, k) * sv[..., :1], axis=-1)


def _rank_deficient(rank: int, sv: np.ndarray) -> SingularDesignError:
    condition = float("inf") if sv[-1] == 0.0 else float(sv[0] / sv[-1])
    return SingularDesignError(
        f"regressor matrix is rank deficient ({rank} < {sv.size})", condition=condition
    )


def _companion_radius(B: np.ndarray) -> np.ndarray:
    """Spectral radius of each companion matrix; B is (c, p, m, m)."""
    c, p, m, _ = B.shape
    companion = np.zeros((c, m * p, m * p))
    companion[:, :m, :] = B.swapaxes(1, 2).reshape(c, m, m * p)
    if p > 1:
        companion[:, m:, : m * (p - 1)] = np.eye(m * (p - 1))
    return np.max(np.abs(np.linalg.eigvals(companion)), axis=1)


def check_sample(rows: int, m: int, spec: VarSpec) -> None:
    """Raise InsufficientDataError unless rows observations of m series can be fitted."""
    if m < 2:
        raise InsufficientDataError(f"need at least 2 series for a VAR, got {m}")
    k = m * spec.p_effective + 1
    T_eff = rows - spec.p_effective
    # Gamma, over T_eff - k residual degrees of freedom, is singular with fewer than m.
    if T_eff - k < m:
        raise InsufficientDataError(
            f"{rows} rows give {T_eff} usable observations for {k} regressors and {m} equations"
        )


def check_squares(panel: Panel) -> None:
    """Raise SeriesScaleError naming each series whose squares sum to inf, or to 0 though not all zero."""
    with np.errstate(over="ignore", under="ignore"):
        squares = np.einsum("ij,ij->j", panel.matrix, panel.matrix).tolist()
    peaks = np.maximum(panel.matrix.max(axis=0), -panel.matrix.min(axis=0)).tolist()
    failures = [
        f"series {name!r}: squares {'overflow' if square else 'underflow'} at largest |value| {peak:.3g}"
        for name, square, peak in zip(panel.names, squares, peaks)
        if square in (0.0, float("inf")) and peak > 0.0
    ]
    if failures:
        raise SeriesScaleError("; ".join(failures))


def design_row_bytes(m: int, spec: VarSpec) -> int:
    """Bytes of one row [1, y_{t-1}, .., y_{t-p_effective}, y_t] of the augmented design."""
    return 8 * (m * (spec.p_effective + 1) + 1)


def design_bytes(rows: int, m: int, spec: VarSpec) -> int:
    """Size of the largest design block the kernel factors for one window of rows."""
    return min(rows - spec.p_effective, _BLOCK_ROWS) * design_row_bytes(m, spec)


def _fit_r(r: np.ndarray, n: int, spec: VarSpec) -> VarStack:
    """Fits from the (c, k + m, k + m) R factors of windows of n usable rows each.

    R = [[R11, R12], [0, R22]]: the coefficients solve R11 coef = R12 and
    R22'R22 is the residual cross product; the rank is _rank's, of R11.
    """
    c, columns = r.shape[0], r.shape[2]
    m = (columns - 1) // (spec.p_effective + 1)
    k = columns - m
    r11, r12, r22 = r[:, :k, :k], r[:, :k, k:], r[:, k:, k:]
    sv, rank = _rank(r11, n)
    deficient = (rank < k)[:, np.newaxis, np.newaxis]
    if deficient.any():
        # A singular R11 would fail the whole stack's solve; a failed window's R22 may overflow squared.
        r11 = np.where(deficient, np.eye(k), r11)
        r12 = np.where(deficient, 0.0, r12)
        r22 = np.where(deficient, 0.0, r22)
    coef = np.linalg.solve(r11, r12)
    gamma = r22.swapaxes(1, 2) @ r22 / (n - k)
    gamma = (gamma + gamma.swapaxes(1, 2)) / 2.0
    B = coef[:, 1:].reshape(c, spec.p_effective, m, m).swapaxes(2, 3).copy()
    return VarStack(
        p=spec.p,
        coef=coef,
        B=B,
        Gamma=gamma,
        singular_values=sv,
        rank=rank,
        radius=_companion_radius(B),
    )


@dataclass(frozen=True, eq=False)
class SampleFactor:
    """R factor of a panel's augmented design with `lags` lags.

    r is the (K + m, K + m) R of [1, y_{t-1}, .., y_{t-lags}, y_t] over
    rows t = lags..T-1, K = 1 + m lags. The regressors of a model with
    q <= lags lags are the first 1 + m q columns, so this one factor
    serves lag selection over the candidates 1..lags and, through
    fit_sample, the fit of the chosen model.
    """

    panel: Panel
    lags: int
    r: np.ndarray

    def derived_r(self, q: int) -> np.ndarray:
        """R of the augmented design with q <= lags lags over rows t = q..T-1.

        The columns [0, 1 + m q) and the targets of r factor that design
        over rows lags..T-1; the rows t = q..lags-1 it lacks are appended
        in the same QR. With q == lags, r is that R already.
        """
        if not 1 <= q <= self.lags:
            raise ValueError(f"a factor with {self.lags} lags cannot give a model with {q}")
        if q == self.lags:
            return self.r
        m = self.panel.m
        K = 1 + m * self.lags
        columns = np.r_[: 1 + m * q, K : K + m]
        head = _stacked_design(self.panel.matrix[np.newaxis, : self.lags], q)[0]
        return np.linalg.qr(np.concatenate([self.r[:, columns], head]), mode="r")

    def criteria(self, criterion: str = "hjc") -> list[float]:
        """Information criterion of each candidate lag 1..lags, on rows lags..T-1.

        All candidates are fitted on the same rows so their likelihood
        terms are comparable. Candidate j regresses on the first
        k_j = 1 + m j columns, and r[k_j:, K:] holds the targets' part
        orthogonal to them, so its cross product is candidate j's
        residual cross product.
        """
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")
        m, r = self.panel.m, self.r
        n = len(self.panel) - self.lags
        K = m * self.lags + 1
        values = []
        for j in range(1, self.lags + 1):
            k = m * j + 1
            sv, rank = _rank(r[:k, :k], n)
            if rank < k:
                raise _rank_deficient(int(rank), sv)
            orthogonal = r[k:, K:]
            gamma_ml = orthogonal.T @ orthogonal / n
            sign, logdet = np.linalg.slogdet(gamma_ml)
            if sign <= 0:
                raise DegenerateCovarianceError(
                    f"residual covariance at lag {j} is not positive definite"
                )
            if criterion == "aic":
                penalty = 2.0 * j * m * m / n
            elif criterion == "sic":
                penalty = j * m * m * math.log(n) / n
            elif criterion == "hqc":
                penalty = 2.0 * j * m * m * math.log(math.log(n)) / n
            else:
                penalty = j * (m * m * math.log(n) + 2.0 * m * m * math.log(math.log(n))) / (2.0 * n)
            values.append(logdet + penalty)
        return values

    def select(self, criterion: str = "hjc") -> int:
        """The candidate lag minimizing the criterion; ties resolve to the smallest."""
        best_j = 1
        best_value = math.inf
        for j, value in enumerate(self.criteria(criterion), start=1):
            if value < best_value - 1e-12:
                best_value = value
                best_j = j
        return best_j


def factor_sample(panel: Panel, lags: int) -> SampleFactor:
    """Fold the panel's augmented design with `lags` lags into one R factor, row block by row block.

    Raises:
        ConfigError: lags is not a positive integer.
        InsufficientDataError: the panel cannot fit a VAR with `lags` lags (check_sample).
    """
    T = len(panel)
    check_sample(T, panel.m, VarSpec(p=lags))
    r = _r_factor(_window_blocks(panel.matrix[np.newaxis], T, 1, lags))[0]
    return SampleFactor(panel, lags, r)


def fit_sample(panel: Panel, spec: VarSpec, factor: SampleFactor | None = None) -> VarStack:
    """The model's least-squares fit over the panel's common sample, as a stack of one.

    A factor of the panel with at least spec.p_effective lags gives the
    model's R factor; otherwise the panel is factored afresh. It never
    warns: the fit's radius says whether it is unstable.

    Raises:
        InsufficientDataError: fewer usable observations than regressors plus equations.
        SingularDesignError: collinear regressors.
    """
    lags = spec.p_effective
    if factor is None or lags > factor.lags:
        factor = factor_sample(panel, lags)
    fit = _fit_r(factor.derived_r(lags)[np.newaxis], len(panel) - lags, spec)
    if fit.rank[0] < fit.k:
        raise _rank_deficient(fit.rank[0], fit.singular_values[0])
    return fit


def estimate_var(panel: Panel, spec: VarSpec) -> VarFit:
    """fit_sample's fit of the model as a VarFit; it raises as fit_sample does.

    It alone warns of an unstable fit, with UnstableVarWarning; a run reads the fits' radii instead.
    """
    fit = fit_sample(panel, spec)
    if fit.radius[0] > _UNSTABLE_RADIUS:
        warnings.warn(_diverging(fit.radius[0]), UnstableVarWarning, stacklevel=2)
    return VarFit(
        names=panel.names,
        p=spec.p,
        p_effective=spec.p_effective,
        B0=fit.coef[0, 0].copy(),
        B=tuple(fit.B[0]),
        Gamma=fit.Gamma[0],
        T_effective=len(panel) - spec.p_effective,
    )


def select_lag(panel: Panel, p_max: int, criterion: str = "hjc") -> int:
    """Pick the lag order 1..p_max minimizing an information criterion.

    All candidates are fitted on the rows left after dropping p_max
    initial observations. Ties resolve to the smallest order.
    """
    return factor_sample(panel, p_max).select(criterion)


def ma_stack(B: np.ndarray, horizon: int) -> np.ndarray:
    """K_0..K_horizon of every window as (c, horizon + 1, m, m); B is (c, p, m, m)."""
    c, p, m, _ = B.shape
    K = np.empty((c, horizon + 1, m, m))
    K[:, 0] = np.eye(m)
    for i in range(1, horizon + 1):
        acc = np.zeros((c, m, m))
        for s in range(1, min(i, p) + 1):
            acc += B[:, s - 1] @ K[:, i - s]
        K[:, i] = acc
    return K


def ma_coefficients(fit: VarFit, horizon: int) -> np.ndarray:
    """K_0..K_horizon of the recursion K_i = sum_s B_s K_{i-s}, as (horizon + 1, m, m).

    Only the first p coefficient matrices propagate; an augmentation lag
    is excluded by construction.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    return ma_stack(np.stack(fit.B[: fit.p])[np.newaxis], horizon)[0]
