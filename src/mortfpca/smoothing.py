"""Penalized B-spline smoothing of annual log-mortality curves.

Each year's curve is smoothed independently: cubic B-splines on an equally
spaced knot grid, a second-order difference penalty on the coefficients, and
the penalty weight chosen by generalized cross-validation over a fixed
lambda grid.  Old-age log rates are expected to rise, so fitted values above
``monotone_from_age`` are projected onto the non-decreasing cone with
pool-adjacent-violators.

The work is batched over the years of a surface: the design, the penalty
and the effective degrees of freedom do not depend on the curve, so each
lambda costs one linear solve with every year as a right-hand side.  Every
year still gets its own lambda, exactly as if it were fitted alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline

from .errors import NonFiniteInput, SingularSystem

SPLINE_DEGREE = 3


@dataclass
class SmoothConfig:
    basis_dim: int = 30
    penalty_order: int = 2
    lambda_grid: np.ndarray = field(default_factory=lambda: np.logspace(-4.0, 4.0, 20))
    monotone_from_age: int = 65

    def __post_init__(self):
        self.lambda_grid = np.asarray(self.lambda_grid, dtype=float)
        if self.basis_dim < SPLINE_DEGREE + 1:
            raise ValueError(f"basis_dim must be >= {SPLINE_DEGREE + 1}, got {self.basis_dim}")
        if self.penalty_order < 1 or self.penalty_order >= self.basis_dim:
            raise ValueError("penalty_order must lie in 1..basis_dim-1")
        if self.lambda_grid.size == 0 or np.any(self.lambda_grid <= 0):
            raise ValueError("lambda_grid must contain positive values")
        if not 0 <= self.monotone_from_age <= 100:
            raise ValueError("monotone_from_age must lie in 0..100")


@dataclass(eq=False)
class ResidualField:
    """Absolute smoothing residuals sigma_{t,j} and their age profile.

    ``sigma_avg[j]`` is the root mean square of ``sigma[:, j]`` over years,
    used later as the observational noise scale at each age.
    """

    sigma: np.ndarray
    sigma_avg: np.ndarray

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.sigma_avg = np.asarray(self.sigma_avg, dtype=float)
        if self.sigma.ndim != 2:
            raise ValueError("sigma must be a T x J matrix")
        if self.sigma_avg.shape != (self.sigma.shape[1],):
            raise ValueError("sigma_avg must have one entry per age")
        if np.any(self.sigma < 0) or np.any(self.sigma_avg < 0):
            raise ValueError("residual magnitudes must be non-negative")


def residual_field(observed: np.ndarray, fitted: np.ndarray) -> ResidualField:
    sigma = np.abs(np.asarray(observed, float) - np.asarray(fitted, float))
    return ResidualField(sigma=sigma, sigma_avg=np.sqrt(np.mean(sigma**2, axis=0)))


def bspline_design(x: np.ndarray, basis_dim: int) -> np.ndarray:
    """Cubic B-spline design matrix with equally spaced knots spanning x."""
    x = np.asarray(x, dtype=float)
    breaks = np.linspace(x[0], x[-1], basis_dim - SPLINE_DEGREE + 1)
    knots = np.concatenate(
        [np.full(SPLINE_DEGREE, x[0]), breaks, np.full(SPLINE_DEGREE, x[-1])]
    )
    design = BSpline.design_matrix(x, knots, SPLINE_DEGREE).toarray()
    assert design.shape == (x.size, basis_dim)
    return design


def difference_penalty(basis_dim: int, order: int) -> np.ndarray:
    """Penalty matrix D'D for an order-th difference penalty on coefficients."""
    d = np.diff(np.eye(basis_dim), n=order, axis=0)
    return d.T @ d


def pava_nondecreasing(y: np.ndarray) -> np.ndarray:
    """Least-squares projection of y onto non-decreasing sequences.

    Classic pool-adjacent-violators with unit weights; O(n).
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    # each block carries its running mean and the number of points pooled
    blocks = []
    for i in range(n):
        cur_val, cur_w = y[i], 1.0
        while blocks and blocks[-1][0] > cur_val:
            prev_val, prev_w = blocks.pop()
            cur_val = (prev_val * prev_w + cur_val * cur_w) / (prev_w + cur_w)
            cur_w += prev_w
        blocks.append((cur_val, cur_w))
    out = np.empty(n)
    pos = 0
    for val, w in blocks:
        cnt = int(round(w))
        out[pos : pos + cnt] = val
        pos += cnt
    return out


def penalized_fit_rows(rows: np.ndarray, config: SmoothConfig, x: np.ndarray | None = None):
    """GCV-chosen penalized spline fit of each row of a T x n array.

    Each row gets the first lambda of ``config.lambda_grid`` at which its GCV
    score reaches its minimum, as if it were fitted on its own.

    Returns
    -------
    fitted : ndarray, shape (T, n)
        Fitted values on the input grid (no monotone projection).
    coef : ndarray, shape (T, basis_dim)
        Spline coefficients of each row's winning fit.
    lam : ndarray, shape (T,)
        The chosen penalty weight of each row.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("expected a T x n array of curves")
    if not np.all(np.isfinite(rows)):
        raise NonFiniteInput("curve contains non-finite values")
    n_rows, n = rows.shape
    if x is None:
        x = np.arange(n, dtype=float)
    if n < config.basis_dim:
        raise SingularSystem(
            f"{n} observations cannot support basis_dim={config.basis_dim}"
        )

    design = bspline_design(x, config.basis_dim)
    penalty = difference_penalty(config.basis_dim, config.penalty_order)
    btb = design.T @ design
    bty = design.T @ rows.T

    best_gcv = None
    best_fitted = np.empty((n_rows, n))
    best_coef = np.empty((n_rows, config.basis_dim))
    best_lam = np.empty(n_rows)
    for lam in config.lambda_grid:
        system = btb + lam * penalty
        try:
            coef = np.linalg.solve(system, bty).T
            edf = np.trace(np.linalg.solve(system, btb))
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"penalized system singular at lambda={lam}") from exc
        fitted = coef @ design.T
        rss = np.sum((rows - fitted) ** 2, axis=1)
        denom = n - edf
        gcv = np.full(n_rows, np.inf) if denom <= 0 else n * rss / denom**2
        # strict < keeps the first lambda that reaches each row's minimum
        take = np.ones(n_rows, bool) if best_gcv is None else gcv < best_gcv
        best_gcv = np.where(take, gcv, best_gcv)
        best_fitted[take] = fitted[take]
        best_coef[take] = coef[take]
        best_lam[take] = lam
    if not np.all(np.isfinite(best_fitted)):
        raise SingularSystem("fit produced non-finite values")
    return best_fitted, best_coef, best_lam


def penalized_fit(y: np.ndarray, config: SmoothConfig, x: np.ndarray | None = None):
    """GCV-chosen penalized spline fit of one curve.

    The single-row case of :func:`penalized_fit_rows`.

    Returns
    -------
    fitted : ndarray
        Fitted values on the input grid (no monotone projection).
    coef : ndarray
        Spline coefficients of the winning fit.
    lam : float
        The chosen penalty weight.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("expected a single curve")
    fitted, coef, lam = penalized_fit_rows(y[np.newaxis], config, x)
    return fitted[0], coef[0], float(lam[0])


def _monotone_tail(fitted: np.ndarray, ages: np.ndarray, config: SmoothConfig) -> np.ndarray:
    """Project each row's values at ages >= ``monotone_from_age``, in place."""
    tail = np.flatnonzero(ages >= config.monotone_from_age)
    if tail.size > 1:
        for row in fitted:
            row[tail] = pava_nondecreasing(row[tail])
    return fitted


def smooth_curve(
    log_rates_row: np.ndarray, config: SmoothConfig, ages: np.ndarray | None = None
) -> np.ndarray:
    """Smooth one year's log-rate curve.

    ``ages`` defaults to ``0..J-1``; it determines where the monotone tail
    constraint starts.  The constraint replaces fitted values at ages >=
    ``config.monotone_from_age`` with their isotonic projection, which makes
    every first difference in that range non-negative.
    """
    y = np.asarray(log_rates_row, dtype=float)
    if ages is None:
        ages = np.arange(y.size)
    ages = np.asarray(ages)
    fitted, _, _ = penalized_fit(y, config, x=ages.astype(float))
    return _monotone_tail(fitted[np.newaxis], ages, config)[0]


def smooth_surface(surface, config: SmoothConfig | None = None):
    """Smooth every year of a surface, as :func:`smooth_curve` would one by one.

    Returns the smoothed surface (kind ``smoothed``) and the
    :class:`ResidualField` of absolute deviations from the input.
    """
    if config is None:
        config = SmoothConfig()
    rates = surface.log_rates
    if not np.all(np.isfinite(rates)):
        raise NonFiniteInput(
            f"{surface.population_id}: impute missing values before smoothing"
        )
    fitted, _, _ = penalized_fit_rows(rates, config, x=surface.ages.astype(float))
    fitted = _monotone_tail(fitted, surface.ages, config)
    smoothed = surface.copy_with(log_rates=fitted, kind="smoothed")
    return smoothed, residual_field(rates, fitted)
