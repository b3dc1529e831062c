"""Penalized B-spline smoothing of annual log-mortality curves.

Each year's curve is smoothed independently: cubic B-splines on an equally
spaced knot grid, a second-order difference penalty on the coefficients, and
the penalty weight chosen by generalized cross-validation over a fixed
lambda grid.  The basis has ``MAX_BASIS_DIM`` functions, or one per age on
a shorter age grid, and the penalty does the smoothing.  Old-age log rates
are expected to rise, so fitted values at ages ``MONOTONE_FROM_AGE`` and
above are projected onto the non-decreasing cone with pool-adjacent-violators
(PAVA).

Both building blocks are numpy and pure Python, bitwise equal to SciPy's.
The design matrix is the Cox-de Boor recurrence in the operation order of
``scipy.interpolate.BSpline.design_matrix``, and the projection is the PAVA
of Busing (2022, *J. Stat. Softw.* 102(1), Algorithm 1) as
``scipy.optimize.isotonic_regression`` runs it.  Neither SciPy module is
imported, which keeps them and their dependencies out of the package's
start-up cost.

The work is batched over the years of a surface: the design, the penalty
and the effective degrees of freedom do not depend on the curve, so each
lambda costs one linear solve for the smoother matrix, which every year is
then multiplied by.  No year enters a solve, so a year's fit does not depend
on the other years of its batch beyond last-place rounding, and every year
gets its own lambda, as if it were fitted alone.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import NonFiniteInput, SingularSystem

SPLINE_DEGREE = 3
#: the most B-spline functions a curve is fitted with; fewer ages get one each
MAX_BASIS_DIM = 30
#: order of the difference penalty on the spline coefficients
PENALTY_ORDER = 2
#: penalty weights GCV chooses among, smallest first
LAMBDA_GRID = np.logspace(-4.0, 4.0, 20)
#: fitted values at this age and above are made non-decreasing
MONOTONE_FROM_AGE = 65


def bspline_design(x: np.ndarray, basis_dim: int) -> np.ndarray:
    """Cubic B-spline design matrix with equally spaced knots spanning x."""
    x = np.asarray(x, dtype=float)
    k = SPLINE_DEGREE
    breaks = np.linspace(x[0], x[-1], basis_dim - k + 1)
    t = np.concatenate([np.full(k, x[0]), breaks, np.full(k, x[-1])])
    # t[ell] <= x < t[ell + 1], the right end in the last non-empty interval
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, k, basis_dim - 1)
    # h[:, n] is the basis function ell - j + n of degree j at x
    h = np.zeros((x.size, k + 1))
    h[:, 0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(1, k + 1):
            hh = h[:, :j].copy()
            h[:, 0] = 0.0
            for n in range(1, j + 1):
                right, left = t[ell + n], t[ell + n - j]
                distinct = right != left
                w = hh[:, n - 1] / (right - left)
                h[:, n - 1] = np.where(distinct, h[:, n - 1] + w * (right - x), h[:, n - 1])
                h[:, n] = np.where(distinct, w * (x - left), 0.0)
    design = np.zeros((x.size, basis_dim))
    design[np.arange(x.size)[:, None], ell[:, None] - k + np.arange(k + 1)] = h
    return design


def difference_penalty(basis_dim: int, order: int) -> np.ndarray:
    """Penalty matrix D'D for an order-th difference penalty on coefficients."""
    d = np.diff(np.eye(basis_dim), n=order, axis=0)
    return d.T @ d


def penalized_fit_rows(rows: np.ndarray, x: np.ndarray):
    """GCV-chosen penalized spline fit of each row of a T x n array, sampled at ``x``.

    The basis has ``min(MAX_BASIS_DIM, n)`` functions; a cubic basis needs
    ``n >= SPLINE_DEGREE + 1``.  Each row gets the first lambda of
    ``LAMBDA_GRID`` at which its GCV score reaches its minimum, as if it
    were fitted on its own.

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
    if n < SPLINE_DEGREE + 1:
        raise SingularSystem(f"a cubic spline needs at least {SPLINE_DEGREE + 1} ages, got {n}")
    basis_dim = min(MAX_BASIS_DIM, n)

    design = bspline_design(x, basis_dim)
    penalty = difference_penalty(basis_dim, PENALTY_ORDER)
    btb = design.T @ design

    best_gcv = None
    best_fitted = np.empty((n_rows, n))
    best_coef = np.empty((n_rows, basis_dim))
    best_lam = np.empty(n_rows)
    for lam in LAMBDA_GRID:
        system = btb + lam * penalty
        try:
            smoother = np.linalg.solve(system, design.T)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"penalized system singular at lambda={lam}") from exc
        # edf is the trace of the hat matrix design @ smoother
        edf = np.sum(design * smoother.T)
        coef = rows @ smoother.T
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


def _pava(y: list) -> list:
    """Non-decreasing least-squares projection of ``y`` with unit weights.

    Busing (2022), Algorithm 1, with ``>=`` in its lines 11 and 22, as SciPy
    runs it: blocks are pooled through a running weighted sum, so every
    value is rounded as in ``scipy.optimize.isotonic_regression``.
    """
    x, w = list(y), [1.0] * len(y)
    n = len(x)
    r = [0] * (n + 1)
    r[1] = 1
    b = 0
    xb_prev, wb_prev = x[0], w[0]
    i = 1
    while i < n:
        b += 1
        xb, wb = x[i], w[i]
        if xb_prev >= xb:
            b -= 1
            sb = wb_prev * xb_prev + wb * xb
            wb += wb_prev
            xb = sb / wb
            while i < n - 1 and xb >= x[i + 1]:
                i += 1
                sb += w[i] * x[i]
                wb += w[i]
                xb = sb / wb
            while b > 0 and x[b - 1] >= xb:
                b -= 1
                sb += w[b] * x[b]
                wb += w[b]
                xb = sb / wb
        x[b] = xb_prev = xb
        w[b] = wb_prev = wb
        r[b + 1] = i + 1
        i += 1
    f = n
    for k in range(b, -1, -1):
        x[r[k]:f] = [x[k]] * (f - r[k])
        f = r[k]
    return x


def _monotone_tail(fitted: np.ndarray, ages: np.ndarray) -> np.ndarray:
    """Project each row's values at ages >= ``MONOTONE_FROM_AGE``, in place."""
    tail = np.flatnonzero(ages >= MONOTONE_FROM_AGE)
    if tail.size > 1:
        # a strictly increasing tail is its own projection; ties still go
        # through PAVA, whose pooled mean of equal values can round
        rising = np.all(np.diff(fitted[:, tail], axis=1) > 0, axis=1)
        for i in np.flatnonzero(~rising):
            fitted[i, tail] = _pava(fitted[i, tail].tolist())
    return fitted


def smooth_surface(surface):
    """Smooth each year's curve of a surface on its own.

    Returns the smoothed surface (kind ``smoothed``) and ``sigma``, the
    years x ages array of absolute deviations from the input.  Fitted
    values at ages >= ``MONOTONE_FROM_AGE`` are replaced with their
    isotonic projection, which makes every first difference in that range
    non-negative.
    """
    rates = surface.log_rates
    if not np.all(np.isfinite(rates)):
        raise NonFiniteInput(
            f"{surface.population_id}: impute missing values before smoothing"
        )
    fitted, _, _ = penalized_fit_rows(rates, x=surface.ages.astype(float))
    fitted = _monotone_tail(fitted, surface.ages)
    smoothed = replace(surface, log_rates=fitted, kind="smoothed")
    return smoothed, np.abs(rates - fitted)
