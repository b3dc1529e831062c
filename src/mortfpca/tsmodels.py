"""Automatic ARIMA fitting for principal component score series.

Small, fully deterministic grid search: orders p, q in {0, 1, 2} and, in
nonstationary mode, d in {0, 1, 2}.  Parameters minimize the conditional
sum of squares (CSS), which maximizes the Gaussian conditional likelihood.
A pure AR cell is linear in (phi, c (1 - sum phi)) and is solved exactly by
ordinary least squares; a cell with an MA part is solved by
Levenberg-Marquardt on its residual vector with an analytic Jacobian
(Box & Jenkins, CSS estimation).  Every cell conditions on the first
``N_COND`` values of its differenced series and additionally burns 2 - d
leading residuals, so the likelihood sample size is identical across the
whole grid and information criteria are comparable.  Model choice is by
BIC, k log(n_eff) - 2 loglik, with k = p + q + 1 plus one for a drift term;
AIC is recorded next to it.  BIC's penalty grows with the sample, so it
identifies the true order consistently (Hannan 1980), whereas AIC's fixed
penalty of 2 per parameter keeps a constant chance of choosing an overfit
cell (Shibata 1976).

``drift`` is the constant of the d-times differenced model: the process
mean when d = 0 and the linear trend slope when d = 1.  Drift is never
offered for d = 2.

Every cell must have AR roots (stationarity of the differenced model; unit
roots belong in d) and MA roots (invertibility, without which the
conditional likelihood degenerates) of modulus > 1.001; violating cells
are rejected, which in particular stops an over-differenced model from
undoing its differencing with a unit MA root.  A cell whose
Levenberg-Marquardt fit has not converged after ``MAX_ITER`` iterations is
rejected too.  Stationary mode further restricts the grid to d = 0 so
forecasts stay mean-reverting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv
from scipy.signal import lfilter

from .errors import NonFiniteInput, OptimFailed, SeriesTooShort

#: largest AR and MA order in the search grid
MAX_ORDER = 2
#: largest differencing order in the search grid
MAX_D = 2
#: values conditioned on at the start of every differenced series
N_COND = MAX_ORDER
#: minimum observations accepted by the automatic search
MIN_OBS = 10
#: AR and MA roots must exceed this modulus
ROOT_MARGIN = 1.001
#: Levenberg-Marquardt iterations allowed before a cell is rejected as unconverged
MAX_ITER = 100
#: a step that changes the SSE by at most this fraction of it ends the fit
SSE_RTOL = 1e-12

MODES = ("nonstationary", "stationary")


@dataclass(eq=False)
class ArimaSpec:
    """One fitted ARIMA(p, d, q) model, possibly with drift."""

    p: int
    d: int
    q: int
    include_drift: bool
    ar: np.ndarray
    ma: np.ndarray
    drift: float
    innovation_var: float
    loglik: float
    aic: float
    bic: float
    mode: str = "nonstationary"
    fallback: bool = False

    @property
    def order(self):
        return (self.p, self.d, self.q)

    @property
    def n_params(self) -> int:
        return self.p + self.q + 1 + (1 if self.include_drift else 0)


@dataclass(eq=False)
class ScoreForecast:
    """Forecast path of one score series: means and variances per step."""

    mean: np.ndarray
    variance: np.ndarray
    spec: ArimaSpec

    @property
    def horizon(self) -> int:
        return self.mean.size


def _css_residuals(w: np.ndarray, ar, ma, c: float) -> np.ndarray:
    """Conditional residuals e_t for t >= N_COND, zeros assumed before that."""
    z = w - c
    n = z.size
    rhs = z[N_COND:].copy()
    for i, phi in enumerate(ar, start=1):
        rhs -= phi * z[N_COND - i : n - i]
    if len(ma):
        rhs = lfilter([1.0], np.concatenate(([1.0], np.asarray(ma, float))), rhs)
    return rhs


def _roots_ok(tail) -> bool:
    """True when every root of 1 + t_1 z + ... + t_k z^k has modulus > ROOT_MARGIN."""
    tail = np.trim_zeros(np.asarray(tail, float), "b")
    if tail.size == 0:
        return True
    poly = np.concatenate(([1.0], tail))[::-1]
    return bool(np.all(np.abs(np.roots(poly)) > ROOT_MARGIN))


def _css_jacobian(w: np.ndarray, ar, ma, c: float, e: np.ndarray, include_drift: bool) -> np.ndarray:
    """Derivatives of ``_css_residuals`` with respect to (ar, ma, drift).

    e_t = theta(B)^-1 phi(B) (w_t - c), so each column is a plain derivative
    of phi(B) (w_t - c) or of the MA recursion, filtered once by
    1 / theta(B): -z_{t-i} for phi_i, -e_{t-j} for theta_j (zero before the
    first residual) and -(1 - sum phi) for the drift.
    """
    z = w - c
    n = z.size
    m = n - N_COND
    cols = [-z[N_COND - i : n - i] for i in range(1, len(ar) + 1)]
    for j in range(1, len(ma) + 1):
        cols.append(np.concatenate((np.zeros(j), -e[: m - j])))
    if include_drift:
        cols.append(np.full(m, np.sum(ar) - 1.0))
    theta = np.concatenate(([1.0], np.asarray(ma, float)))
    return lfilter([1.0], theta, np.array(cols), axis=-1).T


def _levenberg_marquardt(w: np.ndarray, x: np.ndarray, p: int, q: int, include_drift: bool,
                         burn: int, cell: str) -> np.ndarray:
    """Minimize the CSS of one cell from (ar, ma[, drift]) = ``x``; raises OptimFailed.

    Damping is Marquardt-scaled, mu * diag(J'J), and mu follows Nielsen's
    gain-ratio rule (Madsen, Nielsen & Tingleff 2004, sec. 3.2).  The fit
    has converged once a step changes the SSE by at most ``SSE_RTOL`` of
    itself; a step that raises the SSE is never taken.
    """

    def residuals(x):
        c = x[p + q] if include_drift else 0.0
        e = _css_residuals(w, x[:p], x[p : p + q], c)
        r = e[burn:]
        return e, r, float(r @ r)

    def normal_equations(x, e, r):
        c = x[p + q] if include_drift else 0.0
        jac = _css_jacobian(w, x[:p], x[p : p + q], c, e, include_drift)[burn:]
        return jac.T @ jac, jac.T @ r

    e, r, sse = residuals(x)
    jtj, grad = normal_equations(x, e, r)
    mu, nu = 1e-3, 2.0
    for _ in range(MAX_ITER):
        if sse == 0.0 or not grad.any():
            return x
        scale = np.diag(jtj)
        _, step, info = dposv(jtj + mu * np.diag(scale), -grad)
        if info:
            raise OptimFailed(f"{cell} has a singular Jacobian")
        e_new, r_new, sse_new = residuals(x + step)
        if abs(sse - sse_new) <= SSE_RTOL * sse:
            return x + step if sse_new < sse else x
        # predicted SSE reduction of the damped Gauss-Newton model
        gain = (sse - sse_new) / float(step @ (mu * scale * step - grad))
        if math.isfinite(sse_new) and gain > 0:
            x, e, r, sse = x + step, e_new, r_new, sse_new
            jtj, grad = normal_equations(x, e, r)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    raise OptimFailed(f"{cell} did not converge in {MAX_ITER} iterations")


def _fit_cell(w: np.ndarray, p: int, d: int, q: int, include_drift: bool, mode: str) -> ArimaSpec:
    """CSS fit of one grid cell on the already d-differenced series ``w``.

    A pure AR cell is linear in (phi, c (1 - sum phi)) and is solved by one
    least-squares regression on its lags; a cell with an MA part goes on
    from there by Levenberg-Marquardt.
    """
    cell = f"cell ({p},{d},{q})"
    # burning 2 - d extra residuals gives every d the same likelihood sample
    burn = MAX_D - d
    n_eff = w.size - N_COND - burn
    k = p + q + 1 + (1 if include_drift else 0)
    if n_eff < k + 2:
        raise OptimFailed(f"{cell} needs more observations")

    lo = N_COND + burn
    cols = [w[lo - i : w.size - i] for i in range(1, p + 1)]
    if include_drift:
        cols.append(np.ones(n_eff))
    x = np.linalg.lstsq(np.column_stack(cols), w[lo:], rcond=None)[0] if cols else np.empty(0)
    if q:
        # start from the cell's pure-AR fit, theta = 0 and the drift at the sample mean
        x = np.concatenate((x[:p], np.zeros(q), [np.mean(w)] if include_drift else []))
        # trial steps may leave the invertible region, where residuals overflow
        with np.errstate(over="ignore", invalid="ignore"):
            x = _levenberg_marquardt(w, x, p, q, include_drift, burn, cell)
    if not np.all(np.isfinite(x)):
        raise OptimFailed(f"non-finite parameters for {cell}")

    ar = x[:p].copy()
    ma = x[p : p + q].copy()
    if not _roots_ok(-ar):
        raise OptimFailed(f"{cell} violates the AR stationarity margin")
    if not _roots_ok(ma):
        raise OptimFailed(f"{cell} violates the MA invertibility margin")
    c = float(x[p + q]) if include_drift else 0.0
    if include_drift and q == 0:
        # the regression estimated the intercept c (1 - sum phi); the margin excludes a unit root
        c /= 1.0 - float(np.sum(ar))
    e = _css_residuals(w, ar, ma, c)[burn:]
    sse = float(e @ e)
    if not math.isfinite(sse) or sse < 0:
        raise OptimFailed(f"non-finite residuals for {cell}")
    sigma2 = max(sse / n_eff, 1e-300)
    loglik = -0.5 * n_eff * (math.log(2 * math.pi) + math.log(sigma2) + 1.0)
    return ArimaSpec(
        p=p,
        d=d,
        q=q,
        include_drift=include_drift,
        ar=ar,
        ma=ma,
        drift=c,
        innovation_var=sigma2,
        loglik=loglik,
        aic=2.0 * k - 2.0 * loglik,
        bic=k * math.log(n_eff) - 2.0 * loglik,
        mode=mode,
    )


def _validate_series(series) -> np.ndarray:
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError("series must be 1-d")
    if not np.all(np.isfinite(series)):
        raise NonFiniteInput("series contains non-finite values")
    return series


def fit_spec(
    series,
    order,
    include_drift: bool = False,
    mode: str = "nonstationary",
) -> ArimaSpec:
    """Fit a single fixed-order cell; raises OptimFailed when unusable."""
    series = _validate_series(series)
    p, d, q = order
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if not (0 <= p <= MAX_ORDER and 0 <= q <= MAX_ORDER and 0 <= d <= 2):
        raise ValueError(f"order {order} outside the supported grid")
    if mode == "stationary" and d != 0:
        raise ValueError("stationary mode requires d = 0")
    if include_drift and d > 1:
        raise ValueError("drift is only defined for d <= 1")
    if series.size < MIN_OBS:
        raise SeriesTooShort(f"need at least {MIN_OBS} observations, got {series.size}")
    w = np.diff(series, d) if d else series
    return _fit_cell(w, p, d, q, include_drift, mode)


def _fallback_spec(series: np.ndarray, mode: str) -> ArimaSpec:
    """Random walk with drift (nonstationary) or mean-level white noise."""
    d = 1 if mode == "nonstationary" else 0
    w = np.diff(series, d) if d else series
    burn = MAX_D - d
    n_eff = w.size - N_COND - burn
    c = float(np.mean(w[N_COND + burn :]))
    e = w[N_COND + burn :] - c
    sigma2 = max(float(e @ e) / n_eff, 1e-300)
    loglik = -0.5 * n_eff * (math.log(2 * math.pi) + math.log(sigma2) + 1.0)
    k = 2
    return ArimaSpec(
        p=0,
        d=d,
        q=0,
        include_drift=True,
        ar=np.empty(0),
        ma=np.empty(0),
        drift=c,
        innovation_var=sigma2,
        loglik=loglik,
        aic=2.0 * k - 2.0 * loglik,
        bic=k * math.log(n_eff) - 2.0 * loglik,
        mode=mode,
        fallback=True,
    )


def fit_auto(series, mode: str = "nonstationary") -> ArimaSpec:
    """Minimum-BIC ARIMA over the order grid.

    Nonstationary mode searches d in {0, 1, 2} with drift offered for
    d <= 1; stationary mode fixes d = 0.  Cells whose fit does not converge
    or whose roots land on or inside the margin are skipped; if every cell
    fails the fallback model is returned with ``fallback=True``.
    """
    series = _validate_series(series)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if series.size < MIN_OBS:
        raise SeriesTooShort(f"need at least {MIN_OBS} observations, got {series.size}")

    d_values = (0, 1, 2) if mode == "nonstationary" else (0,)
    best = None
    for d in d_values:
        w = np.diff(series, d) if d else series
        for p in range(MAX_ORDER + 1):
            for q in range(MAX_ORDER + 1):
                drift_options = (False, True) if d <= 1 else (False,)
                for include_drift in drift_options:
                    try:
                        spec = _fit_cell(w, p, d, q, include_drift, mode)
                    except OptimFailed:
                        continue
                    if best is None or spec.bic < best.bic:
                        best = spec
    if best is None:
        return _fallback_spec(series, mode)
    return best


def psi_weights(spec: ArimaSpec, n_weights: int) -> np.ndarray:
    """Moving-average representation weights psi_0 .. psi_{n-1}.

    Derived from phi(B) (1 - B)^d psi(B) = theta(B); forecast error
    variance at lead h is sigma^2 times the sum of the first h squared
    weights.
    """
    phi_full = np.concatenate(([1.0], -spec.ar))
    for _ in range(spec.d):
        phi_full = np.convolve(phi_full, [1.0, -1.0])
    a = -phi_full[1:]
    psi = np.zeros(max(n_weights, 1))
    psi[0] = 1.0
    for j in range(1, n_weights):
        val = spec.ma[j - 1] if j - 1 < spec.ma.size else 0.0
        for i in range(1, min(j, a.size) + 1):
            val += a[i - 1] * psi[j - i]
        psi[j] = val
    return psi[:n_weights]


def forecast(spec: ArimaSpec, series, h: int) -> ScoreForecast:
    """Mean and variance paths h steps ahead from the end of ``series``."""
    series = _validate_series(series)
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    if series.size <= spec.d + N_COND:
        raise SeriesTooShort("series shorter than the conditioning window")

    c = spec.drift if spec.include_drift else 0.0
    w = np.diff(series, spec.d) if spec.d else series
    z = w - c
    n = z.size
    resid = np.zeros(n)
    resid[N_COND:] = _css_residuals(w, spec.ar, spec.ma, c)

    zext = np.concatenate([z, np.zeros(h)])
    for step in range(h):
        t = n + step
        val = 0.0
        for i, phi in enumerate(spec.ar, start=1):
            val += phi * zext[t - i]
        for j, theta in enumerate(spec.ma, start=1):
            if t - j < n:
                val += theta * resid[t - j]
        zext[t] = val
    w_hat = zext[n:] + c

    mean = w_hat
    if spec.d:
        levels = [series]
        for _ in range(spec.d):
            levels.append(np.diff(levels[-1]))
        for depth in range(spec.d, 0, -1):
            mean = levels[depth - 1][-1] + np.cumsum(mean)

    psi = psi_weights(spec, h)
    variance = spec.innovation_var * np.cumsum(psi**2)
    return ScoreForecast(mean=mean, variance=variance, spec=spec)


def unconditional_mean(spec: ArimaSpec) -> float:
    """Long-run forecast level of a d = 0 model: drift if present, else 0."""
    if spec.d != 0:
        raise ValueError("unconditional mean is only defined for d = 0 models")
    return spec.drift if spec.include_drift else 0.0
