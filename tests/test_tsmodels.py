"""ARIMA fitting, psi weights and forecast paths against closed forms."""

import math

import numpy as np
import pytest
from scipy.signal import lfilter

from mortfpca.errors import NonFiniteInput, OptimFailed, SeriesTooShort
from mortfpca.tsmodels import (
    MIN_OBS,
    ArimaSpec,
    _css_jacobian,
    _css_residuals,
    _fallback_spec,
    _roots_ok,
    fit_auto,
    fit_spec,
    forecast,
    psi_weights,
    unconditional_mean,
)


def make_spec(p=0, d=0, q=0, ar=(), ma=(), drift=0.0, include_drift=False, var=1.0):
    return ArimaSpec(
        p=p, d=d, q=q, include_drift=include_drift,
        ar=np.asarray(ar, float), ma=np.asarray(ma, float),
        drift=drift, innovation_var=var, loglik=0.0, aic=0.0, bic=0.0,
    )


def ar1_series(phi, c, sigma, t, seed):
    rng = np.random.default_rng(seed)
    z = np.empty(t)
    z[0] = c
    for i in range(1, t):
        z[i] = c + phi * (z[i - 1] - c) + rng.normal(0, sigma)
    return z


# ---------------------------------------------------------------------------
# moving-average representation


def test_psi_weights_closed_forms():
    phi, theta = 0.6, 0.5
    np.testing.assert_allclose(
        psi_weights(make_spec(p=1, ar=[phi]), 5), phi ** np.arange(5), atol=1e-12
    )
    np.testing.assert_allclose(
        psi_weights(make_spec(q=1, ma=[theta]), 4), [1.0, theta, 0.0, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(psi_weights(make_spec(d=1), 4), np.ones(4), atol=1e-12)
    # ARIMA(1,1,0): psi_j = (1 - phi^(j+1)) / (1 - phi)
    spec = make_spec(p=1, d=1, ar=[0.5])
    expected = (1.0 - 0.5 ** (np.arange(6) + 1)) / 0.5
    np.testing.assert_allclose(psi_weights(spec, 6), expected, atol=1e-12)
    np.testing.assert_allclose(psi_weights(spec, 4), [1.0, 1.5, 1.75, 1.875], atol=1e-12)
    # ARIMA(0,1,1): psi_0 = 1 then flat at 1 + theta
    spec = make_spec(d=1, q=1, ma=[-0.3])
    np.testing.assert_allclose(psi_weights(spec, 4), [1.0, 0.7, 0.7, 0.7], atol=1e-12)
    np.testing.assert_allclose(psi_weights(make_spec(), 1), [1.0])


# ---------------------------------------------------------------------------
# conditional residuals


def test_css_residuals_match_explicit_recursion():
    rng = np.random.default_rng(10)
    w = rng.normal(1.0, 1.0, 30)
    ar, ma, c = np.array([0.4, -0.2]), np.array([0.3]), 0.8
    ours = _css_residuals(w, ar, ma, c)

    z = w - c
    e = np.zeros(w.size)
    for t in range(2, w.size):
        e[t] = z[t] - ar[0] * z[t - 1] - ar[1] * z[t - 2] - ma[0] * e[t - 1]
    np.testing.assert_allclose(ours, e[2:], atol=1e-10)


# ---------------------------------------------------------------------------
# root margin


def test_roots_ok_predicate():
    assert _roots_ok([])
    assert _roots_ok([0.0, 0.0])
    assert _roots_ok([0.5])            # root at -2
    assert _roots_ok([-0.999])         # root just outside the margin
    assert not _roots_ok([-0.9995])    # root inside the margin
    assert not _roots_ok([-2.0, 1.0])  # (1 - z)^2, unit root
    assert _roots_ok([-1.8, 0.81])     # (1 - 0.9 z)^2


def test_explosive_series_rejected_by_stationarity_margin():
    with pytest.raises(OptimFailed):
        fit_spec(1.5 ** np.arange(14, dtype=float), (1, 0, 0), mode="stationary")


# ---------------------------------------------------------------------------
# fixed-order fits


def test_random_walk_with_drift_estimates():
    rng = np.random.default_rng(3)
    series = np.cumsum(0.4 + rng.normal(0, 0.2, 60))
    spec = fit_spec(series, (0, 1, 0), include_drift=True)
    w = np.diff(series)
    # two conditioning points plus one cross-grid burn leave w[3:]
    assert abs(spec.drift - np.mean(w[3:])) < 1e-6
    sse = float(np.sum((w[3:] - spec.drift) ** 2))
    assert np.isclose(spec.innovation_var, sse / (w.size - 3), rtol=1e-6)
    assert spec.order == (0, 1, 0)
    assert not spec.fallback


def test_ar1_recovery():
    series = ar1_series(0.8, 5.0, 0.5, 120, seed=42)
    spec = fit_spec(series, (1, 0, 0), include_drift=True, mode="stationary")
    assert abs(spec.ar[0] - 0.8) < 0.05
    assert abs(spec.drift - 5.0) < 0.5
    assert spec.mode == "stationary"


def test_loglik_and_aic_bookkeeping():
    series = ar1_series(0.5, 1.0, 1.0, 80, seed=17)
    spec = fit_spec(series, (1, 0, 1), include_drift=True)
    # reproduce the Gaussian conditional likelihood at the fitted parameters
    z = series - spec.drift
    e = np.zeros(series.size)
    for t in range(2, series.size):
        e[t] = z[t] - spec.ar[0] * z[t - 1] - spec.ma[0] * e[t - 1]
    e = e[4:]  # two conditioning points, two burned residuals at d=0
    n_eff = series.size - 4
    sigma2 = float(e @ e) / n_eff
    loglik = -0.5 * n_eff * (math.log(2 * math.pi) + math.log(sigma2) + 1.0)
    assert np.isclose(spec.innovation_var, sigma2, rtol=1e-9)
    assert np.isclose(spec.loglik, loglik, rtol=1e-9)
    assert np.isclose(spec.aic, 2.0 * 4 - 2.0 * loglik, rtol=1e-9)
    assert np.isclose(spec.bic, 4 * math.log(n_eff) - 2.0 * loglik, rtol=1e-9)
    assert spec.n_params == 4


# ---------------------------------------------------------------------------
# cell fitter: exact least squares for AR cells, Levenberg-Marquardt otherwise


def arma_series(ar, ma, c, t, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, t + 100)
    z = lfilter(np.r_[1.0, ma], np.r_[1.0, -np.asarray(ar, float)], a)[100:]
    return c + z


def test_css_jacobian_matches_finite_differences():
    w = arma_series([0.5, -0.2], [0.4, 0.3], 1.5, 60, seed=5)
    x = np.array([0.3, -0.1, 0.2, -0.35, 1.2])  # ar, ma, drift of an ARMA(2,2) cell

    def resid(x):
        return _css_residuals(w, x[:2], x[2:4], x[4])

    jac = _css_jacobian(w, x[:2], x[2:4], x[4], resid(x), include_drift=True)
    step = 1e-6
    numeric = np.column_stack([
        (resid(x + step * unit) - resid(x - step * unit)) / (2 * step) for unit in np.eye(5)
    ])
    np.testing.assert_allclose(jac, numeric, atol=1e-8)


@pytest.mark.parametrize("order, include_drift", [((2, 0, 0), True), ((1, 1, 0), True), ((2, 0, 0), False)])
def test_pure_ar_cell_is_the_least_squares_solution(order, include_drift):
    series = arma_series([0.6, 0.2], [], 3.0, 50, seed=8)
    spec = fit_spec(series, order, include_drift)
    p, d, _ = order
    w = np.diff(series, d) if d else series
    lo = 2 + (2 - d)  # conditioning points plus the cross-grid burn
    design = [w[lo - i : w.size - i] for i in range(1, p + 1)]
    if include_drift:
        design.append(np.ones(w.size - lo))
    coef = np.linalg.lstsq(np.column_stack(design), w[lo:], rcond=None)[0]
    np.testing.assert_allclose(spec.ar, coef[:p], atol=1e-12)
    if include_drift:
        assert np.isclose(spec.drift * (1.0 - spec.ar.sum()), coef[p], atol=1e-12)


@pytest.mark.parametrize("seed, ar, ma", [(11, [0.6], [0.4]), (12, [], [-0.5, 0.2]), (13, [0.3, 0.3], [0.5])])
def test_accepted_ma_cells_are_first_order_optimal(seed, ar, ma):
    series = np.cumsum(arma_series(ar, ma, 0.2, 60, seed=seed))
    accepted = 0
    for d in (0, 1, 2):
        w = np.diff(series, d) if d else series
        for p in range(3):
            for q in (1, 2):
                for include_drift in ((False, True) if d <= 1 else (False,)):
                    try:
                        spec = fit_spec(series, (p, d, q), include_drift)
                    except OptimFailed:
                        continue
                    accepted += 1
                    e = _css_residuals(w, spec.ar, spec.ma, spec.drift)
                    jac = _css_jacobian(w, spec.ar, spec.ma, spec.drift, e, include_drift)[2 - d :]
                    e = e[2 - d :]
                    grad = np.linalg.norm(jac.T @ e)
                    assert grad <= 1e-5 * np.linalg.norm(jac) * np.linalg.norm(e), (p, d, q, include_drift)
    assert accepted >= 10


def test_ma1_recovery():
    series = arma_series([], [0.5], 0.0, 200, seed=44)
    spec = fit_spec(series, (0, 0, 1), mode="stationary")
    assert abs(spec.ma[0] - 0.5) < 0.1


def test_unconverged_cell_is_rejected():
    # on over-differenced white noise the CSS of an ARIMA(2,2,2) keeps falling
    # as an MA root moves inside the unit circle, so the fit never settles
    noise = np.random.default_rng(0).normal(0.0, 1.0, 40)
    with pytest.raises(OptimFailed, match="did not converge"):
        fit_spec(noise, (2, 2, 2))


@pytest.mark.parametrize("mode", ["nonstationary", "stationary"])
def test_fit_auto_returns_minimum_bic_cell(mode):
    # on this random walk the minimum-AIC cell is (1,1,0) and the minimum-BIC one (0,1,0)
    series = np.cumsum(np.random.default_rng(0).normal(0.2, 1.0, 40))
    cells = []
    for d in ((0, 1, 2) if mode == "nonstationary" else (0,)):
        for p in range(3):
            for q in range(3):
                for include_drift in ((False, True) if d <= 1 else (False,)):
                    try:
                        cells.append(fit_spec(series, (p, d, q), include_drift, mode))
                    except OptimFailed:
                        pass
    best = min(cells, key=lambda spec: spec.bic)
    chosen = fit_auto(series, mode=mode)
    assert (chosen.order, chosen.include_drift) == (best.order, best.include_drift)
    assert chosen.bic == best.bic


def test_fit_spec_validation():
    series = np.arange(30, dtype=float)
    with pytest.raises(ValueError):
        fit_spec(series, (3, 0, 0))
    with pytest.raises(ValueError):
        fit_spec(series, (0, 3, 0))
    with pytest.raises(ValueError):
        fit_spec(series, (0, 1, 0), mode="stationary")
    with pytest.raises(ValueError):
        fit_spec(series, (0, 2, 0), include_drift=True)
    with pytest.raises(ValueError):
        fit_spec(series, (0, 0, 0), mode="levels")
    with pytest.raises(SeriesTooShort):
        fit_spec(series[: MIN_OBS - 1], (0, 0, 0))
    with pytest.raises(NonFiniteInput):
        fit_spec(np.array([np.nan] * 30), (0, 0, 0))
    with pytest.raises(ValueError):
        fit_spec(series.reshape(5, 6), (0, 0, 0))


# ---------------------------------------------------------------------------
# forecasts


def test_random_walk_forecast_closed_form():
    rng = np.random.default_rng(4)
    series = np.cumsum(0.3 + rng.normal(0, 0.1, 50))
    spec = fit_spec(series, (0, 1, 0), include_drift=True)
    fc = forecast(spec, series, 8)
    steps = np.arange(1, 9)
    np.testing.assert_allclose(fc.mean, series[-1] + steps * spec.drift, atol=1e-10)
    np.testing.assert_allclose(fc.variance, steps * spec.innovation_var, rtol=1e-12)
    assert fc.horizon == 8


def test_ar1_forecast_closed_form_and_reversion():
    series = ar1_series(0.8, 5.0, 0.5, 120, seed=42)
    spec = fit_spec(series, (1, 0, 0), include_drift=True, mode="stationary")
    h = 200
    fc = forecast(spec, series, h)
    phi, c = spec.ar[0], spec.drift
    steps = np.arange(1, h + 1)
    np.testing.assert_allclose(
        fc.mean, c + phi**steps * (series[-1] - c), atol=1e-10
    )
    np.testing.assert_allclose(
        fc.variance,
        spec.innovation_var * np.cumsum(phi ** (2 * (steps - 1))),
        rtol=1e-10,
    )
    # long-run reversion to the unconditional mean
    assert abs(fc.mean[-1] - unconditional_mean(spec)) < 1e-12
    assert abs(fc.variance[-1] - spec.innovation_var / (1 - phi**2)) < 1e-10


def test_ma1_forecast_uses_last_residual_then_reverts():
    rng = np.random.default_rng(21)
    series = rng.normal(2.0, 1.0, 60)
    spec = fit_spec(series, (0, 0, 1), include_drift=True)
    fc = forecast(spec, series, 4)
    z = series - spec.drift
    e = np.zeros(series.size)
    for t in range(2, series.size):
        e[t] = z[t] - spec.ma[0] * e[t - 1]
    assert np.isclose(fc.mean[0], spec.drift + spec.ma[0] * e[-1], atol=1e-10)
    np.testing.assert_allclose(fc.mean[1:], spec.drift, atol=1e-10)
    np.testing.assert_allclose(
        fc.variance, spec.innovation_var * np.array([1, 1 + spec.ma[0] ** 2,
                                                     1 + spec.ma[0] ** 2,
                                                     1 + spec.ma[0] ** 2]),
        rtol=1e-10,
    )


def test_forecast_variance_is_nondecreasing():
    series = ar1_series(0.6, 0.0, 1.0, 60, seed=13)
    for spec in (fit_auto(series), fit_auto(series, mode="stationary")):
        fc = forecast(spec, series, 30)
        assert np.all(np.diff(fc.variance) >= -1e-12)
        assert np.all(np.isfinite(fc.mean))


def test_forecast_validation():
    series = np.arange(30, dtype=float)
    spec = make_spec(d=1)
    with pytest.raises(ValueError):
        forecast(spec, series, 0)
    with pytest.raises(SeriesTooShort):
        forecast(spec, series[:3], 5)


# ---------------------------------------------------------------------------
# automatic order choice


def test_auto_differences_trending_series():
    rng = np.random.default_rng(1)
    trend = 2.0 + 0.5 * np.arange(50) + rng.normal(0, 0.3, 50)
    spec = fit_auto(trend)
    assert spec.d >= 1
    assert spec.include_drift
    assert not spec.fallback
    # the fitted drift tracks the true slope
    fc = forecast(spec, trend, 10)
    slope = (fc.mean[-1] - fc.mean[0]) / 9
    assert abs(slope - 0.5) < 0.1


def test_auto_stationary_mode_never_differences():
    rng = np.random.default_rng(2)
    trend = 1.0 + 0.3 * np.arange(60) + rng.normal(0, 0.5, 60)
    spec = fit_auto(trend, mode="stationary")
    assert spec.d == 0
    assert spec.mode == "stationary"


def test_auto_validation():
    with pytest.raises(SeriesTooShort):
        fit_auto(np.arange(MIN_OBS - 1, dtype=float))
    with pytest.raises(ValueError):
        fit_auto(np.arange(30, dtype=float), mode="levels")
    with pytest.raises(NonFiniteInput):
        fit_auto(np.array([np.inf] + [0.0] * 29))


# ---------------------------------------------------------------------------
# unconditional mean and fallback


def test_unconditional_mean():
    assert unconditional_mean(make_spec(drift=2.5, include_drift=True)) == 2.5
    assert unconditional_mean(make_spec(p=1, ar=[0.7])) == 0.0
    with pytest.raises(ValueError):
        unconditional_mean(make_spec(d=1))


def test_fallback_specs():
    series = np.arange(20, dtype=float)
    fb = _fallback_spec(series, "nonstationary")
    assert fb.order == (0, 1, 0) and fb.include_drift and fb.fallback
    assert fb.drift == 1.0
    fc = forecast(fb, series, 4)
    np.testing.assert_allclose(fc.mean, [20.0, 21.0, 22.0, 23.0], atol=1e-12)

    fb = _fallback_spec(series, "stationary")
    assert fb.order == (0, 0, 0) and fb.include_drift and fb.fallback
    # mean over w[4:] once the conditioning and burn points are dropped
    assert fb.drift == np.mean(series[4:])
    # two parameters (level and variance) over the 16 residuals after w[4:]
    assert np.isclose(fb.bic, 2 * math.log(16) - 2.0 * fb.loglik, rtol=1e-12)
    assert np.isclose(fb.aic, 2.0 * 2 - 2.0 * fb.loglik, rtol=1e-12)
