"""ARIMA fitting, psi weights and forecast paths against closed forms."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg.lapack import dposv, dpotrf, dtbtrs
from scipy.signal import lfilter

from mortfpca import tsmodels
from mortfpca.cli import main
from mortfpca.errors import NonFiniteInput, OptimFailed, SeriesTooShort
from mortfpca.forecasters import MODELS
from mortfpca.hmd import write_surface_csv
from mortfpca.synthetic import synthetic_bundle
from mortfpca.tsmodels import (
    MAX_D,
    MAX_ITER,
    MIN_OBS,
    MODES,
    N_COND,
    N_SLOTS,
    ROOT_MARGIN,
    SSE_RTOL,
    ArimaSpec,
    _CONVERGED,
    _SINGULAR,
    _css_batch,
    _css_jacobian,
    _css_residuals,
    _damped_steps,
    _fallback_spec,
    _fit_cells_many,
    _grid,
    _is_definite,
    _layout,
    _levenberg_marquardt,
    _roots_ok,
    fit_auto,
    fit_auto_many,
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


def assert_same_spec(a, b):
    """Every field of two ArimaSpecs equal, arrays element by element."""
    for field in dataclasses.fields(ArimaSpec):
        np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name),
                                      err_msg=field.name)


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
    np.testing.assert_array_equal(_roots_ok([[0.5, 0.0], [-2.0, 1.0]]), [True, False])


coefficient = st.one_of(st.just(0.0), st.floats(1e-6, 3.0), st.floats(-3.0, -1e-6))


@given(coefficient, coefficient)
def test_roots_ok_matches_numpy_roots(t1, t2):
    moduli = np.abs(np.roots(np.trim_zeros(np.array([1.0, t1, t2]), "b")[::-1]))
    assume(np.all(np.abs(moduli - ROOT_MARGIN) > 1e-6))
    expected = ref_roots_ok([t1, t2])
    assert _roots_ok([t1, t2]) == expected
    assert _roots_ok(np.array([[t1, t2]]))[0] == expected
    if t2 == 0.0:
        # a zero tail lowers the degree
        assert _roots_ok([t1]) == expected


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


def pack(specs):
    """Padded parameter rows (phi_1, phi_2, theta_1, theta_2, drift) of fitted cells."""
    x = np.zeros((len(specs), N_SLOTS))
    for i, spec in enumerate(specs):
        x[i, : spec.p] = spec.ar
        x[i, 2 : 2 + spec.q] = spec.ma
        x[i, 4] = spec.drift
    return x


def test_css_jacobian_matches_finite_differences():
    series = np.cumsum(arma_series([0.5, -0.2], [0.4, 0.3], 1.5, 60, seed=5))
    # next to a full ARMA(2,2) with drift, cells that pad p < 2, q < 2 and d > 0
    cells = [(2, 0, 2, True), (1, 0, 1, True), (0, 1, 2, False), (2, 1, 1, True), (1, 2, 2, False)]
    w, real, free = _layout(series, cells)
    x = np.where(free, np.random.default_rng(6).uniform(-0.4, 0.4, free.shape), 0.0)
    e, z = _css_batch(w, x, real)
    jac = _css_jacobian(z, x, e, free, real)
    assert not jac[~(free.T[:, :, None] & real)].any()

    step = 1e-6
    for slot, unit in enumerate(np.eye(N_SLOTS)):
        numeric = (_css_batch(w, x + step * unit, real)[0]
                   - _css_batch(w, x - step * unit, real)[0]) / (2 * step)
        est = free[:, slot]
        np.testing.assert_allclose(jac[slot, est], numeric[est], atol=1e-8)

    # on its rows that are not padding, each cell matches the scalar fitter's Jacobian
    for i, (p, d, q, drift) in enumerate(cells):
        ar, ma, c = x[i, :p], x[i, 2 : 2 + q], x[i, 4]
        wd = np.diff(series, d)
        ref_e = ref_css_residuals(wd, ar, ma, c)
        np.testing.assert_allclose(e[i, d:], ref_e, rtol=1e-12, atol=1e-12)
        ref_jac = ref_css_jacobian(wd, ar, ma, c, ref_e, drift)
        np.testing.assert_allclose(jac[np.flatnonzero(free[i]), i, d:], ref_jac.T, rtol=1e-12, atol=1e-12)


def test_overflowing_cell_does_not_leak_into_other_cells(monkeypatch):
    series = np.cumsum(arma_series([0.5], [0.4], 0.2, 60, seed=7))
    cells = [(1, 0, 1, True), (2, 1, 2, False), (0, 1, 1, True), (1, 2, 2, False)]
    w, real, free = _layout(series, cells)
    x = np.where(free, 0.3, 0.0)
    x[1, 2] = x[2, 2] = 1e200  # theta_1 of cells 1 and 2 overflows their MA recursions
    solves = []
    band_solve = tsmodels._band_solve

    def counting(theta, rhs):
        solves.append(len(theta))
        return band_solve(theta, rhs)

    monkeypatch.setattr(tsmodels, "_band_solve", counting)
    with np.errstate(over="ignore", invalid="ignore"):
        e, z = _css_batch(w, x, real)
        # the whole batch, then the cells after each of the two non-finite ones
        assert solves == [4, 2, 1]
        jac = _css_jacobian(z, x, e, free, real)
        assert not np.isfinite(e[1]).all() and not np.isfinite(e[2]).all()
        for i in range(len(cells)):
            one = slice(i, i + 1)
            e_alone, z_alone = _css_batch(w[one], x[one], real[one])
            np.testing.assert_array_equal(e[i], e_alone[0])
            np.testing.assert_array_equal(
                jac[:, i], _css_jacobian(z_alone, x[one], e_alone, free[one], real[one])[:, 0])


def test_overflowing_series_does_not_leak_into_other_series(monkeypatch):
    # scaled by 1e152, a random walk's MA cells overflow on trial steps while
    # cells of the series after it are still in the batch
    walk = np.cumsum(arma_series([0.5], [0.4], 0.2, 60, seed=7))
    series = [walk * 1e152, walk, arma_series([0.6], [0.3], 1.0, 60, seed=21)]
    modes = ["nonstationary", "nonstationary", "stationary"]
    overflows = []
    band_solve = tsmodels._band_solve

    def spy(theta, rhs):
        y = band_solve(theta, rhs)
        overflows.append(not np.isfinite(y).all())
        return y

    with np.errstate(over="ignore", invalid="ignore"):
        alone = [fit_auto(s, m) for s, m in zip(series, modes)]
        monkeypatch.setattr(tsmodels, "_band_solve", spy)
        together = fit_auto_many(series, modes)
    assert any(overflows)
    for a, b in zip(together, alone):
        assert_same_spec(a, b)


# ---------------------------------------------------------------------------
# the band solve: numpy's own LAPACK dtbtrs, or SciPy's

SCIPY_DTBTRS = functools.partial(dtbtrs, uplo="L", diag="U", overwrite_b=True)
NUMPY_DTBTRS = tsmodels._openblas_dtbtrs()
needs_numpy_dtbtrs = pytest.mark.skipif(
    NUMPY_DTBTRS is None,
    reason="numpy names no scipy-openblas BLAS with a scipy_dtbtrs_64_ next to it, "
           "so the band solve is SciPy's alone")


def solve_with(monkeypatch, binding, compute):
    monkeypatch.setattr(tsmodels, "_dtbtrs", binding)
    return compute()


@needs_numpy_dtbtrs
def test_numpy_dtbtrs_equals_scipy_bitwise_on_band_systems(monkeypatch):
    rng = np.random.default_rng(2024)
    for _ in range(300):
        cells, m, k = int(rng.integers(1, 61)), int(rng.integers(8, 81)), int(rng.integers(1, 6))
        theta = rng.uniform(-1.5, 1.5, (cells, 2))
        rhs = rng.normal(0.0, 1.0, (k, cells, m))
        ours = solve_with(monkeypatch, NUMPY_DTBTRS,
                          lambda: tsmodels._band_solve(theta, rhs.copy()))
        ref = solve_with(monkeypatch, SCIPY_DTBTRS,
                         lambda: tsmodels._band_solve(theta, rhs.copy()))
        assert ours.shape == (k, cells, m)
        assert ours.tobytes() == ref.tobytes()
    # the solution overwrites a C-contiguous right-hand side, as overwrite_b=True does
    rhs = rng.normal(0.0, 1.0, (2, 3, 10))
    y = solve_with(monkeypatch, NUMPY_DTBTRS,
                   lambda: tsmodels._band_solve(np.full((3, 2), 0.4), rhs))
    assert np.shares_memory(y, rhs)


@needs_numpy_dtbtrs
def test_numpy_dtbtrs_restarts_after_a_non_finite_cell_as_scipy_does(monkeypatch):
    series = np.cumsum(arma_series([0.5], [0.4], 0.2, 60, seed=7))
    cells = [(1, 0, 1, True), (2, 1, 2, False), (0, 1, 1, True), (1, 2, 2, False)]
    w, real, free = _layout(series, cells)
    x = np.where(free, 0.3, 0.0)
    x[1, 2] = 1e200  # theta_1 of cell 1 overflows its MA recursion

    def filtered():
        e, z = _css_batch(w, x, real)
        return e, _css_jacobian(z, x, e, free, real)

    with np.errstate(over="ignore", invalid="ignore"):
        ours = solve_with(monkeypatch, NUMPY_DTBTRS, filtered)
        ref = solve_with(monkeypatch, SCIPY_DTBTRS, filtered)
    assert not np.isfinite(ours[0][1]).all() and np.isfinite(ours[0][2:]).all()
    for a, b in zip(ours, ref):
        assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def observed_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("observed")
    for surface in synthetic_bundle(seed=1, n_years=24, max_age=40):
        write_surface_csv(surface, out / f"{surface.population_id}.csv")
    return out


def forecast_tree(data, out, model):
    argv = ["forecast", "--data", str(data), "--out", str(out), "--model", model, "--h", "3"]
    assert main([*argv, "--kappa", "0.5"] if model in ("wmfpca", "coherent") else argv) == 0
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@needs_numpy_dtbtrs
@pytest.mark.parametrize("model", MODELS)
def test_forced_fallback_gives_the_same_specs_and_forecast_bytes(tmp_path, observed_dir, model,
                                                                 monkeypatch):
    series = [np.cumsum(arma_series([0.5], [0.4], 0.2, 40, seed=7)),
              arma_series([0.6], [0.3], 1.0, 40, seed=21)]
    modes = ["nonstationary", "stationary"]
    monkeypatch.setattr(tsmodels, "_dtbtrs", None)
    specs = fit_auto_many(series, modes)
    tree = forecast_tree(observed_dir, tmp_path / "numpy", model)
    assert tsmodels._dtbtrs.__qualname__.startswith("_openblas_dtbtrs.")

    monkeypatch.setattr(tsmodels, "_openblas_dtbtrs", lambda: None)
    monkeypatch.setattr(tsmodels, "_dtbtrs", None)
    fallback_specs = fit_auto_many(series, modes)
    assert tsmodels._dtbtrs.func is dtbtrs
    for a, b in zip(fallback_specs, specs):
        assert_same_spec(a, b)
    assert tree and forecast_tree(observed_dir, tmp_path / "scipy", model) == tree


def test_singular_cell_is_rejected_alone():
    # zero until its last two values, this series leaves the theta_2 column
    # of an MA(2) cell all zero, so its damped J'J is singular
    spike = np.zeros(40)
    spike[-2:] = (1.0, 2.0)
    cells = [(1, 0, 1, True), (0, 0, 2, False), (0, 0, 1, True)]
    w, real, free = _layout(arma_series([0.6], [0.4], 1.0, 40, seed=9), cells)
    w[1] = spike
    x = np.where(free, 0.1, 0.0)
    with np.errstate(invalid="ignore"):
        fitted, state = _levenberg_marquardt(w, x, free, real)
        np.testing.assert_array_equal(state, [_CONVERGED, _SINGULAR, _CONVERGED])
        for i in (0, 2):
            one = slice(i, i + 1)
            alone, _ = _levenberg_marquardt(w[one], x[one], free[one], real[one])
            np.testing.assert_array_equal(fitted[i], alone[0])
    with pytest.raises(OptimFailed, match="singular"):
        ref_levenberg_marquardt(spike, np.zeros(2), 0, 2, False, MAX_D, "cell (0,0,2)")


def scipy_damped_steps(jtj, grad, mu, free):
    """``_damped_steps`` with SciPy's ``dpotrf`` as the per-system test of its fallback."""
    slots = np.arange(N_SLOTS)
    scale = jtj[:, slots, slots]
    damped = jtj.copy()
    damped[:, slots, slots] = np.where(free, scale + mu[:, None] * scale, 1.0)
    try:
        np.linalg.cholesky(damped)
        ok = np.ones(mu.size, bool)
    except np.linalg.LinAlgError:
        ok = np.array([dpotrf(a)[1] == 0 for a in damped])
        damped[~ok] = np.eye(N_SLOTS)
        grad = np.where(ok[:, None], grad, 0.0)
    return np.linalg.solve(damped, -grad[:, :, None])[:, :, 0], ok


def normal_equations(seed, zero_column=None):
    """J'J and J'e of a random 12 x N_SLOTS Jacobian, one column zeroed if asked."""
    rng = np.random.default_rng(seed)
    jac, e = rng.normal(size=(12, N_SLOTS)), rng.normal(size=12)
    if zero_column is not None:
        jac[:, zero_column] = 0.0
    return jac.T @ jac, jac.T @ e


def edited(a, i, j, value):
    a = a.copy()
    a[i, j] = a[j, i] = value
    return a


@pytest.mark.parametrize("system", [
    normal_equations(0)[0],                            # positive definite
    normal_equations(1, zero_column=2)[0],             # singular: a zero free column
    np.diag([1.0, 2.0, -0.5, 3.0, 4.0]),               # indefinite
    edited(normal_equations(0)[0], 0, 0, -1.0),        # indefinite, dense
    edited(normal_equations(2)[0], 1, 3, np.nan),      # non-finite
    edited(normal_equations(2)[0], 1, 3, np.inf),
    edited(normal_equations(2)[0], 4, 4, np.inf),
    edited(normal_equations(2)[0], 2, 2, np.nan),
], ids=["definite", "zero-column", "indefinite", "indefinite-dense", "nan", "inf", "inf-diagonal",
        "nan-diagonal"])
def test_definiteness_test_agrees_with_scipy_dpotrf(system):
    assert system.shape == (N_SLOTS, N_SLOTS)
    assert _is_definite(system) == (dpotrf(system)[1] == 0)


def test_damped_steps_fallback_matches_the_scipy_dpotrf_fallback():
    # the middle system is singular; the last one does not estimate slot 1, whose
    # Jacobian column is zero as in a fit, and gets a unit diagonal there
    systems = [normal_equations(3), normal_equations(5, zero_column=3),
               normal_equations(4, zero_column=1)]
    jtj, grad = (np.array(part) for part in zip(*systems))
    mu = np.array([1e-3, 1e-2, 0.5])
    free = np.ones((3, N_SLOTS), bool)
    free[2, 1] = False
    step, ok = _damped_steps(jtj, grad, mu, free)
    ref_step, ref_ok = scipy_damped_steps(jtj, grad, mu, free)
    np.testing.assert_array_equal(ok, [True, False, True])
    np.testing.assert_array_equal(ok, ref_ok)
    assert step.tobytes() == ref_step.tobytes()


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
    cells = [cell for cell in _grid("nonstationary") if cell[2] > 0]
    (fits,) = _fit_cells_many([series], [cells], ["nonstationary"])
    cells, specs = zip(*[(c, f) for c, f in zip(cells, fits) if isinstance(f, ArimaSpec)])
    assert len(specs) >= 10
    w, real, free = _layout(series, cells)
    x = pack(specs)
    e, z = _css_batch(w, x, real)
    jac = _css_jacobian(z, x, e, free, real)[:, :, MAX_D:]
    e = e[:, MAX_D:]
    for i, cell in enumerate(cells):
        grad = np.linalg.norm(jac[:, i] @ e[i])
        assert grad <= 1e-5 * np.linalg.norm(jac[:, i]) * np.linalg.norm(e[i]), cell


@pytest.mark.parametrize("d, drift, seed, ar, ma", [
    (0, 0.0, 31, [0.5], [0.4]),
    (0, 1.5, 32, [0.3, 0.3], [0.5]),
    (1, 0.0, 33, [], [-0.5, 0.2]),
    (1, 0.3, 34, [0.6], [0.4]),
    (2, 0.0, 35, [0.5], [-0.3]),
    (2, 0.05, 36, [], [0.4, 0.3]),
])
def test_batched_search_matches_the_scalar_fitter(d, drift, seed, ar, ma):
    series = arma_series(ar, ma, drift, 50, seed=seed)
    for _ in range(d):
        series = np.cumsum(series)
    for mode in MODES:
        grid = _grid(mode)
        (batch,) = _fit_cells_many([series], [grid], [mode])
        reference = [ref_fit_cell(series, p, dd, q, dr, mode) for p, dd, q, dr in grid]
        assert [isinstance(b, ArimaSpec) for b in batch] == [r is not None for r in reference]
        for b, r in zip(batch, reference):
            if r is not None:
                assert abs(b.innovation_var - r.innovation_var) <= 1e-9 * r.innovation_var
        best = min((r for r in reference if r is not None), key=lambda r: r.bic)
        chosen = fit_auto(series, mode)
        assert (chosen.order, chosen.include_drift) == (best.order, best.include_drift)


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


def _tiny_then_huge():
    # every lag is tiny and the last value huge, so the AR regression overflows
    series = np.full(20, 1e-300)
    series[-1] = 1e100
    return series


def _overflowing_differences():
    # finite, but every difference of it overflows
    return np.where(np.arange(20) % 2, 1.0, -1.0) * 1e308


def _spike():
    # zero until its last two values, so an MA(2) cell's theta_2 column is all zero
    series = np.zeros(40)
    series[-2:] = (1.0, 2.0)
    return series


@pytest.mark.parametrize("series, order, mode, message", [
    (np.arange(10.0), (2, 0, 2), "nonstationary", "cell (2,0,2) needs more observations"),
    (_overflowing_differences(), (1, 1, 0), "nonstationary",
     "cell (1,1,0) has non-finite differences"),
    (_tiny_then_huge(), (1, 0, 0), "stationary", "non-finite parameters for cell (1,0,0)"),
    (1.5 ** np.arange(14.0), (1, 0, 0), "stationary",
     "cell (1,0,0) violates the AR stationarity margin"),
    (1.5 ** np.arange(14.0), (0, 0, 1), "nonstationary",
     "cell (0,0,1) violates the MA invertibility margin"),
    (np.full(20, 1e200), (0, 0, 0), "stationary", "non-finite residuals for cell (0,0,0)"),
    (_spike(), (0, 0, 2), "stationary", "cell (0,0,2) has a singular Jacobian"),
    (np.random.default_rng(0).normal(0.0, 1.0, 40), (2, 2, 2), "nonstationary",
     f"cell (2,2,2) did not converge in {MAX_ITER} iterations"),
], ids=["short", "differences", "parameters", "ar_margin", "ma_margin", "residuals", "singular",
        "unconverged"])
def test_each_rejection_names_its_cell(series, order, mode, message):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(OptimFailed) as rejected:
            fit_spec(series, order, mode=mode)
        # the search rejects the cell with the same message among all of its grid
        (batch,) = _fit_cells_many([series], [_grid(mode)], [mode])
    assert str(rejected.value) == message
    assert batch[_grid(mode).index((*order, False))] == message


@pytest.mark.parametrize("mode", MODES)
def test_search_of_an_overflowing_series_raises_optimfailed_quietly(mode, capfd):
    # no cell fits and the fallback's drift overflows; LAPACK never sees a non-finite
    # difference, so it prints no DLASCL complaint
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OptimFailed, match=f"no cell of the {mode} search fits"):
            fit_auto(_overflowing_differences(), mode)
    assert "DLASCL" not in capfd.readouterr().err


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
    mean, variance = forecast(spec, series, 8)
    steps = np.arange(1, 9)
    np.testing.assert_allclose(mean, series[-1] + steps * spec.drift, atol=1e-10)
    np.testing.assert_allclose(variance, steps * spec.innovation_var, rtol=1e-12)
    assert mean.size == variance.size == 8


def test_ar1_forecast_closed_form_and_reversion():
    series = ar1_series(0.8, 5.0, 0.5, 120, seed=42)
    spec = fit_spec(series, (1, 0, 0), include_drift=True, mode="stationary")
    h = 200
    mean, variance = forecast(spec, series, h)
    phi, c = spec.ar[0], spec.drift
    steps = np.arange(1, h + 1)
    np.testing.assert_allclose(
        mean, c + phi**steps * (series[-1] - c), atol=1e-10
    )
    np.testing.assert_allclose(
        variance,
        spec.innovation_var * np.cumsum(phi ** (2 * (steps - 1))),
        rtol=1e-10,
    )
    # long-run reversion to the unconditional mean
    assert abs(mean[-1] - unconditional_mean(spec)) < 1e-12
    assert abs(variance[-1] - spec.innovation_var / (1 - phi**2)) < 1e-10


def test_ma1_forecast_uses_last_residual_then_reverts():
    rng = np.random.default_rng(21)
    series = rng.normal(2.0, 1.0, 60)
    spec = fit_spec(series, (0, 0, 1), include_drift=True)
    mean, variance = forecast(spec, series, 4)
    z = series - spec.drift
    e = np.zeros(series.size)
    for t in range(2, series.size):
        e[t] = z[t] - spec.ma[0] * e[t - 1]
    assert np.isclose(mean[0], spec.drift + spec.ma[0] * e[-1], atol=1e-10)
    np.testing.assert_allclose(mean[1:], spec.drift, atol=1e-10)
    np.testing.assert_allclose(
        variance, spec.innovation_var * np.array([1, 1 + spec.ma[0] ** 2,
                                                  1 + spec.ma[0] ** 2,
                                                  1 + spec.ma[0] ** 2]),
        rtol=1e-10,
    )


def test_forecast_variance_is_nondecreasing():
    series = ar1_series(0.6, 0.0, 1.0, 60, seed=13)
    for spec in (fit_auto(series), fit_auto(series, mode="stationary")):
        mean, variance = forecast(spec, series, 30)
        assert np.all(np.diff(variance) >= -1e-12)
        assert np.all(np.isfinite(mean))


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
    mean, _ = forecast(spec, trend, 10)
    slope = (mean[-1] - mean[0]) / 9
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


def test_fit_auto_many_equals_fit_auto_per_series():
    walk = np.cumsum(arma_series([0.4], [0.5], 0.3, 40, seed=51))
    spike = np.zeros(40)  # no MA cell of the stationary search is accepted
    spike[-2:] = (1.0, 2.0)
    huge = walk * 1e154  # every cell's CSS overflows, so the search falls back
    series = [walk, arma_series([0.5], [-0.3], 2.0, 40, seed=52), walk, spike, huge,
              arma_series([], [0.6], 0.0, 40, seed=53)]
    modes = ["nonstationary", "stationary", "stationary", "stationary", "nonstationary",
             "nonstationary"]
    with np.errstate(over="ignore", invalid="ignore"):
        (spike_cells,) = _fit_cells_many([spike], [_grid("stationary")], ["stationary"])
        assert not any(isinstance(r, ArimaSpec) and r.q for r in spike_cells)
        alone = [fit_auto(s, m) for s, m in zip(series, modes)]
        together = fit_auto_many(series, modes)
    assert [spec.fallback for spec in alone] == [False, False, False, False, True, False]
    assert any(spec.q for spec in alone)
    for a, b in zip(together, alone):
        assert_same_spec(a, b)
    assert fit_auto_many([], []) == []


def test_fit_auto_many_validation():
    ok = np.arange(30, dtype=float)
    bad_inputs = [
        (np.arange(MIN_OBS - 1, dtype=float), SeriesTooShort),
        (np.array([np.inf] + [0.0] * 29), NonFiniteInput),
        (np.zeros((2, 15)), ValueError),
    ]
    for bad, error in bad_inputs:
        with pytest.raises(error) as solo:
            fit_auto(bad)
        with pytest.raises(error) as many:
            fit_auto_many([ok, bad], ["nonstationary", "stationary"])
        assert str(many.value) == str(solo.value)
    with pytest.raises(ValueError, match="same length"):
        fit_auto_many([ok, ok[1:]], ["nonstationary", "nonstationary"])
    with pytest.raises(ValueError, match="mode"):
        fit_auto_many([ok, ok], ["nonstationary", "levels"])
    with pytest.raises(ValueError, match="2 series but 1 modes"):
        fit_auto_many([ok, ok], ["nonstationary"])


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
    mean, _ = forecast(fb, series, 4)
    np.testing.assert_allclose(mean, [20.0, 21.0, 22.0, 23.0], atol=1e-12)

    fb = _fallback_spec(series, "stationary")
    assert fb.order == (0, 0, 0) and fb.include_drift and fb.fallback
    # mean over w[4:] once the conditioning and burn points are dropped
    assert fb.drift == np.mean(series[4:])
    # two parameters (level and variance) over the 16 residuals after w[4:]
    assert np.isclose(fb.bic, 2 * math.log(16) - 2.0 * fb.loglik, rtol=1e-12)
    assert np.isclose(fb.aic, 2.0 * 2 - 2.0 * fb.loglik, rtol=1e-12)


# ---------------------------------------------------------------------------
# scalar reference: the per-cell fitter the batched search replaced, one
# lfilter call per MA filter and one LAPACK dposv per damped step


def ref_css_residuals(w, ar, ma, c):
    z = w - c
    n = z.size
    rhs = z[N_COND:].copy()
    for i, phi in enumerate(ar, start=1):
        rhs -= phi * z[N_COND - i : n - i]
    if len(ma):
        rhs = lfilter([1.0], np.r_[1.0, ma], rhs)
    return rhs


def ref_css_jacobian(w, ar, ma, c, e, include_drift):
    z = w - c
    n = z.size
    m = n - N_COND
    cols = [-z[N_COND - i : n - i] for i in range(1, len(ar) + 1)]
    for j in range(1, len(ma) + 1):
        cols.append(np.concatenate((np.zeros(j), -e[: m - j])))
    if include_drift:
        cols.append(np.full(m, np.sum(ar) - 1.0))
    return lfilter([1.0], np.r_[1.0, ma], np.array(cols), axis=-1).T


def ref_roots_ok(tail):
    tail = np.trim_zeros(np.asarray(tail, float), "b")
    if tail.size == 0:
        return True
    return bool(np.all(np.abs(np.roots(np.r_[1.0, tail][::-1])) > ROOT_MARGIN))


def ref_levenberg_marquardt(w, x, p, q, include_drift, burn, cell):
    def residuals(x):
        c = x[p + q] if include_drift else 0.0
        e = ref_css_residuals(w, x[:p], x[p : p + q], c)
        r = e[burn:]
        return e, r, float(r @ r)

    def normal_equations(x, e, r):
        c = x[p + q] if include_drift else 0.0
        jac = ref_css_jacobian(w, x[:p], x[p : p + q], c, e, include_drift)[burn:]
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


def ref_fit_cell(series, p, d, q, include_drift, mode):
    """The scalar fit of one cell, or None where it rejects the cell."""
    w = np.diff(series, d)
    burn = MAX_D - d
    n_eff = w.size - N_COND - burn
    k = p + q + 1 + (1 if include_drift else 0)
    if n_eff < k + 2:
        return None
    lo = N_COND + burn
    cols = [w[lo - i : w.size - i] for i in range(1, p + 1)]
    if include_drift:
        cols.append(np.ones(n_eff))
    x = np.linalg.lstsq(np.column_stack(cols), w[lo:], rcond=None)[0] if cols else np.empty(0)
    if q:
        x = np.concatenate((x[:p], np.zeros(q), [np.mean(w)] if include_drift else []))
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                x = ref_levenberg_marquardt(w, x, p, q, include_drift, burn, "cell")
        except OptimFailed:
            return None
    ar, ma = x[:p], x[p : p + q]
    if not (np.all(np.isfinite(x)) and ref_roots_ok(-ar) and ref_roots_ok(ma)):
        return None
    c = float(x[p + q]) if include_drift else 0.0
    if include_drift and q == 0:
        c /= 1.0 - float(np.sum(ar))
    e = ref_css_residuals(w, ar, ma, c)[burn:]
    sigma2 = float(e @ e) / n_eff
    loglik = -0.5 * n_eff * (math.log(2 * math.pi) + math.log(sigma2) + 1.0)
    return ArimaSpec(p=p, d=d, q=q, include_drift=include_drift, ar=ar, ma=ma, drift=c,
                     innovation_var=sigma2, loglik=loglik, aic=2.0 * k - 2.0 * loglik,
                     bic=k * math.log(n_eff) - 2.0 * loglik, mode=mode)
