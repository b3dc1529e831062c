"""Automatic ARIMA fitting for principal component score series.

Small, fully deterministic grid search: orders p, q in {0, 1, 2} and, in
nonstationary mode, d in {0, 1, 2}.  Parameters minimize the conditional
sum of squares (CSS), which maximizes the Gaussian conditional likelihood.
A pure AR cell is linear in (phi, c (1 - sum phi)) and is solved exactly by
ordinary least squares.  The cells with an MA part are fitted together:
one Levenberg-Marquardt loop runs over all of them at once, with an
analytic Jacobian (Box & Jenkins, CSS estimation), and each cell keeps its
own damping and leaves the batch when it converges or fails.  Every cell
conditions on the first ``N_COND`` values of its differenced series and
additionally burns 2 - d leading residuals, so the likelihood sample size
is identical across the whole grid and information criteria are
comparable.  In the batch each d-differenced series is front-padded with d
zeros, so every cell has the same residual rows and leaves the same
``MAX_D`` leading ones out of its likelihood.  Model choice is by BIC,
k log(n_eff) - 2 loglik, with k = p + q + 1 plus one for a drift term; AIC
is recorded next to it.  BIC's penalty grows with the sample, so it
identifies the true order consistently (Hannan 1980), whereas AIC's fixed
penalty of 2 per parameter keeps a constant chance of choosing an overfit
cell (Shibata 1976).

An order search is one batch whose rows are every (series, cell) pair of
its series, which share one length: ``fit_auto_many`` searches every score
series of a model fit at once.  The rows are started, fitted (the MA rows
by Levenberg-Marquardt), checked against the root margins and scored by
one final CSS together.  No row's band solve reads another row, so every
cell converges, fails and is chosen as it would alone, and each series
gets the spec it would get searched by itself.  A model fit therefore runs
one order search, not one per series.

The MA filter 1 / theta(B) of a batch is one unit lower-triangular band
matrix of bandwidth ``MAX_ORDER``, block-diagonal over the cells, so the
residuals and the Jacobian columns of every cell are filtered by one LAPACK
``dtbtrs`` solve each, bound on the first solve.  numpy 2 wheels ship their
BLAS, scipy-openblas, with the whole LAPACK, so where numpy names that BLAS
and its ``dtbtrs`` resolves it is called through ctypes and the package
runs on numpy alone.  Otherwise, as with numpy 1.x wheels or a numpy built
against another BLAS, SciPy's ``dtbtrs`` is imported then; that solve is
the package's one use of SciPy.

``drift`` is the constant of the d-times differenced model: the process
mean when d = 0 and the linear trend slope when d = 1.  Drift is never
offered for d = 2.

Every cell must have AR roots (stationarity of the differenced model; unit
roots belong in d) and MA roots (invertibility, without which the
conditional likelihood degenerates) of modulus > 1.001; violating cells
are rejected, which in particular stops an over-differenced model from
undoing its differencing with a unit MA root.  A cell whose
Levenberg-Marquardt fit has not converged after ``MAX_ITER`` iterations is
rejected too, as is one whose damped normal equations are singular or
whose differences overflow.  Stationary mode further restricts the grid
to d = 0 so forecasts stay mean-reverting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

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

#: parameter slots of a padded cell: phi_1, phi_2, theta_1, theta_2, drift
N_SLOTS = 2 * MAX_ORDER + 1
_MA = slice(MAX_ORDER, 2 * MAX_ORDER)
_DRIFT = 2 * MAX_ORDER
_SLOTS = np.arange(N_SLOTS)
#: Levenberg-Marquardt state of a cell; one still running after MAX_ITER has not converged
_RUNNING, _CONVERGED, _SINGULAR = 0, 1, 2
#: LAPACK ``dtbtrs(ab, b) -> (x, info)`` for a unit lower band matrix, bound by the
#: first ``_band_solve``: numpy's own (``_openblas_dtbtrs``), else SciPy's
_dtbtrs = None


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
        return _n_params(self.p, self.q, self.include_drift)


def _n_params(p: int, q: int, include_drift: bool) -> int:
    """The k of an ARIMA(p, d, q) cell's AIC and BIC: p + q + 1, plus one for a drift term."""
    return p + q + 1 + int(include_drift)


def _openblas_dtbtrs():
    """numpy's own LAPACK ``dtbtrs`` through ctypes, or None where it does not resolve.

    Binds ``scipy_dtbtrs_64_`` of the ``libscipy_openblas64_*.so`` in the
    ``numpy.libs`` directory next to numpy when numpy names its BLAS
    scipy-openblas.  The returned ``solve(ab, b)`` takes the Fortran-ordered
    band storage ``ab`` (MAX_ORDER + 1, n) and right-hand sides ``b`` (n,
    nrhs), and solves in place into ``b`` as SciPy's ``dtbtrs(ab, b,
    uplo="L", diag="U", overwrite_b=True)`` does.
    """
    import ctypes
    import glob
    import os

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no config dicts
        return None
    libs = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                         "numpy.libs", "libscipy_openblas64_*.so")))
    if blas != "scipy-openblas" or not libs:
        return None
    try:
        routine = ctypes.CDLL(libs[0]).scipy_dtbtrs_64_
    except (OSError, AttributeError):
        return None
    integer, real = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    # UPLO, TRANS, DIAG, N, KD, NRHS, AB, LDAB, B, LDB, INFO, then the
    # Fortran hidden lengths of the three strings
    routine.argtypes = [ctypes.c_char_p] * 3 + [integer] * 3 + [real, integer] * 2 + [integer] \
        + [ctypes.c_size_t] * 3
    routine.restype = None
    flags = tuple(ctypes.c_char_p(flag) for flag in (b"L", b"N", b"U"))
    kd, ldab = ctypes.c_int64(MAX_ORDER), ctypes.c_int64(MAX_ORDER + 1)
    lengths = (ctypes.c_size_t(1),) * 3

    def solve(ab, b):
        ab = np.asfortranarray(ab, dtype=np.float64)
        b = np.asfortranarray(b, dtype=np.float64)
        n, nrhs = b.shape
        if ab.shape != (MAX_ORDER + 1, n):
            raise ValueError(f"band storage of shape {ab.shape} does not fit {n} rows")
        if b.size == 0:
            return b, 0
        rows, info = ctypes.c_int64(n), ctypes.c_int64()
        # a Fortran-ordered array's transpose is C-ordered, so ctypes can view
        # its buffer; that costs less than ``ndarray.ctypes``
        routine(*flags, rows, kd, ctypes.c_int64(nrhs), ctypes.c_double.from_buffer(ab.T), ldab,
                ctypes.c_double.from_buffer(b.T), rows, info, *lengths)
        return b, info.value

    return solve


def _band_solve(theta: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve theta(B) y = rhs along the last axis of ``rhs`` (k, cells, m), one theta row per cell.

    The solution overwrites a C-contiguous ``rhs``.  The first call binds
    ``_dtbtrs``: numpy's own LAPACK where ``_openblas_dtbtrs`` resolves it,
    else SciPy's, imported then.  Both give the same bits.
    """
    global _dtbtrs
    if _dtbtrs is None:
        _dtbtrs = _openblas_dtbtrs()
        if _dtbtrs is None:
            from functools import partial

            from scipy.linalg.lapack import dtbtrs

            _dtbtrs = partial(dtbtrs, uplo="L", diag="U", overwrite_b=True)
    k, cells, m = rhs.shape
    # LAPACK lower band storage, built transposed so that it is Fortran-ordered;
    # column 0, the unit diagonal, is not read
    band = np.zeros((cells, m, MAX_ORDER + 1))
    for j in range(1, MAX_ORDER + 1):
        # the last j rows of a cell stay zero, so no cell reaches into the next
        band[:, : m - j, j] = theta[:, j - 1, None]
    y, _ = _dtbtrs(band.reshape(-1, MAX_ORDER + 1).T, rhs.reshape(k, -1).T)
    return y.T.reshape(k, cells, m)


def _ma_filter(theta: np.ndarray, rhs_of) -> np.ndarray:
    """Apply 1 / theta(B) to the rows (k, cells, m) of every cell in one banded solve.

    ``rhs_of(cells)`` builds the right-hand sides of a slice of cells, and
    the solve overwrites them.  Forward substitution carries a non-finite
    value on as 0 * inf = nan across the zero coupling between cells, so
    the cells after the first non-finite one are built and solved again
    together, and so on from the next non-finite one: one more solve per
    non-finite cell.
    """
    y = _band_solve(theta, rhs_of(slice(None)))
    start = 0
    while not np.isfinite(y[:, start:]).all():
        # the first non-finite cell's own rows are right; the rows after it are not
        start += int(np.argmin(np.isfinite(y[:, start:]).all(axis=(0, 2)))) + 1
        if start == len(theta):
            break
        y[:, start:] = _band_solve(theta[start:], rhs_of(slice(start, None)))
    return y


def _css_batch(w: np.ndarray, x: np.ndarray, real: np.ndarray):
    """Conditional residuals e_t, t >= N_COND, of every cell, and z = w - drift.

    ``w`` holds one front-padded differenced series per row, ``x`` the
    padded parameters of each cell and ``real`` its residual rows that are
    not padding.  Padding rows get zero residuals, and zeros are assumed
    before the first row.
    """
    z = w - x[:, _DRIFT, None]
    n = w.shape[1]

    def rhs_of(cells):
        rhs = z[cells, N_COND:].copy()
        for i in range(1, MAX_ORDER + 1):
            rhs -= x[cells, i - 1, None] * z[cells, N_COND - i : n - i]
        np.copyto(rhs, 0.0, where=~real[cells])
        return rhs[None]

    return _ma_filter(x[:, _MA], rhs_of)[0], z


def _css_residuals(w: np.ndarray, ar, ma, c: float) -> np.ndarray:
    """Conditional residuals e_t for t >= N_COND of one series, zeros assumed before that."""
    x = np.zeros((1, N_SLOTS))
    x[0, : len(ar)] = ar
    x[0, MAX_ORDER : MAX_ORDER + len(ma)] = ma
    x[0, _DRIFT] = c
    return _css_batch(w[None], x, np.ones((1, w.size - N_COND), bool))[0][0]


def _css_jacobian(z: np.ndarray, x: np.ndarray, e: np.ndarray, free: np.ndarray,
                  real: np.ndarray) -> np.ndarray:
    """Derivatives of ``_css_batch``'s residuals by each parameter slot: (N_SLOTS, cells, m).

    e_t = theta(B)^-1 phi(B) (w_t - c), so each column is a plain derivative
    of phi(B) (w_t - c) or of the MA recursion, filtered once by
    1 / theta(B): -z_{t-i} for phi_i, -e_{t-j} for theta_j (zero before the
    first residual) and -(1 - sum phi) for the drift.  The slots a cell does
    not estimate (``free`` false) and its padding rows get zeros.
    """
    m = e.shape[1]
    n = z.shape[1]

    def rhs_of(cells):
        ze = z[cells]
        cols = np.zeros((N_SLOTS, len(ze), m))
        for i in range(1, MAX_ORDER + 1):
            cols[i - 1] = -ze[:, N_COND - i : n - i]
            cols[MAX_ORDER + i - 1, :, i:] = -e[cells, : m - i]
        cols[_DRIFT] = x[cells, :MAX_ORDER].sum(axis=1)[:, None] - 1.0
        np.copyto(cols, 0.0, where=~(free[cells].T[:, :, None] & real[cells]))
        return cols

    return _ma_filter(x[:, _MA], rhs_of)


def _sum_squares(e: np.ndarray) -> np.ndarray:
    """SSE of every cell over its likelihood rows, all but the first MAX_D."""
    return np.einsum("ij,ij->i", e[:, MAX_D:], e[:, MAX_D:])


def _normal_equations(z, x, e, free, real):
    """J'J and J'e of every cell over its likelihood rows."""
    jac = _css_jacobian(z, x, e, free, real)[:, :, MAX_D:]
    return np.einsum("aim,bim->iab", jac, jac), np.einsum("aim,im->ia", jac, e[:, MAX_D:])


def _is_definite(a: np.ndarray) -> bool:
    """Whether the Cholesky factorization of the symmetric ``a`` succeeds."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _damped_steps(jtj: np.ndarray, grad: np.ndarray, mu: np.ndarray, free: np.ndarray):
    """Solve (J'J + mu diag(J'J)) s = -J'e of every cell; returns s and where the system is definite.

    A system is singular where its Cholesky factorization (LAPACK
    ``dpotrf``, through ``np.linalg.cholesky``) fails; its step is zero.  Slots a cell does not estimate get
    a unit diagonal and a zero step.
    """
    scale = jtj[:, _SLOTS, _SLOTS]
    damped = jtj.copy()
    damped[:, _SLOTS, _SLOTS] = np.where(free, scale + mu[:, None] * scale, 1.0)
    try:
        np.linalg.cholesky(damped)
        ok = np.ones(mu.size, bool)
    except np.linalg.LinAlgError:
        ok = np.array([_is_definite(a) for a in damped])
        # a singular system becomes I s = 0
        damped[~ok] = np.eye(N_SLOTS)
        grad = np.where(ok[:, None], grad, 0.0)
    return np.linalg.solve(damped, -grad[:, :, None])[:, :, 0], ok


def _levenberg_marquardt(w, x, free, real):
    """Minimize the CSS of every cell from ``x``; returns the parameters and a state per cell.

    Damping is Marquardt-scaled, mu * diag(J'J), and each cell's mu follows
    Nielsen's gain-ratio rule (Madsen, Nielsen & Tingleff 2004, sec. 3.2).
    A cell has converged once a step changes its SSE by at most ``SSE_RTOL``
    of itself; a step that raises the SSE is never taken.  A cell leaves the
    batch once it has converged or its damped J'J is singular; one still in
    it after ``MAX_ITER`` iterations is left ``_RUNNING``.
    """
    x, x_out, state = x.copy(), x.copy(), np.full(len(x), _RUNNING)
    e, z = _css_batch(w, x, real)
    sse = _sum_squares(e)
    jtj, grad = _normal_equations(z, x, e, free, real)
    del e, z  # the loop keeps only its trial residuals
    mu, nu = np.full(len(x), 1e-3), np.full(len(x), 2.0)
    cells = np.arange(len(x))
    for _ in range(MAX_ITER):
        stop = (sse == 0.0) | ~grad.any(axis=1)
        step, ok = _damped_steps(jtj, grad, mu, free)
        ok &= ~stop
        trial = x + step
        e_new, z_new = _css_batch(w, trial, real)
        sse_new = _sum_squares(e_new)
        settled = ok & (np.abs(sse - sse_new) <= SSE_RTOL * sse)
        # predicted SSE reduction of the damped Gauss-Newton model
        scale = np.diagonal(jtj, axis1=1, axis2=2)
        gain = (sse - sse_new) / np.einsum("ij,ij->i", step, mu[:, None] * scale * step - grad)
        accept = ok & ~settled & np.isfinite(sse_new) & (gain > 0)
        reject = ok & ~settled & ~accept
        take = accept | (settled & (sse_new < sse))
        x[take], sse[take] = trial[take], sse_new[take]
        if accept.any():
            jtj[accept], grad[accept] = _normal_equations(
                z_new[accept], trial[accept], e_new[accept], free[accept], real[accept])
        mu = np.where(accept, mu * np.maximum(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3),
                      np.where(reject, mu * nu, mu))
        nu = np.where(accept, 2.0, np.where(reject, 2.0 * nu, nu))

        leave = ~ok | settled
        if leave.any():
            state[cells[stop | settled]] = _CONVERGED
            state[cells[~ok & ~stop]] = _SINGULAR
            x_out[cells[leave]] = x[leave]
            stay = ~leave
            cells, x, w, real, free, sse, jtj, grad, mu, nu = (
                a[stay] for a in (cells, x, w, real, free, sse, jtj, grad, mu, nu))
            if not cells.size:
                break
    x_out[cells] = x
    return x_out, state


def _roots_ok(tail):
    """True where every root of 1 + t_1 z + t_2 z^2 has modulus > ROOT_MARGIN.

    ``tail`` holds up to ``MAX_ORDER`` coefficients along its last axis.
    The reciprocals u of the roots solve u^2 + t_1 u + t_2 = 0, so the test
    is whether both lie inside the disc of radius 1 / ROOT_MARGIN: a complex
    pair has modulus sqrt(t_2), and real roots reach
    (|t_1| + sqrt(t_1^2 - 4 t_2)) / 2.  Zero coefficients lower the degree.
    """
    tail = np.asarray(tail, float)
    pad = [(0, 0)] * (tail.ndim - 1) + [(0, MAX_ORDER - tail.shape[-1])]
    t1, t2 = np.moveaxis(np.pad(tail, pad), -1, 0)
    disc = t1 * t1 - 4.0 * t2
    reach = np.where(disc < 0.0, np.sqrt(np.abs(t2)), 0.5 * (np.abs(t1) + np.sqrt(np.abs(disc))))
    return reach * ROOT_MARGIN < 1.0


def _grid(mode: str) -> list[tuple[int, int, int, bool]]:
    """The (p, d, q, include_drift) cells of the order search, in search order."""
    return [
        (p, d, q, include_drift)
        for d in (range(MAX_D + 1) if mode == "nonstationary" else (0,))
        for p in range(MAX_ORDER + 1)
        for q in range(MAX_ORDER + 1)
        for include_drift in ((False, True) if d <= 1 else (False,))
    ]


def _ar_regression(w: np.ndarray, p: int, d: int, include_drift: bool) -> np.ndarray:
    """Least-squares (phi, c (1 - sum phi)) of the AR(p) cell on the d-differenced ``w``."""
    lo = N_COND + MAX_D - d
    cols = [w[lo - i : w.size - i] for i in range(1, p + 1)]
    if include_drift:
        cols.append(np.ones(w.size - lo))
    return np.linalg.lstsq(np.column_stack(cols), w[lo:], rcond=None)[0] if cols else np.empty(0)


def _layout(series: np.ndarray, cells):
    """Batch arrays of the (p, d, q, include_drift) ``cells`` on ``series``.

    Returns each cell's d-differenced series front-padded with d zeros
    (cells, n), its residual rows that are not padding (cells, n - N_COND)
    and the parameter slots it estimates (cells, N_SLOTS).
    """
    n = series.size
    d = np.array([cell[1] for cell in cells])
    padded = np.zeros((MAX_D + 1, n))
    for k in range(MAX_D + 1):
        padded[k, k:] = np.diff(series, k)
    free = np.zeros((len(cells), N_SLOTS), bool)
    for i, (p, _, q, drift) in enumerate(cells):
        free[i, :p] = free[i, MAX_ORDER : MAX_ORDER + q] = True
        free[i, _DRIFT] = drift
    return padded[d], np.arange(n - N_COND) >= d[:, None], free


def _spec(cell, ar, ma, drift: float, sse: float, n_obs: int, mode: str,
          fallback: bool = False) -> ArimaSpec:
    """The ArimaSpec of ``cell`` fitted to ``n_obs`` values with residual sum of squares ``sse``.

    The one place the likelihood sample size, innovation variance, Gaussian
    log-likelihood, AIC and BIC of a fitted cell are computed.
    """
    p, d, q, include_drift = cell
    n_eff = n_obs - N_COND - MAX_D
    k = _n_params(p, q, include_drift)
    sigma2 = max(sse / n_eff, 1e-300)
    loglik = -0.5 * n_eff * (math.log(2 * math.pi) + math.log(sigma2) + 1.0)
    return ArimaSpec(p, d, q, include_drift, ar, ma, drift, innovation_var=sigma2,
                     loglik=loglik, aic=2.0 * k - 2.0 * loglik,
                     bic=k * math.log(n_eff) - 2.0 * loglik, mode=mode, fallback=fallback)


# a row whose values overflow is rejected by its finiteness checks, not by a warning
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _fit_cells_many(series_list, cell_lists, modes) -> list:
    """CSS fits of each series' (p, d, q, include_drift) cells; the series share one length.

    Returns, per series and per cell, its ArimaSpec or the message of why
    it was rejected.  Every (series, cell) pair is one row of a single
    batch, each series' cells in turn.  A pure AR cell starts at, and is,
    its least-squares regression.  A cell with an MA part starts from the
    regression of its AR part with theta = 0 and the drift at the sample
    mean, and the MA rows go on together by Levenberg-Marquardt.  The root
    margins and the final CSS are then taken over the whole batch.
    """
    if not series_list:
        return []
    rows = [(s, cell) for s, cells in enumerate(cell_lists) for cell in cells]
    w, real, free = (np.concatenate(parts) for parts in
                     zip(*(_layout(series, cells) for series, cells in zip(series_list, cell_lists))))
    n_obs = series_list[0].size
    names = [f"cell ({p},{d},{q})" for _, (p, d, q, _) in rows]
    # each row's rejection message, until the live rows get their ArimaSpec
    results = [f"{name} needs more observations"
               if n_obs - N_COND - MAX_D < _n_params(p, q, drift) + 2
               else None if differenced else f"{name} has non-finite differences"
               for name, (_, (p, _, q, drift)), differenced
               in zip(names, rows, np.isfinite(w).all(axis=1))]

    x = np.zeros((len(rows), N_SLOTS))
    regressions = {}
    for i, (s, (p, d, q, drift)) in enumerate(rows):
        if results[i] is None:
            if (s, p, d, drift) not in regressions:
                regressions[s, p, d, drift] = _ar_regression(w[i, d:], p, d, drift)
            b = regressions[s, p, d, drift]
            x[i, :p] = b[:p]
            if drift:
                # an AR cell keeps the intercept c (1 - sum phi) until its margin holds
                x[i, _DRIFT] = np.mean(w[i, d:]) if q else b[p]

    ma = np.array([r is None and cell[2] > 0 for r, (_, cell) in zip(results, rows)], bool)
    if ma.any():
        x[ma], state = _levenberg_marquardt(w[ma], x[ma], free[ma], real[ma])
        for i, outcome in zip(np.flatnonzero(ma), state):
            if outcome == _SINGULAR:
                results[i] = f"{names[i]} has a singular Jacobian"
            elif outcome == _RUNNING:
                results[i] = f"{names[i]} did not converge in {MAX_ITER} iterations"

    finite = np.isfinite(x).all(axis=1)
    ar_ok = _roots_ok(-x[:, :MAX_ORDER])
    ma_ok = _roots_ok(x[:, _MA])
    for i, (_, (_, _, q, drift)) in enumerate(rows):
        if results[i] is not None:
            continue
        if not finite[i]:
            results[i] = f"non-finite parameters for {names[i]}"
        elif not ar_ok[i]:
            results[i] = f"{names[i]} violates the AR stationarity margin"
        elif not ma_ok[i]:
            results[i] = f"{names[i]} violates the MA invertibility margin"
        elif drift and q == 0:
            # the margin excludes a unit root
            x[i, _DRIFT] /= 1.0 - x[i, :MAX_ORDER].sum()

    live = np.flatnonzero([r is None for r in results])
    if live.size:
        e = _css_batch(w[live], x[live], real[live])[0][:, MAX_D:]
    for j, i in enumerate(live):
        s, cell = rows[i]
        p, _, q, drift = cell
        sse = float(e[j] @ e[j])
        if not math.isfinite(sse):
            results[i] = f"non-finite residuals for {names[i]}"
            continue
        results[i] = _spec(cell, x[i, :p].copy(), x[i, MAX_ORDER : MAX_ORDER + q].copy(),
                           float(x[i, _DRIFT]) if drift else 0.0, sse, n_obs, modes[s])
    per_series = iter(results)
    return [list(itertools.islice(per_series, len(cells))) for cells in cell_lists]


def _validate_series(series) -> np.ndarray:
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError("series must be 1-d")
    if not np.all(np.isfinite(series)):
        raise NonFiniteInput("series contains non-finite values")
    return series


def _check_search(series_list, modes) -> tuple[list[np.ndarray], list[str]]:
    """The validated series and modes of an order search; the series must share one length."""
    series_list = [_validate_series(series) for series in series_list]
    modes = list(modes)
    if len(modes) != len(series_list):
        raise ValueError(f"got {len(series_list)} series but {len(modes)} modes")
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
    for series in series_list:
        if series.size < MIN_OBS:
            raise SeriesTooShort(f"need at least {MIN_OBS} observations, got {series.size}")
    if len({series.size for series in series_list}) > 1:
        raise ValueError("series must all have the same length")
    return series_list, modes


def fit_spec(
    series,
    order,
    include_drift: bool = False,
    mode: str = "nonstationary",
) -> ArimaSpec:
    """Fit a single cell of the ``mode`` order search; raises OptimFailed when unusable."""
    series_list, modes = _check_search([series], [mode])
    cell = (*order, bool(include_drift))
    if cell not in _grid(mode):
        raise ValueError(f"order {tuple(order)} with include_drift={include_drift} "
                         f"is not a cell of the {mode} search grid")
    ((spec,),) = _fit_cells_many(series_list, [[cell]], modes)
    if isinstance(spec, str):
        raise OptimFailed(spec)
    return spec


def _fallback_spec(series: np.ndarray, mode: str) -> ArimaSpec:
    """Random walk with drift (nonstationary) or mean-level white noise.

    Raises OptimFailed where its drift overflows.
    """
    d = 1 if mode == "nonstationary" else 0
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.diff(series, d)[N_COND + MAX_D - d :]
        c = float(np.mean(w))
        e = w - c
        sse = float(e @ e)
    if not math.isfinite(c):
        raise OptimFailed(f"no cell of the {mode} search fits, and its fallback drift overflows")
    return _spec((0, d, 0, True), np.empty(0), np.empty(0), c, sse, series.size, mode,
                 fallback=True)


def fit_auto(series, mode: str = "nonstationary") -> ArimaSpec:
    """``fit_auto_many`` of one series."""
    (spec,) = fit_auto_many([series], [mode])
    return spec


def fit_auto_many(series_list, modes) -> list[ArimaSpec]:
    """Minimum-BIC ARIMA over the order grid of every series and its mode, in one order search.

    Nonstationary mode searches d in {0, 1, 2} with drift offered for
    d <= 1; stationary mode fixes d = 0.  Every series is validated before
    any is fitted, and all must have the same length.  Every cell of every
    series is one row of one batch (``_fit_cells_many``), and each row is
    fitted, checked and scored as it would be alone.  Cells whose fit does
    not converge or whose roots land on or inside the margin are skipped,
    and the first cell in grid order wins a BIC tie; a series whose every
    cell fails gets the fallback model, with ``fallback=True``; the search
    raises OptimFailed where that model's drift overflows.
    """
    series_list, modes = _check_search(series_list, modes)
    specs = []
    fits = _fit_cells_many(series_list, [_grid(mode) for mode in modes], modes)
    for series, mode, cells in zip(series_list, modes, fits):
        best = None
        for spec in cells:
            if isinstance(spec, ArimaSpec) and (best is None or spec.bic < best.bic):
                best = spec
        specs.append(_fallback_spec(series, mode) if best is None else best)
    return specs


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


def forecast(spec: ArimaSpec, series, h: int) -> tuple[np.ndarray, np.ndarray]:
    """The (mean, variance) paths h steps ahead from the end of ``series``."""
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
    return mean, spec.innovation_var * np.cumsum(psi**2)


def unconditional_mean(spec: ArimaSpec) -> float:
    """Long-run forecast level of a d = 0 model: drift if present, else 0."""
    if spec.d != 0:
        raise ValueError("unconditional mean is only defined for d = 0 models")
    return spec.drift if spec.include_drift else 0.0
