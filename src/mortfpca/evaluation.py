"""Rolling-origin forecast evaluation and decay-rate tuning.

The rolling design fixes a horizon h and a number of windows W.  Window w
trains on all years up to ``last_year - W - h + 1 + w`` and is scored on its
h-step-ahead forecast against the *observed* (unsmoothed) log rates of year
``last_year - W + 1 + w``, so the W forecast targets tile the final W
observed years.  Errors pool over windows and ages:

    RMSE_i = sqrt( sum_w sum_j err^2 / (W * J) )

Smoothing is done once up front; each year's curve is smoothed
independently of the others, so per-window smoothing would give identical
training inputs.  For the same reason ``tune_kappa`` smooths the bundle
once and scores every kappa on that one smoothed bundle.  Every kappa of a
window trains on the same years, so one ARIMA order search per window
(``forecasters._fit_models``) covers the whole grid; each kappa's specs,
forecasts and RMSE are the ones it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import ComponentRule
from .errors import InsufficientSpan, KappaOutOfRange
from .forecasters import MODELS, WEIGHTED_MODELS, _fit_models, predict_interval
from .hmd import SurfaceBundle, _distinct
from .smoothing import smooth_surface
from .tsmodels import MIN_OBS

#: default decay-rate candidates: 0.05, 0.10, ..., 0.95
DEFAULT_KAPPA_GRID = np.round(np.arange(0.05, 0.951, 0.05), 2)


@dataclass(eq=False)
class EvalReport:
    """Rolling RMSE of one (country, model, horizon) combination."""

    country: str
    model: str
    horizon: int
    windows: int
    kappa: float | None
    rmse: dict          # population_id -> RMSE
    avg_rmse: float


def smooth_bundle(surfaces):
    """Smooth each surface; returns the smoothed bundle and each surface's sigma array."""
    smoothed, sigmas = [], []
    for surface in surfaces:
        s, sigma = smooth_surface(surface)
        smoothed.append(s)
        sigmas.append(sigma)
    return SurfaceBundle(smoothed), sigmas


def _check_design(bundle, model: str, h: int, windows: int) -> None:
    """Reject a model name, horizon or window count the bundle cannot support."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
    if h < 1 or windows < 1:
        raise ValueError("h and windows must be positive")
    first_year, last_year = int(bundle.years[0]), int(bundle.years[-1])
    first_train_end = last_year - windows - h + 1
    if first_train_end - first_year + 1 < MIN_OBS:
        raise InsufficientSpan(
            f"{windows} windows at horizon {h} need data from {first_year} to "
            f"{first_year + MIN_OBS + windows + h - 2} at least; have up to {last_year}"
        )


def _rolling_report(bundle, smoothed, model, h, windows, kappas, rule, weight_power,
                    country="") -> list[EvalReport]:
    """One rolling-RMSE report per kappa: fitted on ``smoothed``, scored on ``bundle``.

    Each window fits every kappa in one ``_fit_models`` call; each kappa's
    squared errors add up over the windows in window order.
    """
    first_year, last_year = int(bundle.years[0]), int(bundle.years[-1])
    first_train_end = last_year - windows - h + 1
    n_ages = bundle.ages.size
    sq_errs = [{pid: 0.0 for pid in bundle.population_ids} for _ in kappas]
    for w in range(windows):
        train_end = first_train_end + w
        target_idx = train_end + h - first_year
        training = smoothed.subset_years(first_year, train_end)
        results = _fit_models(training, model, h, kappas, rule, weight_power)
        for result, sq_err in zip(results, sq_errs):
            surfaces = predict_interval(result, residuals=None, alpha=0.05)
            for surface, observed in zip(surfaces, bundle):
                err = surface.mean[h - 1] - observed.log_rates[target_idx]
                sq_err[surface.population_id] += float(err @ err)

    denom = windows * n_ages
    reports = []
    for kappa, sq_err in zip(kappas, sq_errs):
        rmse = {pid: float(np.sqrt(v / denom)) for pid, v in sq_err.items()}
        reports.append(EvalReport(
            country=country,
            model=model,
            horizon=h,
            windows=windows,
            kappa=kappa,
            rmse=rmse,
            avg_rmse=float(np.mean(list(rmse.values()))),
        ))
    return reports


def rolling_rmse(
    bundle,
    model: str,
    h: int,
    windows: int = 10,
    kappa: float | None = None,
    rule: ComponentRule | None = None,
    weight_power: float = 1.0,
    country: str = "",
) -> EvalReport:
    """Rolling-origin RMSE of one model against observed log rates.

    ``bundle`` holds the full observed surfaces.  Each window's model is
    fitted on smoothed training curves only; accuracy is measured on the
    raw observed curves of the target year.
    """
    _check_design(bundle, model, h, windows)
    smoothed, _ = smooth_bundle(bundle)
    return _rolling_report(bundle, smoothed, model, h, windows, [kappa], rule, weight_power,
                           country)[0]


def tune_kappa(
    bundle,
    model: str,
    h: int,
    grid=None,
    windows: int = 10,
    rule: ComponentRule | None = None,
    weight_power: float = 1.0,
) -> float:
    """Decay rate from ``grid`` minimizing the rolling average RMSE.

    Exhaustive search over the distinct values of ``grid``; ties resolve to
    the smallest kappa.  The bundle is smoothed once, and every kappa is
    scored on that smoothed bundle, one order search per window covering
    them all.  ``model`` must be one of ``WEIGHTED_MODELS``: the others
    ignore kappa.
    """
    if model not in WEIGHTED_MODELS:
        raise ValueError(f"only {WEIGHTED_MODELS} weight years by kappa, not {model!r}")
    grid = DEFAULT_KAPPA_GRID if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise KappaOutOfRange("empty kappa grid")
    if not np.all((grid > 0) & (grid < 1)):
        raise KappaOutOfRange("kappa candidates must lie in (0, 1)")
    _check_design(bundle, model, h, windows)
    smoothed, _ = smooth_bundle(bundle)
    kappas = [float(kappa) for kappa in _distinct(grid)]
    reports = _rolling_report(bundle, smoothed, model, h, windows, kappas, rule, weight_power)
    best_kappa, best_rmse = None, np.inf
    for kappa, report in zip(kappas, reports):
        if report.avg_rmse < best_rmse:
            best_kappa, best_rmse = kappa, report.avg_rmse
    return best_kappa
