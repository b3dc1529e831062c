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
once and scores every kappa on that one smoothed bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import ComponentRule
from .errors import InsufficientSpan, KappaOutOfRange
from .forecasters import MODELS, fit_model, predict_interval
from .hmd import SurfaceBundle
from .smoothing import SmoothConfig, smooth_surface
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


def smooth_bundle(surfaces, smooth_config: SmoothConfig | None = None):
    """Smooth each surface; returns the smoothed bundle and its residual fields."""
    smoothed, fields = [], []
    for surface in surfaces:
        s, f = smooth_surface(surface, smooth_config)
        smoothed.append(s)
        fields.append(f)
    return SurfaceBundle(smoothed), fields


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


def _rolling_report(bundle, smoothed, model, h, windows, kappa, rule, weight_power,
                    country="") -> EvalReport:
    """Rolling RMSE of ``model`` fitted on ``smoothed``, scored on ``bundle``."""
    first_year, last_year = int(bundle.years[0]), int(bundle.years[-1])
    first_train_end = last_year - windows - h + 1
    n_ages = bundle.ages.size
    sq_err = {pid: 0.0 for pid in bundle.population_ids}
    for w in range(windows):
        train_end = first_train_end + w
        target_year = train_end + h
        training = smoothed.subset_years(first_year, train_end)
        result = fit_model(training, model, h=h, kappa=kappa, rule=rule,
                           weight_power=weight_power)
        surfaces = predict_interval(result, residuals=None, alpha=0.05)
        target_idx = target_year - first_year
        for surface, observed in zip(surfaces, bundle):
            err = surface.mean[h - 1] - observed.log_rates[target_idx]
            sq_err[surface.population_id] += float(err @ err)

    denom = windows * n_ages
    rmse = {pid: float(np.sqrt(v / denom)) for pid, v in sq_err.items()}
    return EvalReport(
        country=country,
        model=model,
        horizon=h,
        windows=windows,
        kappa=kappa,
        rmse=rmse,
        avg_rmse=float(np.mean(list(rmse.values()))),
    )


def rolling_rmse(
    bundle,
    model: str,
    h: int,
    windows: int = 10,
    kappa: float | None = None,
    rule: ComponentRule | None = None,
    smooth_config: SmoothConfig | None = None,
    weight_power: float = 1.0,
    country: str = "",
) -> EvalReport:
    """Rolling-origin RMSE of one model against observed log rates.

    ``bundle`` holds the full observed surfaces.  Each window's model is
    fitted on smoothed training curves only; accuracy is measured on the
    raw observed curves of the target year.
    """
    _check_design(bundle, model, h, windows)
    smoothed, _ = smooth_bundle(bundle, smooth_config)
    return _rolling_report(bundle, smoothed, model, h, windows, kappa, rule, weight_power,
                           country)


def tune_kappa(
    bundle,
    model: str,
    h: int,
    grid=None,
    windows: int = 10,
    rule: ComponentRule | None = None,
    smooth_config: SmoothConfig | None = None,
    weight_power: float = 1.0,
) -> float:
    """Decay rate from ``grid`` minimizing the rolling average RMSE.

    Exhaustive search; ties resolve to the smallest kappa.  The bundle is
    smoothed once, and every kappa is scored on that smoothed bundle.
    """
    grid = DEFAULT_KAPPA_GRID if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise KappaOutOfRange("empty kappa grid")
    if np.any((grid <= 0) | (grid >= 1)):
        raise KappaOutOfRange("kappa candidates must lie in (0, 1)")
    _check_design(bundle, model, h, windows)
    smoothed, _ = smooth_bundle(bundle, smooth_config)
    best_kappa, best_rmse = None, np.inf
    for kappa in np.sort(grid):
        report = _rolling_report(bundle, smoothed, model, h, windows, float(kappa), rule,
                                 weight_power)
        if report.avg_rmse < best_rmse:
            best_kappa, best_rmse = float(kappa), report.avg_rmse
    return best_kappa
