"""Forecasting models for multi-population log-mortality surfaces.

Four variants share one pipeline shape: decompose smoothed annual curves
into principal components, model each score series with an automatically
chosen ARIMA, and recombine.

``independent``
    One unweighted FPCA per population, all scores nonstationary.  Fast
    baseline; population forecasts may diverge without bound.
``wmfpca``
    A single weighted multivariate FPCA across populations with shared
    scores, all nonstationary.
``coherent``
    A weighted FPCA of the cross-population average curve (nonstationary
    scores) plus a weighted multivariate FPCA of the deviations from its
    reconstruction (stationary scores).  Stationary deviations keep
    population gaps bounded at long horizons.
``product_ratio``
    Unweighted FPCA of the average log curve (nonstationary) and of each
    population's log ratio to it (stationary).  The classical coherent
    baseline.

Each variant returns a :class:`ModelResult` whose :class:`Block` list spells
out that shape: a population's forecast is the sum, over the blocks covering
it, of a mean curve plus score forecasts times loadings.

Prediction intervals combine three variance pieces per age: the variance of
the estimated weighted mean, the score forecast variances mapped through
squared eigenfunctions, and the smoothing residual scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np
from scipy.stats import norm

from .components import ComponentRule
from .errors import AlphaOutOfRange, EmptyBundle
from .mfpca import fit_mfpca, _extract_curves
from .smoothing import ResidualField
from .tsmodels import fit_auto, forecast
from .ufpca import (
    FpcaFit,
    WeightScheme,
    fit_ufpca,
    geometric_weights,
    uniform_weights,
)

MODELS = ("independent", "wmfpca", "coherent", "product_ratio")


@dataclass(eq=False)
class ForecastSurface:
    """Forecast means, variances and interval bounds for one population."""

    population_id: str
    horizon_years: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.horizon_years = np.asarray(self.horizon_years, dtype=int)
        for name in ("mean", "variance", "lower", "upper"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.shape[0] != self.horizon_years.size or arr.shape != self.mean.shape:
                raise ValueError(f"{name} shape {arr.shape} inconsistent")
        if np.any(self.variance < 0):
            raise ValueError("variance must be non-negative")


@dataclass(eq=False)
class Block:
    """One score-forecast x loading term of a model.

    ``covers`` lists the population indices the block adds to.  ``fit``
    holds either one slice, shared by every covered population, or one
    slice per covered population (a joint fit).  ``name`` is the block's
    ``mortfpca fit`` subdirectory.
    """

    name: str
    covers: list
    fit: FpcaFit
    mode: str
    forecasts: list  # ScoreForecast per score column

    def entry(self, i: int):
        """Mean curve and loading matrix this block adds to population ``i``."""
        k = 0 if len(self.fit.means) == 1 else self.covers.index(i)
        return self.fit.means[k], self.fit.loadings[k]


@dataclass(eq=False)
class ModelResult:
    """A fitted model: per population, the sum of the blocks covering it."""

    population_ids: list
    train_years: np.ndarray
    horizon: int
    weights: WeightScheme
    blocks: list


def _bundle_parts(bundle):
    curves = _extract_curves(bundle)
    if not curves:
        raise EmptyBundle("no populations to fit")
    if hasattr(bundle, "population_ids"):
        ids = list(bundle.population_ids)
        years = np.asarray(bundle.years)
    else:
        ids = [f"pop{i}" for i in range(len(curves))]
        years = np.arange(curves[0].shape[0])
    return curves, ids, years


def _check_horizon(h: int):
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")


def _block(name, covers, fit: FpcaFit, mode: str, h: int) -> Block:
    """A block that forecasts each score series of ``fit`` with an automatic ARIMA."""
    forecasts = []
    for series in fit.scores.T:
        spec = fit_auto(series, mode=mode)
        forecasts.append(forecast(spec, series, h))
    return Block(name, covers, fit, mode, forecasts)


def _year_weights(kappa: float | None, n_years: int) -> WeightScheme:
    return geometric_weights(kappa, n_years) if kappa is not None else uniform_weights(n_years)


def fit_independent(bundle, rule: ComponentRule | None = None, h: int = 20) -> ModelResult:
    """Unweighted per-population FPCA with nonstationary score models."""
    _check_horizon(h)
    curves, ids, years = _bundle_parts(bundle)
    weights = uniform_weights(curves[0].shape[0])
    blocks = [
        _block(pid, [i], fit_ufpca(c, weights, rule), "nonstationary", h)
        for i, (pid, c) in enumerate(zip(ids, curves))
    ]
    return ModelResult(ids, years, h, weights, blocks)


def fit_wmfpca(bundle, kappa: float | None, rule: ComponentRule | None = None,
               h: int = 20, weight_power: float = 1.0) -> ModelResult:
    """Weighted multivariate FPCA with nonstationary shared score models.

    ``kappa`` is the geometric decay rate of the year weights; ``None``
    falls back to uniform weights.
    """
    _check_horizon(h)
    curves, ids, years = _bundle_parts(bundle)
    weights = _year_weights(kappa, curves[0].shape[0])
    fit = fit_mfpca(curves, weights, rule, weight_power)
    block = _block("", list(range(len(ids))), fit, "nonstationary", h)
    return ModelResult(ids, years, h, weights, [block])


def fit_coherent(bundle, kappa: float | None, rule: ComponentRule | None = None,
                 h: int = 20, weight_power: float = 1.0) -> ModelResult:
    """Average-trend FPCA plus stationary multivariate FPCA of deviations.

    The average curve's scores get nonstationary models; the deviation
    scores are constrained to stationary models, so any two populations'
    forecast gap converges as the horizon grows.
    """
    _check_horizon(h)
    curves, ids, years = _bundle_parts(bundle)
    weights = _year_weights(kappa, curves[0].shape[0])
    everyone = list(range(len(ids)))

    common_fit = fit_ufpca(np.mean(curves, axis=0), weights, rule, weight_power)
    trend = common_fit.reconstruct()
    deviation_fit = fit_mfpca([c - trend for c in curves], weights, rule, weight_power)
    blocks = [
        _block("common", everyone, common_fit, "nonstationary", h),
        _block("deviations", everyone, deviation_fit, "stationary", h),
    ]
    return ModelResult(ids, years, h, weights, blocks)


def fit_product_ratio(bundle, rule: ComponentRule | None = None, h: int = 20) -> ModelResult:
    """Unweighted decomposition into average log curve and log ratios.

    On the rate scale the average log curve is the log geometric-mean rate
    and each ratio is the population's log relative risk against it; their
    sum reproduces the population exactly.  Ratio scores use stationary
    models.
    """
    _check_horizon(h)
    curves, ids, years = _bundle_parts(bundle)
    weights = uniform_weights(curves[0].shape[0])
    average_curve = np.mean(curves, axis=0)
    blocks = [_block("product", list(range(len(ids))),
                     fit_ufpca(average_curve, weights, rule), "nonstationary", h)]
    blocks += [
        _block(f"ratio_{pid}", [i], fit_ufpca(c - average_curve, weights, rule),
                    "stationary", h)
        for i, (pid, c) in enumerate(zip(ids, curves))
    ]
    return ModelResult(ids, years, h, weights, blocks)


def fit_model(bundle, model: str, h: int = 20, kappa: float | None = None,
              rule: ComponentRule | None = None, weight_power: float = 1.0) -> ModelResult:
    """Dispatch to one of the four model variants by name."""
    if model == "independent":
        return fit_independent(bundle, rule, h)
    if model == "wmfpca":
        return fit_wmfpca(bundle, kappa, rule, h, weight_power)
    if model == "coherent":
        return fit_coherent(bundle, kappa, rule, h, weight_power)
    if model == "product_ratio":
        return fit_product_ratio(bundle, rule, h)
    raise ValueError(f"unknown model {model!r}; choose from {MODELS}")


# ---------------------------------------------------------------------------
# assembly of forecast surfaces


def _stack(forecasts, h):
    """Score forecast means and variances as h x N matrices."""
    if not forecasts:
        return np.zeros((h, 0)), np.zeros((h, 0))
    mean = np.column_stack([sf.mean for sf in forecasts])
    var = np.column_stack([sf.variance for sf in forecasts])
    return mean, var


def _covering(result: ModelResult, i: int):
    """(block, mean, loadings) of every block adding to population ``i``, in block order."""
    return [(block, *block.entry(i)) for block in result.blocks if i in block.covers]


def mean_variance(weights: WeightScheme, residuals: ResidualField | None, n_ages: int) -> np.ndarray:
    """Variance of the weighted mean curve: sum_t w_t^2 sigma_t(x)^2."""
    if residuals is None:
        return np.zeros(n_ages)
    return (weights.weights**2) @ (residuals.sigma**2)


def predict_interval(result: ModelResult, residuals=None, alpha: float = 0.05):
    """Forecast surfaces with pointwise normal prediction intervals.

    Parameters
    ----------
    result : ModelResult
    residuals : list of ResidualField or None
        Smoothing residuals per population; ``None`` drops the mean and
        observational variance contributions.
    alpha : float
        Two-sided miss probability; 0.05 gives 95% intervals.
    """
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {alpha}")
    h = result.horizon
    z = norm.ppf(1.0 - alpha / 2.0)
    horizon_years = result.train_years[-1] + 1 + np.arange(h)

    surfaces = []
    for i, pid in enumerate(result.population_ids):
        pieces = _covering(result, i)
        # base means first, then the score terms, each in block order
        base = reduce(add, [mean for _, mean, _ in pieces])
        res_i = residuals[i] if residuals is not None else None
        mean = np.tile(base, (h, 1))
        variance = np.tile(mean_variance(result.weights, res_i, base.size), (h, 1))
        if res_i is not None:
            variance += res_i.sigma_avg**2
        for block, _, loadings in pieces:
            s_mean, s_var = _stack(block.forecasts, h)
            mean = mean + s_mean @ loadings
            variance = variance + s_var @ loadings**2
        half = z * np.sqrt(variance)
        surfaces.append(
            ForecastSurface(
                population_id=pid,
                horizon_years=horizon_years,
                mean=mean,
                variance=variance,
                lower=mean - half,
                upper=mean + half,
            )
        )
    return surfaces


def in_sample_reconstruction(result: ModelResult):
    """Training-period reconstructions per population (T x J matrices)."""
    return [
        reduce(add, [mean + block.fit.scores @ loadings
                     for block, mean, loadings in _covering(result, i)])
        for i in range(len(result.population_ids))
    ]
