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

:func:`fit_model` is the one path through that pipeline: it checks the
horizon, builds the year weights, builds the named variant's blocks and
runs one order search over all their score series.  Only the
``WEIGHTED_MODELS`` read ``kappa`` and ``weight_power``.  ``fit_independent``
and its siblings are one-line calls into it.  The result is a
:class:`ModelResult` whose :class:`Block` list spells out the variant's
shape: a population's forecast is the sum, over the blocks covering it, of
a mean curve plus score forecasts times loadings.

Prediction intervals combine three variance pieces per age: the variance of
the estimated weighted mean, the score forecast variances mapped through
squared eigenfunctions, and the smoothing residual scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np
from scipy.special import ndtri

from .components import ComponentRule
from .errors import AlphaOutOfRange, EmptyBundle
from .mfpca import fit_mfpca, _extract_curves
from .smoothing import ResidualField
from .tsmodels import fit_auto_many, forecast
from .ufpca import (
    FpcaFit,
    WeightScheme,
    fit_ufpca,
    geometric_weights,
    uniform_weights,
)

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
    forecasts: list = field(default_factory=list)  # ScoreForecast per score column

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


def _independent(ids, curves, weights, rule, power):
    return [Block(pid, [i], fit_ufpca(c, weights, rule, power), "nonstationary")
            for i, (pid, c) in enumerate(zip(ids, curves))]


def _wmfpca(ids, curves, weights, rule, power):
    return [Block("", list(range(len(ids))), fit_mfpca(curves, weights, rule, power),
                  "nonstationary")]


def _coherent(ids, curves, weights, rule, power):
    everyone = list(range(len(ids)))
    common_fit = fit_ufpca(np.mean(curves, axis=0), weights, rule, power)
    trend = common_fit.reconstruct()
    deviation_fit = fit_mfpca([c - trend for c in curves], weights, rule, power)
    return [Block("common", everyone, common_fit, "nonstationary"),
            Block("deviations", everyone, deviation_fit, "stationary")]


def _product_ratio(ids, curves, weights, rule, power):
    average = np.mean(curves, axis=0)
    product = fit_ufpca(average, weights, rule, power)
    ratios = [fit_ufpca(c - average, weights, rule, power) for c in curves]
    return [Block("product", list(range(len(ids))), product, "nonstationary")] + [
        Block(f"ratio_{pid}", [i], ratio, "stationary")
        for i, (pid, ratio) in enumerate(zip(ids, ratios))
    ]


#: the blocks of each model: (ids, curves, weights, rule, weight_power) -> list of Block
_BLOCKS = {"independent": _independent, "wmfpca": _wmfpca, "coherent": _coherent,
           "product_ratio": _product_ratio}
MODELS = tuple(_BLOCKS)
#: the models whose decompositions read ``kappa`` and ``weight_power``
WEIGHTED_MODELS = ("wmfpca", "coherent")


def fit_model(bundle, model: str, h: int = 20, kappa: float | None = None,
              rule: ComponentRule | None = None, weight_power: float = 1.0) -> ModelResult:
    """Fit one of the four model variants by name.

    Only the ``WEIGHTED_MODELS`` read ``kappa``, the geometric decay rate
    of the year weights (``None`` gives uniform weights), and
    ``weight_power``; the others weight years uniformly at power 1.0
    whatever is passed.  The order search then runs once for every score
    column of every block (``fit_auto_many``), and the forecasts follow in
    block and column order.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    curves = _extract_curves(bundle)
    if not curves:
        raise EmptyBundle("no populations to fit")
    n_years = curves[0].shape[0]
    if hasattr(bundle, "population_ids"):
        ids, years = list(bundle.population_ids), np.asarray(bundle.years)
    else:
        ids, years = [f"pop{i}" for i in range(len(curves))], np.arange(n_years)
    if model not in WEIGHTED_MODELS:
        kappa, weight_power = None, 1.0
    weights = geometric_weights(kappa, n_years) if kappa is not None else uniform_weights(n_years)
    blocks = _BLOCKS[model](ids, curves, weights, rule, weight_power)
    columns = [(series, block.mode) for block in blocks for series in block.fit.scores.T]
    specs = iter(fit_auto_many([series for series, _ in columns], [mode for _, mode in columns]))
    for block in blocks:
        block.forecasts = [forecast(next(specs), series, h) for series in block.fit.scores.T]
    return ModelResult(ids, years, h, weights, blocks)


def fit_independent(bundle, rule: ComponentRule | None = None, h: int = 20) -> ModelResult:
    """Unweighted per-population FPCA with nonstationary score models."""
    return fit_model(bundle, "independent", h, rule=rule)


def fit_wmfpca(bundle, kappa: float | None, rule: ComponentRule | None = None,
               h: int = 20, weight_power: float = 1.0) -> ModelResult:
    """Weighted multivariate FPCA with nonstationary shared score models.

    ``kappa`` is the geometric decay rate of the year weights; ``None``
    falls back to uniform weights.
    """
    return fit_model(bundle, "wmfpca", h, kappa, rule, weight_power)


def fit_coherent(bundle, kappa: float | None, rule: ComponentRule | None = None,
                 h: int = 20, weight_power: float = 1.0) -> ModelResult:
    """Average-trend FPCA plus stationary multivariate FPCA of deviations.

    The average curve's scores get nonstationary models; the deviation
    scores are constrained to stationary models, so any two populations'
    forecast gap converges as the horizon grows.
    """
    return fit_model(bundle, "coherent", h, kappa, rule, weight_power)


def fit_product_ratio(bundle, rule: ComponentRule | None = None, h: int = 20) -> ModelResult:
    """Unweighted decomposition into average log curve and log ratios.

    On the rate scale the average log curve is the log geometric-mean rate
    and each ratio is the population's log relative risk against it; their
    sum reproduces the population exactly.  Ratio scores use stationary
    models.
    """
    return fit_model(bundle, "product_ratio", h, rule=rule)


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
    z = ndtri(1.0 - alpha / 2.0)
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
