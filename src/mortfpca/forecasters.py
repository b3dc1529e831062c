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
    baseline: on the rate scale the average is the geometric-mean rate and
    each ratio the population's relative risk against it.

:func:`fit_model` is the one path through that pipeline, a one-kappa call
of ``_fit_models``, in the two stages of Hyndman & Ullah (2007).  The first,
``_decompose``, builds the year weights and the named variant's blocks:
means, eigenfunctions and scores, all that ``mortfpca fit`` writes, so that
command runs this stage alone.  The second runs one order search over all
the blocks' score series (over every kappa's, when ``_fit_models`` gets a
grid) and forecasts them.  Only the ``WEIGHTED_MODELS`` read ``kappa`` and
``weight_power``.  The result is a :class:`ModelResult` whose
:class:`Block` list spells out the variant's shape: a population's forecast
is the sum, over the blocks covering it, of a mean curve plus score
forecasts times loadings.

Prediction intervals combine three variance pieces per age: the variance of
the estimated weighted mean, the score forecast variances mapped through
squared eigenfunctions, and the smoothing residual scale.  The first and
last read the smoothing residuals sigma, a years x ages array per
population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .errors import AlphaOutOfRange, EmptyBundle
from .mfpca import fit_mfpca, _extract_curves
from .tsmodels import fit_auto_many, forecast
from .ufpca import (
    ComponentRule,
    FpcaFit,
    WeightScheme,
    fit_ufpca,
    geometric_weights,
    uniform_weights,
)

# Cephes ndtri (S. Moshier), the inverse standard normal CDF scipy.special
# runs.  P0/Q0 cover exp(-2) < y < 1 - exp(-2); P1/Q1 and P2/Q2 cover the
# tails, x = sqrt(-2 log y) in [2, 8) and [8, 38.6].  Q* omit their leading
# coefficient 1.
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242E0


def _polevl(x, coef):
    """Horner's rule for coef[0] x^n + ... + coef[n], as Cephes polevl."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """Horner's rule with an implied leading coefficient 1, as Cephes p1evl."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Inverse of the standard normal CDF, operation for operation Cephes ndtri."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    y, upper = y0, False
    if y > 1.0 - _EXP_MINUS_2:
        y, upper = 1.0 - y, True
    if y > _EXP_MINUS_2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return x if upper else -x


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
    ``mortfpca fit`` subdirectory.  Once forecast, ``specs`` holds the ARIMA
    of each score column, and ``mean`` and ``variance`` their forecast paths
    as h x N matrices, one column per score.
    """

    name: str
    covers: list
    fit: FpcaFit
    mode: str
    specs: list = field(default_factory=list)
    mean: np.ndarray | None = None
    variance: np.ndarray | None = None

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
    whatever is passed.  The decomposition (``_decompose``) comes first;
    the order search then runs once for every score column of every block
    (``fit_auto_many``), and the forecasts follow in block and column
    order.
    """
    return _fit_models(bundle, model, h, [kappa], rule, weight_power)[0]


def _decompose(bundle, model: str, kappas, rule: ComponentRule | None, weight_power: float):
    """The population ids, the years, and per kappa of ``kappas`` its (weights, blocks).

    The first stage of every model, which ``mortfpca fit`` writes out: the
    year weights and the variant's blocks, with no order search and no
    forecast.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
    curves = _extract_curves(bundle)
    if not curves:
        raise EmptyBundle("no populations to fit")
    n_years = curves[0].shape[0]
    if hasattr(bundle, "population_ids"):
        ids, years = list(bundle.population_ids), np.asarray(bundle.years)
    else:
        ids, years = [f"pop{i}" for i in range(len(curves))], np.arange(n_years)
    if model not in WEIGHTED_MODELS:
        kappas, weight_power = [None] * len(kappas), 1.0
    fits = []
    for kappa in kappas:
        weights = (geometric_weights(kappa, n_years) if kappa is not None
                   else uniform_weights(n_years))
        fits.append((weights, _BLOCKS[model](ids, curves, weights, rule, weight_power)))
    return ids, years, fits


def _fit_models(bundle, model: str, h: int, kappas, rule: ComponentRule | None,
                weight_power: float) -> list[ModelResult]:
    """``fit_model`` at every kappa of ``kappas``, with one order search over them all.

    Every kappa's blocks are built first (``_decompose``); then one
    ``fit_auto_many`` call covers every score column in kappa, then block,
    then column order.  All kappas train on the same years, so their
    series share one length, and each spec equals the one ``fit_model``
    finds for that kappa alone.
    """
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    ids, years, fits = _decompose(bundle, model, kappas, rule, weight_power)
    columns = [(series, block.mode)
               for _, blocks in fits for block in blocks for series in block.fit.scores.T]
    specs = iter(fit_auto_many([series for series, _ in columns], [mode for _, mode in columns]))
    results = []
    for weights, blocks in fits:
        for block in blocks:
            block.specs = [next(specs) for _ in block.fit.scores.T]
            paths = [forecast(spec, series, h)
                     for spec, series in zip(block.specs, block.fit.scores.T)]
            block.mean, block.variance = np.zeros((h, 0)), np.zeros((h, 0))
            if paths:
                block.mean = np.column_stack([mean for mean, _ in paths])
                block.variance = np.column_stack([variance for _, variance in paths])
        results.append(ModelResult(ids, years, h, weights, blocks))
    return results


# ---------------------------------------------------------------------------
# assembly of forecast surfaces


def _covering(result: ModelResult, i: int):
    """(block, mean, loadings) of every block adding to population ``i``, in block order."""
    return [(block, *block.entry(i)) for block in result.blocks if i in block.covers]


def predict_interval(result: ModelResult, residuals=None, alpha: float = 0.05):
    """Forecast surfaces with pointwise normal prediction intervals.

    Parameters
    ----------
    result : ModelResult
    residuals : list of ndarray or None
        Per population, the absolute smoothing residuals sigma, one row per
        training year and one column per age.  Each adds the variance of
        the weighted mean curve, sum_t w_t^2 sigma_t(x)^2, and the
        observational variance, the mean of sigma(x)^2 over years.
        ``None`` drops both.
    alpha : float
        Two-sided miss probability; 0.05 gives 95% intervals.
    """
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {alpha}")
    h = result.horizon
    z = _ndtri(1.0 - alpha / 2.0)
    horizon_years = result.train_years[-1] + 1 + np.arange(h)

    surfaces = []
    for i, pid in enumerate(result.population_ids):
        pieces = _covering(result, i)
        # base means first, then the score terms, each in block order
        base = reduce(add, [mean for _, mean, _ in pieces])
        mean = np.tile(base, (h, 1))
        if residuals is None:
            variance = np.zeros((h, base.size))
        else:
            sigma = np.asarray(residuals[i], dtype=float)
            shape = (result.train_years.size, base.size)
            if sigma.shape != shape:
                raise ValueError(f"{pid}: sigma has shape {sigma.shape}, not "
                                 f"(train years, ages) = {shape}")
            if np.any(sigma < 0):
                raise ValueError(f"{pid}: sigma must be non-negative")
            variance = np.tile((result.weights.weights**2) @ sigma**2, (h, 1))
            # the observational variance: the square of sigma's root mean square over years
            variance += np.sqrt(np.mean(sigma**2, axis=0))**2
        for block, _, loadings in pieces:
            mean = mean + block.mean @ loadings
            variance = variance + block.variance @ loadings**2
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
