"""The four model variants and their prediction intervals."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

from mortfpca import forecasters
from mortfpca.errors import AlphaOutOfRange, EmptyBundle
from mortfpca.forecasters import (
    MODELS,
    WEIGHTED_MODELS,
    ForecastSurface,
    fit_model,
    in_sample_reconstruction,
    predict_interval,
)
from mortfpca.hmd import MortalitySurface, SurfaceBundle
from mortfpca.synthetic import synthetic_bundle
from mortfpca.tsmodels import fit_auto, forecast
from mortfpca.ufpca import FULL_RANK, ComponentRule, geometric_weights

RULE = ComponentRule(threshold=0.9)
Z_95 = 1.959963984540054


@pytest.fixture(scope="module")
def results(small_truth):
    """One fitted result per model on the noise-free bundle."""
    return {
        model: fit_model(small_truth, model, h=3, kappa=0.5, rule=RULE)
        for model in MODELS
    }


def test_fit_model_dispatch(results, small_truth):
    layouts = {
        "independent": [("female", [0], "nonstationary"), ("male", [1], "nonstationary")],
        "wmfpca": [("", [0, 1], "nonstationary")],
        "coherent": [("common", [0, 1], "nonstationary"),
                     ("deviations", [0, 1], "stationary")],
        "product_ratio": [("product", [0, 1], "nonstationary"),
                          ("ratio_female", [0], "stationary"),
                          ("ratio_male", [1], "stationary")],
    }
    for model, layout in layouts.items():
        blocks = results[model].blocks
        assert [(b.name, b.covers, b.mode) for b in blocks] == layout
    for result in results.values():
        assert result.population_ids == small_truth.population_ids
        assert result.horizon == 3
        assert np.array_equal(result.train_years, small_truth.years)
    # the independent and product-ratio baselines never weight years
    np.testing.assert_allclose(results["independent"].weights.weights, 1.0 / 18)
    np.testing.assert_allclose(results["product_ratio"].weights.weights, 1.0 / 18)
    np.testing.assert_allclose(
        results["wmfpca"].weights.weights, geometric_weights(0.5, 18).weights
    )


@pytest.mark.parametrize("model", MODELS)
def test_one_order_search_per_model_fit(model, small_truth, monkeypatch):
    searches = []
    fit_auto_many = forecasters.fit_auto_many

    def spy(series_list, modes):
        searches.append(list(modes))
        return fit_auto_many(series_list, modes)

    monkeypatch.setattr(forecasters, "fit_auto_many", spy)
    result = fit_model(small_truth, model, h=3, kappa=0.5, rule=RULE)
    # every score column of every block, in block then column order
    assert searches == [[b.mode for b in result.blocks for _ in range(b.fit.scores.shape[1])]]
    for block in result.blocks:
        n = block.fit.scores.shape[1]
        assert len(block.specs) == n
        assert block.mean.shape == block.variance.shape == (3, n)
        for l, (series, spec) in enumerate(zip(block.fit.scores.T, block.specs)):
            alone = fit_auto(series, block.mode)
            mean, variance = forecast(alone, series, 3)
            np.testing.assert_array_equal(block.mean[:, l], mean)
            np.testing.assert_array_equal(block.variance[:, l], variance)
            assert spec.order == alone.order


def assert_bitwise_equal(a, b, path="result"):
    """Equal dataclass field by field, down to the bytes of every float and array."""
    assert type(a) is type(b), path
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_bitwise_equal(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bitwise_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, (float, np.ndarray, np.generic)):
        x, y = np.asarray(a), np.asarray(b)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), path
    else:
        assert a == b, path


@pytest.mark.parametrize("model", ["independent", "product_ratio"])
def test_unweighted_models_ignore_kappa_and_weight_power(model, small_observed):
    assert model not in WEIGHTED_MODELS
    weighted = fit_model(small_observed, model, 3, kappa=0.3, rule=RULE, weight_power=0.5)
    assert_bitwise_equal(weighted, fit_model(small_observed, model, 3, rule=RULE))
    assert weighted.weights.kappa is None


def test_fit_model_validation(small_truth):
    with pytest.raises(ValueError):
        fit_model(small_truth, "lee_carter")
    with pytest.raises(ValueError):
        fit_model(small_truth, "wmfpca", h=0, kappa=0.5)
    with pytest.raises(EmptyBundle):
        fit_model([], "independent")


def test_kappa_none_means_uniform_weights(small_truth):
    result = fit_model(small_truth, "wmfpca", h=1, kappa=None, rule=RULE)
    np.testing.assert_allclose(result.weights.weights, 1.0 / 18)


@pytest.mark.parametrize("model", MODELS)
def test_interval_variance_assembly(results, model, small_truth):
    result = results[model]
    surfaces = predict_interval(result, residuals=None, alpha=0.05)
    assert len(surfaces) == small_truth.n_populations

    # residuals=None leaves exactly the score-forecast variance terms
    blocks = {b.name: b for b in result.blocks}
    if model == "independent":
        terms = [[(blocks[pid], blocks[pid].fit.loadings[0])]
                 for pid in ("female", "male")]
        bases = [blocks[pid].fit.means[0] for pid in ("female", "male")]
    elif model == "wmfpca":
        fit = blocks[""].fit
        terms = [[(blocks[""], fit.loadings[i])]
                 for i in range(2)]
        bases = [fit.means[i] for i in range(2)]
    elif model == "coherent":
        common, deviations = blocks["common"], blocks["deviations"]
        terms = [
            [
                (common, common.fit.loadings[0]),
                (deviations, deviations.fit.loadings[i]),
            ]
            for i in range(2)
        ]
        bases = [common.fit.means[0] + deviations.fit.means[i]
                 for i in range(2)]
    else:
        product = blocks["product"]
        ratios = [blocks["ratio_female"], blocks["ratio_male"]]
        terms = [
            [
                (product, product.fit.loadings[0]),
                (ratios[i], ratios[i].fit.loadings[0]),
            ]
            for i in range(2)
        ]
        bases = [product.fit.means[0] + ratios[i].fit.means[0]
                 for i in range(2)]

    for i, surface in enumerate(surfaces):
        mean = np.tile(bases[i], (3, 1))
        variance = np.zeros_like(mean)
        for block, ef in terms[i]:
            mean = mean + block.mean @ ef
            variance = variance + block.variance @ ef**2
        np.testing.assert_allclose(surface.mean, mean, atol=1e-10)
        np.testing.assert_allclose(surface.variance, variance, atol=1e-10)
        np.testing.assert_allclose(
            surface.lower, mean - Z_95 * np.sqrt(variance), atol=1e-10
        )
        np.testing.assert_allclose(
            surface.upper, mean + Z_95 * np.sqrt(variance), atol=1e-10
        )


def test_residual_fields_add_mean_and_observation_variance(results, small_truth):
    result = results["wmfpca"]
    n_ages = small_truth.ages.size
    sigma = np.full((18, n_ages), 0.2)
    bare = predict_interval(result, residuals=None)
    rich = predict_interval(result, [sigma, sigma])
    w = result.weights.weights
    extra = float(w @ w) * 0.2**2 + 0.2**2
    np.testing.assert_allclose(rich[0].variance - bare[0].variance, extra, rtol=1e-10)
    np.testing.assert_allclose(rich[0].mean, bare[0].mean, atol=1e-12)


def _negative_cell(sigma):
    sigma = sigma.copy()
    sigma[3, 2] = -0.1
    return sigma


@pytest.mark.parametrize("edit", [
    lambda sigma: sigma[1:],           # one training year short
    lambda sigma: sigma[:, :-1],       # one age short
    lambda sigma: sigma[0],            # one row, not years x ages
    _negative_cell,
], ids=["years_short", "ages_short", "one_row", "negative"])
def test_predict_interval_rejects_misshaped_or_negative_sigma(results, small_truth, edit):
    sigma = np.full((18, small_truth.ages.size), 0.2)
    with pytest.raises(ValueError, match="^male: sigma"):
        predict_interval(results["wmfpca"], [sigma, edit(sigma)])


def test_horizon_years_continue_training_years(results, small_truth):
    surfaces = predict_interval(results["independent"])
    expected = small_truth.years[-1] + 1 + np.arange(3)
    np.testing.assert_array_equal(surfaces[0].horizon_years, expected)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
def test_interval_half_width_is_the_normal_quantile(results, alpha):
    surface = predict_interval(results["independent"], alpha=alpha)[0]
    z = (surface.upper - surface.mean) / np.sqrt(surface.variance)
    np.testing.assert_allclose(z, norm.ppf(1.0 - alpha / 2.0), rtol=1e-12)


def test_ndtri_equals_scipy_bitwise_on_the_interval_quantiles():
    # every quantile 1 - alpha/2 for alpha = 0.0010, 0.0011, ..., 0.9990
    alphas = np.round(np.arange(10, 9991) * 1e-4, 4)
    quantiles = 1.0 - alphas / 2.0
    ours = np.array([forecasters._ndtri(float(q)) for q in quantiles])
    assert np.array_equal(ours, ndtri(quantiles))


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_ndtri_equals_scipy_bitwise_on_the_open_interval(y):
    assert forecasters._ndtri(y) == ndtri(y)


def test_ndtri_equals_scipy_at_the_ends_and_on_subnormals():
    for y in (0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, np.nextafter(1.0, 0.0)):
        assert forecasters._ndtri(y) == ndtri(y)
    assert forecasters._ndtri(0.0) == -np.inf and forecasters._ndtri(1.0) == np.inf


def test_alpha_controls_width(results):
    wide = predict_interval(results["independent"], alpha=0.05)[0]
    narrow = predict_interval(results["independent"], alpha=0.2)[0]
    assert np.all(narrow.upper - narrow.lower < wide.upper - wide.lower + 1e-15)
    assert np.all(wide.lower <= wide.mean) and np.all(wide.mean <= wide.upper)
    for alpha in (0.0, 1.0, -0.5):
        with pytest.raises(AlphaOutOfRange):
            predict_interval(results["independent"], alpha=alpha)


@pytest.mark.parametrize("model", MODELS)
def test_full_rank_in_sample_reconstruction(model, small_truth):
    # the noise-free curves have rank-3 structure, so full-rank fits are
    # small and reconstruction must return the training data
    result = fit_model(small_truth, model, h=1, kappa=0.5, rule=FULL_RANK)
    recons = in_sample_reconstruction(result)
    for surface, recon in zip(small_truth, recons):
        np.testing.assert_allclose(recon, surface.log_rates, atol=1e-8)


@pytest.mark.parametrize("model", MODELS)
def test_year_constant_surface_keeps_no_component(model):
    # 15 years of one curve centre to rounding noise (about 1e-15), not to
    # exact zeros; no model may keep a component of it or search its scores
    base = synthetic_bundle(seed=5, n_years=15, max_age=34)
    bundle = SurfaceBundle([
        MortalitySurface(s.population_id, s.years, s.ages, np.tile(s.log_rates[0], (15, 1)))
        for s in base
    ])
    result = fit_model(bundle, model, h=3, kappa=0.5, rule=RULE)
    assert [block.fit.n_components for block in result.blocks] == [0] * len(result.blocks)
    for surface, forecast_surface in zip(bundle, predict_interval(result)):
        np.testing.assert_allclose(
            forecast_surface.mean, np.tile(surface.log_rates[0], (3, 1)), atol=1e-12
        )


def test_coherent_identical_populations_forecast_no_gap(small_truth):
    curves = small_truth[0].log_rates
    result = fit_model([curves, curves.copy()], "coherent", h=30, kappa=0.4, rule=RULE)
    surfaces = predict_interval(result)
    gap = surfaces[0].mean - surfaces[1].mean
    assert np.max(np.abs(gap)) < 1e-6
    deviation_means = result.blocks[1].fit.means
    # identical populations share one deviation mean
    np.testing.assert_allclose(
        deviation_means[0], deviation_means[1], atol=1e-9
    )


def test_product_ratio_ratios_cancel_across_populations(small_truth):
    result = fit_model(small_truth, "product_ratio", h=1, rule=FULL_RANK)
    ratio_fits = [block.fit for block in result.blocks[1:]]
    np.testing.assert_allclose(
        ratio_fits[0].means[0] + ratio_fits[1].means[0], 0.0, atol=1e-12
    )


def test_forecast_surface_validation():
    years = np.array([2001, 2002])
    good = dict(
        population_id="pop",
        horizon_years=years,
        mean=np.zeros((2, 3)),
        variance=np.zeros((2, 3)),
        lower=np.zeros((2, 3)),
        upper=np.zeros((2, 3)),
    )
    ForecastSurface(**good)
    with pytest.raises(ValueError):
        ForecastSurface(**{**good, "variance": np.full((2, 3), -1.0)})
    with pytest.raises(ValueError):
        ForecastSurface(**{**good, "upper": np.zeros((2, 2))})
    with pytest.raises(ValueError):
        ForecastSurface(**{**good, "mean": np.zeros((3, 3))})
