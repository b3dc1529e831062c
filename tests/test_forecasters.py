"""The four model variants and their prediction intervals."""

import numpy as np
import pytest

from mortfpca.components import FULL_RANK, ComponentRule
from mortfpca.errors import AlphaOutOfRange, EmptyBundle
from mortfpca.forecasters import (
    MODELS,
    ForecastSurface,
    fit_coherent,
    fit_model,
    fit_product_ratio,
    in_sample_reconstruction,
    predict_interval,
)
from mortfpca.smoothing import ResidualField
from mortfpca.ufpca import geometric_weights

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
        terms = [[(blocks[pid].forecasts, blocks[pid].fit.loadings[0])]
                 for pid in ("female", "male")]
        bases = [blocks[pid].fit.means[0] for pid in ("female", "male")]
    elif model == "wmfpca":
        fit = blocks[""].fit
        terms = [[(blocks[""].forecasts, fit.loadings[i])]
                 for i in range(2)]
        bases = [fit.means[i] for i in range(2)]
    elif model == "coherent":
        common, deviations = blocks["common"], blocks["deviations"]
        terms = [
            [
                (common.forecasts, common.fit.loadings[0]),
                (deviations.forecasts, deviations.fit.loadings[i]),
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
                (product.forecasts, product.fit.loadings[0]),
                (ratios[i].forecasts, ratios[i].fit.loadings[0]),
            ]
            for i in range(2)
        ]
        bases = [product.fit.means[0] + ratios[i].fit.means[0]
                 for i in range(2)]

    for i, surface in enumerate(surfaces):
        mean = np.tile(bases[i], (3, 1))
        variance = np.zeros_like(mean)
        for forecasts, ef in terms[i]:
            s_mean = np.column_stack([f.mean for f in forecasts])
            s_var = np.column_stack([f.variance for f in forecasts])
            mean = mean + s_mean @ ef
            variance = variance + s_var @ ef**2
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
    residuals = [
        ResidualField(sigma=sigma, sigma_avg=np.full(n_ages, 0.3)) for _ in range(2)
    ]
    bare = predict_interval(result, residuals=None)
    rich = predict_interval(result, residuals)
    w = result.weights.weights
    extra = float(w @ w) * 0.2**2 + 0.3**2
    np.testing.assert_allclose(rich[0].variance - bare[0].variance, extra, rtol=1e-10)
    np.testing.assert_allclose(rich[0].mean, bare[0].mean, atol=1e-12)


def test_horizon_years_continue_training_years(results, small_truth):
    surfaces = predict_interval(results["independent"])
    expected = small_truth.years[-1] + 1 + np.arange(3)
    np.testing.assert_array_equal(surfaces[0].horizon_years, expected)


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


def test_coherent_identical_populations_forecast_no_gap(small_truth):
    curves = small_truth[0].log_rates
    result = fit_coherent([curves, curves.copy()], kappa=0.4, rule=RULE, h=30)
    surfaces = predict_interval(result)
    gap = surfaces[0].mean - surfaces[1].mean
    assert np.max(np.abs(gap)) < 1e-6
    deviation_means = result.blocks[1].fit.means
    for mean in deviation_means:
        pass  # identical populations share one deviation mean
    np.testing.assert_allclose(
        deviation_means[0], deviation_means[1], atol=1e-9
    )


def test_product_ratio_ratios_cancel_across_populations(small_truth):
    result = fit_product_ratio(small_truth, rule=FULL_RANK, h=1)
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
