"""Weighted univariate functional PCA against independent linear algebra."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mortfpca.components import FULL_RANK, ComponentRule
from mortfpca.errors import (
    InsufficientYears,
    KappaOutOfRange,
    NonFiniteInput,
)
from mortfpca.ufpca import (
    WeightScheme,
    fit_ufpca,
    geometric_weights,
    uniform_weights,
)


def random_curves(seed, t=9, j=6):
    rng = np.random.default_rng(seed)
    return rng.normal(-4.0, 1.0, (t, j))


# ---------------------------------------------------------------------------
# weights


def test_geometric_weights_frozen_values():
    w = geometric_weights(0.5, 3)
    np.testing.assert_allclose(w.weights, np.array([1.0, 2.0, 4.0]) / 7.0, atol=1e-15)
    assert w.kappa == 0.5


def test_uniform_weights():
    w = uniform_weights(4)
    np.testing.assert_allclose(w.weights, 0.25)
    assert w.kappa is None


@given(st.floats(min_value=0.01, max_value=0.95), st.integers(min_value=1, max_value=120))
def test_geometric_weights_match_direct_formula(kappa, t):
    w = geometric_weights(kappa, t).weights
    tt = np.arange(1, t + 1)
    direct = kappa * (1 - kappa) ** (t - tt)
    direct /= 1.0 - (1.0 - kappa) ** t
    np.testing.assert_allclose(w, direct, rtol=1e-12)
    assert np.isclose(w.sum(), 1.0, atol=1e-12)
    assert np.all(w > 0)
    if t > 1:
        np.testing.assert_allclose(w[1:] / w[:-1], 1.0 / (1.0 - kappa), rtol=1e-9)


def test_weights_that_underflow_are_rejected():
    # kappa = 0.99 over 163 years puts the oldest weight below the smallest
    # subnormal, which violates strict positivity
    with pytest.raises(ValueError):
        geometric_weights(0.99, 163)


@pytest.mark.parametrize("kappa", [0.0, 1.0, -0.2, 1.7])
def test_kappa_domain(kappa):
    with pytest.raises(KappaOutOfRange):
        geometric_weights(kappa, 5)


def test_weight_scheme_validation():
    with pytest.raises(ValueError):
        WeightScheme(weights=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        WeightScheme(weights=np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        WeightScheme(weights=np.array([[0.5], [0.5]]))


# ---------------------------------------------------------------------------
# unweighted fit against an eigendecomposition oracle


def test_unweighted_fit_matches_covariance_eigendecomposition():
    curves = random_curves(0)
    t = curves.shape[0]
    fit = fit_ufpca(curves, uniform_weights(t), FULL_RANK)

    centered = curves - curves.mean(axis=0)
    cov = centered.T @ centered / (t - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][: fit.n_components]
    evals, evecs = evals[order], evecs[:, order]

    # scaling by 1/T rescales every eigenvalue by 1/T^2 but not the basis
    np.testing.assert_allclose(fit.eigenvalues * t**2, evals, rtol=1e-10)
    for k in range(fit.n_components):
        oracle_ef = evecs[:, k]
        sign = np.sign(oracle_ef @ fit.loadings[0][k])
        np.testing.assert_allclose(fit.loadings[0][k], sign * oracle_ef, atol=1e-10)
        np.testing.assert_allclose(fit.scores[:, k], sign * centered @ oracle_ef, atol=1e-10)
    np.testing.assert_allclose(fit.means[0], curves.mean(axis=0), atol=1e-12)


# ---------------------------------------------------------------------------
# weighted fit identities


@pytest.mark.parametrize("power", [1.0, 0.5])
def test_weighted_fit_first_order_identities(power):
    curves = random_curves(1, t=12, j=7)
    weights = geometric_weights(0.3, 12)
    fit = fit_ufpca(curves, weights, FULL_RANK, weight_power=power)
    w = weights.weights
    centered = curves - w @ curves
    scaled = (w**power)[:, None] * centered

    np.testing.assert_allclose(fit.means[0], w @ curves, atol=1e-12)
    # eigen-equation of the scaled-data covariance
    gram = scaled.T @ scaled
    for k in range(fit.n_components):
        v = fit.loadings[0][k]
        np.testing.assert_allclose(gram @ v, 11 * fit.eigenvalues[k] * v, atol=1e-9)
    # total variance is the scaled sum of squares
    np.testing.assert_allclose(
        fit.total_variance, np.sum(scaled**2) / 11, rtol=1e-12
    )
    # scores are plain projections of the unscaled centered curves
    np.testing.assert_allclose(fit.scores, centered @ fit.loadings[0].T, atol=1e-12)
    # weighted score cross products are diagonal with (T-1) * eigenvalue
    gram_scores = (w ** (2 * power) * fit.scores.T) @ fit.scores
    np.testing.assert_allclose(gram_scores, np.diag(11 * fit.eigenvalues), atol=1e-10)


def test_eigenfunctions_are_orthonormal_and_oriented():
    fit = fit_ufpca(random_curves(2), geometric_weights(0.4, 9), FULL_RANK)
    n = fit.n_components
    np.testing.assert_allclose(
        fit.loadings[0] @ fit.loadings[0].T, np.eye(n), atol=1e-10
    )
    for row in fit.loadings[0]:
        assert row[np.argmax(np.abs(row))] > 0


def test_eigenvalues_nonincreasing_and_shares_consistent():
    fit = fit_ufpca(random_curves(3), uniform_weights(9), ComponentRule(threshold=0.9))
    assert np.all(np.diff(fit.eigenvalues) <= 1e-12)
    np.testing.assert_allclose(
        fit.var_explained, fit.eigenvalues / fit.total_variance, rtol=1e-12
    )
    assert fit.var_explained.sum() >= 0.9


# ---------------------------------------------------------------------------
# reconstruction


def test_full_rank_reconstruction_is_exact():
    curves = random_curves(4, t=8, j=5)
    fit = fit_ufpca(curves, geometric_weights(0.2, 8), FULL_RANK)
    np.testing.assert_allclose(fit.reconstruct(), curves, atol=1e-9)
    np.testing.assert_allclose(fit.reconstruct()[3], curves[3], atol=1e-9)


def test_truncated_reconstruction_error_matches_dropped_variance():
    curves = random_curves(5, t=10, j=6)
    weights = geometric_weights(0.35, 10)
    w = weights.weights
    fit = fit_ufpca(curves, weights, ComponentRule(override=2))
    assert fit.n_components == 2
    resid = curves - fit.reconstruct()
    weighted_sse = float(np.sum(w[:, None] ** 2 * resid**2))
    full = fit_ufpca(curves, weights, FULL_RANK)
    dropped = full.total_variance - fit.eigenvalues.sum()
    np.testing.assert_allclose(weighted_sse / 9, dropped, rtol=1e-9)


def test_constant_curves_collapse_to_mean():
    # 4 years of -4.0 center to exactly zero (every partial sum is exact),
    # exercising the zero-variance branch
    curves = np.full((4, 5), -4.0)
    fit = fit_ufpca(curves, uniform_weights(4), FULL_RANK)
    assert fit.n_components == 0
    assert fit.total_variance == 0.0
    np.testing.assert_allclose(fit.reconstruct(), curves, atol=1e-12)


def test_nearly_constant_curves_reconstruct_to_rounding_noise():
    # generic constants center to rounding residue, not exact zero; whatever
    # component count results, the fit stays numerically a constant
    curves = np.tile(np.linspace(-5, -1, 6), (7, 1))
    fit = fit_ufpca(curves, uniform_weights(7), FULL_RANK)
    assert fit.total_variance < 1e-28
    np.testing.assert_allclose(fit.reconstruct(), curves, atol=1e-12)



# ---------------------------------------------------------------------------
# input validation


def test_fit_input_validation():
    curves = random_curves(7)
    with pytest.raises(InsufficientYears):
        fit_ufpca(curves[:1], uniform_weights(1))
    with pytest.raises(NonFiniteInput):
        bad = curves.copy()
        bad[0, 0] = np.nan
        fit_ufpca(bad, uniform_weights(9))
    with pytest.raises(ValueError):
        fit_ufpca(curves, uniform_weights(5))
    with pytest.raises(ValueError):
        fit_ufpca(curves, uniform_weights(9), weight_power=2.0)
    with pytest.raises(ValueError):
        fit_ufpca(curves[0], uniform_weights(9))
