"""Joint decomposition against a stacked-covariance eigendecomposition oracle."""

import numpy as np
import pytest

from mortfpca.components import FULL_RANK, ComponentRule
from mortfpca.errors import EmptyBundle
from mortfpca.mfpca import fit_mfpca
from mortfpca.ufpca import geometric_weights, uniform_weights


def random_populations(seed, p=2, t=9, j=5):
    rng = np.random.default_rng(seed)
    return [rng.normal(-4.0, 1.0, (t, j)) for _ in range(p)]


def stacked_oracle(curves_list):
    """Eigendecomposition of the stacked centered-data covariance.

    Independent route: no univariate fits, no SVD; the multivariate
    eigenfunctions are the blocks of the stacked covariance eigenvectors.
    """
    t = curves_list[0].shape[0]
    centered = np.hstack([c - c.mean(axis=0) for c in curves_list])
    cov = centered.T @ centered / (t - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    scores = centered @ evecs
    return evals, evecs, scores


def test_joint_fit_matches_stacked_covariance_oracle():
    curves = random_populations(0)
    t, j = curves[0].shape
    fit = fit_mfpca(curves, uniform_weights(t), FULL_RANK)
    evals, evecs, scores = stacked_oracle(curves)

    n = fit.n_components
    assert n == t - 1  # two rank-deficient blocks still span T-1 directions
    # scores are unscaled projections, so the joint spectrum is the plain
    # stacked-data covariance spectrum regardless of the fitting weights
    np.testing.assert_allclose(fit.eigenvalues, evals[:n], rtol=1e-9)
    for k in range(n):
        stacked_ef = np.concatenate([fit.loadings[i][k] for i in range(2)])
        sign = np.sign(evecs[:, k] @ stacked_ef)
        np.testing.assert_allclose(stacked_ef, sign * evecs[:, k], atol=1e-8)
        np.testing.assert_allclose(fit.scores[:, k], sign * scores[:, k], atol=1e-8)


@pytest.mark.parametrize("weighted", [False, True])
def test_multivariate_eigenfunctions_orthonormal_under_summed_inner_product(weighted):
    curves = random_populations(1, p=3, t=10, j=6)
    weights = geometric_weights(0.4, 10) if weighted else uniform_weights(10)
    fit = fit_mfpca(curves, weights, ComponentRule(threshold=0.95))
    n = fit.n_components
    gram = sum(ef @ ef.T for ef in fit.loadings)
    np.testing.assert_allclose(gram, np.eye(n), atol=1e-10)


def test_shared_scores_rotate_stacked_univariate_scores():
    curves = random_populations(2)
    weights = geometric_weights(0.3, 9)
    fit = fit_mfpca(curves, weights, FULL_RANK)
    stacked = np.hstack([f.scores for f in fit.parts])
    # the block coefficient vectors c_n, recovered from the shared scores
    coefs = (stacked.T @ fit.scores / (8 * fit.eigenvalues)).T
    np.testing.assert_allclose(
        fit.scores, stacked @ coefs.T, atol=1e-12
    )
    # eigenvalues diagonalize the stacked-score cross products
    z = stacked.T @ stacked / 8
    for k in range(fit.n_components):
        c = coefs[k]
        np.testing.assert_allclose(z @ c, fit.eigenvalues[k] * c, atol=1e-9)
    gram = fit.scores.T @ fit.scores
    np.testing.assert_allclose(gram, np.diag(8 * fit.eigenvalues), atol=1e-9)


def test_full_rank_joint_reconstruction_is_exact():
    curves = random_populations(4, p=2, t=8, j=7)
    fit = fit_mfpca(curves, geometric_weights(0.5, 8), FULL_RANK)
    for i in range(2):
        np.testing.assert_allclose(fit.reconstruct(i), curves[i], atol=1e-9)
        np.testing.assert_allclose(fit.reconstruct(i)[5], curves[i][5], atol=1e-9)


def test_identical_populations_double_the_eigenvalues():
    base = random_populations(5, p=1)[0]
    fit_single = fit_mfpca([base], uniform_weights(9), FULL_RANK)
    fit_double = fit_mfpca([base, base.copy()], uniform_weights(9), FULL_RANK)
    n = fit_single.n_components
    np.testing.assert_allclose(
        fit_double.eigenvalues[:n], 2.0 * fit_single.eigenvalues, rtol=1e-9
    )
    # duplicated blocks contribute identical eigenfunction halves
    for k in range(n):
        np.testing.assert_allclose(
            fit_double.loadings[0][k],
            fit_double.loadings[1][k],
            atol=1e-8,
        )


def test_accepts_surface_bundles(small_truth):
    weights = uniform_weights(small_truth.years.size)
    from_bundle = fit_mfpca(small_truth, weights, ComponentRule(threshold=0.9))
    from_list = fit_mfpca([s.log_rates for s in small_truth], weights,
                          ComponentRule(threshold=0.9))
    np.testing.assert_allclose(
        from_bundle.eigenvalues, from_list.eigenvalues, rtol=1e-12
    )
    assert len(from_bundle.means) == small_truth.n_populations


def test_zero_variance_bundle_collapses_to_means():
    curves = [np.full((4, 5), -4.0), np.full((4, 5), -2.0)]
    fit = fit_mfpca(curves, uniform_weights(4), FULL_RANK)
    assert fit.n_components == 0
    assert fit.scores.shape == (4, 0)
    np.testing.assert_allclose(fit.reconstruct(1), curves[1], atol=1e-12)


def test_zero_width_slice_reconstructs_exactly():
    # a constant population contributes no univariate components, so its
    # segment of every joint eigenvector is empty
    constant = np.full((9, 5), -3.0)
    curves = [constant, random_populations(8, p=1)[0]]
    fit = fit_mfpca(curves, uniform_weights(9), FULL_RANK)
    assert [f.n_components for f in fit.parts] == [0, 5]
    assert fit.n_components == 5
    assert fit.loadings[0].shape == (5, 5)
    for i in range(2):
        np.testing.assert_allclose(fit.reconstruct(i), curves[i], atol=1e-12)


def test_input_validation():
    with pytest.raises(EmptyBundle):
        fit_mfpca([], uniform_weights(5))
    mismatched = [np.zeros((5, 4)), np.zeros((5, 3))]
    with pytest.raises(ValueError):
        fit_mfpca(mismatched, uniform_weights(5))


def test_var_explained_tracks_joint_spectrum():
    curves = random_populations(7, p=2, t=12, j=6)
    fit = fit_mfpca(curves, uniform_weights(12), ComponentRule(threshold=0.85))
    np.testing.assert_allclose(
        fit.var_explained, fit.eigenvalues / fit.total_variance, rtol=1e-12
    )
    assert fit.var_explained.sum() >= 0.85
    assert np.all(np.diff(fit.eigenvalues) <= 1e-12)
