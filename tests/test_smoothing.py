"""Penalized spline smoothing: basis, penalty, GCV choice, monotone tail."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from mortfpca.errors import NonFiniteInput, SingularSystem
from mortfpca.hmd import MortalitySurface
from mortfpca.smoothing import (
    ResidualField,
    SmoothConfig,
    bspline_design,
    difference_penalty,
    pava_nondecreasing,
    penalized_fit,
    penalized_fit_rows,
    residual_field,
    smooth_curve,
    smooth_surface,
)

# frozen D'D for a second-order difference penalty on five coefficients
PENALTY_5_2 = np.array(
    [
        [1, -2, 1, 0, 0],
        [-2, 5, -4, 1, 0],
        [1, -4, 6, -4, 1],
        [0, 1, -4, 5, -2],
        [0, 0, 1, -2, 1],
    ],
    dtype=float,
)


def test_design_partitions_unity():
    x = np.linspace(0.0, 100.0, 73)
    design = bspline_design(x, 15)
    assert design.shape == (73, 15)
    np.testing.assert_allclose(design.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(design >= 0.0)


def test_design_reproduces_cubics_exactly():
    # cubic splines contain all cubic polynomials, so an unpenalized
    # least-squares fit of x^3 must be interpolation up to rounding
    x = np.linspace(0.0, 1.0, 40)
    y = x**3 - 0.4 * x**2 + 0.1 * x - 2.0
    design = bspline_design(x, 12)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    np.testing.assert_allclose(design @ coef, y, atol=1e-10)


def test_difference_penalty_frozen_matrix():
    np.testing.assert_array_equal(difference_penalty(5, 2), PENALTY_5_2)


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=4, max_size=12))
def test_penalty_quadratic_form_sums_squared_differences(coef):
    coef = np.asarray(coef)
    for order in (1, 2):
        penalty = difference_penalty(coef.size, order)
        expected = float(np.sum(np.diff(coef, n=order) ** 2))
        assert np.isclose(coef @ penalty @ coef, expected, atol=1e-9)


def test_pava_frozen_examples():
    np.testing.assert_allclose(pava_nondecreasing(np.array([3.0, 1.0, 2.0])), [2.0, 2.0, 2.0])
    np.testing.assert_allclose(
        pava_nondecreasing(np.array([1.0, 3.0, 2.0, 4.0])), [1.0, 2.5, 2.5, 4.0]
    )
    np.testing.assert_allclose(
        pava_nondecreasing(np.array([4.0, 3.0, 2.0, 1.0])), [2.5, 2.5, 2.5, 2.5]
    )
    np.testing.assert_allclose(pava_nondecreasing(np.array([1.0, 2.0])), [1.0, 2.0])


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30))
def test_pava_matches_reference_isotonic_regression(y):
    y = np.asarray(y)
    ours = pava_nondecreasing(y)
    reference = isotonic_regression(y, increasing=True).x
    np.testing.assert_allclose(ours, reference, atol=1e-9)
    assert np.all(np.diff(ours) >= -1e-12)
    np.testing.assert_allclose(pava_nondecreasing(ours), ours, atol=1e-12)


def _gcv_oracle(y, config, x=None):
    """Recompute the GCV path directly from the normal equations."""
    x = np.arange(y.size, dtype=float) if x is None else x
    design = bspline_design(x, config.basis_dim)
    penalty = difference_penalty(config.basis_dim, config.penalty_order)
    btb, bty, n = design.T @ design, design.T @ y, y.size
    scores = []
    for lam in config.lambda_grid:
        coef = np.linalg.solve(btb + lam * penalty, bty)
        edf = np.trace(np.linalg.solve(btb + lam * penalty, btb))
        rss = float(np.sum((y - design @ coef) ** 2))
        denom = n - edf
        scores.append(np.inf if denom <= 0 else n * rss / denom**2)
    return np.asarray(scores)


def test_penalized_fit_satisfies_normal_equations():
    rng = np.random.default_rng(11)
    y = np.sin(np.linspace(0, 3, 60)) + rng.normal(0, 0.1, 60)
    config = SmoothConfig(basis_dim=12)
    fitted, coef, lam = penalized_fit(y, config)
    design = bspline_design(np.arange(60.0), 12)
    penalty = difference_penalty(12, 2)
    gap = design.T @ y - (design.T @ design + lam * penalty) @ coef
    np.testing.assert_allclose(gap, 0.0, atol=1e-8)
    np.testing.assert_allclose(fitted, design @ coef, atol=1e-12)


def test_penalized_fit_picks_first_gcv_minimum():
    rng = np.random.default_rng(3)
    y = -5.0 + 0.04 * np.arange(80.0) + rng.normal(0, 0.15, 80)
    config = SmoothConfig(basis_dim=14)
    _, _, lam = penalized_fit(y, config)
    scores = _gcv_oracle(y, config)
    assert lam == config.lambda_grid[int(np.argmin(scores))]


def test_penalized_fit_recovers_smooth_signal():
    rng = np.random.default_rng(5)
    x = np.linspace(0, 1, 90)
    truth = np.sin(2 * np.pi * x) - 3.0
    noisy = truth + rng.normal(0, 0.3, x.size)
    fitted, _, _ = penalized_fit(noisy, SmoothConfig(basis_dim=15))
    noise_rmse = np.sqrt(np.mean((noisy - truth) ** 2))
    fit_rmse = np.sqrt(np.mean((fitted - truth) ** 2))
    assert fit_rmse < 0.5 * noise_rmse


def test_penalized_fit_input_validation():
    config = SmoothConfig(basis_dim=10)
    with pytest.raises(SingularSystem):
        penalized_fit(np.zeros(8), config)
    with pytest.raises(NonFiniteInput):
        penalized_fit(np.array([0.0, np.nan] + [0.0] * 10), config)
    with pytest.raises(ValueError):
        penalized_fit(np.zeros((4, 4)), config)


def test_smooth_curve_enforces_monotone_tail():
    rng = np.random.default_rng(9)
    ages = np.arange(101)
    # infant decline plus a dip after 65 that an unconstrained fit follows
    y = -6.0 + 2.5 * np.exp(-ages / 6.0) + 0.04 * ages
    y -= 1.5 * np.exp(-0.5 * ((ages - 80) / 4.0) ** 2)
    y += rng.normal(0, 0.02, ages.size)
    config = SmoothConfig()
    unconstrained, _, _ = penalized_fit(y, config, x=ages.astype(float))
    assert np.any(np.diff(unconstrained[ages >= 65]) < 0)
    fitted = smooth_curve(y, config, ages=ages)
    tail = fitted[ages >= 65]
    assert np.all(np.diff(tail) >= -1e-12)
    # the projection is confined to the tail: the infant decline survives
    head = fitted[ages < 65]
    assert np.any(np.diff(head) < 0)


def _assert_batch_matches_rows(rates, ages, config):
    """Each row's batch lambda is its own GCV argmin; the surface stacks smooth_curve."""
    x = ages.astype(float)
    _, _, lams = penalized_fit_rows(rates, config, x=x)
    for row, lam in zip(rates, lams):
        assert lam == config.lambda_grid[int(np.argmin(_gcv_oracle(row, config, x)))]
    surface = MortalitySurface("pop", np.arange(2000, 2000 + rates.shape[0]), ages, rates)
    smoothed, _ = smooth_surface(surface, config)
    rowwise = np.vstack([smooth_curve(row, config, ages=ages) for row in rates])
    np.testing.assert_allclose(smoothed.log_rates, rowwise, rtol=0, atol=1e-12)
    return lams


def test_smooth_surface_batch_equals_row_by_row():
    rng = np.random.default_rng(21)
    ages = np.arange(61)
    base = -6.0 + 2.0 * np.exp(-ages / 5.0) + 0.06 * ages
    # noise from 0.005 to 0.5 so that different rows want different lambdas
    noise = np.geomspace(0.005, 0.5, 12)[:, None] * rng.normal(size=(12, ages.size))
    config = SmoothConfig(basis_dim=15, monotone_from_age=40)
    lams = _assert_batch_matches_rows(base + noise, ages, config)
    assert np.unique(lams).size >= 2


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 6),
    basis_dim=st.integers(4, 10),
    extra=st.integers(0, 15),
    noise_sd=st.sampled_from([0.01, 0.1, 1.0]),
)
def test_smooth_surface_batch_equals_row_by_row_property(seed, n_rows, basis_dim, extra,
                                                         noise_sd):
    rng = np.random.default_rng(seed)
    ages = np.arange(basis_dim + extra)
    trend = np.sin(ages / (1.0 + ages.size / 3.0)) + 0.02 * ages
    rates = -4.0 + trend + noise_sd * rng.normal(size=(n_rows, ages.size))
    config = SmoothConfig(basis_dim=basis_dim, monotone_from_age=int(ages.size // 2))
    _assert_batch_matches_rows(rates, ages, config)


def test_penalized_fit_rows_rejects_one_non_finite_row():
    rates = np.full((4, 12), -2.0)
    rates[2, 5] = np.inf
    with pytest.raises(NonFiniteInput):
        penalized_fit_rows(rates, SmoothConfig(basis_dim=6))
    with pytest.raises(ValueError):
        penalized_fit_rows(np.zeros(12), SmoothConfig(basis_dim=6))


def test_smooth_surface_returns_residual_field(small_observed):
    s = small_observed[0]
    config = SmoothConfig(basis_dim=10)
    smoothed, field = smooth_surface(s, config)
    assert smoothed.kind == "smoothed"
    assert smoothed.log_rates.shape == s.log_rates.shape
    np.testing.assert_allclose(field.sigma, np.abs(s.log_rates - smoothed.log_rates))
    np.testing.assert_allclose(field.sigma_avg, np.sqrt(np.mean(field.sigma**2, axis=0)))


def test_smooth_surface_rejects_missing_values():
    rates = np.full((3, 12), -2.0)
    rates[1, 4] = np.nan
    s = MortalitySurface("pop", np.arange(2000, 2003), np.arange(12), rates)
    with pytest.raises(NonFiniteInput):
        smooth_surface(s, SmoothConfig(basis_dim=6))


def test_residual_field_validation():
    with pytest.raises(ValueError):
        ResidualField(sigma=np.zeros(4), sigma_avg=np.zeros(4))
    with pytest.raises(ValueError):
        ResidualField(sigma=np.zeros((2, 3)), sigma_avg=np.zeros(2))
    with pytest.raises(ValueError):
        ResidualField(sigma=-np.ones((2, 3)), sigma_avg=np.zeros(3))
    field = residual_field(np.zeros((2, 3)), np.ones((2, 3)))
    np.testing.assert_allclose(field.sigma, 1.0)
    np.testing.assert_allclose(field.sigma_avg, 1.0)


def test_smooth_config_validation():
    with pytest.raises(ValueError):
        SmoothConfig(basis_dim=3)
    with pytest.raises(ValueError):
        SmoothConfig(penalty_order=0)
    with pytest.raises(ValueError):
        SmoothConfig(basis_dim=5, penalty_order=5)
    with pytest.raises(ValueError):
        SmoothConfig(lambda_grid=[0.0, 1.0])
    with pytest.raises(ValueError):
        SmoothConfig(lambda_grid=[])
    with pytest.raises(ValueError):
        SmoothConfig(monotone_from_age=101)
