"""Penalized spline smoothing: basis, penalty, GCV choice, monotone tail."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.interpolate import BSpline
from scipy.optimize import isotonic_regression

import mortfpca

from mortfpca.errors import NonFiniteInput, SingularSystem
from mortfpca.evaluation import smooth_bundle
from mortfpca.hmd import MortalitySurface
from mortfpca.smoothing import (
    LAMBDA_GRID,
    MAX_BASIS_DIM,
    MONOTONE_FROM_AGE,
    PENALTY_ORDER,
    SPLINE_DEGREE,
    ResidualField,
    bspline_design,
    _monotone_tail,
    difference_penalty,
    penalized_fit_rows,
    smooth_surface,
)
from mortfpca.synthetic import synthetic_bundle

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


def assert_bitwise_equal(ours, reference):
    """Equal values and equal sign bits, so 0.0 and -0.0 count as different."""
    assert ours.shape == reference.shape
    assert np.array_equal(ours, reference)
    assert np.array_equal(np.signbit(ours), np.signbit(reference))


def scipy_design(x, basis_dim):
    """``bspline_design``'s knots, evaluated by SciPy's ``BSpline.design_matrix``."""
    k = SPLINE_DEGREE
    breaks = np.linspace(x[0], x[-1], basis_dim - k + 1)
    knots = np.concatenate([np.full(k, x[0]), breaks, np.full(k, x[-1])])
    return BSpline.design_matrix(x, knots, k).toarray()


@pytest.mark.parametrize("max_age, basis_dim", [
    (100, 30), (34, 30), (60, 30), (110, 30), (49, 12), (59, 12), (100, 15), (44, 15),
])
def test_design_equals_scipy_bitwise(max_age, basis_dim):
    ages = np.arange(max_age + 1, dtype=float)
    assert_bitwise_equal(bspline_design(ages, basis_dim), scipy_design(ages, basis_dim))


@given(st.integers(10, 120).flatmap(
    lambda max_age: st.tuples(st.just(max_age), st.integers(4, min(30, max_age + 1)))
))
def test_design_equals_scipy_bitwise_property(grid):
    max_age, basis_dim = grid
    ages = np.arange(max_age + 1, dtype=float)
    assert_bitwise_equal(bspline_design(ages, basis_dim), scipy_design(ages, basis_dim))


def test_difference_penalty_frozen_matrix():
    np.testing.assert_array_equal(difference_penalty(5, 2), PENALTY_5_2)


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=4, max_size=12))
def test_penalty_quadratic_form_sums_squared_differences(coef):
    coef = np.asarray(coef)
    for order in (1, 2):
        penalty = difference_penalty(coef.size, order)
        expected = float(np.sum(np.diff(coef, n=order) ** 2))
        assert np.isclose(coef @ penalty @ coef, expected, atol=1e-9)


def pava_reference(y):
    """Pure-Python pool-adjacent-violators with unit weights, the reference for the tail."""
    blocks = []  # each block carries its running mean and the number of points pooled
    for value in np.asarray(y, dtype=float):
        cur_val, cur_w = value, 1.0
        while blocks and blocks[-1][0] > cur_val:
            prev_val, prev_w = blocks.pop()
            cur_val = (prev_val * prev_w + cur_val * cur_w) / (prev_w + cur_w)
            cur_w += prev_w
        blocks.append((cur_val, cur_w))
    return np.concatenate([np.full(int(round(w)), val) for val, w in blocks])


def project_tail(y):
    """The monotone-tail projection of one curve whose every age is in the tail."""
    y = np.array(y, dtype=float)
    return _monotone_tail(y[np.newaxis], MONOTONE_FROM_AGE + np.arange(y.size))[0]


def test_pava_frozen_examples():
    np.testing.assert_allclose(project_tail([3.0, 1.0, 2.0]), [2.0, 2.0, 2.0])
    np.testing.assert_allclose(project_tail([1.0, 3.0, 2.0, 4.0]), [1.0, 2.5, 2.5, 4.0])
    np.testing.assert_allclose(project_tail([4.0, 3.0, 2.0, 1.0]), [2.5, 2.5, 2.5, 2.5])
    np.testing.assert_allclose(project_tail([1.0, 2.0]), [1.0, 2.0])


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30))
def test_pava_matches_reference_isotonic_regression(y):
    y = np.asarray(y)
    ours = project_tail(y)
    np.testing.assert_allclose(ours, pava_reference(y), atol=1e-9)
    assert np.all(np.diff(ours) >= -1e-12)
    np.testing.assert_allclose(project_tail(ours), ours, atol=1e-12)


ROWS = st.one_of(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=40),
    # exact ties, where pooling k equal values and dividing by k can round,
    # also in rows that are already non-decreasing
    st.lists(st.integers(-20, 20).map(lambda v: v / 10), min_size=1, max_size=40),
    st.lists(st.integers(-20, 20).map(lambda v: v / 10), min_size=1, max_size=40).map(sorted),
    # strictly increasing (the rows PAVA leaves alone) and strictly decreasing
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=40, unique=True)
    .map(sorted),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=40, unique=True)
    .map(lambda v: sorted(v, reverse=True)),
)


@given(ROWS)
def test_monotone_tail_equals_scipy_isotonic_regression_bitwise(y):
    y = np.asarray(y, dtype=float)
    assert_bitwise_equal(project_tail(y), isotonic_regression(y).x)


def test_monotone_tail_pools_non_decreasing_ties_as_scipy_does():
    # 0.1 + 0.1 + 0.1 rounds up, so PAVA's pooled tie is not the tied value:
    # a row is left alone only when it rises strictly
    for y in ([0.1, 0.1, 0.1], [-1.0, 0.7, 0.7, 0.7, 2.0]):
        y = np.asarray(y)
        assert_bitwise_equal(project_tail(y), isotonic_regression(y).x)
    assert project_tail([0.1, 0.1, 0.1])[0] == 0.10000000000000002


def test_monotone_tail_projects_only_the_tail_of_each_row():
    rows = np.array([[5.0, 1.0, 3.0, 2.0, 4.0], [1.0, 0.0, 1.0, 2.0, 3.0]])
    out = _monotone_tail(rows.copy(), np.arange(63, 68))
    assert_bitwise_equal(out[:, :2], rows[:, :2])
    assert_bitwise_equal(out[0, 2:], isotonic_regression(rows[0, 2:]).x)
    assert_bitwise_equal(out[1], rows[1])


def test_import_leaves_out_scipy_interpolate_and_optimize():
    # a fresh interpreter: this test module itself imports both as references
    src = str(Path(mortfpca.__file__).resolve().parents[1])
    code = (
        "import sys, mortfpca.cli; "
        "print(' '.join(m for m in ('scipy.interpolate', 'scipy.optimize', "
        "'scipy.sparse', 'scipy.spatial') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == ""


def test_import_leaves_out_scipy_special():
    # a fresh interpreter: the forecaster tests import it as the ndtri reference
    src = str(Path(mortfpca.__file__).resolve().parents[1])
    code = "import sys, mortfpca.cli; print('scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def _gcv_oracle(y, x=None):
    """Recompute the GCV path directly from the normal equations."""
    x = np.arange(y.size, dtype=float) if x is None else x
    basis_dim = min(MAX_BASIS_DIM, y.size)
    design = bspline_design(x, basis_dim)
    penalty = difference_penalty(basis_dim, PENALTY_ORDER)
    btb, bty, n = design.T @ design, design.T @ y, y.size
    scores = []
    for lam in LAMBDA_GRID:
        coef = np.linalg.solve(btb + lam * penalty, bty)
        edf = np.trace(np.linalg.solve(btb + lam * penalty, btb))
        rss = float(np.sum((y - design @ coef) ** 2))
        denom = n - edf
        scores.append(np.inf if denom <= 0 else n * rss / denom**2)
    return np.asarray(scores)


def test_penalized_fit_satisfies_normal_equations():
    rng = np.random.default_rng(11)
    y = np.sin(np.linspace(0, 3, 60)) + rng.normal(0, 0.1, 60)
    (fitted,), (coef,), (lam,) = penalized_fit_rows(y[np.newaxis], np.arange(60.0))
    design = bspline_design(np.arange(60.0), MAX_BASIS_DIM)
    penalty = difference_penalty(MAX_BASIS_DIM, PENALTY_ORDER)
    gap = design.T @ y - (design.T @ design + lam * penalty) @ coef
    np.testing.assert_allclose(gap, 0.0, atol=1e-8)
    np.testing.assert_allclose(fitted, design @ coef, atol=1e-12)


def test_penalized_fit_picks_first_gcv_minimum():
    rng = np.random.default_rng(3)
    y = -5.0 + 0.04 * np.arange(80.0) + rng.normal(0, 0.15, 80)
    _, _, (lam,) = penalized_fit_rows(y[np.newaxis], np.arange(80.0))
    scores = _gcv_oracle(y)
    assert lam == LAMBDA_GRID[int(np.argmin(scores))]


def test_penalized_fit_recovers_smooth_signal():
    rng = np.random.default_rng(5)
    x = np.linspace(0, 1, 90)
    truth = np.sin(2 * np.pi * x) - 3.0
    noisy = truth + rng.normal(0, 0.3, x.size)
    (fitted,), _, _ = penalized_fit_rows(noisy[np.newaxis], np.arange(90.0))
    noise_rmse = np.sqrt(np.mean((noisy - truth) ** 2))
    fit_rmse = np.sqrt(np.mean((fitted - truth) ** 2))
    assert fit_rmse < 0.5 * noise_rmse


def test_penalized_fit_input_validation():
    with pytest.raises(SingularSystem, match="at least 4 ages, got 3"):
        penalized_fit_rows(np.zeros((1, 3)), np.arange(3.0))
    with pytest.raises(NonFiniteInput):
        penalized_fit_rows(np.array([[0.0, np.nan] + [0.0] * 10]), np.arange(12.0))
    with pytest.raises(ValueError):
        penalized_fit_rows(np.zeros((4, 4, 12)), np.arange(12.0))


@pytest.mark.parametrize("n_ages, basis_dim", [(4, 4), (21, 21), (29, 29), (30, 30), (101, 30)])
def test_basis_has_one_function_per_age_up_to_thirty(n_ages, basis_dim):
    rows = np.sin(np.arange(2.0 * n_ages).reshape(2, n_ages))
    _, coef, _ = penalized_fit_rows(rows, np.arange(float(n_ages)))
    assert coef.shape == (2, basis_dim)


def test_smoothing_a_short_age_grid_moves_it_toward_the_truth():
    observed, truth = synthetic_bundle(seed=1, n_years=20, max_age=20, return_truth=True)
    smoothed, _ = smooth_bundle(observed)
    for obs, smo, true in zip(observed, smoothed, truth):
        raw_rmse = np.sqrt(np.mean((obs.log_rates - true.log_rates) ** 2))
        smooth_rmse = np.sqrt(np.mean((smo.log_rates - true.log_rates) ** 2))
        assert smooth_rmse < raw_rmse


def test_smooth_curve_enforces_monotone_tail():
    rng = np.random.default_rng(9)
    ages = np.arange(101)
    # infant decline plus a dip after 65 that an unconstrained fit follows
    y = -6.0 + 2.5 * np.exp(-ages / 6.0) + 0.04 * ages
    y -= 1.5 * np.exp(-0.5 * ((ages - 80) / 4.0) ** 2)
    y += rng.normal(0, 0.02, ages.size)
    (unconstrained,), _, _ = penalized_fit_rows(y[np.newaxis], ages.astype(float))
    assert np.any(np.diff(unconstrained[ages >= 65]) < 0)
    smoothed, _ = smooth_surface(MortalitySurface("pop", [2000], ages, y[np.newaxis]))
    fitted = smoothed.log_rates[0]
    tail = fitted[ages >= 65]
    assert np.all(np.diff(tail) >= -1e-12)
    # the projection is confined to the tail: the infant decline survives
    head = fitted[ages < 65]
    assert np.any(np.diff(head) < 0)


def _assert_batch_matches_rows(rates, ages):
    """Each row's batch lambda is its own GCV argmin; the surface stacks its one-year surfaces."""
    x = ages.astype(float)
    _, _, lams = penalized_fit_rows(rates, x=x)
    for row, lam in zip(rates, lams):
        assert lam == LAMBDA_GRID[int(np.argmin(_gcv_oracle(row, x)))]
    years = np.arange(2000, 2000 + rates.shape[0])
    smoothed, _ = smooth_surface(MortalitySurface("pop", years, ages, rates))
    rowwise = np.vstack([
        smooth_surface(MortalitySurface("pop", [year], ages, row[np.newaxis]))[0].log_rates
        for year, row in zip(years, rates)
    ])
    np.testing.assert_allclose(smoothed.log_rates, rowwise, rtol=0, atol=1e-12)
    return lams


def test_smooth_surface_batch_equals_row_by_row():
    rng = np.random.default_rng(21)
    ages = np.arange(61)
    base = -6.0 + 2.0 * np.exp(-ages / 5.0) + 0.06 * ages
    # noise from 0.005 to 0.5 so that different rows want different lambdas
    noise = np.geomspace(0.005, 0.5, 12)[:, None] * rng.normal(size=(12, ages.size))
    # the monotone tail starts at index 40
    lams = _assert_batch_matches_rows(base + noise, MONOTONE_FROM_AGE - 40 + ages)
    assert np.unique(lams).size >= 2


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 6),
    # grids under 30 ages get one basis function per age
    n_ages=st.integers(4, 40),
    noise_sd=st.sampled_from([0.01, 0.1, 1.0]),
)
def test_smooth_surface_batch_equals_row_by_row_property(seed, n_rows, n_ages, noise_sd):
    rng = np.random.default_rng(seed)
    ages = np.arange(n_ages)
    trend = np.sin(ages / (1.0 + ages.size / 3.0)) + 0.02 * ages
    rates = -4.0 + trend + noise_sd * rng.normal(size=(n_rows, ages.size))
    # the monotone tail starts at index n_ages // 2
    _assert_batch_matches_rows(rates, MONOTONE_FROM_AGE - n_ages // 2 + ages)


def test_penalized_fit_rows_rejects_one_non_finite_row():
    rates = np.full((4, 12), -2.0)
    rates[2, 5] = np.inf
    with pytest.raises(NonFiniteInput):
        penalized_fit_rows(rates, np.arange(12.0))
    with pytest.raises(ValueError):
        penalized_fit_rows(np.zeros(12), np.arange(12.0))


def test_smooth_surface_returns_residual_field(small_observed):
    s = small_observed[0]
    smoothed, field = smooth_surface(s)
    assert smoothed.kind == "smoothed"
    assert smoothed.log_rates.shape == s.log_rates.shape
    np.testing.assert_allclose(field.sigma, np.abs(s.log_rates - smoothed.log_rates))
    np.testing.assert_allclose(field.sigma_avg, np.sqrt(np.mean(field.sigma**2, axis=0)))


def test_smooth_surface_rejects_missing_values():
    rates = np.full((3, 12), -2.0)
    rates[1, 4] = np.nan
    s = MortalitySurface("pop", np.arange(2000, 2003), np.arange(12), rates)
    with pytest.raises(NonFiniteInput):
        smooth_surface(s)


def test_residual_field_validation():
    with pytest.raises(ValueError):
        ResidualField(sigma=np.zeros(4), sigma_avg=np.zeros(4))
    with pytest.raises(ValueError):
        ResidualField(sigma=np.zeros((2, 3)), sigma_avg=np.zeros(2))
    with pytest.raises(ValueError):
        ResidualField(sigma=-np.ones((2, 3)), sigma_avg=np.zeros(3))
