"""Rolling-origin evaluation: window design, RMSE arithmetic, kappa tuning."""

import numpy as np
import pytest

import mortfpca.evaluation as evaluation
from mortfpca.errors import InsufficientSpan, KappaOutOfRange
from mortfpca.evaluation import DEFAULT_KAPPA_GRID, rolling_rmse, tune_kappa
from mortfpca.hmd import MortalitySurface, SurfaceBundle
from mortfpca.smoothing import SmoothConfig

CONFIG = SmoothConfig(basis_dim=6)


def constant_bundle(n_years=16, n_ages=8, levels=(-4.0, -3.0)):
    surfaces = []
    for i, level in enumerate(levels):
        surfaces.append(
            MortalitySurface(
                f"pop{i}",
                np.arange(2000, 2000 + n_years),
                np.arange(n_ages),
                np.full((n_years, n_ages), level),
            )
        )
    return SurfaceBundle(surfaces)


class _Recorder:
    """Stand-in for fit_model/predict_interval capturing the window design."""

    def __init__(self, offset=0.0):
        self.offset = offset
        self.train_spans = []
        self.bundle = None

    def fit(self, bundle, model, h=20, kappa=None, rule=None, weight_power=1.0):
        self.train_spans.append((int(bundle.years[0]), int(bundle.years[-1])))
        return {"bundle": bundle, "h": h}

    def predict(self, result, residuals=None, alpha=0.05):
        bundle, h = result["bundle"], result["h"]
        surfaces = []
        for s in bundle:
            mean = np.tile(s.log_rates[-1], (h, 1)) + self.offset
            surfaces.append(type("S", (), {"population_id": s.population_id,
                                           "mean": mean})())
        return surfaces


def test_constant_surfaces_evaluate_to_zero_rmse():
    report = rolling_rmse(
        constant_bundle(), "independent", h=1, windows=2, smooth_config=CONFIG
    )
    # constants survive smoothing and forecasting up to solver rounding
    assert set(report.rmse) == {"pop0", "pop1"}
    assert all(v < 1e-12 for v in report.rmse.values())
    assert report.avg_rmse < 1e-12
    assert report.model == "independent"
    assert report.horizon == 1
    assert report.windows == 2
    assert report.kappa is None


def test_injected_offset_is_recovered_exactly(monkeypatch):
    recorder = _Recorder(offset=0.3)
    monkeypatch.setattr(evaluation, "fit_model", recorder.fit)
    monkeypatch.setattr(evaluation, "predict_interval", recorder.predict)
    report = rolling_rmse(
        constant_bundle(), "wmfpca", h=2, windows=3, kappa=0.5, smooth_config=CONFIG
    )
    # every age in every window misses by exactly the offset
    assert np.isclose(report.rmse["pop0"], 0.3, atol=1e-12)
    assert np.isclose(report.rmse["pop1"], 0.3, atol=1e-12)
    assert np.isclose(report.avg_rmse, 0.3, atol=1e-12)
    assert report.kappa == 0.5


def test_windows_tile_the_final_years(monkeypatch):
    recorder = _Recorder()
    monkeypatch.setattr(evaluation, "fit_model", recorder.fit)
    monkeypatch.setattr(evaluation, "predict_interval", recorder.predict)
    bundle = constant_bundle(n_years=20)  # years 2000..2019
    rolling_rmse(bundle, "independent", h=3, windows=4, smooth_config=CONFIG)
    # training always starts at the first year and ends one year later per
    # window; the h-step targets tile the last 4 observed years
    assert recorder.train_spans == [
        (2000, 2013), (2000, 2014), (2000, 2015), (2000, 2016)
    ]
    targets = [end + 3 for _, end in recorder.train_spans]
    assert targets == [2016, 2017, 2018, 2019]


def test_pooled_rmse_arithmetic(monkeypatch):
    # per-window errors 0.1 then 0.3 at every age pool to sqrt(mean of squares)
    recorder = _Recorder()
    offsets = iter([0.1, 0.3])

    def predict(result, residuals=None, alpha=0.05):
        recorder.offset = next(offsets)
        return _Recorder.predict(recorder, result, residuals, alpha)

    monkeypatch.setattr(evaluation, "fit_model", recorder.fit)
    monkeypatch.setattr(evaluation, "predict_interval", predict)
    report = rolling_rmse(
        constant_bundle(), "independent", h=1, windows=2, smooth_config=CONFIG
    )
    expected = np.sqrt((0.1**2 + 0.3**2) / 2)
    assert np.isclose(report.rmse["pop0"], expected, atol=1e-12)


def test_insufficient_span_raises():
    bundle = constant_bundle(n_years=14)
    with pytest.raises(InsufficientSpan):
        rolling_rmse(bundle, "independent", h=3, windows=3, smooth_config=CONFIG)
    # one year more is enough: 14 - 3 - 3 + 1 = 9 < 10 <= 15 - 3 - 3 + 1
    rolling_rmse(
        constant_bundle(n_years=15), "independent", h=3, windows=3,
        smooth_config=CONFIG,
    )


def test_rolling_rmse_validation():
    bundle = constant_bundle()
    with pytest.raises(ValueError):
        rolling_rmse(bundle, "nonsense", h=1)
    with pytest.raises(ValueError):
        rolling_rmse(bundle, "independent", h=0)
    with pytest.raises(ValueError):
        rolling_rmse(bundle, "independent", h=1, windows=0)


def test_tune_kappa_minimizes_rolling_rmse(monkeypatch):
    seen = []

    def fake_rolling(bundle, smoothed, model, h, windows, kappa, rule, weight_power,
                     country=""):
        seen.append(kappa)
        return evaluation.EvalReport(
            country="", model=model, horizon=h, windows=windows, kappa=kappa,
            rmse={}, avg_rmse=abs(kappa - 0.35),
        )

    monkeypatch.setattr(evaluation, "_rolling_report", fake_rolling)
    best = tune_kappa(constant_bundle(), "wmfpca", h=1, grid=[0.5, 0.2, 0.35], windows=2,
                      smooth_config=CONFIG)
    assert best == 0.35
    assert seen == [0.2, 0.35, 0.5]  # exhaustive, in sorted order


def test_tune_kappa_ties_resolve_to_smallest(monkeypatch):
    def fake_rolling(bundle, smoothed, model, h, windows, kappa, rule, weight_power,
                     country=""):
        return evaluation.EvalReport(
            country="", model=model, horizon=h, windows=windows, kappa=kappa,
            rmse={}, avg_rmse=1.0,
        )

    monkeypatch.setattr(evaluation, "_rolling_report", fake_rolling)
    assert tune_kappa(constant_bundle(), "wmfpca", h=1, grid=[0.9, 0.4, 0.6], windows=2,
                      smooth_config=CONFIG) == 0.4


def test_tune_kappa_smooths_once_and_matches_rolling_rmse(monkeypatch, small_observed):
    config = SmoothConfig(basis_dim=8)
    grid = [0.2, 0.5, 0.8]
    expected = min(grid, key=lambda k: rolling_rmse(
        small_observed, "wmfpca", h=1, windows=1, kappa=k, smooth_config=config).avg_rmse)

    calls = []
    real_smooth = evaluation.smooth_surface

    def counting_smooth(surface, config=None):
        calls.append(surface.population_id)
        return real_smooth(surface, config)

    monkeypatch.setattr(evaluation, "smooth_surface", counting_smooth)
    best = tune_kappa(small_observed, "wmfpca", h=1, grid=grid, windows=1,
                      smooth_config=config)
    assert calls == ["female", "male"]  # one smoothing per population, not per kappa
    assert best == expected


def test_tune_kappa_grid_validation():
    bundle = constant_bundle()
    with pytest.raises(KappaOutOfRange):
        tune_kappa(bundle, "wmfpca", h=1, grid=[])
    with pytest.raises(KappaOutOfRange):
        tune_kappa(bundle, "wmfpca", h=1, grid=[0.5, 1.0])
    with pytest.raises(KappaOutOfRange):
        tune_kappa(bundle, "wmfpca", h=1, grid=[-0.1])


def test_default_grid_spans_open_interval():
    assert DEFAULT_KAPPA_GRID[0] == 0.05
    assert DEFAULT_KAPPA_GRID[-1] == 0.95
    assert np.all((DEFAULT_KAPPA_GRID > 0) & (DEFAULT_KAPPA_GRID < 1))
    np.testing.assert_allclose(np.diff(DEFAULT_KAPPA_GRID), 0.05, atol=1e-12)


def test_end_to_end_rolling_on_synthetic(small_observed):
    # real pipeline, tiny smoothing basis for speed
    report = rolling_rmse(
        small_observed, "coherent", h=1, windows=2, kappa=0.5,
        smooth_config=SmoothConfig(basis_dim=8), country="synthetic",
    )
    assert set(report.rmse) == {"female", "male"}
    assert all(np.isfinite(v) and v > 0 for v in report.rmse.values())
    assert np.isclose(
        report.avg_rmse, np.mean(list(report.rmse.values())), rtol=1e-12
    )
    assert report.country == "synthetic"
