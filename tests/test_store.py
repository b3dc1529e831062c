"""Serialized fit artifacts: schemas and byte-level determinism."""

import numpy as np
import pytest

from mortfpca.components import ComponentRule
from mortfpca.evaluation import EvalReport
from mortfpca.forecasters import ForecastSurface
from mortfpca.mfpca import fit_mfpca
from mortfpca.store import (
    append_eval_report,
    save_forecast_surface,
    save_fpca_fit,
    save_mfpca_fit,
)
from mortfpca.ufpca import fit_ufpca, uniform_weights


@pytest.fixture(scope="module")
def ufpca_fit():
    rng = np.random.default_rng(0)
    return fit_ufpca(
        rng.normal(-4, 1, (8, 5)), uniform_weights(8), ComponentRule(threshold=0.9)
    )


def read_all(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}


def test_fpca_fit_files_and_schemas(tmp_path, ufpca_fit):
    years = np.arange(2000, 2008)
    save_fpca_fit(ufpca_fit, years, np.arange(5), tmp_path)
    n = ufpca_fit.n_components

    mean = (tmp_path / "mean.csv").read_text().splitlines()
    assert mean[0] == "age,mean"
    assert len(mean) == 6
    value = float(mean[1].split(",")[1])
    assert value == ufpca_fit.means[0][0]  # repr round-trips exactly

    ef = (tmp_path / "eigenfunctions.csv").read_text().splitlines()
    assert ef[0] == "age," + ",".join(f"ef_{k+1}" for k in range(n))
    ev = (tmp_path / "eigenvalues.csv").read_text().splitlines()
    assert ev[0] == "component,eigenvalue,var_explained"
    assert len(ev) == n + 1
    scores = (tmp_path / "scores.csv").read_text().splitlines()
    assert scores[0] == "year," + ",".join(f"score_{k+1}" for k in range(n))
    assert len(scores) == 9
    assert scores[1].startswith("2000,")


def test_fpca_fit_serialization_is_deterministic(tmp_path, ufpca_fit):
    years = np.arange(2000, 2008)
    a, b = tmp_path / "a", tmp_path / "b"
    save_fpca_fit(ufpca_fit, years, np.arange(5), a)
    save_fpca_fit(ufpca_fit, years, np.arange(5), b)
    assert read_all(a) == read_all(b)


def test_mfpca_fit_files(tmp_path):
    rng = np.random.default_rng(1)
    curves = [rng.normal(-4, 1, (7, 4)) for _ in range(2)]
    fit = fit_mfpca(curves, uniform_weights(7), ComponentRule(threshold=0.9))
    save_mfpca_fit(fit, np.arange(1990, 1997), np.arange(4), ["f", "m"], tmp_path)
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {
        "eigenvalues.csv", "scores.csv",
        "mean_f.csv", "mean_m.csv",
        "eigenfunctions_f.csv", "eigenfunctions_m.csv",
    }
    ef = (tmp_path / "eigenfunctions_f.csv").read_text().splitlines()
    assert len(ef) == 5  # header plus one row per age


def joint_fit():
    rng = np.random.default_rng(1)
    curves = [rng.normal(-4, 1, (7, 4)) for _ in range(2)]
    return fit_mfpca(curves, uniform_weights(7), ComponentRule(threshold=0.9))


@pytest.mark.parametrize("ids", [["f"], ["f", "m", "x"]])
def test_mfpca_fit_needs_one_id_per_population(tmp_path, ids):
    with pytest.raises(ValueError):
        save_mfpca_fit(joint_fit(), np.arange(1990, 1997), np.arange(4), ids, tmp_path)
    assert not any(tmp_path.iterdir())


def test_fpca_fit_writer_rejects_a_joint_fit(tmp_path):
    with pytest.raises(ValueError):
        save_fpca_fit(joint_fit(), np.arange(1990, 1997), np.arange(4), tmp_path)
    assert not any(tmp_path.iterdir())


def test_forecast_surface_file(tmp_path):
    surface = ForecastSurface(
        population_id="pop",
        horizon_years=np.array([2020, 2021]),
        mean=np.full((2, 3), -4.0),
        variance=np.full((2, 3), 0.25),
        lower=np.full((2, 3), -5.0),
        upper=np.full((2, 3), -3.0),
    )
    path = tmp_path / "forecast_pop.csv"
    save_forecast_surface(surface, np.arange(3), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "year,age,mean,variance,lower,upper"
    assert len(lines) == 7
    assert lines[1] == "2020,0,-4.0,0.25,-5.0,-3.0"


def test_eval_report_appends_with_single_header(tmp_path):
    report = EvalReport(
        country="syn", model="coherent", horizon=10, windows=10, kappa=0.4,
        rmse={"f": 0.25, "m": 0.5}, avg_rmse=0.375,
    )
    path = tmp_path / "eval.csv"
    append_eval_report(report, path)
    append_eval_report(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "country,model,h,pop,rmse,avg_rmse,windows,kappa"
    assert len(lines) == 5
    assert lines[1] == "syn,coherent,10,f,0.25,0.375,10,0.4"
    assert sum(ln.startswith("country,") for ln in lines) == 1


def test_eval_report_without_kappa_leaves_field_empty(tmp_path):
    report = EvalReport(
        country="syn", model="independent", horizon=1, windows=2, kappa=None,
        rmse={"f": 0.1}, avg_rmse=0.1,
    )
    path = tmp_path / "eval.csv"
    append_eval_report(report, path)
    assert path.read_text().splitlines()[1].endswith(",2,")
