"""Serialized fit artifacts: schemas and byte-level determinism."""

import numpy as np
import pytest

from mortfpca.evaluation import EvalReport
from mortfpca.forecasters import ForecastSurface
from mortfpca.mfpca import fit_mfpca
from mortfpca.store import (
    append_eval_report,
    save_forecast_surface,
    save_fpca_fit,
    save_mfpca_fit,
)
from mortfpca.ufpca import ComponentRule, fit_ufpca, uniform_weights


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


def reference_fit_files(fit, years, ages, suffixes):
    """The per-cell ``repr`` rows the fit writer wrote before it used the table writer."""
    n = fit.n_components
    files = {"eigenvalues.csv": ["component,eigenvalue,var_explained"] + [
        f"{k + 1},{float(fit.eigenvalues[k])!r},{float(fit.var_explained[k])!r}"
        for k in range(n)]}
    files["scores.csv"] = ["year," + ",".join(f"score_{k + 1}" for k in range(n))] + [
        f"{year}," + ",".join(repr(float(fit.scores[t, k])) for k in range(n))
        for t, year in enumerate(years)]
    for suffix, mean, loadings in zip(suffixes, fit.means, fit.loadings):
        files[f"mean{suffix}.csv"] = ["age,mean"] + [
            f"{a},{float(v)!r}" for a, v in zip(ages, mean)]
        files[f"eigenfunctions{suffix}.csv"] = ["age," + ",".join(
            f"ef_{k + 1}" for k in range(n))] + [
            f"{a}," + ",".join(repr(float(loadings[k, j])) for k in range(n))
            for j, a in enumerate(ages)]
    return {name: ("\n".join(lines) + "\n").encode() for name, lines in sorted(files.items())}


@pytest.mark.parametrize("curves", ["random", "constant"])
def test_fit_files_match_the_per_cell_reference(tmp_path, curves):
    rng = np.random.default_rng(2)
    years, ages = np.arange(1990, 1998), np.arange(4)
    if curves == "random":
        pops = [rng.normal(-4, 1, (8, 4)) for _ in range(2)]
    else:  # every year the same curve, whose weighted mean is exact: no component
        pops = [np.tile([-6.0, -5.5, -5.0, -4.25], (8, 1)) + i for i in range(2)]
    one = fit_ufpca(pops[0], uniform_weights(8), ComponentRule(threshold=0.9))
    joint = fit_mfpca(pops, uniform_weights(8), ComponentRule(threshold=0.9))
    save_fpca_fit(one, years, ages, tmp_path / "one")
    save_mfpca_fit(joint, years, ages, ["f", "m"], tmp_path / "joint")
    assert read_all(tmp_path / "one") == reference_fit_files(one, years, ages, [""])
    assert read_all(tmp_path / "joint") == reference_fit_files(joint, years, ages, ["_f", "_m"])
    assert (one.n_components == joint.n_components == 0) == (curves == "constant")


def test_zero_component_fit_files(tmp_path):
    fit = fit_ufpca(np.tile([-6.0, -5.5, -5.0], (4, 1)), uniform_weights(4))
    assert fit.n_components == 0
    save_fpca_fit(fit, np.arange(2001, 2005), np.arange(3), tmp_path)
    assert read_all(tmp_path) == {
        "eigenfunctions.csv": b"age,\n0,\n1,\n2,\n",
        "eigenvalues.csv": b"component,eigenvalue,var_explained\n",
        "mean.csv": b"age,mean\n0,-6.0\n1,-5.5\n2,-5.0\n",
        "scores.csv": b"year,\n2001,\n2002,\n2003,\n2004,\n",
    }


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
