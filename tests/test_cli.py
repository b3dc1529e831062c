"""End-to-end command-line pipeline tests on a synthetic Mx_1x1 file."""

import ast
import math
import os
import pathlib
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields

import numpy as np
import pytest

from mortfpca import ComponentRule, cli, forecasters, tsmodels
from mortfpca.cli import (
    ENV_DATA_DIR,
    RunConfig,
    _resolve_kappa,
    build_parser,
    main,
    resolve_config,
)
from mortfpca.demographics import life_expectancy
from mortfpca.evaluation import smooth_bundle
from mortfpca.forecasters import MODELS, WEIGHTED_MODELS, fit_model
from mortfpca.hmd import (
    MortalitySurface,
    SurfaceBundle,
    impute_missing,
    read_matrix_csv,
    read_surface_csv,
    write_surface_csv,
)
from mortfpca.store import save_fpca_fit, save_mfpca_fit
from mortfpca.synthetic import synthetic_bundle

ERROR_RE = re.compile(r'^error module=\w+ type=\w+ msg="[^"]*"$')

YEARS = np.arange(2000, 2016)
AGES = np.arange(0, 36)


def synthetic_mx_text(seed=3):
    """Raw Mx_1x1 text: infant-mortality bump, drift, one missing cell."""
    rng = np.random.default_rng(seed)
    lines = [
        "Synthetic area, Death rates (period 1x1)",
        "",
        "  Year          Age             Female            Male           Total",
    ]
    for t, year in enumerate(YEARS):
        for age in AGES:
            base = -6.3 + 0.07 * age + 2.5 * math.exp(-age / 1.2) - 0.012 * t
            lf = base - 0.22 + rng.normal(0.0, 0.02)
            lm = base + 0.22 + rng.normal(0.0, 0.02)
            mf, mm = math.exp(lf), math.exp(lm)
            cols = [f"{mf:.8f}", f"{mm:.8f}", f"{0.5 * (mf + mm):.8f}"]
            if year == 2003 and age == 17:
                cols[0] = "."
            lines.append(f"{year}  {age}  {cols[0]}  {cols[1]}  {cols[2]}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def raw_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("raw") / "SYN.Mx_1x1.txt"
    path.write_text(synthetic_mx_text())
    return path


@pytest.fixture(scope="module")
def obs_dir(tmp_path_factory, raw_path):
    out = tmp_path_factory.mktemp("observed")
    assert main(["ingest", "--data", str(raw_path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def smooth_dir(tmp_path_factory, obs_dir):
    out = tmp_path_factory.mktemp("smoothed")
    assert main(["smooth", "--data", str(obs_dir), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def late_ages_dir(tmp_path_factory):
    """Observed female and male surfaces on ages 40-70 only."""
    out = tmp_path_factory.mktemp("ages40")
    rng = np.random.default_rng(5)
    ages = np.arange(40, 71)
    base = -9.0 + 0.085 * ages - 0.012 * np.arange(YEARS.size)[:, None]
    for pid, shift in (("female", -0.22), ("male", 0.22)):
        rates = base + shift + rng.normal(0.0, 0.02, base.shape)
        write_surface_csv(MortalitySurface(pid, YEARS, ages, rates), out / f"{pid}.csv")
    return out


def read_bytes_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def assert_error_line(capsys, module, error_type):
    err = capsys.readouterr().err.strip()
    assert ERROR_RE.match(err), err
    assert f"module={module} " in err
    assert f"type={error_type} " in err


# -- ingest ------------------------------------------------------------------


def test_ingest_writes_imputed_surfaces(obs_dir):
    names = sorted(p.name for p in obs_dir.iterdir())
    assert names == ["female.csv", "male.csv", "total.csv"]
    surface = read_surface_csv(obs_dir / "female.csv")
    assert surface.population_id == "female"
    assert surface.kind == "observed"
    assert np.array_equal(surface.years, YEARS)
    assert np.array_equal(surface.ages, AGES)
    assert np.all(np.isfinite(surface.log_rates))  # the "." cell was imputed


def test_ingest_reports_each_population(tmp_path, raw_path, capsys):
    assert main(["ingest", "--data", str(raw_path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for pid in ("female", "male", "total"):
        assert f"wrote {pid}.csv (16 years x 36 ages)" in out


def test_ingest_country_prefix_and_max_age(tmp_path, raw_path):
    rc = main(["ingest", "--data", str(raw_path), "--out", str(tmp_path),
               "--country", "SYN", "--max-age", "30"])
    assert rc == 0
    surface = read_surface_csv(tmp_path / "SYN_male.csv")
    assert surface.ages[-1] == 30


def test_ingest_malformed_input_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("title\n\nYear Age Female Male Total\n2000 zero 0.1 0.1 0.1\n")
    out = tmp_path / "out"
    rc = main(["ingest", "--data", str(bad), "--out", str(out)])
    assert rc == 1
    assert_error_line(capsys, "hmd", "MalformedRow")
    assert not any(out.glob("*.csv"))


def test_ingest_infinite_rate_fails_with_one_error_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("title\nYear Age Female Male Total\n2000 0 0.1 inf 0.1\n2000 1 0.2 0.2 0.2\n")
    out = tmp_path / "out"
    rc = main(["ingest", "--data", str(bad), "--out", str(out)])
    assert rc == 1
    assert_error_line(capsys, "hmd", "MalformedRow")
    assert not any(out.glob("*.csv"))


def test_ingest_non_utf8_input_fails_with_one_error_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"title\nYear Age Female Male Total\n2000 0 0.1 0.1 0.1\xff\n")
    out = tmp_path / "out"
    rc = main(["ingest", "--data", str(bad), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert ERROR_RE.match(err), err
    assert err.startswith("error module=hmd type=MalformedRow ")
    assert f'msg="{bad}:3: byte 0xff is not UTF-8"' in err
    assert not any(out.glob("*.csv"))


# -- smooth ------------------------------------------------------------------


def test_smooth_writes_surfaces_and_sigma_fields(smooth_dir):
    names = sorted(p.name for p in smooth_dir.iterdir())
    assert names == [
        "female.csv", "female.sigma.csv",
        "male.csv", "male.sigma.csv",
        "total.csv", "total.sigma.csv",
    ]
    surface = read_surface_csv(smooth_dir / "male.csv")
    assert surface.kind == "smoothed"
    years, ages, sigma = read_matrix_csv(smooth_dir / "male.sigma.csv", "sigma")
    assert sigma.shape == (YEARS.size, AGES.size)
    assert np.all(np.isfinite(sigma)) and np.all(sigma >= 0)


def test_smoothing_tracks_the_observed_surface(obs_dir, smooth_dir):
    observed = read_surface_csv(obs_dir / "female.csv")
    smoothed = read_surface_csv(smooth_dir / "female.csv")
    err = smoothed.log_rates - observed.log_rates
    assert np.sqrt(np.mean(err**2)) < 0.06  # noise sd is 0.02
    assert np.max(np.abs(err)) < 0.3


@pytest.mark.parametrize("max_age", ["20", "28"])
def test_ingest_below_thirty_ages_smooths_and_forecasts(tmp_path, raw_path, max_age):
    # the spline basis shrinks to one function per age on a short grid
    obs, smo, fc = tmp_path / "obs", tmp_path / "smo", tmp_path / "fc"
    assert main(["ingest", "--data", str(raw_path), "--out", str(obs), "--max-age", max_age]) == 0
    assert main(["smooth", "--data", str(obs), "--out", str(smo)]) == 0
    assert main(["forecast", "--data", str(obs), "--out", str(fc), "--model", "independent"]) == 0
    assert read_surface_csv(smo / "female.csv").ages[-1] == int(max_age)


def test_fewer_than_four_ages_cannot_be_smoothed(tmp_path, raw_path, capsys):
    obs = tmp_path / "obs"
    assert main(["ingest", "--data", str(raw_path), "--out", str(obs), "--max-age", "2"]) == 0
    capsys.readouterr()
    assert main(["smooth", "--data", str(obs), "--out", str(tmp_path / "smo")]) == 1
    err = capsys.readouterr().err.strip()
    assert ERROR_RE.match(err), err
    assert err.startswith("error module=smoothing type=SingularSystem ")
    assert 'msg="a cubic spline needs at least 4 ages, got 3"' in err


# -- fit ---------------------------------------------------------------------


def test_fit_joint_model_serializes_shared_basis(tmp_path, smooth_dir):
    rc = main(["fit", "--data", str(smooth_dir), "--out", str(tmp_path),
               "--model", "wmfpca", "--kappa", "0.6"])
    assert rc == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert {"eigenvalues.csv", "scores.csv"} <= names
    for pid in ("female", "male", "total"):
        assert f"mean_{pid}.csv" in names
        assert f"eigenfunctions_{pid}.csv" in names


def test_fit_per_population_model_uses_subdirectories(tmp_path, smooth_dir):
    rc = main(["fit", "--data", str(smooth_dir), "--out", str(tmp_path),
               "--model", "independent"])
    assert rc == 0
    for pid in ("female", "male", "total"):
        assert (tmp_path / pid / "eigenvalues.csv").exists()
        assert (tmp_path / pid / "scores.csv").exists()


def test_fit_common_plus_deviation_layout(tmp_path, smooth_dir):
    rc = main(["fit", "--data", str(smooth_dir), "--out", str(tmp_path),
               "--model", "coherent", "--kappa", "0.6"])
    assert rc == 0
    assert (tmp_path / "common" / "eigenvalues.csv").exists()
    assert (tmp_path / "deviations" / "eigenvalues.csv").exists()
    assert (tmp_path / "deviations" / "mean_female.csv").exists()


def test_fit_product_ratio_layout(tmp_path, smooth_dir):
    rc = main(["fit", "--data", str(smooth_dir), "--out", str(tmp_path),
               "--model", "product_ratio"])
    assert rc == 0
    assert (tmp_path / "product" / "eigenvalues.csv").exists()
    for pid in ("female", "male", "total"):
        assert (tmp_path / f"ratio_{pid}" / "eigenvalues.csv").exists()


def test_fit_joint_model_of_one_population_keeps_joint_layout(tmp_path, smooth_dir):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("female.csv", "female.sigma.csv"):
        (data / name).write_bytes((smooth_dir / name).read_bytes())
    out = tmp_path / "out"
    rc = main(["fit", "--data", str(data), "--out", str(out),
               "--model", "wmfpca", "--kappa", "0.6"])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"eigenvalues.csv", "scores.csv", "mean_female.csv",
                     "eigenfunctions_female.csv"}


@pytest.mark.parametrize("model, mean_file", [("independent", "female/mean.csv"),
                                              ("wmfpca", "mean_female.csv")])
def test_fit_files_are_labelled_with_the_surface_ages(tmp_path, late_ages_dir, model, mean_file):
    rc = main(["fit", "--data", str(late_ages_dir), "--out", str(tmp_path),
               "--model", model, "--kappa", "0.6", "--ncomp", "1"])
    assert rc == 0
    ef_file = mean_file.replace("mean", "eigenfunctions")
    for name in (mean_file, ef_file):
        rows = (tmp_path / name).read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(40, 71))


def test_fixed_component_count_caps_serialized_spectrum(tmp_path, smooth_dir):
    rc = main(["fit", "--data", str(smooth_dir), "--out", str(tmp_path),
               "--model", "independent", "--ncomp", "1"])
    assert rc == 0
    lines = (tmp_path / "female" / "eigenvalues.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus a single component


def fit_tree(root):
    """Every file under ``root``, by its path relative to ``root``."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def save_fit_model_blocks(data_dir, model, kappa, out):
    """The fit files of ``fit_model``'s blocks, laid out as ``mortfpca fit`` lays them out."""
    bundle = SurfaceBundle([read_surface_csv(p) for p in sorted(data_dir.glob("*.csv"))
                            if not p.name.endswith(".sigma.csv")])
    if bundle[0].kind == "observed":
        bundle, _ = smooth_bundle([impute_missing(s) for s in bundle])
    result = fit_model(bundle, model, kappa=kappa if model in WEIGHTED_MODELS else None,
                       rule=ComponentRule())
    for block in result.blocks:
        path = out / block.name
        if block.fit.parts:
            pids = [result.population_ids[i] for i in block.covers]
            save_mfpca_fit(block.fit, bundle.years, bundle.ages, pids, path)
        else:
            save_fpca_fit(block.fit, bundle.years, bundle.ages, path)


@pytest.mark.parametrize("kind", ["smoothed", "observed"])
@pytest.mark.parametrize("model", MODELS)
def test_fit_writes_the_decomposition_fit_model_holds(tmp_path, obs_dir, smooth_dir, model, kind):
    data = smooth_dir if kind == "smoothed" else obs_dir
    out, expected = tmp_path / "out", tmp_path / "expected"
    assert main(["fit", "--data", str(data), "--out", str(out), "--model", model,
                 "--kappa", "0.5"]) == 0
    save_fit_model_blocks(data, model, 0.5, expected)
    written = fit_tree(out)
    assert written and written == fit_tree(expected)


@pytest.mark.parametrize("model", MODELS)
def test_fit_at_a_fixed_kappa_runs_no_order_search(tmp_path, smooth_dir, model, monkeypatch):
    calls = []
    search = tsmodels.fit_auto_many

    def spy(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(tsmodels, "fit_auto_many", spy)
    monkeypatch.setattr(forecasters, "fit_auto_many", spy)
    argv = ["--data", str(smooth_dir), "--model", model, "--kappa", "0.5", "--h", "2"]
    assert main(["fit", "--out", str(tmp_path / "fit"), *argv]) == 0
    assert calls == []
    # the spy does see the one search a forecast runs
    assert main(["forecast", "--out", str(tmp_path / "fc"), *argv]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("model", WEIGHTED_MODELS)
def test_fit_with_kappa_auto_writes_the_files_of_the_tuned_kappa(tmp_path, smooth_dir, model,
                                                                 capsys):
    argv = ["fit", "--data", str(smooth_dir), "--model", model, "--h", "2", "--windows", "2"]
    assert main([*argv, "--out", str(tmp_path / "auto"), "--kappa", "auto"]) == 0
    tuned = re.fullmatch(r"tuned kappa = (\S+)", capsys.readouterr().out.splitlines()[0])
    assert tuned
    assert main([*argv, "--out", str(tmp_path / "fixed"), "--kappa", tuned.group(1)]) == 0
    assert fit_tree(tmp_path / "auto") == fit_tree(tmp_path / "fixed")


@pytest.mark.parametrize("tuned, edge", [(0.05, "lowest"), (0.95, "highest"), (0.35, None)])
def test_kappa_auto_says_when_the_tuned_value_is_an_edge_of_the_grid(tmp_path, smooth_dir, tuned,
                                                                    edge, capsys, monkeypatch):
    monkeypatch.setattr("mortfpca.cli.tune_kappa", lambda *args, **kwargs: tuned)
    assert main(["fit", "--data", str(smooth_dir), "--out", str(tmp_path), "--model", "coherent",
                 "--kappa", "auto", "--h", "2", "--windows", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"tuned kappa = {tuned}"
    notes = [f"tuned kappa is the {edge} value of the grid 0.05..0.95: "
             "the best kappa may lie beyond the grid"] if edge else []
    assert lines[: 1 + len(notes)] == [f"tuned kappa = {tuned}", *notes]
    assert sum("beyond the grid" in line for line in lines) == len(notes)


@pytest.mark.parametrize("n_years", [1, 2, 9])
def test_fit_needs_two_years_and_forecast_ten(tmp_path, obs_dir, n_years, capsys):
    # fit stops at the decomposition's floor of 2 years, forecast at the order search's 10
    data = tmp_path / "data"
    data.mkdir()
    for path in sorted(obs_dir.glob("*.csv")):
        s = read_surface_csv(path)
        write_surface_csv(MortalitySurface(s.population_id, s.years[:n_years], s.ages,
                                           s.log_rates[:n_years]), data / path.name)
    for model in MODELS:
        out = tmp_path / model
        rc = main(["fit", "--data", str(data), "--out", str(out), "--model", model,
                   "--kappa", "0.5"])
        if n_years == 1:
            assert rc == 1
            assert_error_line(capsys, "ufpca", "InsufficientYears")
            assert not any(out.iterdir())
        else:
            assert rc == 0
            assert capsys.readouterr().err == ""
            assert list(out.rglob("eigenvalues.csv"))
    rc = main(["forecast", "--data", str(data), "--out", str(tmp_path / "fc"),
               "--model", "independent"])
    assert rc == 1
    if n_years == 1:
        assert_error_line(capsys, "ufpca", "InsufficientYears")
    else:
        assert_error_line(capsys, "tsmodels", "SeriesTooShort")


# -- forecast ----------------------------------------------------------------


def test_forecast_writes_the_requested_grid(tmp_path, smooth_dir):
    rc = main(["forecast", "--data", str(smooth_dir), "--out", str(tmp_path),
               "--model", "wmfpca", "--kappa", "0.6", "--h", "3"])
    assert rc == 0
    lines = (tmp_path / "forecast_female.csv").read_text().splitlines()
    assert lines[0] == "year,age,mean,variance,lower,upper"
    assert len(lines) == 1 + 3 * AGES.size
    rows = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    assert set(rows[:, 0]) == {2016.0, 2017.0, 2018.0}
    assert np.all(rows[:, 4] < rows[:, 2]) and np.all(rows[:, 2] < rows[:, 5])
    assert np.all(rows[:, 3] > 0)


def test_forecast_rerun_is_byte_identical(tmp_path, smooth_dir):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["forecast", "--data", str(smooth_dir), "--model", "coherent",
            "--kappa", "0.6", "--h", "3", "--plot"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    tree1, tree2 = read_bytes_tree(out1), read_bytes_tree(out2)
    assert set(tree1) == set(tree2)
    assert any(name.endswith(".svg") for name in tree1)
    for name in tree1:
        assert tree1[name] == tree2[name], name


def test_forecast_svg_is_wellformed(tmp_path, smooth_dir):
    rc = main(["forecast", "--data", str(smooth_dir), "--out", str(tmp_path),
               "--model", "independent", "--h", "2", "--plot"])
    assert rc == 0
    svg = (tmp_path / "forecast_total.svg").read_text()
    assert svg.startswith("<svg")
    ET.fromstring(svg)


def test_forecast_of_constant_surface_is_constant(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    surface = MortalitySurface(
        population_id="pop",
        years=np.arange(2000, 2015),
        ages=np.arange(0, 35),
        log_rates=np.full((15, 35), -4.0),
    )
    write_surface_csv(surface, data / "pop.csv")
    out = tmp_path / "out"
    rc = main(["forecast", "--data", str(data), "--out", str(out),
               "--model", "independent", "--h", "5"])
    assert rc == 0
    lines = (out / "forecast_pop.csv").read_text().splitlines()[1:]
    means = np.array([float(ln.split(",")[2]) for ln in lines])
    assert np.max(np.abs(means - (-4.0))) < 1e-6


def _corrupt_sigma(tmp_path, smooth_dir, edit):
    """Copy of the smoothed directory whose female sigma rows pass through ``edit``."""
    data = tmp_path / "data"
    data.mkdir()
    for p in smooth_dir.iterdir():
        (data / p.name).write_bytes(p.read_bytes())
    lines = (data / "female.sigma.csv").read_text().splitlines()
    (data / "female.sigma.csv").write_text("\n".join([lines[0]] + edit(lines[1:])) + "\n")
    return data


def _swap_first_two(rows):
    return [rows[1], rows[0]] + rows[2:]


@pytest.mark.parametrize("edit", [
    lambda rows: [rows[0].rsplit(",", 1)[0] + ",abc"] + rows[1:],    # non-numeric cell
    lambda rows: [r for r in rows if not r.startswith(f"{YEARS[-1]},")],  # last year dropped
    _swap_first_two,                                                  # rows out of order
    lambda rows: [rows[0].rsplit(",", 1)[0] + ",-0.5"] + rows[1:],   # negative cell
    lambda rows: [rows[0].rsplit(",", 1)[0] + ",nan"] + rows[1:],    # not-a-number cell
], ids=["non_numeric", "last_year_dropped", "rows_swapped", "negative", "nan"])
def test_bad_sigma_grid_fails_with_one_error_line(tmp_path, smooth_dir, edit, capsys):
    data = _corrupt_sigma(tmp_path, smooth_dir, edit)
    rc = main(["forecast", "--data", str(data), "--out", str(tmp_path / "out"),
               "--model", "independent", "--h", "2"])
    assert rc == 1
    assert_error_line(capsys, "hmd", "SchemaMismatch")
    assert not (tmp_path / "out" / "forecast_female.csv").exists()


@pytest.mark.parametrize("dropped", [("female",), ("female", "male", "total")],
                         ids=["one", "all"])
def test_smoothed_input_without_sigma_files_is_a_config_error(tmp_path, smooth_dir, dropped,
                                                              capsys):
    data = tmp_path / "data"
    data.mkdir()
    for p in smooth_dir.iterdir():
        if p.name not in {f"{pid}.sigma.csv" for pid in dropped}:
            (data / p.name).write_bytes(p.read_bytes())
    out = tmp_path / "out"
    rc = main(["forecast", "--data", str(data), "--out", str(out),
               "--model", "independent", "--h", "2"])
    assert rc == 1
    assert_error_line(capsys, "cli", "ConfigError")
    assert not any(out.iterdir())


@pytest.mark.parametrize("model", MODELS)
def test_fit_reads_no_sigma_files(tmp_path, smooth_dir, model):
    data = tmp_path / "data"
    data.mkdir()
    for p in smooth_dir.iterdir():
        if not p.name.endswith(".sigma.csv"):
            (data / p.name).write_bytes(p.read_bytes())
    argv = ["fit", "--model", model, "--kappa", "0.5"]
    assert main([*argv, "--data", str(smooth_dir), "--out", str(tmp_path / "with")]) == 0
    assert main([*argv, "--data", str(data), "--out", str(tmp_path / "without")]) == 0
    written = fit_tree(tmp_path / "without")
    assert written and written == fit_tree(tmp_path / "with")


@pytest.mark.parametrize("data, kind", [("obs_dir", "observed"), ("smooth_dir", "smoothed")])
@pytest.mark.parametrize("command", ["fit", "forecast", "diagnose"])
def test_kappa_auto_tunes_on_the_surfaces_of_the_data_directory(tmp_path, request, data, kind,
                                                                command, monkeypatch):
    kinds = []
    tune = cli.tune_kappa

    def spy(bundle, *args, **kwargs):
        kinds.append({surface.kind for surface in bundle})
        return tune(bundle, *args, **kwargs)

    monkeypatch.setattr(cli, "tune_kappa", spy)
    assert main([command, "--data", str(request.getfixturevalue(data)), "--out", str(tmp_path),
                 "--model", "wmfpca", "--kappa", "auto", "--h", "2", "--windows", "2"]) == 0
    assert kinds == [{kind}]


@pytest.mark.parametrize("command", ["smooth", "evaluate"])
def test_smoothed_input_to_smooth_or_evaluate_is_a_config_error(tmp_path, smooth_dir, command,
                                                                capsys):
    # evaluate scores against observed rates, and smoothing twice would change the surfaces
    out = tmp_path / "out"
    rc = main([command, "--data", str(smooth_dir), "--out", str(out),
               "--model", "independent", "--h", "1", "--windows", "1"])
    assert rc == 1
    assert_error_line(capsys, "cli", "ConfigError")
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["smooth", "fit", "forecast", "evaluate", "diagnose"])
def test_directory_mixing_observed_and_smoothed_is_a_config_error(tmp_path, obs_dir, smooth_dir,
                                                                  command, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "female.csv").write_bytes((obs_dir / "female.csv").read_bytes())
    for name in ("male.csv", "male.sigma.csv"):
        (data / name).write_bytes((smooth_dir / name).read_bytes())
    out = tmp_path / "out"
    rc = main([command, "--data", str(data), "--out", str(out),
               "--model", "independent", "--h", "1", "--windows", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert ERROR_RE.match(err.strip()) and "type=ConfigError " in err, err
    assert "mixes observed and smoothed surfaces" in err
    assert not any(out.iterdir())


def _drop_last_year(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(ln for ln in lines if not ln.startswith(f"{YEARS[-1]},")) + "\n")


@pytest.mark.parametrize("edit", [
    lambda data: (data / "female_copy.csv").write_bytes((data / "female.csv").read_bytes()),
    lambda data: _drop_last_year(data / "male.csv"),
], ids=["duplicate_population_id", "year_grids_differ"])
def test_surfaces_that_form_no_bundle_are_a_config_error(tmp_path, obs_dir, edit, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for p in obs_dir.iterdir():
        (data / p.name).write_bytes(p.read_bytes())
    edit(data)
    out = tmp_path / "out"
    rc = main(["smooth", "--data", str(data), "--out", str(out)])
    assert rc == 1
    assert_error_line(capsys, "cli", "ConfigError")
    assert not any(out.iterdir())


# -- evaluate ----------------------------------------------------------------


def test_evaluate_appends_one_row_per_population(tmp_path, obs_dir, capsys):
    argv = ["evaluate", "--data", str(obs_dir), "--out", str(tmp_path),
            "--model", "independent", "--h", "1", "--windows", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "avg: rmse" in out
    lines = (tmp_path / "eval.csv").read_text().splitlines()
    assert lines[0] == "country,model,h,pop,rmse,avg_rmse,windows,kappa"
    assert len(lines) == 4
    country = os.path.basename(str(obs_dir))
    assert all(ln.startswith(f"{country},independent,1,") for ln in lines[1:])
    rmses = [float(ln.split(",")[4]) for ln in lines[1:]]
    assert all(0 < r < 1 for r in rmses)

    assert main(argv) == 0  # appends, header stays single
    lines = (tmp_path / "eval.csv").read_text().splitlines()
    assert len(lines) == 7
    assert sum(ln.startswith("country,") for ln in lines) == 1


def test_evaluate_tunes_kappa_on_a_holdout(tmp_path, obs_dir, capsys, monkeypatch):
    captured = {}

    def fake_tune(bundle, model, h, **kwargs):
        captured["last_train_year"] = int(bundle.years[-1])
        return 0.35

    monkeypatch.setattr("mortfpca.cli.tune_kappa", fake_tune)
    rc = main(["evaluate", "--data", str(obs_dir), "--out", str(tmp_path),
               "--model", "wmfpca", "--kappa", "auto", "--h", "1",
               "--windows", "2"])
    assert rc == 0
    # the final two years are evaluation targets, so tuning must not see them
    assert captured["last_train_year"] == 2013
    assert "tuned kappa = 0.35" in capsys.readouterr().out
    row = (tmp_path / "eval.csv").read_text().splitlines()[1]
    assert row.endswith(",2,0.35")


def test_evaluate_checks_the_design_before_tuning_kappa(tmp_path, capsys):
    # 25 windows leave no tuning years before the holdout: one error line, no traceback
    data = tmp_path / "data"
    data.mkdir()
    for surface in synthetic_bundle(seed=1, n_years=20, max_age=40):
        write_surface_csv(surface, data / f"{surface.population_id}.csv")
    rc = main(["evaluate", "--data", str(data), "--out", str(tmp_path / "out"),
               "--model", "wmfpca", "--kappa", "auto", "--h", "2", "--windows", "25"])
    assert rc == 1
    assert_error_line(capsys, "evaluation", "InsufficientSpan")
    assert not (tmp_path / "out" / "eval.csv").exists()


@pytest.mark.parametrize("name", ["Sweden,1950", "New Zealand"])
def test_evaluate_label_from_data_follows_the_country_rule(tmp_path, obs_dir, name, capsys):
    # with no --country the basename of --data labels the eval.csv rows
    data = tmp_path / name
    data.mkdir()
    for p in obs_dir.iterdir():
        (data / p.name).write_bytes(p.read_bytes())
    rc = main(["evaluate", "--data", str(data), "--out", str(tmp_path / "out"),
               "--model", "independent", "--h", "2", "--windows", "2"])
    assert rc == 1
    assert_error_line(capsys, "cli", "ConfigError")
    assert not (tmp_path / "out").exists()
    assert main(["evaluate", "--data", str(data), "--out", str(tmp_path / "out"),
                 "--model", "independent", "--h", "2", "--windows", "2",
                 "--country", "SWE"]) == 0


# -- diagnose ----------------------------------------------------------------


def test_diagnose_writes_ratio_and_life_expectancy(tmp_path, smooth_dir, capsys):
    rc = main(["diagnose", "--data", str(smooth_dir), "--out", str(tmp_path),
               "--model", "coherent", "--kappa", "0.6", "--h", "3", "--plot"])
    assert rc == 0
    years, ages, ratio = read_matrix_csv(tmp_path / "sexratio.csv", "sex_ratio")
    assert years.size == YEARS.size + 3 and np.array_equal(ages, AGES)
    assert np.all(ratio > 1)  # male rates sit 0.44 above female in log space

    lines = (tmp_path / "e0.csv").read_text().splitlines()
    assert lines[0] == "year,e0_male,e0_female"
    assert len(lines) == YEARS.size + 3 + 1
    e0 = np.array([ln.split(",")[1:] for ln in lines[1:]], dtype=float)
    assert np.all(e0[:, 0] < e0[:, 1])  # male expectancy below female
    assert np.all(e0 > 0) and np.all(np.isfinite(e0))

    for name in ("e0.svg", "sexratio.svg"):
        ET.fromstring((tmp_path / name).read_text())
    out = capsys.readouterr().out
    assert "e0 2000:" in out and "e0 2018:" in out


def test_e0_rows_are_the_shortest_repr_of_each_life_expectancy(tmp_path, smooth_dir):
    args = ["--data", str(smooth_dir), "--model", "coherent", "--kappa", "0.6", "--h", "3"]
    assert main(["diagnose", "--out", str(tmp_path / "diag")] + args) == 0
    assert main(["forecast", "--out", str(tmp_path / "fc")] + args) == 0
    rates = {}
    for pid in ("male", "female"):
        rows = (tmp_path / "fc" / f"forecast_{pid}.csv").read_text().splitlines()[1:]
        forecast = np.array([float(row.split(",")[2]) for row in rows]).reshape(3, AGES.size)
        rates[pid] = np.vstack([read_surface_csv(smooth_dir / f"{pid}.csv").log_rates, forecast])
    expected = ["year,e0_male,e0_female"] + [
        f"{year},{life_expectancy(male).e0!r},{life_expectancy(female).e0!r}"
        for year, male, female in zip(range(2000, 2019), rates["male"], rates["female"])
    ]
    assert (tmp_path / "diag" / "e0.csv").read_text().splitlines() == expected


def test_diagnose_needs_both_sexes(tmp_path, smooth_dir, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("total.csv", "total.sigma.csv"):
        (data / name).write_bytes((smooth_dir / name).read_bytes())
    rc = main(["diagnose", "--data", str(data), "--out", str(tmp_path / "out"),
               "--model", "independent", "--h", "2"])
    assert rc == 1
    assert_error_line(capsys, "cli", "ConfigError")


def test_diagnose_needs_age_zero(tmp_path, late_ages_dir, capsys):
    out = tmp_path / "out"
    rc = main(["diagnose", "--data", str(late_ages_dir), "--out", str(out),
               "--model", "independent", "--h", "2"])
    assert rc == 1
    assert_error_line(capsys, "cli", "ConfigError")
    assert not (out / "e0.csv").exists()


def test_diagnose_unwritable_e0_target_is_an_io_error(tmp_path, smooth_dir, capsys):
    out = tmp_path / "out"
    (out / "e0.csv").mkdir(parents=True)  # a directory where the table should go
    rc = main(["diagnose", "--data", str(smooth_dir), "--out", str(out),
               "--model", "independent", "--h", "2"])
    assert rc == 1
    assert_error_line(capsys, "hmd", "IoError")


@pytest.mark.parametrize("model", MODELS)
def test_only_weighted_models_resolve_a_kappa(model):
    kappa = _resolve_kappa(RunConfig(model=model, kappa=0.4), bundle=None)
    assert (kappa is None) == (model in ("independent", "product_ratio"))
    assert (kappa is None) == (model not in WEIGHTED_MODELS)
    assert kappa in (None, 0.4)


# -- configuration layering --------------------------------------------------


def test_config_file_supplies_defaults(tmp_path, smooth_dir):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# pipeline defaults\n"
        "model = coherent\n"
        "kappa = 0.55\n"
        "var-threshold = 0.85\n"
    )
    out = tmp_path / "fit"
    rc = main(["fit", "--config", str(cfg), "--data", str(smooth_dir),
               "--out", str(out)])
    assert rc == 0
    assert (out / "common" / "eigenvalues.csv").exists()  # model from config


def test_flags_override_config_values(tmp_path, smooth_dir):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = independent\nh = 2\n")
    out = tmp_path / "fc"
    rc = main(["forecast", "--config", str(cfg), "--data", str(smooth_dir),
               "--out", str(out), "--h", "3"])
    assert rc == 0
    lines = (out / "forecast_female.csv").read_text().splitlines()[1:]
    years = {ln.split(",")[0] for ln in lines}
    assert years == {"2016", "2017", "2018"}


@pytest.mark.parametrize("body", [
    "horizon = 3",          # unknown key
    "h 3",                  # missing '='
    "h = three",            # not an int
    "plot = maybe",         # not a boolean
    "model = lee_carter",   # not one of MODELS; argparse choices guard only the flag
])
def test_config_file_errors(tmp_path, body, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(body + "\n")
    rc = main(["smooth", "--config", str(cfg), "--data", str(tmp_path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert_error_line(capsys, "cli", "ConfigError")


def test_seed_is_not_a_setting(tmp_path, capsys):
    # no step draws random numbers, so there is no seed to set
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\n")
    rc = main(["smooth", "--config", str(cfg), "--data", str(tmp_path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert ERROR_RE.match(err), err
    assert err == f'error module=cli type=ConfigError msg="{cfg}:1: unknown key \'seed\'"'


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    rc = main(["smooth", "--config", str(tmp_path / "nope.cfg"),
               "--data", str(tmp_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert_error_line(capsys, "cli", "ConfigError")


def test_non_utf8_config_file_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"h = 3\n# caf\xe9\n")
    rc = main(["smooth", "--config", str(cfg), "--data", str(tmp_path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert ERROR_RE.match(err), err
    assert err.startswith("error module=cli type=ConfigError ")
    assert f'msg="{cfg}:2: byte 0xe9 is not UTF-8"' in err


def test_environment_variable_supplies_data_dir(tmp_path, obs_dir, monkeypatch):
    monkeypatch.setenv(ENV_DATA_DIR, str(obs_dir))
    assert main(["smooth", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "female.sigma.csv").exists()


def test_missing_data_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_DATA_DIR, raising=False)
    rc = main(["smooth", "--out", str(tmp_path)])
    assert rc == 1
    assert_error_line(capsys, "cli", "ConfigError")


# -- flag validation ---------------------------------------------------------


@pytest.mark.parametrize("extra", [
    ["--h", "0"],
    ["--alpha", "1.5"],
    ["--var-threshold", "0"],
    ["--var-threshold", "1.2"],
    ["--ncomp", "0"],
    ["--windows", "0"],
    ["--weight-power", "0.7"],
    ["--max-age", "0"],
    ["--max-age", "101"],
    ["--kappa", "1.5"],
    ["--kappa", "abc"],
    ["--h", "abc"],
    ["--ncomp", "1.5"],
    ["--alpha", "x"],
    ["--windows", "2.5"],
])
def test_bad_flag_values_fail_with_one_error_line(tmp_path, extra, capsys):
    rc = main(["smooth", "--data", str(tmp_path), "--out", str(tmp_path)] + extra)
    assert rc == 1
    assert_error_line(capsys, "cli", "ConfigError")


#: a valid non-default text for every setting; --plot is the one flag without text
SETTING_TEXTS = [
    ("data", "surfaces"), ("out", "results"), ("model", "coherent"), ("h", "7"),
    ("kappa", "0.3"), ("kappa", "auto"), ("var_threshold", "0.8"), ("ncomp", "3"),
    ("alpha", "0.1"), ("windows", "4"), ("plot", "true"),
    ("weight_power", "0.5"), ("country", "NZL"), ("max_age", "90"),
]


@pytest.mark.parametrize("key, text", SETTING_TEXTS)
def test_flag_and_config_line_resolve_to_the_same_setting(tmp_path, key, text):
    assert {k for k, _ in SETTING_TEXTS} == {f.name for f in fields(RunConfig)} - {"command"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n")
    base = ["fit"] + ([] if key == "data" else ["--data", "surfaces"])
    flag = ["--" + key.replace("_", "-")] + ([] if key == "plot" else [text])
    parser = build_parser()
    from_flag = resolve_config(parser.parse_args(base + flag))
    from_file = resolve_config(parser.parse_args(base + ["--config", str(cfg)]))
    assert getattr(from_flag, key) == getattr(from_file, key) != getattr(RunConfig(), key)


@pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]], ids=["bare", "fit"])
def test_help_lists_every_command_and_every_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    page = capsys.readouterr().out
    for name, (_, line) in cli.COMMANDS.items():
        assert re.search(rf"^  {name} +{re.escape(line)}$", page, re.M), name
    for key in ["config"] + [f.name for f in fields(RunConfig) if f.name != "command"]:
        assert re.search(rf"^  --{key.replace('_', '-')}\b", page, re.M), key


def test_flags_before_and_after_the_command_resolve_alike():
    flags = ["--data", "surfaces", "--model", "coherent", "--h", "5", "--plot", "--kappa", "0.3"]
    parser = build_parser()
    before = resolve_config(parser.parse_args([*flags, "forecast"]))
    after = resolve_config(parser.parse_args(["forecast", *flags]))
    split = resolve_config(parser.parse_args([*flags[:4], "forecast", *flags[4:]]))
    assert before == after == split
    assert (before.command, before.model, before.h) == ("forecast", "coherent", 5) and before.plot


@pytest.mark.parametrize("country", ["New Zealand", "NZ,1", "../x", "a\\b", "S\u00e9"])
@pytest.mark.parametrize("via_file", [False, True], ids=["flag", "file"])
def test_country_with_whitespace_or_comma_is_a_config_error(tmp_path, raw_path, country,
                                                            via_file, capsys):
    # a space splits the population_id comment on read-back, a comma shifts eval.csv
    # columns, a slash or backslash leaves --out, and a surface CSV is ASCII
    argv = ["ingest", "--data", str(raw_path), "--out", str(tmp_path / "out")]
    if via_file:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"country = {country}\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--country", country]
    assert main(argv) == 1
    assert_error_line(capsys, "cli", "ConfigError")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("comment", [b"population_id=../escaped", b"population_id=fe,male",
                                     b"population_id=fe\x00male"], ids=["slash", "comma", "nul"])
@pytest.mark.parametrize("command", ["smooth", "evaluate"])
def test_population_id_that_breaks_the_label_rule_is_a_schema_mismatch(tmp_path, obs_dir, comment,
                                                                       command, capsys):
    data = tmp_path / "d"
    data.mkdir()
    text = (obs_dir / "female.csv").read_bytes()
    (data / "female.csv").write_bytes(text.replace(b"population_id=female", comment, 1))
    rc = main([command, "--data", str(data), "--out", str(tmp_path / "out" / "sm"),
               "--model", "independent", "--h", "2", "--windows", "2"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert ERROR_RE.match(err), err
    assert err.startswith("error module=hmd type=SchemaMismatch ") and str(data / "female.csv") in err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [data / "female.csv"]


def test_weighted_model_requires_kappa(tmp_path, smooth_dir, capsys):
    rc = main(["fit", "--data", str(smooth_dir), "--out", str(tmp_path),
               "--model", "wmfpca"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "needs --kappa" in err


def test_output_directory_is_required(raw_path, capsys):
    rc = main(["ingest", "--data", str(raw_path)])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert ERROR_RE.match(err) and "--out" in err


def test_data_must_be_a_directory_of_surfaces(tmp_path, raw_path, capsys):
    rc = main(["smooth", "--data", str(raw_path), "--out", str(tmp_path)])
    assert rc == 1
    assert_error_line(capsys, "cli", "ConfigError")

    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["smooth", "--data", str(empty), "--out", str(tmp_path)])
    assert rc == 1
    assert "no surface CSVs" in capsys.readouterr().err


def test_unknown_model_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(tmp_path), "--out", str(tmp_path),
              "--model", "magic"])
    assert exc.value.code == 2


def modules_at_exit(statement, package="scipy"):
    """Run ``statement`` in a fresh interpreter: its exit status and the ``package`` modules it loaded."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import atexit, sys\n"
            f"atexit.register(lambda: print(sorted(m for m in sys.modules if m == {package!r} "
            f"or m.startswith({package + '.'!r}))))\n"
            + statement)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    return done.returncode, ast.literal_eval(done.stdout.splitlines()[-1])


def cli_statement(argv):
    return f"from mortfpca.cli import main\nsys.exit(main({argv!r}))"


@pytest.mark.parametrize("start", ["import", "import_cli", "help", "bad_flag", "ingest", "smooth",
                                   "fit"])
def test_start_up_without_an_order_search_loads_no_scipy(tmp_path, raw_path, obs_dir, smooth_dir,
                                                         start):
    # SciPy serves only the ARIMA fitter's band solve and is imported by the first
    # one; importing it adds about 0.25 s and 28 MB to a command's start-up
    statement = {
        "import": "import mortfpca",
        "import_cli": "import mortfpca.cli",
        "help": cli_statement(["--help"]),
        "bad_flag": cli_statement(["fit", "--data", str(obs_dir), "--h", "0"]),
        "ingest": cli_statement(["ingest", "--data", str(raw_path), "--out", str(tmp_path)]),
        "smooth": cli_statement(["smooth", "--data", str(obs_dir), "--out", str(tmp_path)]),
        "fit": cli_statement(["fit", "--data", str(smooth_dir), "--out", str(tmp_path),
                              "--kappa", "0.5"]),
    }[start]
    assert modules_at_exit(statement) == (1 if start == "bad_flag" else 0, [])


@pytest.mark.skipif(tsmodels._openblas_dtbtrs() is None,
                    reason="numpy names no scipy-openblas BLAS with a scipy_dtbtrs_64_ next to "
                           "it, so the order search imports SciPy's dtbtrs")
@pytest.mark.parametrize("command", ["forecast", "evaluate", "diagnose", "fit_auto"])
def test_an_order_search_loads_no_scipy_where_numpy_ships_dtbtrs(tmp_path, obs_dir, smooth_dir,
                                                                  command):
    # the band solve binds numpy's own LAPACK dtbtrs; importing SciPy's adds
    # about 0.25 s and 27 MB to every command that searches
    argv = {
        "forecast": ["forecast", "--data", str(smooth_dir), "--model", "independent"],
        "evaluate": ["evaluate", "--data", str(obs_dir), "--model", "independent", "--h", "1",
                     "--windows", "2"],
        "diagnose": ["diagnose", "--data", str(smooth_dir), "--model", "coherent",
                     "--kappa", "0.6", "--h", "3"],
        "fit_auto": ["fit", "--data", str(smooth_dir), "--model", "wmfpca", "--kappa", "auto",
                     "--h", "2", "--windows", "2"],
    }[command]
    assert modules_at_exit(cli_statement([*argv, "--out", str(tmp_path)])) == (0, [])


@pytest.mark.parametrize("command", ["ingest", "smooth", "fit"])
def test_ingest_smooth_and_fit_load_no_numpy_ma(tmp_path, raw_path, obs_dir, smooth_dir, command):
    # np.unique imports numpy.ma on its first call, about 14 ms and 0.8 MB of start-up
    argv = {
        "ingest": ["ingest", "--data", str(raw_path), "--out", str(tmp_path)],
        "smooth": ["smooth", "--data", str(obs_dir), "--out", str(tmp_path)],
        "fit": ["fit", "--data", str(smooth_dir), "--out", str(tmp_path), "--kappa", "0.5"],
    }[command]
    assert modules_at_exit(cli_statement(argv), "numpy.ma") == (0, [])


def test_every_function_the_bench_tracer_wraps_exists():
    # bench/tracer.py wraps these by module and name; it is loaded by path, not run
    import importlib.util

    import mortfpca.cli  # noqa: F401  (imports every layer module)

    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer_names", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.Tracer("t")._targets()
    assert len(targets) >= 15
    for module, function, *_ in targets:
        assert callable(getattr(sys.modules[module], function, None)), f"{module}.{function}"
