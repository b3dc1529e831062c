"""Output checks and digests for benchmark passes.

Every reader here is the benchmark's own, so a defect in the program's CSV
code cannot hide itself.  Each check raises :class:`CheckFailed` with a
message naming the file and the broken property.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

#: the smoother makes each curve non-decreasing from this age on
MONOTONE_FROM_AGE = 65
#: slack for comparisons that rounding may touch
TOL = 1e-12


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def dir_digest(path) -> str:
    """SHA-256 over every file under ``path``: relative name and bytes."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            digest.update(os.path.relpath(full, path).encode())
            digest.update(b"\0")
            with open(full, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
    return digest.hexdigest()


def read_rows(path, header: str):
    """Comment-stripped rows of a CSV file split on commas, after ``header``."""
    require(os.path.isfile(path), f"{path}: missing")
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    meta = {}
    if lines and lines[0].startswith("#"):
        meta = dict(item.split("=", 1) for item in lines[0][1:].split() if "=" in item)
        lines = lines[1:]
    require(lines and lines[0] == header, f"{path}: header is not {header!r}")
    return [ln.split(",") for ln in lines[1:]], meta


def read_numeric(path, header: str) -> tuple[np.ndarray, dict]:
    rows, meta = read_rows(path, header)
    width = header.count(",") + 1
    require(rows and all(len(r) == width for r in rows), f"{path}: ragged or empty")
    try:
        table = np.array(rows, dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"{path}: unparseable value ({exc})") from exc
    require(np.all(np.isfinite(table)), f"{path}: non-finite value")
    return table, meta


def read_grid(path, value_columns: str, years, ages) -> np.ndarray:
    """Values of a year-by-age file as an array (years, ages, columns)."""
    table, _ = read_numeric(path, "year,age," + value_columns)
    years, ages = np.asarray(years), np.asarray(ages)
    require(table.shape[0] == years.size * ages.size,
            f"{path}: {table.shape[0]} rows, want {years.size * ages.size}")
    require(np.array_equal(table[:, 0], np.repeat(years, ages.size))
            and np.array_equal(table[:, 1], np.tile(ages, years.size)),
            f"{path}: years or ages do not match the input")
    return table[:, 2:].reshape(years.size, ages.size, -1)


def check_surface(path, population_id, kind, years, ages) -> np.ndarray:
    """A surface CSV: its tag, grid and finite log rates."""
    _, meta = read_rows(path, "year,age,log_rate")
    require(meta.get("population_id") == population_id and meta.get("kind") == kind,
            f"{path}: tag {meta} is not population_id={population_id} kind={kind}")
    grid = read_grid(path, "log_rate", years, ages)[:, :, 0]
    if kind == "smoothed":
        old = np.asarray(ages) >= MONOTONE_FROM_AGE
        require(np.all(np.diff(grid[:, old], axis=1) >= -TOL),
                f"{path}: smoothed curve decreases after age {MONOTONE_FROM_AGE}")
    return grid


def check_sigma(path, years, ages) -> np.ndarray:
    sigma = read_grid(path, "sigma", years, ages)[:, :, 0]
    require(np.all(sigma >= 0), f"{path}: negative sigma")
    return sigma


def check_forecast(path, years, ages) -> np.ndarray:
    """A forecast grid: ordered bounds, and variance that never shrinks."""
    grid = read_grid(path, "mean,variance,lower,upper", years, ages)
    mean, var, lower, upper = (grid[:, :, k] for k in range(4))
    require(np.all(lower <= mean) and np.all(mean <= upper), f"{path}: mean outside bounds")
    require(np.all(var >= 0), f"{path}: negative variance")
    require(np.all(np.diff(var, axis=0) >= -TOL * np.abs(var[:-1])),
            f"{path}: variance decreases with horizon")
    return grid


def _check_components(path) -> int:
    table, _ = read_numeric(path, "component,eigenvalue,var_explained")
    require(table.shape[0] >= 1 and np.array_equal(table[:, 0], np.arange(1, table.shape[0] + 1)),
            f"{path}: components not numbered 1..n")
    require(np.all(table[:, 1] >= 0) and np.all((table[:, 2] >= 0) & (table[:, 2] <= 1)),
            f"{path}: negative eigenvalue or share outside [0, 1]")
    return table.shape[0]


def _check_columns(path, key, keys, prefix, n):
    header = key + "," + ",".join(f"{prefix}_{k + 1}" for k in range(n))
    table, _ = read_numeric(path, header)
    require(np.array_equal(table[:, 0], keys), f"{path}: {key} column does not match the input")


def check_fpca_dir(path, years, ages) -> None:
    """``save_fpca_fit`` output: mean, eigen pairs and scores on the input grid."""
    n = _check_components(os.path.join(path, "eigenvalues.csv"))
    table, _ = read_numeric(os.path.join(path, "mean.csv"), "age,mean")
    require(np.array_equal(table[:, 0], ages), f"{path}/mean.csv: ages do not match")
    _check_columns(os.path.join(path, "eigenfunctions.csv"), "age", ages, "ef", n)
    _check_columns(os.path.join(path, "scores.csv"), "year", years, "score", n)


def check_mfpca_dir(path, years, ages, population_ids) -> None:
    """``save_mfpca_fit`` output: shared scores plus per-population pieces."""
    n = _check_components(os.path.join(path, "eigenvalues.csv"))
    _check_columns(os.path.join(path, "scores.csv"), "year", years, "score", n)
    for pid in population_ids:
        table, _ = read_numeric(os.path.join(path, f"mean_{pid}.csv"), "age,mean")
        require(np.array_equal(table[:, 0], ages), f"{path}/mean_{pid}.csv: ages do not match")
        _check_columns(os.path.join(path, f"eigenfunctions_{pid}.csv"), "age", ages, "ef", n)


def check_diagnose(path, years, ages) -> None:
    """``sexratio.csv`` > 0 on the full grid and ``e0.csv`` within (0, 120)."""
    ratio = read_grid(os.path.join(path, "sexratio.csv"), "sex_ratio", years, ages)
    require(np.all(ratio > 0), f"{path}/sexratio.csv: non-positive ratio")
    table, _ = read_numeric(os.path.join(path, "e0.csv"), "year,e0_male,e0_female")
    require(np.array_equal(table[:, 0], years), f"{path}/e0.csv: years do not match")
    require(np.all((table[:, 1:] > 0) & (table[:, 1:] < 120)), f"{path}/e0.csv: e0 outside (0, 120)")


def check_eval(path, population_ids, model, h, windows, kappa) -> float:
    """``eval.csv`` rows for one evaluation; returns its ``avg_rmse``."""
    rows, _ = read_rows(path, "country,model,h,pop,rmse,avg_rmse,windows,kappa")
    require(all(len(r) == 8 for r in rows), f"{path}: ragged rows")
    require([r[3] for r in rows] == list(population_ids), f"{path}: populations do not match")
    require(all(r[1:3] == [model, str(h)] and r[6] == str(windows) for r in rows),
            f"{path}: model, h or windows do not match the request")
    try:
        values = np.array([[r[4], r[5], r[7]] for r in rows], dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"{path}: unparseable value ({exc})") from exc
    rmse, avg = values[:, 0], values[0, 1]
    require(np.all(values[:, 2] == kappa), f"{path}: kappa is not {kappa}")
    require(np.all(np.isfinite(rmse)) and np.all(rmse > 0), f"{path}: rmse not finite and > 0")
    require(np.all(values[:, 1] == avg) and abs(avg - rmse.mean()) <= 1e-12 * avg,
            f"{path}: avg_rmse is not the mean")
    return float(avg)
