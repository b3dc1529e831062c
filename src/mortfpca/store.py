"""CSV persistence for fitted decompositions, forecasts and evaluations.

All files are plain comma-separated text with a single header row.  Floats
are written with ``repr``, the shortest representation that round-trips
exactly, so repeated runs on identical inputs produce byte-identical files.
Every numeric table goes through the one table writer of :mod:`mortfpca.hmd`
(``_write_grid``); only ``eval.csv``, whose rows start with text and are
appended, is written line by line.

Schemas
-------
``mean.csv``            age,mean
``eigenfunctions.csv``  age,ef_1,...,ef_N
``eigenvalues.csv``     component,eigenvalue,var_explained
``scores.csv``          year,score_1,...,score_N
``forecast_<pop>.csv``  year,age,mean,variance,lower,upper
``eval.csv``            country,model,h,pop,rmse,avg_rmse,windows,kappa
"""

from __future__ import annotations

import os

from .errors import IoError
from .hmd import _write_grid


def _fmt(value) -> str:
    return repr(float(value))


def _save_fit(fit, years, ages, suffixes, outdir) -> None:
    """Spectrum and scores, then a mean/eigenfunctions pair per slice named by its suffix."""
    if len(suffixes) != len(fit.means):
        raise ValueError(f"{len(suffixes)} file suffixes for a fit of {len(fit.means)} slices")
    os.makedirs(outdir, exist_ok=True)
    n = fit.n_components
    _write_grid(os.path.join(outdir, "eigenvalues.csv"), ["component,eigenvalue,var_explained"],
                None, range(1, n + 1), [fit.eigenvalues, fit.var_explained], "%r")
    _write_grid(os.path.join(outdir, "scores.csv"),
                ["year," + ",".join(f"score_{k + 1}" for k in range(n))],
                None, years, fit.scores.T, "%r")
    for suffix, mean, loadings in zip(suffixes, fit.means, fit.loadings):
        _write_grid(os.path.join(outdir, f"mean{suffix}.csv"), ["age,mean"], None, ages, [mean],
                    "%r")
        _write_grid(os.path.join(outdir, f"eigenfunctions{suffix}.csv"),
                    ["age," + ",".join(f"ef_{k + 1}" for k in range(n))],
                    None, ages, loadings, "%r")


def save_fpca_fit(fit, years, ages, outdir) -> None:
    """Persist a one-slice fit as mean/eigenfunctions/eigenvalues/scores."""
    _save_fit(fit, years, ages, [""], outdir)


def save_mfpca_fit(fit, years, ages, population_ids, outdir) -> None:
    """Persist a joint fit: shared scores plus one mean/eigenfunctions pair per population."""
    _save_fit(fit, years, ages, [f"_{pid}" for pid in population_ids], outdir)


def save_forecast_surface(surface, ages, path) -> None:
    """Persist one population's forecast grid with interval bounds."""
    _write_grid(path, ["year,age,mean,variance,lower,upper"], surface.horizon_years, ages,
                [surface.mean, surface.variance, surface.lower, surface.upper], "%r")


EVAL_HEADER = "country,model,h,pop,rmse,avg_rmse,windows,kappa"


def append_eval_report(report, path) -> None:
    """Append one row per population to the evaluation CSV."""
    need_header = not os.path.exists(path)
    rows = [] if not need_header else [EVAL_HEADER]
    kappa = "" if report.kappa is None else _fmt(report.kappa)
    for pid, rmse in report.rmse.items():
        rows.append(
            f"{report.country},{report.model},{report.horizon},{pid},"
            f"{_fmt(rmse)},{_fmt(report.avg_rmse)},{report.windows},{kappa}"
        )
    try:
        with open(path, "a", encoding="ascii") as fh:
            fh.write("\n".join(rows) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
