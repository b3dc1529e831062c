"""CSV persistence for fitted decompositions, forecasts and evaluations.

All files are plain comma-separated text with a single header row.  Floats
are written with ``repr``, the shortest representation that round-trips
exactly, so repeated runs on identical inputs produce byte-identical files.

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


def write_lines(path, lines, mode: str = "w") -> None:
    """Write (or with ``mode="a"`` append) newline-terminated ASCII lines."""
    try:
        with open(path, mode, encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _fmt(value) -> str:
    return repr(float(value))


def _save_fit(fit, years, ages, suffixes, outdir) -> None:
    """Spectrum and scores, then a mean/eigenfunctions pair per slice named by its suffix."""
    if len(suffixes) != len(fit.means):
        raise ValueError(f"{len(suffixes)} file suffixes for a fit of {len(fit.means)} slices")
    os.makedirs(outdir, exist_ok=True)
    n = fit.n_components
    write_lines(
        os.path.join(outdir, "eigenvalues.csv"),
        ["component,eigenvalue,var_explained"]
        + [f"{k + 1},{_fmt(fit.eigenvalues[k])},{_fmt(fit.var_explained[k])}" for k in range(n)],
    )
    header = "year," + ",".join(f"score_{k + 1}" for k in range(n))
    rows = [
        f"{year}," + ",".join(_fmt(fit.scores[t, k]) for k in range(n))
        for t, year in enumerate(years)
    ]
    write_lines(os.path.join(outdir, "scores.csv"), [header] + rows)

    for suffix, mean, loadings in zip(suffixes, fit.means, fit.loadings):
        write_lines(
            os.path.join(outdir, f"mean{suffix}.csv"),
            ["age,mean"] + [f"{a},{_fmt(v)}" for a, v in zip(ages, mean)],
        )
        header = "age," + ",".join(f"ef_{k + 1}" for k in range(n))
        rows = [
            f"{a}," + ",".join(_fmt(loadings[k, j]) for k in range(n))
            for j, a in enumerate(ages)
        ]
        write_lines(os.path.join(outdir, f"eigenfunctions{suffix}.csv"), [header] + rows)


def save_fpca_fit(fit, years, ages, outdir) -> None:
    """Persist a one-slice fit as mean/eigenfunctions/eigenvalues/scores."""
    _save_fit(fit, years, ages, [""], outdir)


def save_mfpca_fit(fit, years, ages, population_ids, outdir) -> None:
    """Persist a joint fit: shared scores plus one mean/eigenfunctions pair per population."""
    _save_fit(fit, years, ages, [f"_{pid}" for pid in population_ids], outdir)


def save_forecast_surface(surface, ages, path) -> None:
    """Persist one population's forecast grid with interval bounds."""
    lines = ["year,age,mean,variance,lower,upper"]
    for t, year in enumerate(surface.horizon_years):
        for j, age in enumerate(ages):
            lines.append(
                f"{year},{age},{_fmt(surface.mean[t, j])},{_fmt(surface.variance[t, j])},"
                f"{_fmt(surface.lower[t, j])},{_fmt(surface.upper[t, j])}"
            )
    write_lines(path, lines)


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
    write_lines(path, rows, mode="a")
