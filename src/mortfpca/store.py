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


def _save_decomposition(outdir, years, ages, eigenvalues, var_explained, scores, pieces) -> None:
    """Spectrum and scores, then one mean/eigenfunctions pair per (suffix, mean, loadings)."""
    os.makedirs(outdir, exist_ok=True)
    n = eigenvalues.size
    write_lines(
        os.path.join(outdir, "eigenvalues.csv"),
        ["component,eigenvalue,var_explained"]
        + [f"{k + 1},{_fmt(eigenvalues[k])},{_fmt(var_explained[k])}" for k in range(n)],
    )
    header = "year," + ",".join(f"score_{k + 1}" for k in range(n))
    rows = [
        f"{year}," + ",".join(_fmt(scores[t, k]) for k in range(n))
        for t, year in enumerate(years)
    ]
    write_lines(os.path.join(outdir, "scores.csv"), [header] + rows)

    for suffix, mean, loadings in pieces:
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
    """Persist one univariate fit as mean/eigenfunctions/eigenvalues/scores."""
    _save_decomposition(outdir, years, ages, fit.eigenvalues, fit.var_explained, fit.scores,
                        [("", fit.mean_fn, fit.eigenfunctions)])


def save_mfpca_fit(fit, years, ages, population_ids, outdir) -> None:
    """Persist a joint fit: shared scores plus per-population pieces."""
    pieces = [
        (f"_{pid}", f.mean_fn, ef)
        for pid, f, ef in zip(population_ids, fit.per_pop_fits, fit.multi_eigenfunctions)
    ]
    _save_decomposition(outdir, years, ages, fit.joint_eigenvalues, fit.var_explained,
                        fit.shared_scores, pieces)


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
