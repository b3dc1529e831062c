"""Command-line pipeline: ingest, smooth, fit, forecast, evaluate, diagnose.

Settings resolve in three layers: built-in defaults, then an optional flat
``key = value`` config file given with ``--config``, then explicit flags.
``--data`` falls back to the ``MFPCA_DATA_DIR`` environment variable.  All
failures print a single machine-parsable line to stderr::

    error module=<subsystem> type=<ErrorClass> msg="..."

and exit with status 1.  Outputs are deterministic: rerunning a command on
identical inputs rewrites byte-identical files.

Data directories hold one ``<population_id>.csv`` per population (schema
``year,age,log_rate``, kind tag in a leading comment) plus, after
``smooth``, one ``<population_id>.sigma.csv`` with the absolute smoothing
residuals.  Commands that need smoothed input accept an observed directory
and smooth it on the fly with default settings.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .components import ComponentRule
from .demographics import life_expectancy, sex_ratio
from .errors import ConfigError, MortfpcaError, SchemaMismatch
from .evaluation import rolling_rmse, smooth_bundle, tune_kappa
from .forecasters import MODELS, fit_model, predict_interval
from .hmd import (
    SurfaceBundle,
    impute_missing,
    parse_hmd_rates,
    read_matrix_csv,
    read_surface_csv,
    write_matrix_csv,
    write_surface_csv,
)
from .smoothing import ResidualField, SmoothConfig
from .store import (
    append_eval_report,
    save_forecast_surface,
    save_fpca_fit,
    save_mfpca_fit,
    write_lines,
)
from .svgplot import line_chart

ENV_DATA_DIR = "MFPCA_DATA_DIR"


@dataclass
class RunConfig:
    command: str = ""
    data: str | None = None
    out: str | None = None
    model: str = "wmfpca"
    h: int = 20
    kappa: str | float | None = None
    var_threshold: float = 0.9
    ncomp: int | None = None
    alpha: float = 0.05
    windows: int = 10
    seed: int = 0
    plot: bool = False
    weight_power: float = 1.0
    country: str = ""
    max_age: int = 100

    @property
    def rule(self) -> ComponentRule:
        return ComponentRule(threshold=self.var_threshold, override=self.ncomp)


_INT_KEYS = {"h", "ncomp", "windows", "seed", "max_age"}
_FLOAT_KEYS = {"var_threshold", "alpha", "weight_power"}
_BOOL_KEYS = {"plot"}
_STR_KEYS = {"data", "out", "model", "country"}


def _coerce(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _BOOL_KEYS:
            lowered = raw.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if key == "kappa":
            return raw if raw == "auto" else float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def _read_config_file(path) -> dict:
    known = {f.name for f in fields(RunConfig)} - {"command"}
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        raw = raw.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mortfpca",
        description="Multi-population mortality forecasting pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat 'key = value' settings file")
    common.add_argument("--data", help=f"input path (default ${ENV_DATA_DIR})")
    common.add_argument("--out", help="output directory")
    common.add_argument("--model", choices=MODELS, help="forecasting model")
    common.add_argument("--h", type=int, help="forecast horizon in years")
    common.add_argument("--kappa", help="geometric decay rate in (0,1), or 'auto'")
    common.add_argument("--var-threshold", type=float, dest="var_threshold",
                        help="cumulative variance share for component choice")
    common.add_argument("--ncomp", type=int, help="fixed component count override")
    common.add_argument("--alpha", type=float, help="two-sided interval miss probability")
    common.add_argument("--windows", type=int, help="rolling evaluation window count")
    common.add_argument("--seed", type=int, help="recorded for reproducibility")
    common.add_argument("--plot", action="store_const", const=True, default=None,
                        help="also write SVG charts")
    common.add_argument("--weight-power", type=float, dest="weight_power",
                        help="1.0 scales centered curves by w_t, 0.5 by sqrt(w_t)")
    common.add_argument("--country", help="label used in reports and file prefixes")
    common.add_argument("--max-age", type=int, dest="max_age",
                        help="truncate ingested ages above this")

    sub.add_parser("ingest", parents=[common],
                   help="parse raw Mx_1x1 text into per-population CSV surfaces")
    sub.add_parser("smooth", parents=[common],
                   help="penalized-spline smooth each surface, write sigma fields")
    sub.add_parser("fit", parents=[common],
                   help="fit a decomposition and serialize its components")
    sub.add_parser("forecast", parents=[common],
                   help="forecast log rates with prediction intervals")
    sub.add_parser("evaluate", parents=[common],
                   help="rolling-origin RMSE per population, appended to eval.csv")
    sub.add_parser("diagnose", parents=[common],
                   help="sex ratios and life expectancy, historical plus forecast")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "config", None):
        for key, value in _read_config_file(args.config).items():
            setattr(cfg, key, value)
    for f in fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            setattr(cfg, f.name, flag_value)
    if cfg.data is None:
        cfg.data = os.environ.get(ENV_DATA_DIR) or None

    if isinstance(cfg.kappa, str) and cfg.kappa != "auto":
        cfg.kappa = _coerce("kappa", cfg.kappa)
    if cfg.h < 1:
        raise ConfigError(f"h must be >= 1, got {cfg.h}")
    if not 0.0 < cfg.alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {cfg.alpha}")
    if not 0.0 < cfg.var_threshold <= 1.0:
        raise ConfigError(f"var-threshold must lie in (0, 1], got {cfg.var_threshold}")
    if cfg.ncomp is not None and cfg.ncomp < 1:
        raise ConfigError(f"ncomp must be >= 1, got {cfg.ncomp}")
    if cfg.windows < 1:
        raise ConfigError(f"windows must be >= 1, got {cfg.windows}")
    if cfg.weight_power not in (1.0, 0.5):
        raise ConfigError(f"weight-power must be 1.0 or 0.5, got {cfg.weight_power}")
    if isinstance(cfg.kappa, float) and not 0.0 < cfg.kappa < 1.0:
        raise ConfigError(f"kappa must lie in (0, 1), got {cfg.kappa}")
    if cfg.max_age < 1 or cfg.max_age > 100:
        raise ConfigError(f"max-age must lie in 1..100, got {cfg.max_age}")
    if cfg.data is None:
        raise ConfigError(f"no input: pass --data or set ${ENV_DATA_DIR}")
    if cfg.model not in MODELS:
        raise ConfigError(f"unknown model {cfg.model!r}")
    return cfg


def _require_out(cfg: RunConfig) -> str:
    if not cfg.out:
        raise ConfigError("this command needs --out")
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def _load_surface_dir(path):
    """All surface CSVs in a directory, alphabetical, plus sigma fields."""
    if not os.path.isdir(path):
        raise ConfigError(f"{path} is not a directory of surface CSVs")
    names = sorted(
        n for n in os.listdir(path)
        if n.endswith(".csv") and not n.endswith(".sigma.csv")
    )
    if not names:
        raise ConfigError(f"no surface CSVs in {path}")
    surfaces, residuals = [], []
    for name in names:
        surface = read_surface_csv(os.path.join(path, name))
        sigma_path = os.path.join(path, name[:-4] + ".sigma.csv")
        if os.path.exists(sigma_path):
            years, ages, sigma = read_matrix_csv(sigma_path, "sigma")
            if not (np.array_equal(years, surface.years) and np.array_equal(ages, surface.ages)):
                raise SchemaMismatch(f"{sigma_path}: years or ages differ from {name}")
            if not np.all(np.isfinite(sigma) & (sigma >= 0)):
                raise SchemaMismatch(f"{sigma_path}: sigma must be finite and non-negative")
            residuals.append(
                ResidualField(sigma=sigma, sigma_avg=np.sqrt(np.mean(sigma**2, axis=0)))
            )
        else:
            residuals.append(None)
        surfaces.append(surface)
    bundle = SurfaceBundle(surfaces)
    if any(r is None for r in residuals):
        residuals = None
    return bundle, residuals


def _prepared_bundle(cfg: RunConfig):
    """A smoothed bundle plus residual fields, smoothing on the fly if needed."""
    bundle, residuals = _load_surface_dir(cfg.data)
    kinds = {s.kind for s in bundle}
    if kinds == {"smoothed"} and residuals is not None:
        return bundle, residuals
    if kinds == {"smoothed"}:
        raise ConfigError(f"{cfg.data} holds smoothed surfaces but no .sigma.csv files")
    return smooth_bundle([impute_missing(s) for s in bundle], SmoothConfig())


def _resolve_kappa(cfg: RunConfig, bundle, holdout: bool = False) -> float | None:
    """Numeric kappa for weighted models, tuning by rolling RMSE for 'auto'.

    With ``holdout`` the tuning never sees the final ``windows`` years, so
    an evaluation on those targets stays out of sample.
    """
    if cfg.model in ("independent", "product_ratio"):
        return None
    if cfg.kappa is None:
        raise ConfigError(
            f"model {cfg.model!r} needs --kappa (a value in (0,1) or 'auto')"
        )
    if cfg.kappa == "auto":
        training = bundle
        if holdout:
            years = bundle.years
            training = bundle.subset_years(int(years[0]), int(years[-1]) - cfg.windows)
        kappa = tune_kappa(
            training, cfg.model, cfg.h, windows=cfg.windows,
            rule=cfg.rule, weight_power=cfg.weight_power,
        )
        print(f"tuned kappa = {kappa}")
        return kappa
    return float(cfg.kappa)


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    try:
        with open(cfg.data, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {cfg.data}: {exc}") from exc
    bundle = parse_hmd_rates(raw, max_age=cfg.max_age, prefix=cfg.country)
    for surface in bundle:
        filled = impute_missing(surface)
        write_surface_csv(filled, os.path.join(out, f"{filled.population_id}.csv"))
        print(f"wrote {filled.population_id}.csv "
              f"({filled.n_years} years x {filled.n_ages} ages)")
    return 0


def cmd_smooth(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    bundle, _ = _load_surface_dir(cfg.data)
    smoothed, fields_ = smooth_bundle([impute_missing(s) for s in bundle], SmoothConfig())
    for surface, field in zip(smoothed, fields_):
        write_surface_csv(surface, os.path.join(out, f"{surface.population_id}.csv"))
        write_matrix_csv(
            surface.years, surface.ages, field.sigma,
            os.path.join(out, f"{surface.population_id}.sigma.csv"), "sigma",
        )
        print(f"smoothed {surface.population_id}: "
              f"mean |residual| {field.sigma.mean():.4f}")
    return 0


def cmd_fit(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    bundle, _ = _prepared_bundle(cfg)
    kappa = _resolve_kappa(cfg, bundle)
    result = fit_model(bundle, cfg.model, h=cfg.h, kappa=kappa, rule=cfg.rule,
                       weight_power=cfg.weight_power)
    for block in result.blocks:
        path = os.path.join(out, block.name)
        if block.fit.parts:
            pids = [result.population_ids[i] for i in block.covers]
            save_mfpca_fit(block.fit, bundle.years, bundle.ages, pids, path)
        else:
            save_fpca_fit(block.fit, bundle.years, bundle.ages, path)
        print(f"{block.name or 'joint'}: {block.fit.n_components} components, "
              f"shares {np.round(block.fit.var_explained, 4)}")
    return 0


def cmd_forecast(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    bundle, residuals = _prepared_bundle(cfg)
    kappa = _resolve_kappa(cfg, bundle)
    result = fit_model(bundle, cfg.model, h=cfg.h, kappa=kappa, rule=cfg.rule,
                       weight_power=cfg.weight_power)
    surfaces = predict_interval(result, residuals, alpha=cfg.alpha)
    for surface in surfaces:
        path = os.path.join(out, f"forecast_{surface.population_id}.csv")
        save_forecast_surface(surface, bundle.ages, path)
        print(f"wrote forecast_{surface.population_id}.csv "
              f"({cfg.h} years x {bundle.ages.size} ages)")
        if cfg.plot:
            last = surface.mean.shape[0] - 1
            line_chart(
                os.path.join(out, f"forecast_{surface.population_id}.svg"),
                bundle.ages,
                [
                    (f"mean {surface.horizon_years[last]}", surface.mean[last]),
                    ("lower", surface.lower[last]),
                    ("upper", surface.upper[last]),
                ],
                title=f"{surface.population_id}: log rate forecast",
                y_label="log death rate",
            )
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    bundle, _ = _load_surface_dir(cfg.data)
    imputed = SurfaceBundle([impute_missing(s) for s in bundle])
    kappa = _resolve_kappa(cfg, imputed, holdout=True)
    report = rolling_rmse(
        imputed, cfg.model, cfg.h, windows=cfg.windows, kappa=kappa,
        rule=cfg.rule, weight_power=cfg.weight_power,
        country=cfg.country or os.path.basename(os.path.normpath(cfg.data)),
    )
    append_eval_report(report, os.path.join(out, "eval.csv"))
    for pid, rmse in report.rmse.items():
        print(f"{report.country} {report.model} h={report.horizon} "
              f"{pid}: rmse {rmse:.4f}")
    print(f"{report.country} {report.model} h={report.horizon} "
          f"avg: rmse {report.avg_rmse:.4f}")
    return 0


def _sex_pair(bundle):
    female = male = None
    for i, pid in enumerate(bundle.population_ids):
        lowered = pid.lower()
        if lowered == "female" or lowered.endswith("_female"):
            female = i
        elif lowered == "male" or lowered.endswith("_male"):
            male = i
    if female is None or male is None:
        raise ConfigError("diagnose needs populations named *female and *male")
    return male, female


def cmd_diagnose(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    bundle, residuals = _prepared_bundle(cfg)
    male_i, female_i = _sex_pair(bundle)
    if bundle.ages[0] != 0:
        raise ConfigError(f"diagnose reports life expectancy at birth and needs age 0; "
                          f"the ages start at {bundle.ages[0]}")
    kappa = _resolve_kappa(cfg, bundle)
    result = fit_model(bundle, cfg.model, h=cfg.h, kappa=kappa, rule=cfg.rule,
                       weight_power=cfg.weight_power)
    surfaces = predict_interval(result, residuals, alpha=cfg.alpha)

    male_hist = bundle[male_i].log_rates
    female_hist = bundle[female_i].log_rates
    male_fc = surfaces[male_i].mean
    female_fc = surfaces[female_i].mean
    years = np.concatenate([bundle.years, surfaces[male_i].horizon_years])
    ratio = np.vstack([
        sex_ratio(male_hist, female_hist),
        sex_ratio(male_fc, female_fc),
    ])
    write_matrix_csv(years, bundle.ages, ratio, os.path.join(out, "sexratio.csv"),
                     "sex_ratio")

    male_all = np.vstack([male_hist, male_fc])
    female_all = np.vstack([female_hist, female_fc])
    e0_male = [life_expectancy(row).e0 for row in male_all]
    e0_female = [life_expectancy(row).e0 for row in female_all]
    lines = ["year,e0_male,e0_female"]
    for year, em, ef in zip(years, e0_male, e0_female):
        lines.append(f"{year},{em!r},{ef!r}")
    write_lines(os.path.join(out, "e0.csv"), lines)
    print(f"e0 {years[0]}: male {e0_male[0]:.2f}, female {e0_female[0]:.2f}")
    print(f"e0 {years[-1]}: male {e0_male[-1]:.2f}, female {e0_female[-1]:.2f}")

    if cfg.plot:
        line_chart(
            os.path.join(out, "e0.svg"), years,
            [("male", e0_male), ("female", e0_female)],
            title="Life expectancy at birth", y_label="years",
        )
        line_chart(
            os.path.join(out, "sexratio.svg"), bundle.ages,
            [
                (f"observed {bundle.years[-1]}", ratio[bundle.years.size - 1]),
                (f"forecast {years[-1]}", ratio[-1]),
            ],
            title="Male / female death rate ratio", y_label="ratio",
        )
    return 0


COMMANDS = {
    "ingest": cmd_ingest,
    "smooth": cmd_smooth,
    "fit": cmd_fit,
    "forecast": cmd_forecast,
    "evaluate": cmd_evaluate,
    "diagnose": cmd_diagnose,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[cfg.command](cfg)
    except MortfpcaError as exc:
        msg = str(exc).replace('"', "'")
        print(f'error module={exc.module} type={type(exc).__name__} msg="{msg}"',
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
