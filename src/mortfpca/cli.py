"""Command-line pipeline: ingest, smooth, fit, forecast, evaluate, diagnose.

Settings resolve in three layers: built-in defaults, then an optional flat
``key = value`` config file given with ``--config``, then explicit flags.
Each setting is one ``RunConfig`` field that declares its parser and help,
so a flag and a file line share one parser and one error.
``--data`` falls back to the ``MFPCA_DATA_DIR`` environment variable.  All
failures print a single machine-parsable line to stderr::

    error module=<subsystem> type=<ErrorClass> msg="..."

and exit with status 1.  Outputs are deterministic: rerunning a command on
identical inputs rewrites byte-identical files.

Data directories hold one ``<population_id>.csv`` per population (schema
``year,age,log_rate``, kind tag in a leading comment) plus, after
``smooth``, one ``<population_id>.sigma.csv`` with the absolute smoothing
residuals.  Commands that need smoothed input accept an observed directory
and smooth it on the fly.  ``smooth`` and ``evaluate`` need observed input,
and no command reads a directory that mixes the two kinds.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .components import ComponentRule
from .demographics import life_expectancy, sex_ratio
from .errors import ConfigError, MalformedRow, MortfpcaError, SchemaMismatch
from .evaluation import DEFAULT_KAPPA_GRID, _check_design, rolling_rmse, smooth_bundle, tune_kappa
from .forecasters import MODELS, WEIGHTED_MODELS, _decompose, fit_model, predict_interval
from .hmd import (
    LABEL_RULE,
    SurfaceBundle,
    _write_grid,
    impute_missing,
    is_label,
    parse_hmd_rates,
    read_matrix_csv,
    read_surface_csv,
    write_matrix_csv,
    write_surface_csv,
)
from .store import (
    append_eval_report,
    save_forecast_surface,
    save_fpca_fit,
    save_mfpca_fit,
)
from .svgplot import line_chart

ENV_DATA_DIR = "MFPCA_DATA_DIR"


def _flag(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def _kappa(raw: str) -> str | float:
    return raw if raw == "auto" else float(raw)


def _check_label(label: str, name: str) -> str:
    """``label``, which becomes part of a population_id and an eval.csv field."""
    if not is_label(label):
        raise ConfigError(f"{name} must be {LABEL_RULE}, got {label!r}")
    return label


def _setting(default, help: str, parse=str, **flag):
    """A ``RunConfig`` setting: its default, the parser of its text and its flag."""
    return field(default=default, metadata={"parse": parse, "help": help, "flag": flag})


@dataclass
class RunConfig:
    command: str = ""
    data: str | None = _setting(None, f"input path (default ${ENV_DATA_DIR})")
    out: str | None = _setting(None, "output directory")
    model: str = _setting("wmfpca", "forecasting model", choices=MODELS)
    h: int = _setting(20, "forecast horizon in years", int)
    kappa: str | float | None = _setting(None, "geometric decay rate in (0,1), or 'auto'", _kappa)
    var_threshold: float = _setting(0.9, "cumulative variance share for component choice", float)
    ncomp: int | None = _setting(None, "fixed component count override", int)
    alpha: float = _setting(0.05, "two-sided interval miss probability", float)
    windows: int = _setting(10, "rolling evaluation window count", int)
    plot: bool = _setting(False, "also write SVG charts", _flag,
                          action="store_const", const="true")
    weight_power: float = _setting(1.0, "1.0 scales centered curves by w_t, 0.5 by sqrt(w_t)",
                                   float)
    country: str = _setting("", "label used in reports and file prefixes")
    max_age: int = _setting(100, "truncate ingested ages above this", int)

    @property
    def rule(self) -> ComponentRule:
        return ComponentRule(threshold=self.var_threshold, override=self.ncomp)


#: every setting a flag or a config file line can give, by name
_SETTINGS = {f.name: f for f in fields(RunConfig) if f.metadata}


def _coerce(key: str, raw: str):
    """The value of setting ``key`` that flag or file text ``raw`` gives."""
    try:
        return _SETTINGS[key].metadata["parse"](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def _not_utf8(path) -> str:
    """``path:line: byte ... is not UTF-8`` for the first such byte of ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return f"{path}:{line}: byte {data[exc.start]:#04x} is not UTF-8"
    return f"{path}: not UTF-8 text"


def _read_config_file(path) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(_not_utf8(path)) from exc
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        raw = raw.strip()
        if key not in _SETTINGS:
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
    for key, setting in _SETTINGS.items():
        common.add_argument("--" + key.replace("_", "-"), help=setting.metadata["help"],
                            **setting.metadata["flag"])

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
    if args.config:
        for key, value in _read_config_file(args.config).items():
            setattr(cfg, key, value)
    for key in _SETTINGS:
        raw = getattr(args, key)
        if raw is not None:
            setattr(cfg, key, _coerce(key, raw))
    if cfg.data is None:
        cfg.data = os.environ.get(ENV_DATA_DIR) or None

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
    _check_label(cfg.country, "country")
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
    """All surface CSVs in a directory, alphabetical, plus their sigma arrays.

    The sigma list is ``None`` unless every surface has a ``.sigma.csv``.
    """
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
            residuals.append(sigma)
        else:
            residuals.append(None)
        surfaces.append(surface)
    if len({s.kind for s in surfaces}) > 1:
        raise ConfigError(f"{path} mixes observed and smoothed surfaces")
    try:
        bundle = SurfaceBundle(surfaces)
    except ValueError as exc:  # two files of one population, or two grids
        raise ConfigError(f"{path}: {exc}") from exc
    if any(r is None for r in residuals):
        residuals = None
    return bundle, residuals


def _observed_surfaces(cfg: RunConfig):
    """The imputed surfaces of a directory of observed ones."""
    bundle, _ = _load_surface_dir(cfg.data)
    if bundle[0].kind != "observed":
        raise ConfigError(f"{cfg.command} needs observed surfaces; {cfg.data} holds smoothed ones")
    return [impute_missing(s) for s in bundle]


def _prepared_bundle(cfg: RunConfig):
    """A smoothed bundle plus its sigma arrays, smoothing on the fly if needed."""
    bundle, residuals = _load_surface_dir(cfg.data)
    if bundle[0].kind == "observed":
        return smooth_bundle([impute_missing(s) for s in bundle])
    if residuals is None:
        raise ConfigError(f"{cfg.data} holds smoothed surfaces but no .sigma.csv files")
    return bundle, residuals


def _resolve_kappa(cfg: RunConfig, bundle, holdout: bool = False) -> float | None:
    """Numeric kappa for weighted models, tuning by rolling RMSE for 'auto'.

    With ``holdout`` the tuning never sees the final ``windows`` years, so
    an evaluation on those targets stays out of sample.
    """
    if cfg.model not in WEIGHTED_MODELS:
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
        lowest, highest = DEFAULT_KAPPA_GRID[0], DEFAULT_KAPPA_GRID[-1]
        if kappa in (lowest, highest):
            edge = "lowest" if kappa == lowest else "highest"
            print(f"tuned kappa is the {edge} value of the grid {lowest}..{highest}: "
                  f"the best kappa may lie beyond the grid")
        return kappa
    return cfg.kappa


def _fit(cfg: RunConfig, bundle):
    """The configured model fitted to ``bundle``, with kappa tuned first for 'auto'."""
    return fit_model(bundle, cfg.model, h=cfg.h, kappa=_resolve_kappa(cfg, bundle),
                     rule=cfg.rule, weight_power=cfg.weight_power)


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    try:
        with open(cfg.data, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {cfg.data}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedRow(_not_utf8(cfg.data)) from exc
    bundle = parse_hmd_rates(raw, max_age=cfg.max_age, prefix=cfg.country)
    for surface in bundle:
        filled = impute_missing(surface)
        write_surface_csv(filled, os.path.join(out, f"{filled.population_id}.csv"))
        print(f"wrote {filled.population_id}.csv "
              f"({filled.n_years} years x {filled.n_ages} ages)")
    return 0


def cmd_smooth(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    smoothed, residuals = smooth_bundle(_observed_surfaces(cfg))
    for surface, sigma in zip(smoothed, residuals):
        write_surface_csv(surface, os.path.join(out, f"{surface.population_id}.csv"))
        write_matrix_csv(
            surface.years, surface.ages, sigma,
            os.path.join(out, f"{surface.population_id}.sigma.csv"), "sigma",
        )
        print(f"smoothed {surface.population_id}: "
              f"mean |residual| {sigma.mean():.4f}")
    return 0


def cmd_fit(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    bundle, _ = _prepared_bundle(cfg)
    # the decomposition alone: fit writes no score forecast, so it runs no order search
    ids, _, [(_, blocks)] = _decompose(bundle, cfg.model, [_resolve_kappa(cfg, bundle)],
                                       cfg.rule, cfg.weight_power)
    for block in blocks:
        path = os.path.join(out, block.name)
        if block.fit.parts:
            pids = [ids[i] for i in block.covers]
            save_mfpca_fit(block.fit, bundle.years, bundle.ages, pids, path)
        else:
            save_fpca_fit(block.fit, bundle.years, bundle.ages, path)
        print(f"{block.name or 'joint'}: {block.fit.n_components} components, "
              f"shares {np.round(block.fit.var_explained, 4)}")
    return 0


def cmd_forecast(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    bundle, residuals = _prepared_bundle(cfg)
    surfaces = predict_interval(_fit(cfg, bundle), residuals, alpha=cfg.alpha)
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
    country = cfg.country or _check_label(os.path.basename(os.path.normpath(cfg.data)),
                                          "the label taken from --data")
    out = _require_out(cfg)
    imputed = SurfaceBundle(_observed_surfaces(cfg))
    # the holdout years of --kappa auto exist only if the design fits
    _check_design(imputed, cfg.model, cfg.h, cfg.windows)
    kappa = _resolve_kappa(cfg, imputed, holdout=True)
    report = rolling_rmse(
        imputed, cfg.model, cfg.h, windows=cfg.windows, kappa=kappa,
        rule=cfg.rule, weight_power=cfg.weight_power, country=country,
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
    surfaces = predict_interval(_fit(cfg, bundle), residuals, alpha=cfg.alpha)

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
    _write_grid(os.path.join(out, "e0.csv"), ["year,e0_male,e0_female"], None, years,
                [e0_male, e0_female], "%r")
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
