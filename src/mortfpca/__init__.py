"""Multi-population mortality modelling and forecasting.

The pipeline: parse raw death-rate tables into log-rate surfaces, smooth
each year's curve with penalized B-splines, decompose the surfaces with
weighted functional principal components (per population or jointly across
populations), forecast the component scores with automatically chosen
ARIMA models, and recombine into rate forecasts with prediction intervals.
Coherent variants keep the gaps between populations bounded at long
horizons.
"""

from .components import FULL_RANK, ComponentRule, select_ncomp
from .demographics import LifeTable, life_expectancy, sex_ratio
from .evaluation import DEFAULT_KAPPA_GRID, EvalReport, rolling_rmse, tune_kappa
from .forecasters import (
    MODELS,
    Block,
    ForecastSurface,
    ModelResult,
    fit_model,
    in_sample_reconstruction,
    predict_interval,
)
from .hmd import (
    MortalitySurface,
    SurfaceBundle,
    impute_missing,
    parse_hmd_rates,
    read_surface_csv,
    write_surface_csv,
)
from .mfpca import fit_mfpca
from .smoothing import smooth_surface
from .synthetic import hmd_text_from_bundle, synthetic_bundle
from .tsmodels import (
    ArimaSpec,
    fit_auto,
    fit_auto_many,
    fit_spec,
    forecast,
    psi_weights,
    unconditional_mean,
)
from .ufpca import (
    FpcaFit,
    WeightScheme,
    fit_ufpca,
    geometric_weights,
    uniform_weights,
)

__version__ = "0.1.0"

__all__ = [
    "ArimaSpec",
    "Block",
    "ComponentRule",
    "DEFAULT_KAPPA_GRID",
    "EvalReport",
    "FULL_RANK",
    "ForecastSurface",
    "FpcaFit",
    "LifeTable",
    "MODELS",
    "ModelResult",
    "MortalitySurface",
    "SurfaceBundle",
    "WeightScheme",
    "fit_auto",
    "fit_auto_many",
    "fit_mfpca",
    "fit_model",
    "fit_spec",
    "fit_ufpca",
    "forecast",
    "geometric_weights",
    "hmd_text_from_bundle",
    "impute_missing",
    "in_sample_reconstruction",
    "life_expectancy",
    "parse_hmd_rates",
    "predict_interval",
    "psi_weights",
    "read_surface_csv",
    "rolling_rmse",
    "select_ncomp",
    "sex_ratio",
    "smooth_surface",
    "synthetic_bundle",
    "tune_kappa",
    "unconditional_mean",
    "uniform_weights",
    "write_surface_csv",
]
