"""Ensemble projection pursuit regression with B-spline ridge functions."""

from .data_io import load_csv
from .ensemble import (
    EnsembleModel,
    FitConfig,
    default_config,
    fit,
    load_model,
    save_model,
)
from .errors import ConfigError, DataError, EpprError, NumericError

__all__ = [
    "ConfigError",
    "DataError",
    "EnsembleModel",
    "EpprError",
    "FitConfig",
    "NumericError",
    "default_config",
    "fit",
    "load_csv",
    "load_model",
    "save_model",
]

__version__ = "0.1.0"
