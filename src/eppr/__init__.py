"""Ensemble projection pursuit regression with B-spline ridge functions."""

from .data_io import (
    ColumnScaling,
    Dataset,
    load_csv,
    partition,
)
from .ensemble import (
    EnsembleModel,
    FitConfig,
    default_config,
    fit,
    from_json_text,
    load_model,
    save_model,
    to_json_text,
)
from .errors import ConfigError, DataError, EpprError, NumericError
from .greedy import (
    PprModel,
    RunData,
    bic_value,
    relaxation_weight,
    run_greedy,
    select_candidate_subsets,
)
from .singleindex import (
    ProjectionScaler,
    Ridge,
    SingleIndexOptions,
    eval_ridge_batch,
    fit_single_index,
)
from .spline import (
    KnotVector,
    basis_deriv_matrix,
    basis_matrix,
    make_uniform_knots,
)

__all__ = [
    "ColumnScaling",
    "ConfigError",
    "DataError",
    "Dataset",
    "EnsembleModel",
    "EpprError",
    "FitConfig",
    "KnotVector",
    "NumericError",
    "PprModel",
    "ProjectionScaler",
    "Ridge",
    "RunData",
    "SingleIndexOptions",
    "basis_deriv_matrix",
    "basis_matrix",
    "bic_value",
    "default_config",
    "eval_ridge_batch",
    "fit",
    "fit_single_index",
    "from_json_text",
    "load_csv",
    "load_model",
    "make_uniform_knots",
    "partition",
    "relaxation_weight",
    "run_greedy",
    "save_model",
    "select_candidate_subsets",
    "to_json_text",
]

__version__ = "0.1.0"
