"""Order-preserving post-hoc calibration of classifier logits."""

from .baselines import CalibratedModel, fit_ets, fit_hb, fit_ts, fit_vs
from .core import argmax_rows, inverse_sort_rows, nll, softmax_rows, sort_rows, validate_distinct
from .data_io import SynthConfig, generate_synthetic, read_dataset, split_dataset, write_dataset
from .metrics import (
    BinStats,
    MetricReport,
    compute_report,
    ece,
    ece_kde,
    eq_mass_ece,
    ranking_diagnostics,
)
from .optim import FitResult, fit_mcct, init_params
from .transform import MonotoneParams, apply_map_topk, order_violations, truncate_training_set

__version__ = "0.1.0"

__all__ = [
    "CalibratedModel",
    "fit_ets",
    "fit_hb",
    "fit_ts",
    "fit_vs",
    "argmax_rows",
    "inverse_sort_rows",
    "nll",
    "softmax_rows",
    "sort_rows",
    "validate_distinct",
    "SynthConfig",
    "generate_synthetic",
    "read_dataset",
    "split_dataset",
    "write_dataset",
    "BinStats",
    "MetricReport",
    "compute_report",
    "ece",
    "ece_kde",
    "eq_mass_ece",
    "ranking_diagnostics",
    "FitResult",
    "fit_mcct",
    "init_params",
    "MonotoneParams",
    "apply_map_topk",
    "order_violations",
    "truncate_training_set",
    "__version__",
]
