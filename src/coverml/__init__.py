"""coverml: a self-contained tabular classification engine.

Ingests benefit-style records, derives a binary coverage label, fits staged
feature-preparation pipelines, trains six classifier families under
grid-search cross-validation, and emits confusion/ROC/PR evaluation reports
with timing and feature importances.
"""

from .datasets import (
    SynthSpec,
    derive_label,
    generate_synthetic,
    generate_xor,
    sample_rows,
    train_test_split,
)
from .metrics import (
    ConfusionCounts,
    EvalReport,
    confusion_from_arrays,
    pr_curve,
    roc_curve,
    scalar_metrics,
    timed_fit,
)
from .selection import CVConfig, benchmark, build_param_grid, cross_validate
from .stages import FittedPipeline, PipelineSpec, default_pipeline_spec, fit_pipeline
from .table import ColumnSpec, DataTable, read_csv, write_csv

__version__ = "0.1.0"

__all__ = [
    "ColumnSpec",
    "ConfusionCounts",
    "CVConfig",
    "DataTable",
    "EvalReport",
    "FittedPipeline",
    "PipelineSpec",
    "SynthSpec",
    "__version__",
    "benchmark",
    "build_param_grid",
    "confusion_from_arrays",
    "cross_validate",
    "default_pipeline_spec",
    "derive_label",
    "fit_pipeline",
    "generate_synthetic",
    "generate_xor",
    "pr_curve",
    "read_csv",
    "roc_curve",
    "sample_rows",
    "scalar_metrics",
    "timed_fit",
    "train_test_split",
    "write_csv",
]
