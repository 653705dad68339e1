"""Split conformal prediction sets for classification.

Turns pre-computed logits into prediction sets with finite-sample
coverage, and tunes post-hoc calibration maps (temperature, Platt,
vector scaling) to shrink those sets without giving up coverage.
"""

from .data import LogitsDataset, SplitSpec, load_dataset, save_dataset, split_dataset
from .engine import (
    ConformalThreshold,
    PipelineResult,
    PredictionSet,
    calibrate,
    calibrate_threshold,
    predict,
    predict_sets,
    run_pipeline,
)
from .errors import ValidationError
from .maps import CalibrationMap, apply_map_dataset, load_map, save_map
from .metrics import (
    EvaluationReport,
    build_report,
    coverage_and_size,
    expected_calibration_error,
    size_by_rank,
    truncation_diagnostic,
)
from .scores import ScoreSpec, draw_u_many
from .synth import SynthSpec, generate, generate_paired_shifted
from .tuning import (
    TuneConfig,
    TuneReport,
    efficiency_gap_loss,
    tune_map,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationMap",
    "ConformalThreshold",
    "EvaluationReport",
    "LogitsDataset",
    "PipelineResult",
    "PredictionSet",
    "ScoreSpec",
    "SplitSpec",
    "SynthSpec",
    "TuneConfig",
    "TuneReport",
    "ValidationError",
    "apply_map_dataset",
    "build_report",
    "calibrate",
    "calibrate_threshold",
    "coverage_and_size",
    "draw_u_many",
    "efficiency_gap_loss",
    "expected_calibration_error",
    "generate",
    "generate_paired_shifted",
    "load_dataset",
    "load_map",
    "predict",
    "predict_sets",
    "run_pipeline",
    "save_dataset",
    "save_map",
    "size_by_rank",
    "split_dataset",
    "truncation_diagnostic",
    "tune_map",
]
