"""Tabular toolkit for melanoma-classification experiments.

Covers the pipeline around the image models: diagnosis-to-target mapping,
metadata feature engineering, patient-grouped stratified folds, a trainable
metadata/feature fusion head, tie-aware AUC evaluation, rank-average
ensembling, and metric-stability analysis.
"""

__version__ = "0.1.0"

from .datamodel import (
    BinaryTarget,
    Dataset,
    PredictionSet,
    SampleRecord,
    Sex,
    SourceYear,
    parse_metadata_csv,
    parse_predictions_csv,
    validate_consistency,
    write_metadata_csv,
    write_predictions_csv,
)
from .ensemble import rank_average, rank_transform
from .errors import LesionbenchError
from .features import FeatureTable, NormStats, SiteVocabulary
from .folds import FoldAssignment, assign_folds, fold_ratio_report
from .fusion import FusionHeadModel, TrainConfig, load_model, save_model, train
from .metrics import LabeledScores, ScoreTable, auc, bootstrap_auc_std, evaluate_cv, stability
from .targets import DiagnosisClass, TargetScheme, class_index, map_diagnosis

__all__ = [
    "__version__",
    "BinaryTarget",
    "Dataset",
    "DiagnosisClass",
    "FeatureTable",
    "FoldAssignment",
    "FusionHeadModel",
    "LabeledScores",
    "LesionbenchError",
    "NormStats",
    "PredictionSet",
    "SampleRecord",
    "ScoreTable",
    "Sex",
    "SiteVocabulary",
    "SourceYear",
    "TargetScheme",
    "TrainConfig",
    "assign_folds",
    "auc",
    "bootstrap_auc_std",
    "class_index",
    "evaluate_cv",
    "fold_ratio_report",
    "load_model",
    "map_diagnosis",
    "parse_metadata_csv",
    "parse_predictions_csv",
    "rank_average",
    "rank_transform",
    "save_model",
    "stability",
    "train",
    "validate_consistency",
    "write_metadata_csv",
    "write_predictions_csv",
]
