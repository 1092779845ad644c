"""Shapley attribution of classifier ROC/PR performance to input features."""

from .curves import (
    PrCurve,
    RocCurve,
    Strategy,
    default_grid,
    estimate_precision,
    estimate_tpr,
    pr_from_scores,
    roc_from_scores,
)
from .dataset import (
    Dataset,
    ImbalanceSpec,
    SplitSpec,
    banknote_path,
    drop_features,
    duplicate_feature,
    load_banknote,
    load_csv,
    project,
    split,
    subsample_imbalance,
)
from .errors import CurveshapError, ComputationError, DataError
from .game import GameSpec, PayoffTable, Target, evaluate_all, evaluate_slices
from .model import TrainedModel, score, train_gnb
from .shapley import (
    Attribution,
    CurveAttribution,
    auc_roc_consistency,
    shapley_curve,
    shapley_exact,
    shapley_sampled,
    shapley_sampled_curve,
)
from .uncertainty import (
    BandedSeries,
    McAttribution,
    McConfig,
    McCurveAttribution,
    mc_attributions,
    mc_curves,
)

__version__ = "0.1.0"

__all__ = [
    "Attribution",
    "BandedSeries",
    "ComputationError",
    "CurveAttribution",
    "CurveshapError",
    "DataError",
    "Dataset",
    "GameSpec",
    "ImbalanceSpec",
    "McAttribution",
    "McConfig",
    "McCurveAttribution",
    "PayoffTable",
    "PrCurve",
    "RocCurve",
    "SplitSpec",
    "Strategy",
    "Target",
    "TrainedModel",
    "auc_roc_consistency",
    "banknote_path",
    "default_grid",
    "drop_features",
    "duplicate_feature",
    "estimate_precision",
    "estimate_tpr",
    "evaluate_all",
    "evaluate_slices",
    "load_banknote",
    "load_csv",
    "mc_attributions",
    "mc_curves",
    "pr_from_scores",
    "project",
    "roc_from_scores",
    "score",
    "shapley_curve",
    "shapley_exact",
    "shapley_sampled",
    "shapley_sampled_curve",
    "split",
    "subsample_imbalance",
    "train_gnb",
    "__version__",
]
