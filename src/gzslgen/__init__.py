"""Attribute-conditioned visual-feature synthesis for generalized
zero-shot recognition: coupled adversarial generator/critic pairs with
semantic and visual consistency constraints, plus a synthesize-then-
classify pipeline and a ts/tr/H evaluation harness.
"""

from .data import (
    DatasetBundle,
    FeatureBatch,
    SyntheticSpec,
    batch_iterator,
    load_dataset,
    make_synthetic_dataset,
    oracle_class_means,
    save_dataset,
)
from .evaluation import (
    EvalConfig,
    EvalReport,
    evaluate_gzsl,
    harmonic_mean,
    per_class_accuracy,
    run_ablation,
    sweep_samples,
)
from .losses import LossWeights
from .networks import (
    LinearParams,
    MLPParams,
    ModelParams,
    NetworkShape,
    classifier_forward,
    disc_v_forward,
    gen_sv_forward,
    init_params,
)
from .synthesis import (
    GzslClassifier,
    SynthesisRequest,
    fit_gzsl_classifier,
    predict,
    synthesize_features,
)
from .trainer import OptimizerConfig, TrainConfig, TrainLog, pretrain_classifier, train

__version__ = "0.1.0"

__all__ = [
    "DatasetBundle", "FeatureBatch", "SyntheticSpec", "batch_iterator",
    "load_dataset", "make_synthetic_dataset", "oracle_class_means", "save_dataset",
    "EvalConfig", "EvalReport", "evaluate_gzsl", "harmonic_mean",
    "per_class_accuracy", "run_ablation", "sweep_samples",
    "LossWeights",
    "LinearParams", "MLPParams", "ModelParams", "NetworkShape",
    "classifier_forward", "disc_v_forward", "gen_sv_forward", "init_params",
    "GzslClassifier", "SynthesisRequest", "fit_gzsl_classifier", "predict",
    "synthesize_features",
    "OptimizerConfig", "TrainConfig", "TrainLog", "pretrain_classifier", "train",
]
