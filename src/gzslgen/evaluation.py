"""Generalized zero-shot evaluation: per-class accuracies, their harmonic
mean, the ablation grid, and the synthesized-sample-count sweep.

ts and tr are average per-class accuracies on the unseen and seen test
splits, both predicted over the full (seen plus unseen) label set.
Variant and sweep runs are independent; they may run in parallel as long
as each owns its model state and output directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .data import DatasetBundle
from .errors import ContractViolation, ValidationError
from .synthesis import SynthesisRequest, fit_gzsl_classifier, predict, synthesize_features
from .networks import ModelParams
from .trainer import TrainConfig, train


@dataclass
class EvalConfig:
    n_per_class: int = 300
    include_real_seen: bool = True
    classifier_max_steps: int = 1000
    classifier_grad_tol: float = 1e-5
    seed: int = 0


@dataclass
class EvalReport:
    ts: float
    tr: float
    h: float
    per_class_acc: dict[int, float] = field(default_factory=dict)
    n_test_per_class: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ts": self.ts,
            "tr": self.tr,
            "H": self.h,
            "per_class_acc": {str(k): v for k, v in sorted(self.per_class_acc.items())},
            "n_test_per_class": {str(k): v for k, v in sorted(self.n_test_per_class.items())},
        }


def per_class_accuracy(
    predictions: np.ndarray, labels: np.ndarray, class_set: Sequence[int]
) -> tuple[float, dict[int, float]]:
    """Unweighted mean over classes of within-class accuracy."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ContractViolation("predictions and labels must align")
    classes = sorted(int(c) for c in class_set)
    outside = set(np.unique(labels).tolist()) - set(classes)
    if outside:
        raise ValidationError(f"labels outside the class set: {sorted(outside)}")
    per_class = {}
    for c in classes:
        mask = labels == c
        if not mask.any():
            raise ValidationError(f"class {c} has no test rows")
        per_class[c] = float(np.mean(predictions[mask] == c))
    return float(np.mean(list(per_class.values()))), per_class


def harmonic_mean(ts: float, tr: float) -> float:
    """H = 2*ts*tr / (ts+tr), taken as 0 when both accuracies are 0."""
    if not (0.0 <= ts <= 1.0 and 0.0 <= tr <= 1.0):
        raise ContractViolation(f"accuracies must lie in [0,1], got ts={ts}, tr={tr}")
    if ts + tr == 0.0:
        return 0.0
    return 2.0 * ts * tr / (ts + tr)


def evaluate_gzsl(
    model: ModelParams, bundle: DatasetBundle, eval_config: EvalConfig
) -> EvalReport:
    """Synthesize, fit the full-label classifier, and score both test splits."""
    all_classes = bundle.all_classes
    request = SynthesisRequest(
        classes=all_classes, n_per_class=eval_config.n_per_class, seed=eval_config.seed
    )
    features, labels = synthesize_features(model, bundle, request)
    if eval_config.include_real_seen:
        features = np.vstack([features, bundle.visual_train])
        labels = np.concatenate([labels, bundle.labels_train])
    clf = fit_gzsl_classifier(
        features, labels, all_classes,
        max_steps=eval_config.classifier_max_steps,
        grad_tol=eval_config.classifier_grad_tol,
    )
    preds_seen = predict(clf, bundle.visual_test_seen)
    preds_unseen = predict(clf, bundle.visual_test_unseen)
    tr, per_seen = per_class_accuracy(preds_seen, bundle.labels_test_seen, bundle.seen_classes)
    ts, per_unseen = per_class_accuracy(
        preds_unseen, bundle.labels_test_unseen, bundle.unseen_classes
    )

    # per_class_accuracy has rejected a class without test rows, so every
    # class of the dataset appears here
    test_labels = np.concatenate([bundle.labels_test_seen, bundle.labels_test_unseen])
    classes, counts = np.unique(test_labels, return_counts=True)
    return EvalReport(
        ts=ts,
        tr=tr,
        h=harmonic_mean(ts, tr),
        per_class_acc={**per_seen, **per_unseen},
        n_test_per_class=dict(zip(classes.tolist(), counts.tolist())),
    )


def run_ablation(
    bundle: DatasetBundle,
    base_config: TrainConfig,
    variants: Sequence[str],
    eval_config: EvalConfig,
) -> list[tuple[str, EvalReport]]:
    """Train and evaluate one model per variant with shared seeds."""
    rows = []
    for variant in variants:
        config = replace(base_config, variant=variant)
        model, _ = train(bundle, config)
        rows.append((variant, evaluate_gzsl(model, bundle, eval_config)))
    return rows


def sweep_samples(
    bundle: DatasetBundle,
    config: TrainConfig,
    counts: Sequence[int],
    eval_config: EvalConfig,
    model: ModelParams | None = None,
) -> list[tuple[int, float]]:
    """H as a function of synthesized samples per class.

    One trained model is reused across all counts; only the final
    classifier is refit, isolating the sample budget under study.
    """
    if not counts or any(c < 1 for c in counts):
        raise ValidationError("counts must be a nonempty list of integers >= 1")
    if model is None:
        model, _ = train(bundle, config)
    curve = []
    for n in counts:
        report = evaluate_gzsl(model, bundle, replace(eval_config, n_per_class=int(n)))
        curve.append((int(n), report.h))
    return curve


def format_report_table(rows: list[tuple[str, EvalReport]]) -> str:
    """Aligned plain-text table with one row per labelled report."""
    header = f"{'run':<24}{'ts':>10}{'tr':>10}{'H':>10}"
    lines = [header, "-" * len(header)]
    for name, report in rows:
        lines.append(
            f"{name:<24}{report.ts:>10.4f}{report.tr:>10.4f}{report.h:>10.4f}"
        )
    return "\n".join(lines) + "\n"
