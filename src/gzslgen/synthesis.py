"""Feature synthesis and the softmax classifiers.

After adversarial training, any number of labeled pseudo features can be
generated per class (seen or unseen) by resampling the noise input; an
off-the-shelf softmax classifier fit on them carries out recognition over
the union of seen and unseen labels. ``fit_softmax`` is the one softmax
solver: it fits both this full-label classifier and the trainer's frozen
seen-class classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import DatasetBundle
from .errors import ValidationError
from .losses import softmax_ce_grads
from .networks import LinearParams, ModelParams, classifier_forward, gen_sv_forward


@dataclass
class SynthesisRequest:
    classes: tuple[int, ...]  # ordered, seen and/or unseen
    n_per_class: int
    seed: int = 0

    def validate(self, n_attribute_rows: int) -> None:
        if self.n_per_class < 1:
            raise ValidationError("n_per_class must be >= 1")
        bad = [c for c in self.classes if not 0 <= c < n_attribute_rows]
        if bad:
            raise ValidationError(f"classes without an attribute row: {bad}")


@dataclass
class GzslClassifier:
    """Linear softmax over an explicit, ascending class-id list."""

    params: LinearParams
    class_ids: tuple[int, ...]


def synthesize_features(
    model: ModelParams, bundle: DatasetBundle, request: SynthesisRequest
) -> tuple[np.ndarray, np.ndarray]:
    """Generate n_per_class pseudo features per requested class.

    Returns (features [M, K], labels [M]) with rows grouped by class in
    request order. Deterministic given the request seed.
    """
    request.validate(bundle.attributes.shape[0])
    rng = np.random.default_rng(request.seed)
    l = bundle.attribute_dim
    blocks, labels = [], []
    for c in request.classes:
        attrs = np.tile(bundle.attributes[c], (request.n_per_class, 1))
        noise = rng.standard_normal((request.n_per_class, l))
        blocks.append(gen_sv_forward(model, attrs, noise))
        labels.append(np.full(request.n_per_class, c, dtype=np.int64))
    return np.vstack(blocks), np.concatenate(labels)


def fit_softmax(
    x: np.ndarray, labels: np.ndarray, class_ids: Sequence[int], max_steps: int, grad_tol: float
) -> LinearParams:
    """Fit a linear softmax classifier to rows ``x`` labelled with ids from the
    ascending ``class_ids``; column j of the result scores ``class_ids[j]``.

    Every class must have rows, and every label must be one of the classes.
    Full-batch gradient descent with a fixed unit step from zero init,
    stopping at a gradient-norm threshold or the step cap, so the fit is
    convex, deterministic, and invariant to row order. With the subnormal
    logit gradients flushed in ``softmax_ce_grads``, a step's cost is mostly
    its two GEMMs, ``x @ w`` and ``x.T @ d_logits``.
    """
    ids = np.asarray(class_ids)
    missing, extra = np.setdiff1d(ids, labels), np.setdiff1d(labels, ids)
    if missing.size:
        raise ValidationError(f"classes without training rows: {missing.tolist()}")
    if extra.size:
        raise ValidationError(f"labels outside the declared class set: {extra.tolist()}")
    cols = np.searchsorted(ids, labels)
    cls = LinearParams(w=np.zeros((x.shape[1], ids.size)), b=np.zeros(ids.size))
    for _ in range(max_steps):
        _, dw, db, _ = softmax_ce_grads(cls, x, cols, input_grad=False)
        gnorm = np.sqrt(np.sum(dw * dw) + np.sum(db * db))
        if gnorm < grad_tol:
            break
        cls.w -= dw
        cls.b -= db
    return cls


def fit_gzsl_classifier(
    features: np.ndarray,
    labels: np.ndarray,
    all_classes: Sequence[int],
    max_steps: int = 1000,
    grad_tol: float = 1e-5,
) -> GzslClassifier:
    """Fit the final softmax classifier over the full label set (``fit_softmax``)."""
    class_ids = tuple(sorted(int(c) for c in all_classes))
    return GzslClassifier(fit_softmax(features, labels, class_ids, max_steps, grad_tol), class_ids)


def predict(clf: GzslClassifier, visual: np.ndarray) -> np.ndarray:
    """Most probable class id per row; ties go to the lowest class id."""
    probs = classifier_forward(clf.params, visual)
    ids = np.asarray(clf.class_ids)
    return ids[probs.argmax(axis=1)]
