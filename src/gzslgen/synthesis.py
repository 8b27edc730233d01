"""Feature synthesis and the softmax classifiers.

After adversarial training, any number of labeled pseudo features can be
generated per class (seen or unseen) by resampling the noise input; an
off-the-shelf softmax classifier fit on them carries out recognition over
the union of seen and unseen labels. ``fit_softmax`` is the one softmax
solver: it fits both this full-label classifier and the trainer's frozen
seen-class classifier.

``synthesize_features`` draws the noise of every requested row at once (the
same stream as one draw per class, in class order) and runs the generator
over the stacked rows in ``networks.row_blocks`` chunks of at most
``_SYNTH_ROWS`` rows, so a large request keeps its hidden layers small. On
the OpenBLAS build this was checked on (scipy-openblas 0.3.31, bundled with
numpy's wheels) the bytes match one forward per class; another BLAS build
may round stacked and per-class products differently. The tests check this
at small shape, the ``synth`` line of ``scripts/param_digest.py`` at paper
shape. There is one exception: at one row per class each such forward was a
one-row product, which rounds differently from the GEMM that now computes
those rows (see ``row_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import DatasetBundle
from .errors import ValidationError
from .losses import softmax_ce_grads
from .matio import AT_LEAST_0, AT_LEAST_1, check_bounds
from .networks import LinearParams, ModelParams, classifier_forward, gen_sv_forward, row_blocks


@dataclass
class SynthesisRequest:
    classes: tuple[int, ...]  # ordered, seen and/or unseen
    n_per_class: int = field(metadata=AT_LEAST_1)
    seed: int = field(default=0, metadata=AT_LEAST_0)

    def validate(self, n_attribute_rows: int) -> None:
        check_bounds("request", self)
        bad = [c for c in self.classes if not 0 <= c < n_attribute_rows]
        if bad:
            raise ValidationError(f"classes without an attribute row: {bad}")


@dataclass
class GzslClassifier:
    """Linear softmax over an explicit, ascending class-id list."""

    params: LinearParams
    class_ids: tuple[int, ...]


# Rows per generator forward in synthesize_features. At H=4096 and K=2048 a
# row carries about 100 KB of hidden and output layers, so a chunk stays
# under ~50 MB.
_SYNTH_ROWS = 512


def synthesize_features(
    model: ModelParams, bundle: DatasetBundle, request: SynthesisRequest
) -> tuple[np.ndarray, np.ndarray]:
    """Generate n_per_class pseudo features per requested class.

    Returns (features [M, K], labels [M]) with rows grouped by class in
    request order. Deterministic given the request seed.
    """
    request.validate(bundle.attributes.shape[0])
    rng = np.random.default_rng(request.seed)
    labels = np.repeat(np.asarray(request.classes, dtype=np.int64), request.n_per_class)
    m = labels.size
    noise = rng.standard_normal((m, bundle.attribute_dim))
    attrs = bundle.attributes[labels]
    features = np.empty((m, model.g_sv.shape.output_dim))
    for lo, hi in row_blocks(m, _SYNTH_ROWS):
        features[lo:hi] = gen_sv_forward(model, attrs[lo:hi], noise[lo:hi])
    return features, labels


def fit_softmax(
    x: np.ndarray, labels: np.ndarray, class_ids: Sequence[int], max_steps: int, grad_tol: float
) -> LinearParams:
    """Fit a linear softmax classifier to rows ``x`` labelled with ids from the
    ascending ``class_ids``; column j of the result scores ``class_ids[j]``.

    Every class must have rows, and every label must be one of the classes.
    Full-batch gradient descent with a fixed unit step from zero init,
    stopping at a gradient-norm threshold or the step cap, so the fit is
    convex, deterministic, and invariant to row order up to rounding. With
    the subnormal logit gradients flushed and their ``np.exp`` skipped in
    ``softmax_ce_grads``, a step's cost is mostly its two GEMMs, ``x @ w``
    and ``d_logits.T @ x``. The second gives the weight gradient laid out
    ``[C, K]``, so the fit holds ``w`` class-major, as the transposed view of
    a C-contiguous ``[C, K]`` array: the update ``w -= dw`` runs over two
    arrays in the same memory order, ``x @ w`` reaches BLAS with a transposed
    operand, and the result is returned as a C-contiguous ``[K, C]`` copy.
    With OpenBLAS (scipy-openblas 0.3.31, bundled with numpy's wheels) the
    standard dgemm path packs ``x @ w`` alike for either layout, so the fit
    has the bytes of a row-major ``[K, C]`` iteration at every paper shape
    (50 to 240 rows of 2048 features over 40 or 50 classes). The kernels
    OpenBLAS keeps for tiny products round the two layouts differently, as
    at the acceptance oracle's 3- and 4-class fits. On a 2-vCPU host a 50 x
    2048 x 50 step took 0.52-0.65 ms against 0.75-0.84 ms row-major (the
    update alone 0.02-0.04 ms against 0.13-0.16 ms), and a 230-row step
    1.90-1.92 ms against 2.04-2.08 ms.

    The fit stops at the first step whose gradient norm, summed by BLAS dot
    products over the class-major ``dw.T`` and ``db``, lies below ``grad_tol``.
    """
    ids = np.asarray(class_ids)
    missing, extra = np.setdiff1d(ids, labels), np.setdiff1d(labels, ids)
    if missing.size:
        raise ValidationError(f"classes without training rows: {missing.tolist()}")
    if extra.size:
        raise ValidationError(f"labels outside the declared class set: {extra.tolist()}")
    cols = np.searchsorted(ids, labels)
    cls = LinearParams(w=np.zeros((ids.size, x.shape[1])).T, b=np.zeros(ids.size))
    for _ in range(max_steps):
        _, dw, db, _ = softmax_ce_grads(cls, x, cols, input_grad=False)
        if np.sqrt(np.vdot(dw.T, dw.T) + np.vdot(db, db)) < grad_tol:
            break
        cls.w -= dw
        cls.b -= db
    return LinearParams(w=np.ascontiguousarray(cls.w), b=cls.b)


def fit_gzsl_classifier(
    features: np.ndarray,
    labels: np.ndarray,
    all_classes: Sequence[int],
    *,
    max_steps: int,
    grad_tol: float,
) -> GzslClassifier:
    """Fit the final softmax classifier over the full label set (``fit_softmax``)."""
    class_ids = tuple(sorted(int(c) for c in all_classes))
    return GzslClassifier(fit_softmax(features, labels, class_ids, max_steps, grad_tol), class_ids)


def predict(clf: GzslClassifier, visual: np.ndarray) -> np.ndarray:
    """Most probable class id per row; ties go to the lowest class id."""
    probs = classifier_forward(clf.params, visual)
    ids = np.asarray(clf.class_ids)
    return ids[probs.argmax(axis=1)]
