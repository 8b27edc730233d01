"""Every loss term of the two adversarial objectives, as pure functions.

The ``*_and_grads`` variants return analytic parameter gradients for the
training loop; the value-only functions are thin wrappers over them. The
test suite pins the values against independent term-by-term recomputation
from the public term operations, and pins every gradient against central
finite differences.

Conventions:
  * expectations are uniform batch means;
  * per-class centroids are estimated within the mini-batch, averaging
    over the classes present in it;
  * the visual critic's gradient penalty interpolates the visual input
    only, holding the conditioning attribute at the real one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .data import FeatureBatch
from .errors import ContractViolation, ValidationError
from .networks import (
    LinearParams,
    MLPParams,
    ModelParams,
    classifier_logits,
    critic_input_grads,
    mlp_backward,
    mlp_forward_cached,
    softmax,
)

PAIR_MODES = ("real", "cycle")


@dataclass
class LossWeights:
    """Nonnegative term weights.

    lambda1/lambda4 scale the gradient penalties of the visual and semantic
    critics, lambda2 the classification term, lambda3/lambda6 the visual
    consistency term in the two generator objectives, lambda5 the semantic
    centroid term.
    """

    lambda1: float = 10.0
    lambda2: float = 0.01
    lambda3: float = 0.01
    lambda4: float = 10.0
    lambda5: float = 0.1
    lambda6: float = 0.01

    def validate(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ValidationError(f"{name} must be nonnegative, got {value}")


# ---------------------------------------------------------------------------
# term operations


def classification_loss(cls: LinearParams, synth_visual: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class under the frozen classifier.

    ``labels`` index classifier columns (seen classes in ascending order).
    """
    value, _, _, _ = softmax_ce_grads(cls, synth_visual, labels)
    return value


def softmax_ce_grads(
    cls: LinearParams, x: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Cross-entropy with gradients w.r.t. (w, b, x). Returns (loss, dw, db, dx)."""
    labels = np.asarray(labels)
    n_classes = cls.w.shape[1]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_classes:
        raise ContractViolation(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    b = x.shape[0]
    # stable log-sum-exp route for the true-class log probability
    logits = classifier_logits(cls, x)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    norm = exp.sum(axis=1, keepdims=True)
    probs = exp / norm
    log_probs = shifted - np.log(norm)
    loss = float(-log_probs[np.arange(b), labels].mean())
    d_logits = probs.copy()
    d_logits[np.arange(b), labels] -= 1.0
    d_logits /= b
    return loss, x.T @ d_logits, d_logits.sum(axis=0), d_logits @ cls.w.T


def class_centroid(features_of_class: np.ndarray) -> np.ndarray:
    """Arithmetic mean over the rows of one class."""
    if features_of_class.ndim != 2 or features_of_class.shape[0] < 1:
        raise ContractViolation("class_centroid needs a nonempty [N_c, D] matrix")
    return features_of_class.mean(axis=0)


def _group_indices(labels: np.ndarray) -> list[tuple[int, np.ndarray]]:
    labels = np.asarray(labels)
    return [(int(c), np.flatnonzero(labels == c)) for c in np.unique(labels)]


def semantic_centroid_loss(
    recon_attrs: np.ndarray,
    labels: np.ndarray,
    attributes: np.ndarray,
    seen_classes=None,
) -> float:
    """Mean over batch-present classes of ||centroid(a'_c) - a_c||_2."""
    value, _ = semantic_centroid_grads(recon_attrs, labels, attributes)
    return value


def semantic_centroid_grads(
    recon_attrs: np.ndarray, labels: np.ndarray, attributes: np.ndarray
) -> tuple[float, np.ndarray]:
    groups = _group_indices(labels)
    d_recon = np.zeros_like(recon_attrs)
    total = 0.0
    for c, idx in groups:
        mu = recon_attrs[idx].mean(axis=0)
        diff = mu - attributes[c]
        norm = float(np.linalg.norm(diff))
        total += norm
        if norm > 0:
            d_recon[idx] += diff / (norm * len(groups) * idx.size)
    return total / len(groups), d_recon


def visual_consistency_loss(
    cycle_visual: np.ndarray,
    labels: np.ndarray,
    real_visual_by_class: Mapping[int, np.ndarray],
) -> float:
    """Mean over classes of ||centroid(x''_c) - centroid(x_c)||_2."""
    targets = {}
    for c, _ in _group_indices(labels):
        if c not in real_visual_by_class:
            raise ContractViolation(f"class {c} has no real visual features")
        targets[c] = class_centroid(np.asarray(real_visual_by_class[c]))
    value, _ = _centroid_match_grads(cycle_visual, labels, targets)
    return value


def _centroid_match_grads(
    rows: np.ndarray, labels: np.ndarray, targets: Mapping[int, np.ndarray]
) -> tuple[float, np.ndarray]:
    groups = _group_indices(labels)
    d_rows = np.zeros_like(rows)
    total = 0.0
    for c, idx in groups:
        diff = rows[idx].mean(axis=0) - targets[c]
        norm = float(np.linalg.norm(diff))
        total += norm
        if norm > 0:
            d_rows[idx] += diff / (norm * len(groups) * idx.size)
    return total / len(groups), d_rows


def _batch_centroid_targets(batch: FeatureBatch) -> dict[int, np.ndarray]:
    return {c: batch.visual[idx].mean(axis=0) for c, idx in _group_indices(batch.labels)}


# ---------------------------------------------------------------------------
# gradient penalty


def _mix_coefficients(mix, n: int) -> np.ndarray:
    if isinstance(mix, np.ndarray):
        if mix.shape != (n,):
            raise ContractViolation(f"mix coefficients must have shape ({n},)")
        return mix
    if isinstance(mix, np.random.Generator):
        return mix.uniform(0.0, 1.0, size=n)
    return np.random.default_rng(int(mix)).uniform(0.0, 1.0, size=n)


def gradient_penalty(
    critic_input_grad: Callable[[np.ndarray], np.ndarray],
    real: np.ndarray,
    fake: np.ndarray,
    mix,
) -> float:
    """Two-sided penalty pushing the critic's input-gradient norm to 1.

    ``critic_input_grad`` maps a batch of inputs to the per-row gradient of
    the critic score w.r.t. those inputs. ``mix`` is an interpolation seed,
    a Generator, or an explicit [B] coefficient vector; interpolants are
    alpha*real + (1-alpha)*fake.
    """
    if real.shape != fake.shape:
        raise ContractViolation(f"real {real.shape} and fake {fake.shape} must match")
    alpha = _mix_coefficients(mix, real.shape[0])[:, None]
    mixed = alpha * real + (1.0 - alpha) * fake
    grads = critic_input_grad(mixed)
    norms = np.linalg.norm(grads, axis=1)
    return float(np.mean((norms - 1.0) ** 2))


def _gp_value_and_param_grads(
    critic: MLPParams, u_hat: np.ndarray, n_grad: int
) -> tuple[float, MLPParams]:
    """Penalty value plus its analytic gradient w.r.t. the critic parameters.

    The input gradient of a one-hidden-layer critic is piecewise constant
    in the hidden preactivations, so the derivative of the penalty through
    the activation pattern vanishes almost everywhere; only w1 rows in the
    penalized block and w2 receive gradient.
    """
    b = u_hat.shape[0]
    h_pre = u_hat @ critic.w1 + critic.b1
    d = np.where(h_pre >= 0, 1.0, critic.shape.negative_slope)  # [B, H]
    s = d * critic.w2[:, 0]                                     # [B, H]
    g = s @ critic.w1[:n_grad, :].T                             # [B, n_grad]
    norms = np.linalg.norm(g, axis=1)
    value = float(np.mean((norms - 1.0) ** 2))

    coef = np.zeros(b)
    nonzero = norms > 0
    coef[nonzero] = 2.0 * (norms[nonzero] - 1.0) / (norms[nonzero] * b)
    v = coef[:, None] * g                                       # [B, n_grad]

    grads = MLPParams.zeros(critic.shape)
    np.matmul(v.T, s, out=grads.w1[:n_grad, :])
    p = v @ critic.w1[:n_grad, :]                               # [B, H]
    grads.w2[:, 0] = (d * p).sum(axis=0)
    return value, grads


# ---------------------------------------------------------------------------
# critic objectives


def disc_v_loss(
    model: ModelParams,
    batch: FeatureBatch,
    synth_visual: np.ndarray,
    weights: LossWeights,
    mix,
) -> float:
    """Conditional visual-critic objective: fake minus real score plus penalty."""
    value, _, _ = disc_v_loss_and_grads(model, batch, synth_visual, weights, mix)
    return value


def disc_v_loss_and_grads(
    model: ModelParams,
    batch: FeatureBatch,
    synth_visual: np.ndarray,
    weights: LossWeights,
    mix,
) -> tuple[float, dict[str, float], MLPParams]:
    if synth_visual.shape != batch.visual.shape:
        raise ContractViolation(
            f"synthetic visual {synth_visual.shape} must match batch {batch.visual.shape}"
        )
    b = len(batch)
    fake_in = np.hstack([synth_visual, batch.attributes])
    real_in = np.hstack([batch.visual, batch.attributes])

    fake_cache = mlp_forward_cached(model.d_v, fake_in)
    real_cache = mlp_forward_cached(model.d_v, real_in)
    ones = np.full((b, 1), 1.0 / b)
    grads, _ = mlp_backward(model.d_v, fake_cache, ones)
    real_grads, _ = mlp_backward(model.d_v, real_cache, -ones)
    grads.add_(real_grads)

    alpha = _mix_coefficients(mix, b)[:, None]
    mixed = alpha * batch.visual + (1.0 - alpha) * synth_visual
    gp, gp_grads = _gp_value_and_param_grads(
        model.d_v, np.hstack([mixed, batch.attributes]), n_grad=batch.visual.shape[1]
    )
    grads.add_(gp_grads, scale=weights.lambda1)

    w_fake = float(fake_cache.out.mean())
    w_real = float(real_cache.out.mean())
    terms = {"w_fake": w_fake, "w_real": w_real, "gp": weights.lambda1 * gp}
    return w_fake - w_real + weights.lambda1 * gp, terms, grads


def disc_s_loss(
    model: ModelParams,
    batch: FeatureBatch,
    recon_attrs: np.ndarray,
    weights: LossWeights,
    mix,
) -> float:
    """Semantic-critic objective over real vs reconstructed attributes."""
    value, _, _ = disc_s_loss_and_grads(model, batch, recon_attrs, weights, mix)
    return value


def disc_s_loss_and_grads(
    model: ModelParams,
    batch: FeatureBatch,
    recon_attrs: np.ndarray,
    weights: LossWeights,
    mix,
) -> tuple[float, dict[str, float], MLPParams]:
    if recon_attrs.shape != batch.attributes.shape:
        raise ContractViolation(
            f"reconstructed attributes {recon_attrs.shape} must match "
            f"batch {batch.attributes.shape}"
        )
    b = len(batch)
    fake_cache = mlp_forward_cached(model.d_s, recon_attrs)
    real_cache = mlp_forward_cached(model.d_s, batch.attributes)
    ones = np.full((b, 1), 1.0 / b)
    grads, _ = mlp_backward(model.d_s, fake_cache, ones)
    real_grads, _ = mlp_backward(model.d_s, real_cache, -ones)
    grads.add_(real_grads)

    beta = _mix_coefficients(mix, b)[:, None]
    mixed = beta * batch.attributes + (1.0 - beta) * recon_attrs
    gp, gp_grads = _gp_value_and_param_grads(model.d_s, mixed, n_grad=mixed.shape[1])
    grads.add_(gp_grads, scale=weights.lambda4)

    w_fake = float(fake_cache.out.mean())
    w_real = float(real_cache.out.mean())
    terms = {"w_fake": w_fake, "w_real": w_real, "gp": weights.lambda4 * gp}
    return w_fake - w_real + weights.lambda4 * gp, terms, grads


# ---------------------------------------------------------------------------
# generator objectives


def gen_sv_loss(
    model: ModelParams,
    batch: FeatureBatch,
    weights: LossWeights,
    noise2: np.ndarray,
    label_cols: np.ndarray | None = None,
    pair_mode: str = "real",
    include_pair_term: bool = True,
) -> float:
    value, _, _ = gen_sv_loss_and_grads(
        model, batch, weights, noise2, label_cols, pair_mode, include_pair_term
    )
    return value


def gen_sv_loss_and_grads(
    model: ModelParams,
    batch: FeatureBatch,
    weights: LossWeights,
    noise2: np.ndarray,
    label_cols: np.ndarray | None = None,
    pair_mode: str = "real",
    include_pair_term: bool = True,
) -> tuple[float, dict[str, float], MLPParams]:
    """Visual-generator objective and its gradient w.r.t. that generator.

    Internally runs the full chain x' -> a' -> x''; the gradient flows
    through both applications of the visual generator. ``pair_mode``
    selects what the critic pairs with the reconstructed attributes in the
    second adversarial term: the batch's real features ("real", the default
    literal reading) or the cycled features ("cycle").
    ``include_pair_term=False`` drops that term entirely (single-pair
    baseline, which has no attribute reconstruction to pair).
    """
    if pair_mode not in PAIR_MODES:
        raise ContractViolation(f"unknown pair_mode {pair_mode!r}")
    b = len(batch)
    k = batch.visual.shape[1]
    if noise2.shape != batch.noise.shape:
        raise ContractViolation("second noise draw must match the batch noise shape")
    cols = batch.labels if label_cols is None else label_cols

    cache1 = mlp_forward_cached(model.g_sv, np.hstack([batch.attributes, batch.noise]))
    x_synth = cache1.out
    cache2 = mlp_forward_cached(model.g_vs, x_synth)
    a_recon = cache2.out
    cache3 = mlp_forward_cached(model.g_sv, np.hstack([a_recon, noise2]))
    x_cycle = cache3.out

    d_synth = np.zeros_like(x_synth)
    d_recon = np.zeros_like(a_recon)
    d_cycle = np.zeros_like(x_cycle)
    terms: dict[str, float] = {}

    # adversarial pull on the synthesized pair
    fake_in = np.hstack([x_synth, batch.attributes])
    scores_fake = mlp_forward_cached(model.d_v, fake_in).out[:, 0]
    terms["w_synth"] = -float(scores_fake.mean())
    d_synth += (-1.0 / b) * critic_input_grads(model.d_v, fake_in)[:, :k]

    # adversarial pull on the reconstructed-attribute pair
    if include_pair_term:
        paired = batch.visual if pair_mode == "real" else x_cycle
        pair_in = np.hstack([paired, a_recon])
        scores_pair = mlp_forward_cached(model.d_v, pair_in).out[:, 0]
        terms["w_pair"] = -float(scores_pair.mean())
        pair_grads = (-1.0 / b) * critic_input_grads(model.d_v, pair_in)
        d_recon += pair_grads[:, k:]
        if pair_mode == "cycle":
            d_cycle += pair_grads[:, :k]
    else:
        terms["w_pair"] = 0.0

    # inter-class discrimination under the frozen classifier
    if weights.lambda2 > 0:
        cls_value, _, _, d_x_cls = softmax_ce_grads(model.cls_seen, x_synth, cols)
        terms["cls"] = weights.lambda2 * cls_value
        d_synth += weights.lambda2 * d_x_cls
    else:
        terms["cls"] = 0.0

    # visual consistency between cycled and real centroids
    if weights.lambda3 > 0:
        vc_value, d_vc = _centroid_match_grads(
            x_cycle, batch.labels, _batch_centroid_targets(batch)
        )
        terms["vc"] = weights.lambda3 * vc_value
        d_cycle += weights.lambda3 * d_vc
    else:
        terms["vc"] = 0.0

    # backprop: second generator application, semantic generator, first application
    grads, d_u3 = mlp_backward(model.g_sv, cache3, d_cycle)
    d_recon += d_u3[:, : a_recon.shape[1]]
    _, d_x_from_recon = mlp_backward(model.g_vs, cache2, d_recon)
    d_synth += d_x_from_recon
    first_grads, _ = mlp_backward(model.g_sv, cache1, d_synth)
    grads.add_(first_grads)

    total = terms["w_synth"] + terms["w_pair"] + terms["cls"] + terms["vc"]
    return total, terms, grads


def gen_vs_loss(
    model: ModelParams,
    batch: FeatureBatch,
    weights: LossWeights,
    noise2: np.ndarray,
) -> float:
    value, _, _ = gen_vs_loss_and_grads(model, batch, weights, noise2)
    return value


def gen_vs_loss_and_grads(
    model: ModelParams,
    batch: FeatureBatch,
    weights: LossWeights,
    noise2: np.ndarray,
) -> tuple[float, dict[str, float], MLPParams]:
    """Semantic-generator objective and its gradient w.r.t. that generator.

    The synthesized features feeding the reconstruction are produced by the
    (fixed) visual generator; gradient reaches the semantic generator both
    directly and through the cycle features in the consistency term.
    """
    if noise2.shape != batch.noise.shape:
        raise ContractViolation("second noise draw must match the batch noise shape")
    b = len(batch)

    x_synth = mlp_forward_cached(
        model.g_sv, np.hstack([batch.attributes, batch.noise])
    ).out
    cache2 = mlp_forward_cached(model.g_vs, x_synth)
    a_recon = cache2.out
    cache3 = mlp_forward_cached(model.g_sv, np.hstack([a_recon, noise2]))
    x_cycle = cache3.out

    d_recon = np.zeros_like(a_recon)
    terms: dict[str, float] = {}

    scores = mlp_forward_cached(model.d_s, a_recon).out[:, 0]
    terms["w_recon"] = -float(scores.mean())
    d_recon += (-1.0 / b) * critic_input_grads(model.d_s, a_recon)

    if weights.lambda5 > 0:
        sc_value, d_sc = semantic_centroid_grads(a_recon, batch.labels, _attr_targets(batch))
        terms["sc"] = weights.lambda5 * sc_value
        d_recon += weights.lambda5 * d_sc
    else:
        terms["sc"] = 0.0

    if weights.lambda6 > 0:
        vc_value, d_vc = _centroid_match_grads(
            x_cycle, batch.labels, _batch_centroid_targets(batch)
        )
        terms["vc"] = weights.lambda6 * vc_value
        _, d_u3 = mlp_backward(model.g_sv, cache3, weights.lambda6 * d_vc)
        d_recon += d_u3[:, : a_recon.shape[1]]
    else:
        terms["vc"] = 0.0

    grads, _ = mlp_backward(model.g_vs, cache2, d_recon)
    total = terms["w_recon"] + terms["sc"] + terms["vc"]
    return total, terms, grads


def _attr_targets(batch: FeatureBatch) -> np.ndarray:
    """Per-class attribute targets, indexable by class id, from the batch rows."""
    max_label = int(batch.labels.max())
    targets = np.zeros((max_label + 1, batch.attributes.shape[1]))
    targets[batch.labels] = batch.attributes
    return targets
