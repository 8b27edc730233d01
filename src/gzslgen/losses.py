"""Every loss term of the two adversarial objectives, as pure functions.

Each objective has one entry point: a ``*_and_grads`` function returns the
value, its named terms and the analytic parameter gradients, and a caller
that needs only the value takes element 0. Each job has one body: one
interpolation gives every penalized row, from the [B] coefficient vector
``alpha`` that the caller draws (the trainer draws it from its noise stream
right after the step's noise); both critics call one WGAN-GP
objective, whose gradient penalty appends one term to each weight's
gradient; one critic pull gives all three adversarial terms of the
generators, reusing its forward's hidden preactivation; both generators
share one cached forward of the cycle x' -> a' -> x''; the semantic and
visual centroid terms share one centroid-matching gradient. A generator's
terms start at 0.0, and a term of weight 0, or the pair term at
``pair_mode=None``, is skipped. Every backward skips the input gradient
where nothing lies upstream of it: in the critic objective, where a
generator's chain starts, and in the softmax fit
(``softmax_ce_grads(..., input_grad=False)``). The test suite pins the
values against references written from the paper's formulas in plain numpy
(``tests/helpers.py``: the class centroid, the visual consistency term and
the gradient penalty), which share no code with this module, and pins every
gradient against central finite differences.

Each ``*_and_grads`` returns its gradient as ``networks.MLPGrads``: the
weight gradients stay products that each span their whole weight, the second
backward's terms follow the first's (``MLPGrads.add``), and the penalty
appends one scaled term to each weight, so a step forms no parameter-sized
array; the optimizer forms the gradient a block of rows at a time as it
updates. The critic objective
scores its fake, real and interpolated rows in one forward over the stacked
rows, and the penalty reuses that forward's hidden preactivations.

Conventions:
  * expectations are uniform batch means;
  * per-class centroids are estimated within the mini-batch, averaging
    over the classes present in it;
  * the visual critic's gradient penalty interpolates the visual input
    only, holding the conditioning attribute at the real one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .data import FeatureBatch
from .errors import ContractViolation
from .matio import AT_LEAST_0
from .networks import (
    LinearParams,
    MLPCache,
    MLPGrads,
    MLPParams,
    ModelParams,
    _leaky_deriv,
    classifier_logits,
    critic_input_grads,
    mlp_backward,
    mlp_forward_cached,
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

    lambda1: float = field(default=10.0, metadata=AT_LEAST_0)
    lambda2: float = field(default=0.01, metadata=AT_LEAST_0)
    lambda3: float = field(default=0.01, metadata=AT_LEAST_0)
    lambda4: float = field(default=10.0, metadata=AT_LEAST_0)
    lambda5: float = field(default=0.1, metadata=AT_LEAST_0)
    lambda6: float = field(default=0.01, metadata=AT_LEAST_0)


# ---------------------------------------------------------------------------
# term operations


_TINY = np.finfo(np.float64).tiny
# np.exp of a shifted logit below this is subnormal or 0.0
_EXP_FLOOR = np.log(_TINY)


def softmax_ce_grads(
    cls: LinearParams,
    x: np.ndarray,
    labels: np.ndarray,
    *,
    input_grad: bool = True,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray | None]:
    """Cross-entropy with gradients w.r.t. (w, b, x). Returns (loss, dw, db, dx);
    ``dx`` is None, and its GEMM skipped, when ``input_grad`` is False.

    The loss is the mean negative log-probability of the true class; as the
    generator's classification term, ``labels`` index classifier columns
    (seen classes in ascending order).

    The weight gradient is formed as ``d_logits.T @ x``, a ``[C, K]`` array
    returned as its transposed view ``dw``, which OpenBLAS computes in about
    two thirds of the time of ``x.T @ d_logits`` at paper shape. On the
    OpenBLAS build the tests were checked on (scipy-openblas 0.3.31, bundled
    with numpy's wheels) the two products have the same bits at every shape
    the tests cover; another BLAS build may round them differently.

    Entries of the logit gradient below the smallest normal double are set
    to 0.0 before the GEMMs: an off-class probability of ~1e-310 would
    otherwise push the weight-gradient GEMM onto the CPU's slow subnormal
    path, which more than doubles the cost of a long softmax fit. Fitted
    weights do not move: a column of ``dw``/``db`` with a labelled row also
    sums normal-range terms, and each flushed term lies below half an ulp of
    them; a column of flushed terms alone loses an update of ~1e-308, which
    leaves any normal-range weight unchanged. For the same reason ``np.exp``
    is skipped, and 0.0 written, where a shifted logit lies below ln(tiny):
    its result would be subnormal, ``np.exp`` is some 30 times slower on such
    inputs, and the probability it gives is flushed anyway. Every row's sum
    holds the 1.0 of its largest logit, which a subnormal term cannot move.
    """
    labels = np.asarray(labels)
    n_classes = cls.w.shape[1]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_classes:
        raise ContractViolation(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    b = x.shape[0]
    rows = np.arange(b)
    d_logits = classifier_logits(cls, x)
    # stable log-sum-exp route for the true-class log probability, in place:
    # the buffer holds the logits, then their shifted values, then exp, then
    # probabilities, then the logit gradient
    d_logits -= d_logits.max(axis=1, keepdims=True)
    true_shifted = d_logits[rows, labels]
    live = d_logits >= _EXP_FLOOR
    np.exp(d_logits, out=d_logits, where=live)
    d_logits[~live] = 0.0
    norm = d_logits.sum(axis=1, keepdims=True)
    loss = float(-(true_shifted - np.log(norm[:, 0])).mean())
    d_logits /= norm
    d_logits[rows, labels] -= 1.0
    d_logits /= b
    d_logits[np.abs(d_logits) < _TINY] = 0.0
    dx = d_logits @ cls.w.T if input_grad else None
    return loss, (d_logits.T @ x).T, d_logits.sum(axis=0), dx


def _group_indices(labels: np.ndarray) -> list[tuple[int, np.ndarray]]:
    labels = np.asarray(labels)
    return [(int(c), np.flatnonzero(labels == c)) for c in np.unique(labels)]


def _centroid_match_grads(
    rows: np.ndarray, labels: np.ndarray, targets: Mapping[int, np.ndarray] | np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean over batch-present classes c of ||centroid(rows_c) - targets[c]||_2,
    with its gradient w.r.t. ``rows``. ``targets`` maps or indexes class ids.

    With reconstructed attributes as ``rows`` and class attributes as
    ``targets`` this is the semantic centroid term."""
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


def _attr_targets(batch: FeatureBatch) -> dict[int, np.ndarray]:
    """Each batch class's attribute row (every row of a class holds the same one)."""
    return {c: batch.attributes[idx[0]] for c, idx in _group_indices(batch.labels)}


# ---------------------------------------------------------------------------
# gradient penalty


def _interpolate(real: np.ndarray, fake: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Rows ``alpha*real + (1-alpha)*fake`` for the [B] coefficient vector ``alpha``."""
    if real.shape != fake.shape:
        raise ContractViolation(f"real {real.shape} and fake {fake.shape} must match")
    n = real.shape[0]
    if alpha.shape != (n,):
        raise ContractViolation(f"alpha {alpha.shape} must match the batch ({n},)")
    return alpha[:, None] * real + (1.0 - alpha[:, None]) * fake


def _add_gp_grads(
    critic: MLPParams, h_pre: np.ndarray, n_grad: int, lam: float, grads: MLPGrads
) -> float:
    """Penalty value; appends ``lam`` times its critic-parameter gradient to
    ``grads`` as one whole-weight term each for w1 and w2.

    ``h_pre`` is the critic's hidden preactivation at the interpolated rows.
    The input gradient of a one-hidden-layer critic is piecewise constant
    in the hidden preactivations, so the derivative of the penalty through
    the activation pattern vanishes almost everywhere; only the w1 rows of
    the first ``n_grad`` (penalized) inputs and w2 receive gradient. The w1
    term's left factor is zero below those rows; the w2 term is its column
    times ``[[1.0]]``, a product that holds the column's own bits.
    """
    b = h_pre.shape[0]
    d = _leaky_deriv(h_pre, critic.shape.negative_slope)        # [B, H]
    s = d * critic.w2[:, 0]                                     # [B, H]
    g = s @ critic.w1[:n_grad, :].T                             # [B, n_grad]
    norms = np.linalg.norm(g, axis=1)
    value = float(np.mean((norms - 1.0) ** 2))

    coef = np.zeros(b)
    nonzero = norms > 0
    coef[nonzero] = 2.0 * (norms[nonzero] - 1.0) / (norms[nonzero] * b)
    v_t = np.zeros((critic.shape.input_dim, b))                 # [n_in, B]
    np.multiply(coef, g.T, out=v_t[:n_grad])

    grads.w1.append((v_t, s, lam))
    p = v_t[:n_grad].T @ critic.w1[:n_grad, :]                  # [B, H]
    grads.w2.append(((d * p).sum(axis=0)[:, None], np.ones((1, 1)), lam))
    return value


# ---------------------------------------------------------------------------
# critic objectives


def _critic_loss_and_grads(
    critic: MLPParams,
    real_in: np.ndarray,
    fake_in: np.ndarray,
    between_in: np.ndarray,
    n_grad: int,
    lam: float,
) -> tuple[float, dict[str, float], MLPGrads]:
    """WGAN-GP critic objective: mean fake minus mean real score plus ``lam``
    times the penalty on the first ``n_grad`` input columns at ``between_in``."""
    b = real_in.shape[0]
    cache = mlp_forward_cached(critic, np.vstack([fake_in, real_in, between_in]))
    fake_cache, real_cache = cache.rows(0, b), cache.rows(b, 2 * b)
    ones = np.full((b, 1), 1.0 / b)
    grads, _ = mlp_backward(critic, fake_cache, ones, input_grad=False)
    grads.add(mlp_backward(critic, real_cache, -ones, input_grad=False)[0])
    gp = _add_gp_grads(critic, cache.h_pre[2 * b :], n_grad, lam, grads)

    w_fake = float(fake_cache.out.mean())
    w_real = float(real_cache.out.mean())
    terms = {"w_fake": w_fake, "w_real": w_real, "gp": lam * gp}
    return w_fake - w_real + lam * gp, terms, grads


def disc_v_loss_and_grads(
    model: ModelParams,
    batch: FeatureBatch,
    synth_visual: np.ndarray,
    weights: LossWeights,
    alpha: np.ndarray,
) -> tuple[float, dict[str, float], MLPGrads]:
    """Conditional visual-critic objective: fake minus real score plus penalty,
    taken at the rows ``_interpolate(batch.visual, synth_visual, alpha)``."""
    between = _interpolate(batch.visual, synth_visual, alpha)
    return _critic_loss_and_grads(
        model.d_v,
        real_in=np.hstack([batch.visual, batch.attributes]),
        fake_in=np.hstack([synth_visual, batch.attributes]),
        between_in=np.hstack([between, batch.attributes]),
        n_grad=batch.visual.shape[1],
        lam=weights.lambda1,
    )


def disc_s_loss_and_grads(
    model: ModelParams,
    batch: FeatureBatch,
    recon_attrs: np.ndarray,
    weights: LossWeights,
    alpha: np.ndarray,
) -> tuple[float, dict[str, float], MLPGrads]:
    """Semantic-critic objective over real vs reconstructed attributes, with
    the penalty at ``_interpolate(batch.attributes, recon_attrs, alpha)``."""
    return _critic_loss_and_grads(
        model.d_s, real_in=batch.attributes, fake_in=recon_attrs,
        between_in=_interpolate(batch.attributes, recon_attrs, alpha),
        n_grad=recon_attrs.shape[1], lam=weights.lambda4,
    )


# ---------------------------------------------------------------------------
# generator objectives


def _critic_pull(critic: MLPParams, u: np.ndarray) -> tuple[float, np.ndarray]:
    """A generator's adversarial term ``-mean(critic(u))`` and its gradient
    w.r.t. ``u``, which reuses the forward's hidden preactivation."""
    cache = mlp_forward_cached(critic, u)
    grad = critic_input_grads(critic, cache)
    return -float(cache.out[:, 0].mean()), (-1.0 / u.shape[0]) * grad


def _generator_chain(
    model: ModelParams, batch: FeatureBatch, noise2: np.ndarray
) -> tuple[MLPCache, MLPCache, MLPCache]:
    """Cached forwards of the cycle x' = G_sv(a, z), a' = G_vs(x'), x'' = G_sv(a', z2)."""
    if noise2.shape != batch.noise.shape:
        raise ContractViolation("second noise draw must match the batch noise shape")
    synth = mlp_forward_cached(model.g_sv, np.hstack([batch.attributes, batch.noise]))
    recon = mlp_forward_cached(model.g_vs, synth.out)
    cycle = mlp_forward_cached(model.g_sv, np.hstack([recon.out, noise2]))
    return synth, recon, cycle


def gen_sv_loss_and_grads(
    model: ModelParams,
    batch: FeatureBatch,
    weights: LossWeights,
    noise2: np.ndarray,
    label_cols: np.ndarray,
    pair_mode: str | None = "real",
) -> tuple[float, dict[str, float], MLPGrads]:
    """Visual-generator objective and its gradient w.r.t. that generator.

    Internally runs the full chain x' -> a' -> x''; the gradient flows
    through both applications of the visual generator. ``pair_mode``
    selects what the critic pairs with the reconstructed attributes in the
    second adversarial term: the batch's real features ("real", the default
    literal reading) or the cycled features ("cycle"); ``None`` drops that
    term (the single-GAN baseline has no reconstruction to pair).
    ``label_cols`` holds each row's column in the frozen seen-class
    classifier (``trainer.seen_class_columns``), which the class id itself
    is only when the seen ids are exactly 0..S-1.
    """
    if pair_mode is not None and pair_mode not in PAIR_MODES:
        raise ContractViolation(f"unknown pair_mode {pair_mode!r}")
    k = batch.visual.shape[1]
    cache1, cache2, cache3 = _generator_chain(model, batch, noise2)
    x_synth, a_recon, x_cycle = cache1.out, cache2.out, cache3.out

    d_synth = np.zeros_like(x_synth)
    d_recon = np.zeros_like(a_recon)
    d_cycle = np.zeros_like(x_cycle)
    terms = dict.fromkeys(("w_synth", "w_pair", "cls", "vc"), 0.0)

    # adversarial pull on the synthesized pair
    terms["w_synth"], pull = _critic_pull(model.d_v, np.hstack([x_synth, batch.attributes]))
    d_synth += pull[:, :k]

    # adversarial pull on the reconstructed-attribute pair
    if pair_mode is not None:
        paired = batch.visual if pair_mode == "real" else x_cycle
        terms["w_pair"], pull = _critic_pull(model.d_v, np.hstack([paired, a_recon]))
        d_recon += pull[:, k:]
        if pair_mode == "cycle":
            d_cycle += pull[:, :k]

    # inter-class discrimination under the frozen classifier
    if weights.lambda2 > 0:
        cls_value, _, _, d_x_cls = softmax_ce_grads(model.cls_seen, x_synth, label_cols)
        terms["cls"] = weights.lambda2 * cls_value
        d_synth += weights.lambda2 * d_x_cls

    # visual consistency between cycled and real centroids
    if weights.lambda3 > 0:
        vc_value, d_vc = _centroid_match_grads(
            x_cycle, batch.labels, _batch_centroid_targets(batch)
        )
        terms["vc"] = weights.lambda3 * vc_value
        d_cycle += weights.lambda3 * d_vc

    # backprop: second generator application, semantic generator, first application
    grads, d_u3 = mlp_backward(model.g_sv, cache3, d_cycle)
    d_recon += d_u3[:, : a_recon.shape[1]]
    _, d_x_from_recon = mlp_backward(model.g_vs, cache2, d_recon)
    d_synth += d_x_from_recon
    grads.add(mlp_backward(model.g_sv, cache1, d_synth, input_grad=False)[0])

    total = terms["w_synth"] + terms["w_pair"] + terms["cls"] + terms["vc"]
    return total, terms, grads


def gen_vs_loss_and_grads(
    model: ModelParams,
    batch: FeatureBatch,
    weights: LossWeights,
    noise2: np.ndarray,
) -> tuple[float, dict[str, float], MLPGrads]:
    """Semantic-generator objective and its gradient w.r.t. that generator.

    The synthesized features feeding the reconstruction are produced by the
    (fixed) visual generator; gradient reaches the semantic generator both
    directly and through the cycle features in the consistency term.
    """
    _, cache2, cache3 = _generator_chain(model, batch, noise2)
    a_recon, x_cycle = cache2.out, cache3.out

    d_recon = np.zeros_like(a_recon)
    terms = dict.fromkeys(("w_recon", "sc", "vc"), 0.0)

    terms["w_recon"], pull = _critic_pull(model.d_s, a_recon)
    d_recon += pull

    if weights.lambda5 > 0:
        sc_value, d_sc = _centroid_match_grads(a_recon, batch.labels, _attr_targets(batch))
        terms["sc"] = weights.lambda5 * sc_value
        d_recon += weights.lambda5 * d_sc

    if weights.lambda6 > 0:
        vc_value, d_vc = _centroid_match_grads(
            x_cycle, batch.labels, _batch_centroid_targets(batch)
        )
        terms["vc"] = weights.lambda6 * vc_value
        _, d_u3 = mlp_backward(model.g_sv, cache3, weights.lambda6 * d_vc)
        d_recon += d_u3[:, : a_recon.shape[1]]

    grads, _ = mlp_backward(model.g_vs, cache2, d_recon, input_grad=False)
    total = terms["w_recon"] + terms["sc"] + terms["vc"]
    return total, terms, grads

