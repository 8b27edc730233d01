"""The four single-hidden-layer networks and the linear softmax classifier.

All forwards are pure numpy; every one has a matching analytic backward so
training never depends on an autodiff framework and gradient tests can
compare against central finite differences. Forwards never mutate
parameters, so concurrent reads of one ModelParams are safe; mutation is
owned by the trainer.

Shapes (K = visual dim, L = attribute dim, H = hidden width):
    visual generator    [a | z] (2L) -> H -> K, rectified output
    semantic generator  x (K) -> H -> L, rectified output (configurable)
    visual critic       [x | a] (K+L) -> H -> 1, linear output
    semantic critic     a (L) -> H -> 1, linear output
    seen classifier     x (K) -> n_seen logits, softmax

Flat layout: each MLPParams owns one contiguous 1-D float64 buffer ``flat``
holding w1 | b1 | w2 | b2, each row-major, and ``w1/b1/w2/b2`` are views into
it. Gradients use the same type and layout, so adding gradients, taking
their norm and one fused optimizer update per network each make a single
pass over one buffer, and ``mlp_backward`` writes straight into the views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ContractViolation

OUTPUT_ACTIVATIONS = ("relu", "none")


@dataclass
class NetworkShape:
    input_dim: int
    hidden_dim: int
    output_dim: int
    negative_slope: float = 0.2
    output_activation: str = "none"

    def validate(self) -> None:
        if min(self.input_dim, self.hidden_dim, self.output_dim) < 1:
            raise ContractViolation("all network dimensions must be >= 1")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ContractViolation(f"unknown output activation {self.output_activation!r}")


class MLPParams:
    """Weights of one hidden-layer perceptron, x @ w + b convention.

    ``w1/b1/w2/b2`` are views into ``flat`` (see the module docstring): write
    into them (``net.b1[:] = ...``, ``net.w2 *= 3``), never rebind them.
    """

    def __init__(
        self,
        w1: np.ndarray,  # [input_dim, hidden_dim]
        b1: np.ndarray,  # [hidden_dim]
        w2: np.ndarray,  # [hidden_dim, output_dim]
        b2: np.ndarray,  # [output_dim]
        shape: NetworkShape,
    ):
        self._bind(np.empty(_flat_size(shape)), shape)
        for name, src in zip(("w1", "b1", "w2", "b2"), (w1, b1, w2, b2)):
            view = getattr(self, name)
            if np.shape(src) != view.shape:
                raise ContractViolation(
                    f"{name} must have shape {view.shape}, got {np.shape(src)}"
                )
            view[...] = src

    def _bind(self, flat: np.ndarray, shape: NetworkShape) -> None:
        i, h, o = shape.input_dim, shape.hidden_dim, shape.output_dim
        self.shape = shape
        self.flat = flat
        self.w1 = flat[: i * h].reshape(i, h)
        self.b1 = flat[i * h : i * h + h]
        self.w2 = flat[i * h + h : i * h + h + h * o].reshape(h, o)
        self.b2 = flat[i * h + h + h * o :]

    @classmethod
    def _from_flat(cls, flat: np.ndarray, shape: NetworkShape) -> "MLPParams":
        """Wrap a contiguous 1-D float64 buffer of the right size, uncopied."""
        net = cls.__new__(cls)
        net._bind(flat, shape)
        return net

    @classmethod
    def zeros(cls, shape: NetworkShape) -> "MLPParams":
        return cls._from_flat(np.zeros(_flat_size(shape)), shape)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def copy(self) -> "MLPParams":
        return MLPParams._from_flat(self.flat.copy(), self.shape)

    def add_(self, other: "MLPParams", scale: float = 1.0) -> "MLPParams":
        """self += scale * other, in place; scaling consumes ``other``."""
        if scale != 1.0:
            other.flat *= scale
        self.flat += other.flat
        return self

    def norm(self) -> float:
        return float(np.sqrt(self.flat @ self.flat))


def _flat_size(shape: NetworkShape) -> int:
    h = shape.hidden_dim
    return shape.input_dim * h + h + h * shape.output_dim + shape.output_dim


@dataclass
class LinearParams:
    """Linear softmax classifier: logits = x @ w + b."""

    w: np.ndarray  # [K, n_classes]
    b: np.ndarray  # [n_classes]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}

    def copy(self) -> "LinearParams":
        return LinearParams(self.w.copy(), self.b.copy())


@dataclass
class ModelParams:
    g_sv: MLPParams
    g_vs: MLPParams
    d_v: MLPParams
    d_s: MLPParams
    cls_seen: LinearParams

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.g_sv.copy(), self.g_vs.copy(), self.d_v.copy(),
            self.d_s.copy(), self.cls_seen.copy(),
        )

    def all_arrays(self) -> Iterable[np.ndarray]:
        for net in (self.g_sv, self.g_vs, self.d_v, self.d_s):
            yield from net.arrays().values()
        yield from self.cls_seen.arrays().values()


@dataclass
class MLPCache:
    """Intermediates kept by a cached forward for the backward pass."""

    u: np.ndarray
    h_pre: np.ndarray
    h: np.ndarray
    o_pre: np.ndarray
    out: np.ndarray


def _init_mlp(rng: np.random.Generator, shape: NetworkShape) -> MLPParams:
    shape.validate()
    # Fan-in scaled zero-mean weights, zero biases.
    net = MLPParams.zeros(shape)
    rng.standard_normal(out=net.w1)
    net.w1 /= np.sqrt(shape.input_dim)
    rng.standard_normal(out=net.w2)
    net.w2 /= np.sqrt(shape.hidden_dim)
    return net


def init_params(
    feature_dim: int,
    attribute_dim: int,
    n_seen: int,
    seed: int,
    hidden_dim: int = 4096,
    negative_slope: float = 0.2,
    gvs_output_activation: str = "relu",
) -> ModelParams:
    """Deterministically initialize all five parameter sets."""
    if min(feature_dim, attribute_dim, n_seen) < 1:
        raise ContractViolation("dims must be >= 1")
    rng = np.random.default_rng(seed)
    k, l = feature_dim, attribute_dim
    mk = lambda i, o, act: _init_mlp(
        rng, NetworkShape(i, hidden_dim, o, negative_slope, act)
    )
    g_sv = mk(2 * l, k, "relu")
    g_vs = mk(k, l, gvs_output_activation)
    d_v = mk(k + l, 1, "none")
    d_s = mk(l, 1, "none")
    cls_w = rng.standard_normal((k, n_seen)) / np.sqrt(k)
    cls = LinearParams(w=cls_w, b=np.zeros(n_seen))
    return ModelParams(g_sv=g_sv, g_vs=g_vs, d_v=d_v, d_s=d_s, cls_seen=cls)


def _leaky(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x >= 0, x, slope * x)


def _leaky_deriv(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x >= 0, 1.0, slope)


def _check_input(params: MLPParams, u: np.ndarray) -> None:
    if u.ndim != 2 or u.shape[1] != params.shape.input_dim:
        raise ContractViolation(
            f"expected input [B, {params.shape.input_dim}], got {u.shape}"
        )


def mlp_forward(params: MLPParams, u: np.ndarray) -> np.ndarray:
    return mlp_forward_cached(params, u).out


def mlp_forward_cached(params: MLPParams, u: np.ndarray) -> MLPCache:
    _check_input(params, u)
    h_pre = u @ params.w1 + params.b1
    h = _leaky(h_pre, params.shape.negative_slope)
    o_pre = h @ params.w2 + params.b2
    out = np.maximum(o_pre, 0.0) if params.shape.output_activation == "relu" else o_pre
    return MLPCache(u=u, h_pre=h_pre, h=h, o_pre=o_pre, out=out)


def mlp_backward(
    params: MLPParams, cache: MLPCache, d_out: np.ndarray
) -> tuple[MLPParams, np.ndarray]:
    """Backprop an upstream gradient; returns (parameter grads, input grad)."""
    if params.shape.output_activation == "relu":
        d_opre = d_out * (cache.o_pre > 0)
    else:
        d_opre = d_out
    grads = MLPParams._from_flat(np.empty_like(params.flat), params.shape)
    np.matmul(cache.h.T, d_opre, out=grads.w2)
    np.sum(d_opre, axis=0, out=grads.b2)
    d_h = d_opre @ params.w2.T
    d_hpre = d_h * _leaky_deriv(cache.h_pre, params.shape.negative_slope)
    np.matmul(cache.u.T, d_hpre, out=grads.w1)
    np.sum(d_hpre, axis=0, out=grads.b1)
    d_u = d_hpre @ params.w1.T
    return grads, d_u


def critic_input_grads(params: MLPParams, u: np.ndarray) -> np.ndarray:
    """Per-row gradient of the scalar critic score w.r.t. its input, [B, n_in].

    Valid for critics only (output_dim 1, linear output).
    """
    if params.shape.output_dim != 1 or params.shape.output_activation != "none":
        raise ContractViolation("input gradients are defined for scalar linear-output critics")
    _check_input(params, u)
    h_pre = u @ params.w1 + params.b1
    s = _leaky_deriv(h_pre, params.shape.negative_slope) * params.w2[:, 0]  # [B, H]
    return s @ params.w1.T


def gen_sv_forward(model: ModelParams, attributes: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Synthesize visual features from class attributes and Gaussian noise."""
    if attributes.shape != noise.shape:
        raise ContractViolation(
            f"attributes {attributes.shape} and noise {noise.shape} must match"
        )
    return mlp_forward(model.g_sv, np.hstack([attributes, noise]))


def gen_vs_forward(model: ModelParams, visual: np.ndarray) -> np.ndarray:
    """Reconstruct class attributes from visual features."""
    return mlp_forward(model.g_vs, visual)


def disc_v_forward(model: ModelParams, visual: np.ndarray, attributes: np.ndarray) -> np.ndarray:
    """Conditional critic score over (visual, attribute) pairs, [B]."""
    if visual.shape[0] != attributes.shape[0]:
        raise ContractViolation("visual and attribute batches disagree")
    return mlp_forward(model.d_v, np.hstack([visual, attributes]))[:, 0]


def disc_s_forward(model: ModelParams, attributes: np.ndarray) -> np.ndarray:
    """Unconditional critic score over attribute vectors, [B]."""
    return mlp_forward(model.d_s, attributes)[:, 0]


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def classifier_logits(cls: LinearParams, visual: np.ndarray) -> np.ndarray:
    if visual.ndim != 2 or visual.shape[1] != cls.w.shape[0]:
        raise ContractViolation(
            f"expected visual [B, {cls.w.shape[0]}], got {visual.shape}"
        )
    return visual @ cls.w + cls.b


def classifier_forward(cls: LinearParams, visual: np.ndarray) -> np.ndarray:
    """Class-probability rows (each sums to 1)."""
    return softmax(classifier_logits(cls, visual))
