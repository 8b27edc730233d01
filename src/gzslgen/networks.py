"""The four single-hidden-layer networks and the linear softmax classifier.

All forwards are pure numpy; every one has a matching analytic backward so
training never depends on an autodiff framework and gradient tests can
compare against central finite differences. Forwards never mutate
parameters, so concurrent reads of one ModelParams are safe; mutation is
owned by the trainer.

Shapes (K = visual dim, L = attribute dim, H = hidden width):
    visual generator    [a | z] (2L) -> H -> K, rectified output
    semantic generator  x (K) -> H -> L, rectified output
    visual critic       [x | a] (K+L) -> H -> 1, linear output
    semantic critic     a (L) -> H -> 1, linear output
    seen classifier     x (K) -> n_seen logits, softmax

Flat layout: each MLPParams owns one contiguous 1-D float64 buffer ``flat``
holding w1 | b1 | w2 | b2, each row-major, and ``w1/b1/w2/b2`` are views into
it, so one fused optimizer update per network walks one buffer. Only
``MLPParams.__init__`` computes the layout's offsets; a gradient reaches the
optimizer as pieces that tile the buffer in order.

``mlp_backward`` always returns the parameter gradients, which cost only
two bias sums because the weight gradients stay factors (below), and skips
the input gradient (``input_grad=False``) of a network nothing lies
upstream of. ``critic_input_grads`` reads the hidden preactivation ``h_pre``
from the cache of a forward pass that has already run.

Parameter gradients come back as ``MLPGrads``: the bias gradients as arrays
and each weight gradient as the ordered sum of its terms, products ``a @ b``
that each span the whole weight (a backward's ``input.T @ delta``, a penalty's
zero-padded term), left unformed. ``MLPGrads.segments`` yields the gradient
as 1-D pieces that tile the flat buffer in order, forming the weight
gradients a block of ``row_blocks`` rows at a time in one small scratch, so
the optimizer consumes each block while it is in cache and no
parameter-sized gradient is ever made.
``synthesis`` splits its generator forwards by the same row rule.

``NetworkShape`` declares its bounds on its fields (widths at least 1, a
``negative_slope`` in [0, 1], an output activation of ``OUTPUT_ACTIVATIONS``),
and ``matio.check_bounds`` checks them where a shape enters: ``init_params``
for each shape it builds and ``config.load_checkpoint`` for each one it reads,
both as ``network_shapes.<net>.<field>``. ``MLPParams`` and the forwards take
a shape as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import ContractViolation
from .matio import AT_LEAST_1, check_bounds

OUTPUT_ACTIVATIONS = ("relu", "none")
# the four networks of ``ModelParams``, in init and checkpoint order
NETWORKS = ("g_sv", "g_vs", "d_v", "d_s")


@dataclass
class NetworkShape:
    input_dim: int = field(metadata=AT_LEAST_1)
    hidden_dim: int = field(metadata=AT_LEAST_1)
    output_dim: int = field(metadata=AT_LEAST_1)
    negative_slope: float = field(default=0.2, metadata={
        "bound": (lambda v: 0 <= v <= 1, "in [0, 1]")})
    output_activation: str = field(default="none", metadata={
        "bound": (lambda v: v in OUTPUT_ACTIVATIONS, f"one of {OUTPUT_ACTIVATIONS}")})


class MLPParams:
    """Weights of one hidden-layer perceptron, x @ w + b convention.

    ``w1/b1/w2/b2`` are views into ``flat`` (see the module docstring): write
    into them (``net.b1[:] = ...``, ``net.w2 *= 3``), never rebind them.
    ``pickle`` and ``copy.deepcopy`` rebuild a network from ``(flat, shape)``,
    so the copy's four arrays are views of its own ``flat`` and a model can
    cross a process boundary whole.
    """

    def __init__(self, flat: np.ndarray, shape: NetworkShape):
        """Wrap ``flat``, a contiguous 1-D float64 buffer of ``shape``'s size, uncopied."""
        i, h, o, n = shape.input_dim, shape.hidden_dim, shape.output_dim, _flat_size(shape)
        if flat.dtype != np.float64 or flat.shape != (n,) or not flat.flags.c_contiguous:
            raise ContractViolation(f"flat must be a contiguous float64 array of shape ({n},)")
        self.shape = shape
        self.flat = flat
        self.w1 = flat[: i * h].reshape(i, h)
        self.b1 = flat[i * h : i * h + h]
        self.w2 = flat[i * h + h : i * h + h + h * o].reshape(h, o)
        self.b2 = flat[i * h + h + h * o :]

    def __reduce__(self):
        return MLPParams, (self.flat, self.shape)

    @classmethod
    def zeros(cls, shape: NetworkShape) -> "MLPParams":
        return cls(np.zeros(_flat_size(shape)), shape)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


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


@dataclass
class ModelParams:
    g_sv: MLPParams
    g_vs: MLPParams
    d_v: MLPParams
    d_s: MLPParams
    cls_seen: LinearParams

    def all_arrays(self) -> Iterable[np.ndarray]:
        for name in NETWORKS:
            yield from getattr(self, name).arrays().values()
        yield from self.cls_seen.arrays().values()


@dataclass
class MLPCache:
    """Intermediates kept by a cached forward for the backward pass.

    ``out`` is the output after its activation; a ReLU output is positive
    exactly where its preactivation is, so the backward masks by ``out``.
    """

    u: np.ndarray
    h_pre: np.ndarray
    h: np.ndarray
    out: np.ndarray

    def rows(self, lo: int, hi: int) -> "MLPCache":
        """The cache of rows ``lo:hi`` of the batch, as views."""
        return MLPCache(*(a[lo:hi] for a in (self.u, self.h_pre, self.h, self.out)))


def _init_mlp(rng: np.random.Generator, name: str, shape: NetworkShape) -> MLPParams:
    check_bounds(f"network_shapes.{name}", shape)
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
    hidden_dim: int,
) -> ModelParams:
    """Deterministically initialize all five parameter sets. A width below 1
    breaks a network shape's bound (a ValidationError naming it); an
    ``n_seen`` below 1 is a ContractViolation."""
    if n_seen < 1:
        raise ContractViolation(f"n_seen must be >= 1, got {n_seen}")
    rng = np.random.default_rng(seed)
    k, l = feature_dim, attribute_dim
    nets = {name: _init_mlp(rng, name, NetworkShape(i, hidden_dim, o, output_activation=act))
            for name, i, o, act in (("g_sv", 2 * l, k, "relu"), ("g_vs", k, l, "relu"),
                                    ("d_v", k + l, 1, "none"), ("d_s", l, 1, "none"))}
    cls_w = rng.standard_normal((k, n_seen)) / np.sqrt(k)
    return ModelParams(**nets, cls_seen=LinearParams(w=cls_w, b=np.zeros(n_seen)))


def _leaky(x: np.ndarray, slope: float) -> np.ndarray:
    # the same bits as np.where(x >= 0, x, slope * x) when 0 <= slope <= 1,
    # the bound of NetworkShape.negative_slope (see the module docstring)
    return np.maximum(x, slope * x)


def _leaky_deriv(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x >= 0, 1.0, slope)


def mlp_forward(params: MLPParams, u: np.ndarray) -> np.ndarray:
    return mlp_forward_cached(params, u).out


def mlp_forward_cached(params: MLPParams, u: np.ndarray) -> MLPCache:
    if u.ndim != 2 or u.shape[1] != params.shape.input_dim:
        raise ContractViolation(
            f"expected input [B, {params.shape.input_dim}], got {u.shape}"
        )
    h_pre = u @ params.w1 + params.b1
    h = _leaky(h_pre, params.shape.negative_slope)
    o_pre = h @ params.w2 + params.b2
    out = np.maximum(o_pre, 0.0) if params.shape.output_activation == "relu" else o_pre
    return MLPCache(u=u, h_pre=h_pre, h=h, out=out)


# A weight-gradient block holds at most this many doubles (4 MB): 128 rows
# at H=4096.
_ADD_BLOCK = 1 << 19


def row_blocks(n: int, most: int) -> list[tuple[int, int]]:
    """Rows ``0:n`` as the fewest equal ``(lo, hi)`` blocks (sizes differ by at
    most one) of at most ``most`` rows; ``n = 0`` gives one empty block.

    With ``most >= 3`` every block holds two rows or more when ``n`` does,
    which keeps each product off numpy's one-row vector (gemv) path: gemv
    rounds differently from the GEMM that computes the same row among
    others. With OpenBLAS a product taken a block at a time then has the bits
    of the whole one at the shapes ``scripts/param_digest.py`` covers; the
    row split of a GEMM is not guaranteed to keep every bit at every shape.
    """
    count = max(1, -(-n // most))
    edges = [n * i // count for i in range(count + 1)]
    return list(zip(edges, edges[1:]))


# (a, b, scale): adds a @ b, times scale if given, to the whole weight
Term = tuple[np.ndarray, np.ndarray, float | None]


@dataclass
class MLPGrads:
    """Parameter gradients of one MLP, each weight gradient kept as factors.

    ``w1`` and ``w2`` list the terms of their weight's gradient in the order
    they are summed; every term spans the whole weight. The first comes from
    ``mlp_backward`` and is unscaled. ``b1`` and ``b2`` are the bias
    gradients themselves.
    """

    w1: list[Term]
    b1: np.ndarray
    w2: list[Term]
    b2: np.ndarray

    def add(self, other: "MLPGrads") -> None:
        """Add ``other``'s gradient: its terms follow this one's."""
        self.w1 += other.w1
        self.b1 += other.b1
        self.w2 += other.w2
        self.b2 += other.b2

    def segments(self) -> Iterator[np.ndarray]:
        """The gradient as 1-D pieces that tile the ``MLPParams.flat`` buffer
        in order: w1's blocks, b1, w2's blocks, b2. A weight's piece is one
        block of ``row_blocks`` rows, which the next block overwrites."""
        yield from _weight_blocks(self.w1)
        yield self.b1
        yield from _weight_blocks(self.w2)
        yield self.b2


def _weight_blocks(terms: list[Term]) -> Iterator[np.ndarray]:
    """One weight gradient as its row-major 1-D pieces in order, a block of
    rows at a time in a scratch of at most ``_ADD_BLOCK`` doubles.

    Each block is formed in the order of a sum into one full-size gradient:
    the first term written by ``np.matmul``, each later one formed in a
    second scratch, scaled if weighted, then added. Every term spans the
    whole weight, so each block takes the same rows ``lo:hi`` of every term,
    and the first term's factors give the weight's shape.
    """
    (first_a, first_b, _), *later = terms
    n_rows, n_cols = first_a.shape[0], first_b.shape[1]
    blocks = row_blocks(n_rows, max(4, _ADD_BLOCK // n_cols))
    rows = max(hi - lo for lo, hi in blocks)
    block_buf, part_buf = np.empty((rows, n_cols)), np.empty((rows, n_cols))
    for lo, hi in blocks:
        block = np.matmul(first_a[lo:hi], first_b, out=block_buf[: hi - lo])
        for a, b, scale in later:
            part = np.matmul(a[lo:hi], b, out=part_buf[: hi - lo])
            if scale is not None:
                part *= scale
            block += part
        yield block.reshape(-1)


def mlp_backward(
    params: MLPParams,
    cache: MLPCache,
    d_out: np.ndarray,
    *,
    input_grad: bool = True,
) -> tuple[MLPGrads, np.ndarray | None]:
    """Backprop an upstream gradient; returns (parameter grads, input grad).

    With ``input_grad=False`` the input gradient is not computed and comes
    back as ``None``; the parameter gradients are bit-identical to the full
    call's.
    """
    if params.shape.output_activation == "relu":
        d_opre = d_out * (cache.out > 0)
    else:
        d_opre = d_out
    d_h = d_opre @ params.w2.T
    d_hpre = d_h * _leaky_deriv(cache.h_pre, params.shape.negative_slope)
    grads = MLPGrads(
        w1=[(cache.u.T, d_hpre, None)], b1=np.sum(d_hpre, axis=0),
        w2=[(cache.h.T, d_opre, None)], b2=np.sum(d_opre, axis=0),
    )
    d_u = d_hpre @ params.w1.T if input_grad else None
    return grads, d_u


def critic_input_grads(params: MLPParams, cache: MLPCache) -> np.ndarray:
    """Per-row gradient of the scalar critic score w.r.t. its input, [B, n_in].

    Valid for critics only (output_dim 1, linear output). ``cache`` is that of
    a forward pass that has already run, and only its hidden preactivation
    ``h_pre`` is read: the gradient depends on the input through it alone.
    """
    if params.shape.output_dim != 1 or params.shape.output_activation != "none":
        raise ContractViolation("input gradients are defined for scalar linear-output critics")
    if cache.h_pre.ndim != 2 or cache.h_pre.shape[1] != params.shape.hidden_dim:
        raise ContractViolation(
            f"h_pre must be [B, {params.shape.hidden_dim}], got {cache.h_pre.shape}"
        )
    s = _leaky_deriv(cache.h_pre, params.shape.negative_slope) * params.w2[:, 0]  # [B, H]
    return s @ params.w1.T


def gen_sv_forward(model: ModelParams, attributes: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Synthesize visual features from class attributes and Gaussian noise."""
    if attributes.shape != noise.shape:
        raise ContractViolation(
            f"attributes {attributes.shape} and noise {noise.shape} must match"
        )
    return mlp_forward(model.g_sv, np.hstack([attributes, noise]))


def disc_v_forward(model: ModelParams, visual: np.ndarray, attributes: np.ndarray) -> np.ndarray:
    """Conditional critic score over (visual, attribute) pairs, [B]."""
    if visual.shape[0] != attributes.shape[0]:
        raise ContractViolation("visual and attribute batches disagree")
    return mlp_forward(model.d_v, np.hstack([visual, attributes]))[:, 0]


def classifier_logits(cls: LinearParams, visual: np.ndarray) -> np.ndarray:
    """``visual @ w + b``."""
    if visual.ndim != 2 or visual.shape[1] != cls.w.shape[0]:
        raise ContractViolation(
            f"expected visual [B, {cls.w.shape[0]}], got {visual.shape}"
        )
    logits = visual @ cls.w
    logits += cls.b
    return logits


def classifier_forward(cls: LinearParams, visual: np.ndarray) -> np.ndarray:
    """Class-probability rows (each sums to 1)."""
    logits = classifier_logits(cls, visual)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)
