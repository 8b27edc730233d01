"""Alternating adversarial training.

Per iteration: the visual critic takes n1 steps, the semantic critic n2
steps, then each generator takes one step, all on the same mini-batch.
Each critic step draws fresh generator noise. Each generator step applies
the visual generator to the batch's own noise (``FeatureBatch.noise``) and
draws fresh noise only for the cycle's second application. One table of
(kind, steps, step) entries holds that schedule, and the single-GAN
baseline keeps only its visual critic and generator rows. Every step goes through one commit:
finiteness check, Adam step on the network's flat buffer, parameter scan,
log record and callback. A step's gradient reaches Adam as factors
(``networks.MLPGrads``), which Adam forms a block of rows at a time and
applies while the block is in cache, so a step makes no parameter-sized
array. The seen-class classifier is fit once up front with
``synthesis.fit_softmax`` and stays frozen. The loop is single-threaded over
parameter state; inner linear algebra parallelizes freely.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from . import losses
from .data import DatasetBundle, FeatureBatch, batch_iterator
from .errors import ContractViolation, TrainingDiverged, ValidationError
from .losses import LossWeights
from .networks import (
    LinearParams,
    MLPGrads,
    ModelParams,
    classifier_forward,
    init_params,
    mlp_forward,
)
from .seeds import child_seed
from .synthesis import fit_softmax

# each ablation variant and the loss weights it switches off; the single-GAN
# baseline also drops the semantic critic and generator (see ``train``)
VARIANTS = {
    "full": (),
    "no_SC": ("lambda5",),
    "no_VC": ("lambda3", "lambda6"),
    "dual_only": ("lambda3", "lambda5", "lambda6"),
    "baseline_single_gan": ("lambda3", "lambda5", "lambda6"),
}


@dataclass
class OptimizerConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.5
    beta2: float = 0.9


@dataclass
class TrainConfig:
    weights: LossWeights = field(default_factory=LossWeights)
    batch_size: int = 64
    n1: int = 5
    n2: int = 5
    epochs: int = 50
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    hidden_dim: int = 4096
    seed: int = 0
    variant: str = "full"
    pair_mode: str = "real"  # second adversarial pairing: "real" | "cycle"
    pretrain_max_steps: int = 1000
    pretrain_grad_tol: float = 1e-5

    def validate(self) -> None:
        self.weights.validate()
        for name, least in (("n1", 1), ("n2", 1), ("epochs", 1), ("batch_size", 1),
                            ("hidden_dim", 1), ("seed", 0), ("pretrain_max_steps", 0),
                            ("pretrain_grad_tol", 0)):
            if not getattr(self, name) >= least:  # NaN fails too
                raise ValidationError(f"train.{name} must be >= {least}")
        if not self.optimizer.learning_rate > 0:
            raise ValidationError("train.learning_rate must be > 0")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self.optimizer, name) < 1:
                raise ValidationError(f"train.{name} must lie in [0, 1)")
        if self.variant not in VARIANTS:
            raise ValidationError(
                f"unknown variant {self.variant!r}; pick one of {tuple(VARIANTS)}")
        if self.pair_mode not in losses.PAIR_MODES:
            raise ValidationError(f"unknown pair_mode {self.pair_mode!r}")


@dataclass
class TrainLog:
    """Per-optimizer-step records plus run-level context."""

    records: list[dict] = field(default_factory=list)
    pretrain_accuracy: float = 0.0
    seen_class_cols: dict[int, int] = field(default_factory=dict)
    checkpoint_path: str | None = None

    def step_kinds(self, iteration: int) -> list[str]:
        return [r["step"] for r in self.records if r["iteration"] == iteration]


def effective_weights(config: TrainConfig) -> LossWeights:
    """Apply the ablation variant's term masking to the configured weights."""
    return replace(config.weights, **dict.fromkeys(VARIANTS[config.variant], 0.0))


# Adam streams each parameter through the cache in blocks of this many
# doubles; 2^14 to 2^15 measured fastest on an 8.7M-parameter critic.
_ADAM_BLOCK = 1 << 15
_ADAM_EPS = 1e-8  # the standard epsilon of Kingma & Ba 2015


class Adam:
    """Adaptive-moment optimizer over one C-contiguous parameter array.

    ``step`` takes the gradient as ``(offset, values)`` segments of the
    flattened parameter (``MLPGrads.segments``) and updates each segment's
    entries in place as it arrives, in blocks of ``_ADAM_BLOCK``, with no
    full-size temporaries.
    """

    def __init__(self, param: np.ndarray, cfg: OptimizerConfig):
        if not param.flags.c_contiguous:
            raise ContractViolation("Adam parameter must be C-contiguous")
        self.param = param
        self.cfg = cfg
        self.m = np.zeros(param.size)
        self.v = np.zeros(param.size)
        self.t = 0
        n = min(_ADAM_BLOCK, param.size)
        self._num = np.empty(n)
        self._den = np.empty(n)

    def step(self, segments: Iterable[tuple[int, np.ndarray]]) -> float:
        """Apply one update; returns the gradient's L2 norm, its squares
        summed a block at a time as the update passes."""
        self.t += 1
        c = self.cfg
        bias1 = 1.0 - c.beta1**self.t
        bias2 = 1.0 - c.beta2**self.t
        p, squares = self.param.reshape(-1), 0.0
        for start, g in segments:
            for lo in range(0, g.size, _ADAM_BLOCK):
                hi = min(lo + _ADAM_BLOCK, g.size)
                num, den = self._num[: hi - lo], self._den[: hi - lo]
                gb = g[lo:hi]
                pb, mb, vb = (a[start + lo : start + hi] for a in (p, self.m, self.v))
                squares += float(gb @ gb)
                # m = b1*m + (1-b1)*g
                np.multiply(mb, c.beta1, out=mb)
                np.multiply(gb, 1.0 - c.beta1, out=num)
                np.add(mb, num, out=mb)
                # v = b2*v + ((1-b2)*g)*g
                np.multiply(vb, c.beta2, out=vb)
                np.multiply(gb, 1.0 - c.beta2, out=den)
                np.multiply(den, gb, out=den)
                np.add(vb, den, out=vb)
                # p -= (lr*(m/bias1)) / (sqrt(v/bias2) + eps)
                np.divide(mb, bias1, out=num)
                np.multiply(num, c.learning_rate, out=num)
                np.divide(vb, bias2, out=den)
                np.sqrt(den, out=den)
                np.add(den, _ADAM_EPS, out=den)
                np.divide(num, den, out=num)
                np.subtract(pb, num, out=pb)
        return math.sqrt(squares)


def seen_class_columns(bundle: DatasetBundle) -> tuple[np.ndarray, dict[int, int]]:
    """Lookup from class id to classifier column (seen classes ascending)."""
    seen_sorted = sorted(bundle.seen_classes)
    col_of = {c: i for i, c in enumerate(seen_sorted)}
    lookup = np.full(len(bundle.all_classes), -1, dtype=np.int64)
    for c, i in col_of.items():
        lookup[c] = i
    return lookup, col_of


def pretrain_classifier(bundle: DatasetBundle, config: TrainConfig) -> LinearParams:
    """Fit the frozen seen-class softmax classifier on real training features
    with ``fit_softmax`` and the config's pretrain settings."""
    return fit_softmax(bundle.visual_train, bundle.labels_train, sorted(bundle.seen_classes),
                       config.pretrain_max_steps, config.pretrain_grad_tol)


def _check_finite(value: float, terms: dict, name: str, iteration: int) -> None:
    bad = [k for k, v in terms.items() if not np.isfinite(v)]
    if bad or not np.isfinite(value):
        first = bad[0] if bad else "total"
        raise TrainingDiverged(
            f"non-finite loss term '{first}' in {name} at iteration {iteration}"
        )


def _check_params_finite(arrays: Iterable[np.ndarray], where: str) -> None:
    """Raise TrainingDiverged unless every entry is finite.

    ``x @ x`` is one BLAS dot, finite exactly when no entry is NaN or
    infinite and none is large enough for the sum of squares to overflow;
    only when it is not finite does the exact element scan decide.
    """
    for a in arrays:
        x = a.reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):
            quick = np.isfinite(x @ x)
        if not quick and not np.isfinite(x).all():
            raise TrainingDiverged(f"non-finite parameter {where}")


def train(
    bundle: DatasetBundle,
    config: TrainConfig,
    step_callback: Callable[[str, int, ModelParams], None] | None = None,
) -> tuple[ModelParams, TrainLog]:
    """Run the full alternating optimization; returns trained params and log.

    Deterministic given (bundle, config.seed). Raises TrainingDiverged on
    the first non-finite loss term or parameter, naming it. Only the network
    a step updated can turn non-finite, so each step scans that network; the
    classifier and the initial networks are scanned once before the loop.
    Raises ContractViolation if the frozen seen-class classifier was changed
    (say, by ``step_callback``) by the end of training.
    """
    config.validate()
    k, l = bundle.feature_dim, bundle.attribute_dim
    weights = effective_weights(config)
    lookup, col_of = seen_class_columns(bundle)

    cls = pretrain_classifier(bundle, config)
    _check_params_finite(cls.arrays().values(), "in the seen-class classifier after its pretrain")
    preds = classifier_forward(cls, bundle.visual_train).argmax(axis=1)
    log = TrainLog(pretrain_accuracy=float(np.mean(preds == lookup[bundle.labels_train])),
                   seen_class_cols=col_of)

    params = init_params(
        k, l, len(col_of),
        seed=child_seed(config.seed, "init"),
        hidden_dim=config.hidden_dim,
    )
    params.cls_seen = cls
    theta_snapshot = (cls.w.copy(), cls.b.copy())
    nets = {"d_v": params.d_v, "d_s": params.d_s, "g_sv": params.g_sv, "g_vs": params.g_vs}
    _check_params_finite((net.flat for net in nets.values()), "at initialisation")

    opts = {name: Adam(net.flat, config.optimizer) for name, net in nets.items()}
    rng = np.random.default_rng(child_seed(config.seed, "noise"))

    def commit(kind: str, value: float, terms: dict[str, float], grads: MLPGrads) -> None:
        """Check, apply and record one step of the current iteration."""
        _check_finite(value, terms, kind, iteration)
        grad_norm = opts[kind].step(grads.segments())
        _check_params_finite([nets[kind].flat], f"after {kind} update at iteration {iteration}")
        log.records.append({
            "iteration": iteration,
            "epoch": epoch,
            "step": kind,
            "loss": value,
            "terms": dict(terms),
            "grad_norm": grad_norm,
            "timing": {"wall_time": time.time()},
        })
        if step_callback is not None:
            step_callback(kind, iteration, params)

    def noise(batch: FeatureBatch) -> np.ndarray:
        return rng.standard_normal(batch.noise.shape)

    def synth_visual(batch: FeatureBatch) -> np.ndarray:
        return mlp_forward(params.g_sv, np.hstack([batch.attributes, noise(batch)]))

    baseline = config.variant == "baseline_single_gan"  # no semantic half to pair with
    pair_mode = None if baseline else config.pair_mode
    # (kind, steps per iteration, step): a step maps the batch to the
    # (value, terms, grads) of its loss, drawing its noise, then the critic's
    # interpolation coefficients, from rng
    schedule = [
        ("d_v", config.n1, lambda batch: losses.disc_v_loss_and_grads(
            params, batch, synth_visual(batch), weights, rng)),
        ("d_s", config.n2, lambda batch: losses.disc_s_loss_and_grads(
            params, batch, mlp_forward(params.g_vs, synth_visual(batch)), weights, rng)),
        ("g_sv", 1, lambda batch: losses.gen_sv_loss_and_grads(
            params, batch, weights, noise(batch), lookup[batch.labels], pair_mode)),
        ("g_vs", 1, lambda batch: losses.gen_vs_loss_and_grads(
            params, batch, weights, noise(batch))),
    ]
    if baseline:
        schedule = [entry for entry in schedule if entry[0] in ("d_v", "g_sv")]

    iteration = 0
    for epoch in range(config.epochs):
        epoch_seed = child_seed(config.seed, f"shuffle-{epoch}")
        for batch in batch_iterator(bundle, config.batch_size, epoch_seed):
            iteration += 1
            for kind, n_steps, step in schedule:
                for _ in range(n_steps):
                    commit(kind, *step(batch))

    if not (np.array_equal(params.cls_seen.w, theta_snapshot[0])
            and np.array_equal(params.cls_seen.b, theta_snapshot[1])):
        raise ContractViolation("the frozen seen-class classifier changed during training")
    return params, log


def write_train_log(log: TrainLog, path: str, header: dict) -> None:
    """Line-delimited JSON: one header record, then one record per step."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "type": "header",
            "pretrain_accuracy": log.pretrain_accuracy,
            "seen_class_cols": {str(k): v for k, v in log.seen_class_cols.items()},
            "checkpoint": log.checkpoint_path,
            "config": header,
        }, sort_keys=True) + "\n")
        for rec in log.records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
