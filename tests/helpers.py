"""Shared test utilities: finite-difference oracles, the dense-gradient
reference, the value references of the loss terms, tiny fixtures, the CLI
run config, and the acceptance oracle with the process pool that trains its
models.

``ORACLE_SPEC`` and ``ORACLE_TRAIN`` are the oracle dataset and training run
of acceptance criteria 6 and 7, which ``scripts/param_digest.py`` also hashes.
``CLI_SPEC`` is the smaller 12-dimensional dataset of ``cli_config``, the run
config the CLI tests and acceptance criterion 8 run.
``train_in_pool`` trains several models at once and returns them whole (an
``MLPParams`` pickles as its ``flat`` buffer and shape). Its worker lives
here, in an importable module, so a spawned process can find it.
"""

from __future__ import annotations

import importlib.util
import json
import multiprocessing
import os
import zipfile
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np

from gzslgen.data import DatasetBundle, FeatureBatch, SyntheticSpec
from gzslgen.errors import ContractViolation
from gzslgen.networks import (
    MLPGrads,
    MLPParams,
    ModelParams,
    NetworkShape,
    critic_input_grads,
    init_params,
    mlp_forward_cached,
)
from gzslgen.trainer import OptimizerConfig, TrainConfig, TrainLog, train

ORACLE_SPEC = SyntheticSpec(
    n_seen_classes=3, n_unseen_classes=2, feature_dim=16, attribute_dim=4,
    samples_per_class=50, cluster_std=0.1, projection_seed=5, noise_seed=11,
)
# term weights stay at the reference defaults; the free desk-scale knobs
# (epochs, batch, width, optimizer second moment) are calibrated for the
# 16-dimensional oracle. Derive variants with dataclasses.replace.
ORACLE_TRAIN = TrainConfig(
    batch_size=30, epochs=600, hidden_dim=64,
    optimizer=OptimizerConfig(learning_rate=1e-4, beta2=0.999), seed=0,
)

# the seeds of criteria 6 and 7, each trained as full and as baseline_single_gan
ORACLE_SEEDS = (0, 1, 2, 3, 4)

CLI_SPEC = {
    "n_seen_classes": 3, "n_unseen_classes": 2,
    "feature_dim": 12, "attribute_dim": 3,
    "samples_per_class": 12, "cluster_std": 0.08,
    "projection_seed": 4, "noise_seed": 5,
}


def cli_config(out) -> dict:
    """A fresh run-config document on ``CLI_SPEC`` that writes to ``out``."""
    return {
        "synthetic": dict(CLI_SPEC),
        "train": {
            "batch_size": 18, "epochs": 4, "n1": 2, "n2": 2, "hidden_dim": 16,
            "learning_rate": 1e-3, "beta2": 0.999, "seed": 0,
        },
        "eval": {"n_per_class": 15, "counts": [5, 20]},
        "out": str(out),
    }


def numeric_grad(fn, arr: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar fn() w.r.t. arr, edited in place."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        f_plus = fn()
        arr[idx] = orig - step
        f_minus = fn()
        arr[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * step)
        it.iternext()
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    # absolute fallback keeps exactly-cancelling gradients (norm ~ FD noise)
    # from dividing by zero
    denom = max(float(np.linalg.norm(numeric)), float(np.linalg.norm(analytic)), 1e-6)
    return float(np.linalg.norm(analytic - numeric)) / denom


def dense_reference(grads: MLPGrads) -> np.ndarray:
    """The flat gradient from whole products, summed in the order of the terms."""
    def weight(terms):
        (a, b, _), *later = terms
        total = a @ b
        for a, b, scale in later:
            product = a @ b
            if scale is not None:
                product *= scale
            total += product
        return total.reshape(-1)

    return np.concatenate([weight(grads.w1), grads.b1, weight(grads.w2), grads.b2])


def check_param_grads(fn, params: MLPParams, analytic: MLPGrads, step=1e-5) -> dict[str, float]:
    """Relative FD error per parameter array of an MLP, against ``dense_reference``."""
    dense = MLPParams(dense_reference(analytic), params.shape)
    errors = {}
    for name, arr in params.arrays().items():
        num = numeric_grad(fn, arr, step)
        errors[name] = rel_error(getattr(dense, name), num)
    return errors


def critic_grads(critic: MLPParams, u: np.ndarray) -> np.ndarray:
    """``critic_input_grads`` at ``u``, from the cache of a forward over ``u``."""
    return critic_input_grads(critic, mlp_forward_cached(critic, u))


# ---------------------------------------------------------------------------
# value references of the loss terms, written from the paper's formulas in
# plain numpy: they share no code with ``gzslgen.losses``, so a fault in a
# helper there cannot hide in the reference it is checked against


def class_centroid(features_of_class: np.ndarray) -> np.ndarray:
    """Arithmetic mean over the rows of one class."""
    if features_of_class.ndim != 2 or features_of_class.shape[0] < 1:
        raise ContractViolation("class_centroid needs a nonempty [N_c, D] matrix")
    return features_of_class.mean(axis=0)


def visual_consistency_loss(
    cycle_visual: np.ndarray, labels: np.ndarray, real_visual_by_class: dict
) -> float:
    """Mean over the classes c in ``labels`` of ||centroid(x''_c) - centroid(x_c)||_2."""
    distances = []
    for c in np.unique(labels).tolist():
        if c not in real_visual_by_class:
            raise ContractViolation(f"class {c} has no real visual features")
        real = class_centroid(np.asarray(real_visual_by_class[c]))
        distances.append(np.linalg.norm(class_centroid(cycle_visual[labels == c]) - real))
    return float(np.mean(distances))


def gradient_penalty(critic_input_grad, real: np.ndarray, fake: np.ndarray, mix) -> float:
    """WGAN-GP's two-sided penalty mean((||grad_u D(u)||_2 - 1)^2) at the rows
    u = alpha*real + (1-alpha)*fake.

    ``critic_input_grad`` maps a batch of inputs to the per-row gradient of
    the critic score w.r.t. those inputs. ``mix`` is the [B] coefficient
    vector alpha, or a seed from which alpha is drawn uniformly in [0, 1).
    """
    if real.shape != fake.shape:
        raise ContractViolation(f"real {real.shape} and fake {fake.shape} must match")
    if not isinstance(mix, np.ndarray):
        mix = np.random.default_rng(mix).uniform(0.0, 1.0, real.shape[0])
    rows = mix[:, None] * real + (1.0 - mix[:, None]) * fake
    norms = np.linalg.norm(critic_input_grad(rows), axis=1)
    return float(np.mean((norms - 1.0) ** 2))


def step_kinds(log: TrainLog, iteration: int) -> list[str]:
    """The step kinds ``log`` recorded in ``iteration``, in order."""
    return [r["step"] for r in log.records if r["iteration"] == iteration]


def load_script(name: str):
    """The module ``scripts/<name>.py``, imported under ``name``."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def archive_contents(path) -> tuple[dict, dict[str, np.ndarray]]:
    """A checkpoint's metadata and read-only arrays, read with ``zipfile`` for rewriting."""
    with zipfile.ZipFile(path) as zf:
        meta = json.loads(zf.read("meta.json"))
        arrays = {name[: -len(".f64")]: np.frombuffer(zf.read(name), "<f8")
                  for name in zf.namelist() if name != "meta.json"}
    return meta, arrays


def small_model(seed=0, k=12, l=3, n_seen=3, hidden=16) -> ModelParams:
    model = init_params(k, l, n_seen, seed=seed, hidden_dim=hidden)
    # random biases and classifier offsets keep FD probes away from kinks
    rng = np.random.default_rng(seed + 1)
    for net in (model.g_sv, model.g_vs, model.d_v, model.d_s):
        net.b1[:] = 0.1 * rng.standard_normal(net.b1.shape)
        net.b2[:] = 0.1 * rng.standard_normal(net.b2.shape)
    model.cls_seen.b[:] = 0.1 * rng.standard_normal(model.cls_seen.b.shape)
    return model


def random_batch(seed=0, b=6, k=12, l=3, n_classes=3) -> FeatureBatch:
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=b)
    labels[:n_classes] = np.arange(n_classes)  # every class present
    attributes = rng.uniform(0.2, 1.0, size=(n_classes, l))
    return FeatureBatch(
        visual=np.abs(rng.standard_normal((b, k))) + 0.1,
        attributes=attributes[labels],
        labels=labels,
        noise=rng.standard_normal((b, l)),
    )


def linear_critic(n_in: int, direction: np.ndarray, hidden_offset: float = 50.0) -> MLPParams:
    """A critic that computes u @ direction exactly on a wide linear region.

    One hidden unit with a large positive bias keeps the leaky activation
    on its identity branch, so the score is u @ direction + const - const.
    """
    net = MLPParams.zeros(NetworkShape(n_in, 1, 1, negative_slope=0.2, output_activation="none"))
    net.w1[:] = direction.reshape(n_in, 1)
    net.b1[:] = hidden_offset
    net.w2[:] = 1.0
    net.b2[:] = -hidden_offset
    return net


def zero_mlp(n_in: int, hidden: int, n_out: int, activation: str = "none") -> MLPParams:
    return MLPParams.zeros(NetworkShape(n_in, hidden, n_out, output_activation=activation))


def _trained_model(bundle: DatasetBundle, config: TrainConfig) -> ModelParams:
    return train(bundle, config)[0]


def train_in_pool(bundle: DatasetBundle, configs: list[TrainConfig]) -> list[ModelParams]:
    """``train(bundle, config)``'s model for each of ``configs``, in order.

    The trainings are independent, so they run in a pool of spawned
    processes, each with one BLAS thread: two, or one where this process
    may use only one core. A model's bytes do not depend on where it was
    trained.
    """
    spawn = multiprocessing.get_context("spawn")
    # read when a worker imports numpy
    with mock.patch.dict(os.environ, {"OPENBLAS_NUM_THREADS": "1"}):
        with ProcessPoolExecutor(min(2, len(os.sched_getaffinity(0))), mp_context=spawn) as pool:
            return list(pool.map(_trained_model, [bundle] * len(configs), configs))
