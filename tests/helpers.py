"""Shared test utilities: finite-difference oracles and tiny fixtures."""

from __future__ import annotations

import json
import zipfile

import numpy as np

from gzslgen.data import FeatureBatch
from gzslgen.networks import (
    MLPGrads,
    MLPParams,
    ModelParams,
    NetworkShape,
    critic_input_grads,
    init_params,
    mlp_forward_cached,
)


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


def check_param_grads(fn, params: MLPParams, analytic: MLPGrads, step=1e-5) -> dict[str, float]:
    """Relative FD error per parameter array of an MLP, against ``analytic.dense()``."""
    dense = analytic.dense()
    errors = {}
    for name, arr in params.arrays().items():
        num = numeric_grad(fn, arr, step)
        errors[name] = rel_error(getattr(dense, name), num)
    return errors


def critic_grads(critic: MLPParams, u: np.ndarray) -> np.ndarray:
    """``critic_input_grads`` at ``u``, from the cache of a forward over ``u``."""
    return critic_input_grads(critic, mlp_forward_cached(critic, u))


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
