"""Run configuration files and model checkpoints.

A run config is one JSON document naming either a dataset directory or an
inline synthetic spec, plus training and evaluation settings. Every field
is optional except the data source; defaults follow the library dataclasses.
Flag overrides beat file values, which beat defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .data import DatasetBundle, SyntheticSpec, load_dataset, make_synthetic_dataset
from .errors import FormatError, ValidationError
from .evaluation import EvalConfig
from .losses import LossWeights
from .matio import dumps_json, load_json, matrix_from_blob, read_archive, write_archive
from .networks import LinearParams, MLPParams, ModelParams, NetworkShape
from .trainer import OptimizerConfig, TrainConfig

CHECKPOINT_NAME = "checkpoint.zip"

_TRAIN_SCALAR_KEYS = {
    "batch_size", "n1", "n2", "epochs", "hidden_dim", "negative_slope",
    "gvs_output_activation", "seed", "variant", "pair_mode",
    "separate_critic_batches", "baseline_cls_loss", "noise_dim",
    "pretrain_lr", "pretrain_max_steps", "pretrain_grad_tol",
}
_WEIGHT_KEYS = {"lambda1", "lambda2", "lambda3", "lambda4", "lambda5", "lambda6"}
_OPT_KEYS = {"learning_rate", "beta1", "beta2", "eps"}
_EVAL_KEYS = {f.name for f in fields(EvalConfig)} | {"counts"}


@dataclass
class RunConfig:
    out: str
    dataset: str | None = None
    synthetic: SyntheticSpec | None = None
    normalize: bool = False
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    counts: list[int] = field(default_factory=lambda: [10, 50, 100, 300, 500])

    def validate(self) -> None:
        if (self.dataset is None) == (self.synthetic is None):
            raise ValidationError(
                "config must name exactly one data source: 'dataset' or 'synthetic'"
            )
        if self.dataset is not None and not os.path.isdir(self.dataset):
            raise ValidationError(f"dataset directory does not exist: {self.dataset}")
        if self.synthetic is not None:
            self.synthetic.validate()
        self.train.validate()
        if self.eval.n_per_class < 1:
            raise ValidationError("eval.n_per_class must be >= 1")

    def resolve_bundle(self) -> DatasetBundle:
        if self.synthetic is not None:
            return make_synthetic_dataset(self.synthetic)
        return load_dataset(self.dataset, normalize=self.normalize)


def _reject_unknown(section: str, mapping: dict, allowed: set[str]) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValidationError(f"unknown {section} field(s): {sorted(unknown)}")


def _parse_train(mapping: dict) -> TrainConfig:
    _reject_unknown("train", mapping, _TRAIN_SCALAR_KEYS | _WEIGHT_KEYS | _OPT_KEYS)
    weights = LossWeights(**{k: float(mapping[k]) for k in _WEIGHT_KEYS if k in mapping})
    opt = OptimizerConfig(**{k: float(mapping[k]) for k in _OPT_KEYS if k in mapping})
    scalars = {k: mapping[k] for k in _TRAIN_SCALAR_KEYS if k in mapping}
    return TrainConfig(weights=weights, optimizer=opt, **scalars)


def _parse_eval(mapping: dict) -> tuple[EvalConfig, list[int]]:
    _reject_unknown("eval", mapping, _EVAL_KEYS)
    counts = [int(c) for c in mapping.get("counts", [10, 50, 100, 300, 500])]
    scalars = {k: v for k, v in mapping.items() if k != "counts"}
    return EvalConfig(**scalars), counts


def parse_run_config(doc: dict, overrides: dict[str, Any] | None = None) -> RunConfig:
    _reject_unknown(
        "top-level", doc, {"dataset", "synthetic", "normalize", "train", "eval", "out"}
    )
    synthetic = None
    if "synthetic" in doc:
        spec_doc = dict(doc["synthetic"])
        _reject_unknown("synthetic", spec_doc, {f.name for f in fields(SyntheticSpec)})
        synthetic = SyntheticSpec(**spec_doc)
    train_cfg = _parse_train(dict(doc.get("train", {})))
    eval_cfg, counts = _parse_eval(dict(doc.get("eval", {})))
    cfg = RunConfig(
        out=doc.get("out", "run"),
        dataset=doc.get("dataset"),
        synthetic=synthetic,
        normalize=bool(doc.get("normalize", False)),
        train=train_cfg,
        eval=eval_cfg,
        counts=counts,
    )
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "seed":
            cfg.train.seed = int(value)
        elif key == "variant":
            cfg.train.variant = str(value)
        elif key == "n_per_class":
            cfg.eval.n_per_class = int(value)
        elif key == "out":
            cfg.out = str(value)
        else:
            raise ValidationError(f"unknown override {key!r}")
    cfg.validate()
    return cfg


def load_run_config(path: str, overrides: dict[str, Any] | None = None) -> RunConfig:
    return parse_run_config(load_json(path), overrides)


def effective_dict(cfg: RunConfig) -> dict:
    """Fully materialized config (all defaults applied), for echoing."""
    doc: dict[str, Any] = {"out": cfg.out, "normalize": cfg.normalize}
    if cfg.dataset is not None:
        doc["dataset"] = cfg.dataset
    if cfg.synthetic is not None:
        doc["synthetic"] = dict(cfg.synthetic.__dict__)
    t = cfg.train
    doc["train"] = {
        **{k: getattr(t.weights, k) for k in sorted(_WEIGHT_KEYS)},
        **{k: getattr(t.optimizer, k) for k in sorted(_OPT_KEYS)},
        **{k: getattr(t, k) for k in sorted(_TRAIN_SCALAR_KEYS)},
    }
    doc["eval"] = {f.name: getattr(cfg.eval, f.name) for f in fields(EvalConfig)}
    doc["eval"]["counts"] = list(cfg.counts)
    return doc


def write_effective_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(effective_dict(cfg)))


# ---------------------------------------------------------------------------
# checkpoints


def _mlp_entries(name: str, p: MLPParams) -> dict[str, np.ndarray]:
    return {f"{name}_{k}": v for k, v in p.arrays().items()}


def save_checkpoint(path: str, params: ModelParams, run_config: RunConfig) -> None:
    arrays: dict[str, np.ndarray] = {}
    for name, net in (("g_sv", params.g_sv), ("g_vs", params.g_vs),
                      ("d_v", params.d_v), ("d_s", params.d_s)):
        arrays.update(_mlp_entries(name, net))
    arrays["cls_w"] = params.cls_seen.w
    arrays["cls_b"] = params.cls_seen.b

    shapes = {}
    for name, net in (("g_sv", params.g_sv), ("g_vs", params.g_vs),
                      ("d_v", params.d_v), ("d_s", params.d_s)):
        s = net.shape
        shapes[name] = {
            "input_dim": s.input_dim,
            "hidden_dim": s.hidden_dim,
            "output_dim": s.output_dim,
            "negative_slope": s.negative_slope,
            "output_activation": s.output_activation,
        }
    meta = {
        "format": "gzslgen-checkpoint",
        "version": 1,
        "network_shapes": shapes,
        "cls_shape": [int(v) for v in params.cls_seen.w.shape],
        "array_shapes": {k: [int(v) for v in a.shape] for k, a in arrays.items()},
        "run_config": effective_dict(run_config),
    }
    write_archive(path, meta, arrays)


def load_checkpoint(path: str) -> tuple[ModelParams, RunConfig]:
    meta, blobs = read_archive(path)
    if meta.get("format") != "gzslgen-checkpoint":
        raise FormatError(f"{path}: not a checkpoint archive")
    shapes = meta["array_shapes"]

    def mat(name: str) -> np.ndarray:
        # each blob is dropped once copied out of, so the archive and the
        # loaded parameters are never both held in full
        key = name + ".f64"
        if key not in blobs:
            raise FormatError(f"{path}: archive is missing {key}")
        return matrix_from_blob(blobs.pop(key), tuple(shapes[name]), f"{path}:{name}")

    def mlp(name: str) -> MLPParams:
        s = meta["network_shapes"][name]
        net = MLPParams.zeros(NetworkShape(
            input_dim=s["input_dim"],
            hidden_dim=s["hidden_dim"],
            output_dim=s["output_dim"],
            negative_slope=s["negative_slope"],
            output_activation=s["output_activation"],
        ))
        for key, view in net.arrays().items():
            arr = mat(f"{name}_{key}")
            if arr.shape != view.shape:
                raise FormatError(
                    f"{path}:{name}_{key}: shape {arr.shape} does not match "
                    f"the network shape {view.shape}"
                )
            view[...] = arr
        return net

    params = ModelParams(
        g_sv=mlp("g_sv"),
        g_vs=mlp("g_vs"),
        d_v=mlp("d_v"),
        d_s=mlp("d_s"),
        cls_seen=LinearParams(w=mat("cls_w").copy(), b=mat("cls_b").copy()),
    )
    run_config = parse_run_config(meta["run_config"])
    return params, run_config
