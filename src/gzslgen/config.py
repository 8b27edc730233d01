"""Run configuration files and model checkpoints.

A run config is one JSON document naming either a dataset directory or an
inline synthetic spec, plus training and evaluation settings. Every field
is optional except the data source; defaults follow the library dataclasses.
Flag overrides beat file values, which beat defaults. Options since removed
are listed by section in ``_RETIRED_KEYS``: loading an older checkpoint
drops them from its embedded run config, and a run config that names one is
rejected as an unknown field. Every field's value must have the JSON type of
its dataclass annotation (``_checked``), so a malformed value is a
``ValidationError`` naming the field.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields
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

_WEIGHT_KEYS = {f.name for f in fields(LossWeights)}
_OPT_KEYS = {f.name for f in fields(OptimizerConfig)}
_TRAIN_SCALAR_KEYS = {f.name for f in fields(TrainConfig)} - {"weights", "optimizer"}
_EVAL_KEYS = {f.name for f in fields(EvalConfig)} | {"counts"}
_RETIRED_KEYS = {
    "train": ("separate_critic_batches", "noise_dim", "baseline_cls_loss", "pretrain_lr"),
    "eval": ("classifier_lr",),
}


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


# JSON value types accepted for a dataclass field, by its annotation
_JSON_TYPES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
}


def _checked(section: str, cls: type, mapping: dict) -> dict:
    """The entries of ``mapping`` that name fields of the dataclass ``cls``,
    each checked against its field's annotation; a field without a default
    must be present."""
    out = {}
    for f in fields(cls):
        if f.name not in mapping:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValidationError(f"{section}.{f.name} is required")
            continue
        value = mapping[f.name]
        kind, described = _JSON_TYPES[f.type]
        if not isinstance(value, kind) or (isinstance(value, bool) and f.type != "bool"):
            raise ValidationError(f"{section}.{f.name} must be {described}, got {value!r:.40}")
        out[f.name] = value
    return out


def parse_synthetic_spec(doc: Any, section: str = "synthetic") -> SyntheticSpec:
    """A ``SyntheticSpec`` from a JSON object; errors name ``section``'s field."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{section} must be a JSON object, got {doc!r:.40}")
    _reject_unknown(section, doc, {f.name for f in fields(SyntheticSpec)})
    return SyntheticSpec(**_checked(section, SyntheticSpec, doc))


def _parse_train(mapping: dict) -> TrainConfig:
    _reject_unknown("train", mapping, _TRAIN_SCALAR_KEYS | _WEIGHT_KEYS | _OPT_KEYS)
    floats = lambda cls: {k: float(v) for k, v in _checked("train", cls, mapping).items()}
    return TrainConfig(
        weights=LossWeights(**floats(LossWeights)),
        optimizer=OptimizerConfig(**floats(OptimizerConfig)),
        **_checked("train", TrainConfig, mapping),
    )


def _parse_eval(mapping: dict) -> tuple[EvalConfig, list[int]]:
    _reject_unknown("eval", mapping, _EVAL_KEYS)
    counts = mapping.get("counts", [10, 50, 100, 300, 500])
    if not isinstance(counts, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in counts
    ):
        raise ValidationError(f"eval.counts must be a list of integers, got {counts!r:.40}")
    return EvalConfig(**_checked("eval", EvalConfig, mapping)), list(counts)


def _check_sections(doc: Any) -> None:
    """A run config, and each of its sections present, must be a JSON object."""
    if not isinstance(doc, dict):
        raise ValidationError(f"a run config must be a JSON object, got {doc!r:.40}")
    for section in ("synthetic", "train", "eval"):
        if not isinstance(doc.get(section, {}), dict):
            raise ValidationError(
                f"config section {section!r} must be a JSON object, got {doc[section]!r:.40}"
            )


def parse_run_config(doc: dict, overrides: dict[str, Any] | None = None) -> RunConfig:
    _check_sections(doc)
    _reject_unknown(
        "top-level", doc, {"dataset", "synthetic", "normalize", "train", "eval", "out"}
    )
    synthetic = None
    if "synthetic" in doc:
        synthetic = parse_synthetic_spec(doc["synthetic"])
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


def save_checkpoint(path: str, params: ModelParams, run_config: RunConfig) -> None:
    arrays: dict[str, np.ndarray] = {}
    shapes = {}
    for name in ("g_sv", "g_vs", "d_v", "d_s"):
        net = getattr(params, name)
        arrays.update({f"{name}_{k}": v for k, v in net.arrays().items()})
        shapes[name] = asdict(net.shape)
    arrays["cls_w"] = params.cls_seen.w
    arrays["cls_b"] = params.cls_seen.b
    meta = {
        "format": "gzslgen-checkpoint",
        "version": 1,
        "network_shapes": shapes,
        "cls_shape": [int(v) for v in params.cls_seen.w.shape],
        "array_shapes": {k: [int(v) for v in a.shape] for k, a in arrays.items()},
        "run_config": effective_dict(run_config),
    }
    write_archive(path, meta, arrays)


def _meta_field(path: str, meta: dict, *keys: str) -> Any:
    """``meta[k0][k1]...``, or a FormatError naming the first missing key."""
    value: Any = meta
    for depth, key in enumerate(keys):
        if not isinstance(value, dict) or key not in value:
            dotted = ".".join(keys[: depth + 1])
            raise FormatError(f"{path}: checkpoint metadata is missing {dotted}")
        value = value[key]
    return value


def load_checkpoint(path: str) -> tuple[ModelParams, RunConfig]:
    meta, blobs = read_archive(path)
    if not isinstance(meta, dict) or meta.get("format") != "gzslgen-checkpoint":
        raise FormatError(f"{path}: not a checkpoint archive")

    def mat(name: str) -> np.ndarray:
        # each blob is dropped once copied out of, so the archive and the
        # loaded parameters are never both held in full
        key = name + ".f64"
        if key not in blobs:
            raise FormatError(f"{path}: archive is missing {key}")
        shape = tuple(_meta_field(path, meta, "array_shapes", name))
        return matrix_from_blob(blobs.pop(key), shape, f"{path}:{name}")

    def mlp(name: str) -> MLPParams:
        net = MLPParams.zeros(NetworkShape(**{
            f.name: _meta_field(path, meta, "network_shapes", name, f.name)
            for f in fields(NetworkShape)
        }))
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
    run_doc = _meta_field(path, meta, "run_config")
    try:
        _check_sections(run_doc)
    except ValidationError as exc:
        raise FormatError(f"{path}: checkpoint metadata run_config: {exc}") from exc
    for section, keys in _RETIRED_KEYS.items():
        for key in keys:
            run_doc.get(section, {}).pop(key, None)
    return params, parse_run_config(run_doc)
