"""Run configuration files and model checkpoints.

A run config is one JSON document naming either a dataset directory or an
inline synthetic spec, plus training and evaluation settings. Every field
is optional except the data source; defaults follow the library dataclasses,
and the CLI applies its flags over the file. Options since removed are listed
by section in ``_RETIRED_KEYS``: loading an older checkpoint drops them from
its embedded run config, and a run config that names one is rejected as an
unknown field. Both documents are typed through ``matio.read_fields``, so a
malformed value is an error naming the field. ``RunConfig.validate`` checks
each section's field bounds with ``matio.check_bounds``: the spec's as
``synthetic.*``, training's as ``train.*`` and evaluation's, ``counts``
included, as ``eval.*``; its own checks are that exactly one data source is
named and that ``normalize`` has a dataset directory to rescale. An older
checkpoint that records ``normalize`` beside a synthetic source, where it was
ignored, loads with it off.
``load_checkpoint`` checks that the metadata's ``version`` is 1 and the bounds
of each metadata section it reads, so a network shape out of range is named as
``network_shapes.<net>.<field>``. Its networks, and the member names of every
array (``_members``), follow ``networks.NETWORKS``.
"""

from __future__ import annotations

from dataclasses import Field, asdict, dataclass, field, fields
from typing import Any, Iterable

import numpy as np

from .data import DatasetBundle, SyntheticSpec, load_dataset, make_synthetic_dataset
from .errors import FormatError, ValidationError
from .evaluation import SWEEP_COUNTS, EvalConfig
from .losses import LossWeights
from .matio import check_bounds, check_member, open_archive, read_fields, read_member, write_archive
from .networks import NETWORKS, LinearParams, MLPParams, ModelParams, NetworkShape
from .trainer import OptimizerConfig, TrainConfig

CHECKPOINT_NAME = "checkpoint.zip"

_TRAIN_SCALARS = [f for f in fields(TrainConfig) if f.name not in ("weights", "optimizer")]
_TRAIN_FIELDS = (*fields(LossWeights), *fields(OptimizerConfig), *_TRAIN_SCALARS)
_RETIRED_KEYS = {
    "train": ("separate_critic_batches", "resample_critic_noise", "noise_dim",
              "baseline_cls_loss", "pretrain_lr", "negative_slope", "gvs_output_activation",
              "eps"),
    "eval": ("classifier_lr",),
}


@dataclass
class RunConfig:
    out: str = "run"
    dataset: str | None = None
    synthetic: SyntheticSpec | None = None
    normalize: bool = False
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    # read and checked in the "eval" section
    counts: list[int] = field(default_factory=lambda: [10, 50, 100, 300, 500],
                              metadata=SWEEP_COUNTS)

    def validate(self) -> None:
        if (self.dataset is None) == (self.synthetic is None):
            raise ValidationError(
                "config must name exactly one data source: 'dataset' or 'synthetic'"
            )
        if self.normalize and self.dataset is None:
            raise ValidationError("normalize needs a 'dataset' source, not 'synthetic'")
        if self.synthetic is not None:
            self.synthetic.validate()
        self.train.validate()
        check_bounds("eval", self.eval)
        check_bounds("eval", self)

    def resolve_bundle(self) -> DatasetBundle:
        if self.synthetic is not None:
            return make_synthetic_dataset(self.synthetic)
        return load_dataset(self.dataset, normalize=self.normalize)


# the run-config fields read at the top level, and the one read in "eval"
_TOP_FIELDS = [f for f in fields(RunConfig) if f.name in ("out", "dataset", "normalize")]
_COUNTS_FIELD = [f for f in fields(RunConfig) if f.name == "counts"]


def _reject_unknown(section: str, mapping: dict, declared: Iterable[Field]) -> None:
    unknown = set(mapping) - {f.name for f in declared}
    if unknown:
        raise ValidationError(f"unknown {section} field(s): {sorted(unknown)}")


def parse_synthetic_spec(doc: Any, section: str = "synthetic") -> SyntheticSpec:
    """A ``SyntheticSpec`` from a JSON object; errors name ``section``'s field."""
    spec = SyntheticSpec(**read_fields(section, doc, fields(SyntheticSpec)))
    _reject_unknown(section, doc, fields(SyntheticSpec))
    return spec


def _parse_train(doc: Any) -> TrainConfig:
    cfg = TrainConfig(
        weights=LossWeights(**read_fields("train", doc, fields(LossWeights))),
        optimizer=OptimizerConfig(**read_fields("train", doc, fields(OptimizerConfig))),
        **read_fields("train", doc, _TRAIN_SCALARS),
    )
    _reject_unknown("train", doc, _TRAIN_FIELDS)
    return cfg


def parse_run_config(doc: Any) -> RunConfig:
    """A validated ``RunConfig`` from a run-config JSON document."""
    top = read_fields("config", doc, _TOP_FIELDS)
    _reject_unknown("top-level", doc, [f for f in fields(RunConfig) if f.name != "counts"])
    eval_doc = doc.get("eval", {})
    cfg = RunConfig(
        **top,
        synthetic=parse_synthetic_spec(doc["synthetic"]) if "synthetic" in doc else None,
        train=_parse_train(doc.get("train", {})),
        eval=EvalConfig(**read_fields("eval", eval_doc, fields(EvalConfig))),
        **read_fields("eval", eval_doc, _COUNTS_FIELD),
    )
    _reject_unknown("eval", eval_doc, (*fields(EvalConfig), *_COUNTS_FIELD))
    cfg.validate()
    return cfg


def effective_dict(cfg: RunConfig) -> dict:
    """Fully materialized config (all defaults applied), for echoing."""
    doc: dict[str, Any] = {"out": cfg.out, "normalize": cfg.normalize}
    if cfg.dataset is not None:
        doc["dataset"] = cfg.dataset
    if cfg.synthetic is not None:
        doc["synthetic"] = asdict(cfg.synthetic)
    t = cfg.train
    doc["train"] = {**asdict(t.weights), **asdict(t.optimizer),
                    **{f.name: getattr(t, f.name) for f in _TRAIN_SCALARS}}
    doc["eval"] = {**asdict(cfg.eval), "counts": list(cfg.counts)}
    return doc


# ---------------------------------------------------------------------------
# checkpoints


def _members(params: ModelParams) -> dict[str, np.ndarray]:
    """Every array of ``params`` by its archive member name: ``<network>_<key>``,
    then ``cls_w`` and ``cls_b`` for the seen-class classifier."""
    parts = [(name, getattr(params, name)) for name in NETWORKS] + [("cls", params.cls_seen)]
    return {f"{prefix}_{key}": arr for prefix, part in parts for key, arr in part.arrays().items()}


def save_checkpoint(path: str, params: ModelParams, run_config: RunConfig) -> None:
    arrays = _members(params)
    meta = {
        "format": "gzslgen-checkpoint",
        "version": 1,
        "network_shapes": {name: asdict(getattr(params, name).shape) for name in NETWORKS},
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


@dataclass
class _ClassifierShapes:
    """The ``array_shapes`` entries read; networks are shaped by ``network_shapes``."""

    cls_w: list[int]
    cls_b: list[int] = field(metadata={"bound": (lambda v: len(v) == 1 and v[0] >= 1,
                                                 "[n] with n >= 1")})


def load_checkpoint(path: str) -> tuple[ModelParams, RunConfig]:
    def read(cls: type, *keys: str) -> Any:
        """``cls`` from the metadata object ``meta[k0][k1]...``, every field
        present and within its bound."""
        doc = _meta_field(path, meta, *keys)
        section = ".".join(keys)
        try:
            obj = cls(**read_fields(section, doc, fields(cls), complete=True))
            check_bounds(section, obj)
        except ValidationError as exc:
            raise FormatError(f"{path}: checkpoint metadata: {exc}") from exc
        return obj

    with open_archive(path) as (meta, zf):
        if not isinstance(meta, dict) or meta.get("format") != "gzslgen-checkpoint":
            raise FormatError(f"{path}: not a checkpoint archive")
        version = _meta_field(path, meta, "version")
        if type(version) is not int or version != 1:
            raise FormatError(f"{path}: checkpoint metadata: version must be 1, "
                              f"got {version!r:.40}")
        shapes = read(_ClassifierShapes, "array_shapes")
        net_shapes = {name: read(NetworkShape, "network_shapes", name) for name in NETWORKS}
        want = [net_shapes["g_sv"].output_dim, *shapes.cls_b]
        if shapes.cls_w != want:
            raise FormatError(f"{path}: checkpoint metadata: array_shapes.cls_w must be {want} "
                              f"(g_sv's output width and array_shapes.cls_b), got {shapes.cls_w}")
        # every member is checked against its declared shape before the model
        # is allocated, then read straight into it
        for name, shape in net_shapes.items():
            i, h, o = shape.input_dim, shape.hidden_dim, shape.output_dim
            for key, d in {"w1": (i, h), "b1": (h,), "w2": (h, o), "b2": (o,)}.items():
                check_member(zf, f"{name}_{key}", d, f"network_shapes.{name}")
        for key in ("cls_w", "cls_b"):
            check_member(zf, key, getattr(shapes, key), f"array_shapes.{key}")
        params = ModelParams(**{name: MLPParams.zeros(s) for name, s in net_shapes.items()},
                             cls_seen=LinearParams(w=np.zeros(shapes.cls_w),
                                                   b=np.zeros(shapes.cls_b)))
        for member, view in _members(params).items():
            read_member(zf, member, view)
    run_doc = _meta_field(path, meta, "run_config")
    for section, keys in _RETIRED_KEYS.items():
        part = run_doc.get(section) if isinstance(run_doc, dict) else None
        if isinstance(part, dict):
            for key in keys:
                part.pop(key, None)
    # older runs accepted normalize beside a synthetic source and ignored it
    if isinstance(run_doc, dict) and "synthetic" in run_doc and run_doc.get("normalize") is True:
        run_doc["normalize"] = False
    try:
        return params, parse_run_config(run_doc)
    except ValidationError as exc:
        raise FormatError(f"{path}: checkpoint metadata run_config: {exc}") from exc
