"""Datasets: loading precomputed-feature benchmarks, a synthetic Gaussian
oracle, and deterministic mini-batch iteration.

A dataset directory is self-describing: ``meta.json`` plus flat binary
matrices (see ``save_dataset``). Class ids must be the integers
``0 .. C_total-1`` so that labels index the attribute matrix directly, and
neither the seen nor the unseen class list may be empty. ``SPLITS`` is the
one table of the three splits (train, test_seen, test_unseen) and the class
list each split's labels must lie in; the synthetic draws, saving, loading,
validation and the optional rescale all walk it. ``load_dataset`` types
``meta.json`` as a ``DatasetMeta`` through ``matio.read_fields`` and checks the
bounds its fields declare with ``matio.check_bounds``, naming ``<path>.<field>``.
``check_rows`` rejects a dataset where a class lacks the training or test
rows a run needs, naming every such class; the library's evaluation entry
points and the CLI call it before any work.

Loading and synthetic generation are pure functions; a batch iterator is
single-consumer (create one per worker).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator

import numpy as np

from .errors import ValidationError
from .matio import (AT_LEAST_0, AT_LEAST_1, POSITIVE, check_bound, check_bounds, dumps_json,
                    load_json, read_fields, read_matrix, write_matrix)

# split -> the class-list field its labels must lie in. Split s has the
# DatasetBundle fields visual_s and labels_s, the meta.json count n_s and the
# files s_X.f32 and s_y.i32.
SPLITS = {
    "train": "seen_classes",
    "test_seen": "seen_classes",
    "test_unseen": "unseen_classes",
}
_CLASS_IDS = {"bound": (lambda v: 0 < len(v) == len(set(v)), "a nonempty list of distinct ids")}


@dataclass
class DatasetBundle:
    """Visual features, labels, per-class attributes and the class split."""

    visual_train: np.ndarray        # [N_s, K]
    labels_train: np.ndarray        # [N_s]
    visual_test_seen: np.ndarray    # [N_ts, K]
    labels_test_seen: np.ndarray    # [N_ts]
    visual_test_unseen: np.ndarray  # [N_tu, K]
    labels_test_unseen: np.ndarray  # [N_tu]
    attributes: np.ndarray          # [C_total, L], row index == class id
    seen_classes: tuple[int, ...]
    unseen_classes: tuple[int, ...]

    @property
    def feature_dim(self) -> int:
        return self.visual_train.shape[1]

    @property
    def attribute_dim(self) -> int:
        return self.attributes.shape[1]

    @property
    def all_classes(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.seen_classes) | set(self.unseen_classes)))


@dataclass
class DatasetMeta:
    """The fields of a dataset directory's ``meta.json`` besides its format tag."""

    feature_dim: int = field(metadata=AT_LEAST_1)
    attribute_dim: int = field(metadata=AT_LEAST_1)
    seen_classes: list[int] = field(metadata=_CLASS_IDS)
    unseen_classes: list[int] = field(metadata=_CLASS_IDS)
    n_train: int
    n_test_seen: int
    n_test_unseen: int


@dataclass
class SyntheticSpec:
    """Parameters of the Gaussian-cluster oracle dataset.

    Class attributes are drawn uniformly in [0,1]^L, a fixed random
    nonnegative linear map sends attributes to cluster means, and features
    are isotropic Gaussians around those means. The map is nonnegative so
    class means live in the same rectified regime as pooled CNN features.
    """

    n_seen_classes: int = field(metadata=AT_LEAST_1)
    n_unseen_classes: int = field(metadata=AT_LEAST_1)
    feature_dim: int = field(metadata=AT_LEAST_1)
    attribute_dim: int = field(metadata=AT_LEAST_1)
    samples_per_class: int = field(metadata=AT_LEAST_1)
    cluster_std: float = field(metadata=POSITIVE)
    projection_seed: int = field(default=0, metadata=AT_LEAST_0)
    noise_seed: int = field(default=0, metadata=AT_LEAST_0)

    def validate(self) -> None:
        check_bounds("synthetic", self)
        if self.feature_dim < self.attribute_dim:
            raise ValidationError(f"synthetic.feature_dim must be >= synthetic.attribute_dim, "
                                  f"got {self.feature_dim} < {self.attribute_dim}")


@dataclass
class FeatureBatch:
    """One training mini-batch; attribute row i belongs to labels[i]."""

    visual: np.ndarray      # [B, K]
    attributes: np.ndarray  # [B, L]
    labels: np.ndarray      # [B]
    noise: np.ndarray       # [B, L], standard Gaussian

    def __len__(self) -> int:
        return self.visual.shape[0]


def validate_bundle(bundle: DatasetBundle) -> DatasetBundle:
    for name in ("seen_classes", "unseen_classes"):
        ids, counts = np.unique(getattr(bundle, name), return_counts=True)
        if np.any(counts > 1):
            raise ValidationError(f"{name} repeats class ids: {ids[counts > 1].tolist()}")
    seen = set(bundle.seen_classes)
    unseen = set(bundle.unseen_classes)
    if seen & unseen:
        raise ValidationError(f"seen/unseen class sets overlap: {sorted(seen & unseen)}")
    c_total = bundle.attributes.shape[0]
    if seen | unseen != set(range(c_total)):
        raise ValidationError(
            "class ids must be exactly 0..C_total-1 so labels index the "
            f"attribute matrix; got {sorted(seen | unseen)} for {c_total} attribute rows"
        )
    for split, partition in SPLITS.items():
        mat, labels = getattr(bundle, f"visual_{split}"), getattr(bundle, f"labels_{split}")
        bad = set(np.unique(labels).tolist()).difference(getattr(bundle, partition))
        if bad:
            raise ValidationError(
                f"labels_{split} contains classes outside its partition: {sorted(bad)}")
        if mat.ndim != 2 or labels.ndim != 1 or mat.shape[0] != labels.shape[0]:
            raise ValidationError(f"visual_{split}: rows and labels disagree")
        if mat.shape[1] != bundle.visual_train.shape[1]:
            raise ValidationError(f"visual_{split}: feature width differs from the train split")
        if not np.all(np.isfinite(mat)):
            raise ValidationError(f"visual_{split} contains non-finite values")
    if bundle.attributes.ndim != 2 or bundle.attributes.shape[1] < 1:
        raise ValidationError("attributes must be a [C_total, L] matrix")
    if not np.all(np.isfinite(bundle.attributes)):
        raise ValidationError("attributes contain non-finite values")
    return bundle


def _oracle_attributes_and_means(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Class attributes [C_total, L] and cluster means [C_total, K] of the oracle."""
    spec.validate()
    c_total = spec.n_seen_classes + spec.n_unseen_classes
    rng_proj = np.random.default_rng(spec.projection_seed)
    attributes = rng_proj.uniform(0.0, 1.0, size=(c_total, spec.attribute_dim))
    # attribute -> mean map
    proj = rng_proj.uniform(0.0, 1.0, size=(spec.feature_dim, spec.attribute_dim))
    return attributes, attributes @ proj.T


def make_synthetic_dataset(spec: SyntheticSpec) -> DatasetBundle:
    """Build the Gaussian-cluster oracle bundle.

    Deterministic: the same spec always yields byte-identical matrices.
    Unseen classes get attributes and test features but no training rows.
    """
    attributes, means = _oracle_attributes_and_means(spec)
    c_total = spec.n_seen_classes + spec.n_unseen_classes
    k, s = spec.feature_dim, spec.samples_per_class
    rng_noise = np.random.default_rng(spec.noise_seed)
    classes = {"seen_classes": tuple(range(spec.n_seen_classes)),
               "unseen_classes": tuple(range(spec.n_seen_classes, c_total))}
    drawn = {}
    # SPLITS' order (train, test_seen, test_unseen) is the order of the draws.
    # One draw per split takes the stream as one draw per class did: a
    # split's rows are its classes' in turn, s rows each.
    for split, partition in SPLITS.items():
        labels = np.repeat(np.asarray(classes[partition], dtype=np.int64), s)
        visual = rng_noise.standard_normal((labels.size, k))
        visual *= spec.cluster_std
        visual += means[labels]
        drawn[f"visual_{split}"], drawn[f"labels_{split}"] = visual, labels
    return validate_bundle(DatasetBundle(**drawn, attributes=attributes, **classes))


def oracle_class_means(spec: SyntheticSpec) -> np.ndarray:
    """Analytic cluster means of the oracle, for ground-truth checks."""
    return _oracle_attributes_and_means(spec)[1]


def save_dataset(bundle: DatasetBundle, root: str) -> None:
    os.makedirs(root, exist_ok=True)
    meta = DatasetMeta(
        feature_dim=int(bundle.feature_dim),
        attribute_dim=int(bundle.attribute_dim),
        seen_classes=[int(c) for c in bundle.seen_classes],
        unseen_classes=[int(c) for c in bundle.unseen_classes],
        **{f"n_{split}": int(getattr(bundle, f"visual_{split}").shape[0]) for split in SPLITS},
    )
    with open(os.path.join(root, "meta.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps_json({"format": "gzslgen-dataset", "version": 1, **asdict(meta)}))
    for split in SPLITS:
        x, y = getattr(bundle, f"visual_{split}"), getattr(bundle, f"labels_{split}")
        write_matrix(os.path.join(root, f"{split}_X.f32"), x, "f32")
        write_matrix(os.path.join(root, f"{split}_y.i32"), y, "i32")
    write_matrix(os.path.join(root, "attributes.f32"), bundle.attributes, "f32")


def load_dataset(root: str, normalize: bool = False) -> DatasetBundle:
    """Load a dataset directory written in the documented layout.

    ``normalize`` opts into per-feature max-abs scaling fit on the train
    split (features are otherwise used as-is).
    """
    path = os.path.join(root, "meta.json")
    meta = DatasetMeta(**read_fields(path, load_json(path), fields(DatasetMeta)))
    check_bounds(path, meta)
    loaded = {}
    for split in SPLITS:
        n = getattr(meta, f"n_{split}")
        loaded[f"visual_{split}"] = read_matrix(
            os.path.join(root, f"{split}_X.f32"), (n, meta.feature_dim), "f32")
        loaded[f"labels_{split}"] = read_matrix(os.path.join(root, f"{split}_y.i32"), (n,), "i32")
    c_total = len(meta.seen_classes) + len(meta.unseen_classes)
    bundle = validate_bundle(
        DatasetBundle(
            **loaded,
            attributes=read_matrix(
                os.path.join(root, "attributes.f32"), (c_total, meta.attribute_dim), "f32"),
            seen_classes=tuple(meta.seen_classes),
            unseen_classes=tuple(meta.unseen_classes),
        )
    )
    if normalize:
        scale = np.abs(bundle.visual_train).max(axis=0, initial=0.0)
        scale[scale == 0] = 1.0
        for split in SPLITS:
            setattr(bundle, f"visual_{split}", getattr(bundle, f"visual_{split}") / scale)
    return bundle


def check_rows(bundle: DatasetBundle, training_rows: bool, test_rows: bool) -> None:
    """Reject a dataset, naming the classes, where a seen class lacks training
    rows (with ``training_rows``) or any class lacks test rows (with ``test_rows``)."""
    needs = [("training", bundle.seen_classes, bundle.labels_train)] if training_rows else []
    if test_rows:
        needs.append(("test", bundle.all_classes,
                      np.concatenate([bundle.labels_test_seen, bundle.labels_test_unseen])))
    for kind, classes, labels in needs:
        missing = np.setdiff1d(classes, labels)
        if missing.size:
            raise ValidationError(f"classes without {kind} rows: {missing.tolist()}")


def batch_iterator(
    bundle: DatasetBundle, batch_size: int, epoch_seed: int
) -> Iterator[FeatureBatch]:
    """Yield shuffled mini-batches covering every training row once.

    Each batch carries freshly sampled standard-Gaussian noise of width L.
    Order and noise are fully determined by ``epoch_seed``. A ``batch_size``
    below 1 breaks ``AT_LEAST_1``, the bound ``TrainConfig.batch_size``
    declares (a ValidationError).
    """
    check_bound("batch_size", AT_LEAST_1, batch_size)
    n = bundle.visual_train.shape[0]
    if batch_size > n:
        warnings.warn(
            f"batch_size {batch_size} exceeds the {n} training rows; "
            "yielding one truncated batch",
            stacklevel=2,
        )
    rng = np.random.default_rng(epoch_seed)
    perm = rng.permutation(n)
    l = bundle.attribute_dim
    for start in range(0, n, batch_size):
        idx = perm[start : start + batch_size]
        labels = bundle.labels_train[idx]
        yield FeatureBatch(
            visual=bundle.visual_train[idx],
            attributes=bundle.attributes[labels],
            labels=labels,
            noise=rng.standard_normal((idx.size, l)),
        )
