import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

from gzslgen.cli import main
from gzslgen.data import (
    DatasetBundle,
    SyntheticSpec,
    batch_iterator,
    load_dataset,
    make_synthetic_dataset,
    oracle_class_means,
    save_dataset,
    validate_bundle,
)
from gzslgen.errors import DataLoadError, FormatError, ValidationError
from helpers import ORACLE_SPEC


def oracle_spec(**kw):
    base = dict(
        n_seen_classes=3, n_unseen_classes=2, feature_dim=16, attribute_dim=4,
        samples_per_class=50, cluster_std=0.1, projection_seed=7, noise_seed=11,
    )
    base.update(kw)
    return SyntheticSpec(**base)


class TestSyntheticDataset:
    def test_row_counts(self):
        bundle = make_synthetic_dataset(oracle_spec())
        assert bundle.visual_train.shape == (150, 16)      # 3 * 50
        assert bundle.visual_test_unseen.shape == (100, 16)  # 2 * 50
        assert bundle.attributes.shape == (5, 4)

    def test_zero_std_limit_collapses_to_class_means(self):
        spec = oracle_spec(cluster_std=1e-300, samples_per_class=3)
        bundle = make_synthetic_dataset(spec)
        means = oracle_class_means(spec)
        for c in bundle.seen_classes:
            rows = bundle.visual_train[bundle.labels_train == c]
            np.testing.assert_allclose(rows, np.tile(means[c], (3, 1)), atol=1e-12)

    def test_unseen_classes_have_no_training_rows(self):
        bundle = make_synthetic_dataset(oracle_spec())
        assert set(np.unique(bundle.labels_train)) == set(bundle.seen_classes)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValidationError):
            make_synthetic_dataset(oracle_spec(cluster_std=0.0))
        with pytest.raises(ValidationError):
            make_synthetic_dataset(oracle_spec(attribute_dim=32))  # L > K
        with pytest.raises(ValidationError):
            make_synthetic_dataset(oracle_spec(n_seen_classes=0))

    def test_bundle_invariants_over_random_specs(self):
        # property: every generated bundle satisfies the partition invariants
        rng = np.random.default_rng(0)
        for _ in range(20):
            spec = SyntheticSpec(
                n_seen_classes=int(rng.integers(1, 5)),
                n_unseen_classes=int(rng.integers(1, 4)),
                feature_dim=int(rng.integers(4, 12)),
                attribute_dim=int(rng.integers(1, 4)),
                samples_per_class=int(rng.integers(1, 8)),
                cluster_std=float(rng.uniform(0.01, 1.0)),
                projection_seed=int(rng.integers(0, 1000)),
                noise_seed=int(rng.integers(0, 1000)),
            )
            bundle = make_synthetic_dataset(spec)
            seen, unseen = set(bundle.seen_classes), set(bundle.unseen_classes)
            assert not seen & unseen
            assert set(np.unique(bundle.labels_train)) <= seen
            assert set(np.unique(bundle.labels_test_unseen)) <= unseen
            assert bundle.attributes.shape[0] == len(seen | unseen)
            for mat in (bundle.visual_train, bundle.visual_test_seen,
                        bundle.visual_test_unseen, bundle.attributes):
                assert np.all(np.isfinite(mat))


# dtype, shape and SHA-256 of each array of two synthetic bundles: the
# oracle, and a spec with several rows per class in all three splits. The
# noise stream is drawn split by split in SPLITS' order, so drawing the test
# splits first, or a class's rows out of turn, changes these bytes.
BUNDLE_BYTES = [
    (ORACLE_SPEC, {
        "visual_train": ("<f8", (150, 16),
                         "a8f6e3066a860858e76b01f7c579129aee4a6099a4269a636c55fb711845e2ed"),
        "labels_train": ("<i8", (150,),
                         "734737f11162991213afc3a96aa5e8823b2d9cdcfb8992df1e85a0bae44b2395"),
        "visual_test_seen": ("<f8", (150, 16),
                             "924eee82886947eb4f51e1390ce4c5d2209031946f5ec76692be232a6e6f64c3"),
        "labels_test_seen": ("<i8", (150,),
                             "734737f11162991213afc3a96aa5e8823b2d9cdcfb8992df1e85a0bae44b2395"),
        "visual_test_unseen": ("<f8", (100, 16),
                               "84f62af3cda292e1844fdb837ebddada2ab14a7ecea89a2c6043f38a8eb9e961"),
        "labels_test_unseen": ("<i8", (100,),
                               "1210a5f36bc37654b589c7716991ed07b25b407ec20389a3c3252c0750535eb3"),
        "attributes": ("<f8", (5, 4),
                       "2ac088e495425c9b91505b0ae046f6b3f7842eb8505c645a97e62dcb239e7466"),
    }),
    (SyntheticSpec(4, 2, 32, 5, 3, 0.1, 7, 9), {
        "visual_train": ("<f8", (12, 32),
                         "cf9e5138ebd002fb41f5b665fae5f64215b665783b9e3a677e504a40c88c8027"),
        "labels_train": ("<i8", (12,),
                         "c47090368d63a2b6b8088ec79c8cb84ab0c726c4927b15ec4f30017e9612b625"),
        "visual_test_seen": ("<f8", (12, 32),
                             "9711805743a9927617a0d956860aca9716eac094737bf008888f5d0b56c50cff"),
        "labels_test_seen": ("<i8", (12,),
                             "c47090368d63a2b6b8088ec79c8cb84ab0c726c4927b15ec4f30017e9612b625"),
        "visual_test_unseen": ("<f8", (6, 32),
                               "0158f74e449ed25d7f4621dc464a94545d10a45129616b24c3e8e794759ea73a"),
        "labels_test_unseen": ("<i8", (6,),
                               "3e0a8e65f276646573f1547f887d3ece4171c2b71235e2958621e8f347d91e23"),
        "attributes": ("<f8", (6, 5),
                       "0003605402b51c3ed2c815feb93f88ab28dcd7dd8c9564c8eac6b863e7ce7392"),
    }),
]


@pytest.mark.parametrize("spec,expected", BUNDLE_BYTES, ids=["oracle", "small"])
def test_synthetic_bundle_bytes_are_frozen(spec, expected):
    bundle = make_synthetic_dataset(spec)
    got = {}
    for f in fields(DatasetBundle):
        a = getattr(bundle, f.name)
        if isinstance(a, np.ndarray):
            got[f.name] = (a.dtype.str, a.shape, hashlib.sha256(a.tobytes()).hexdigest())
    assert got == expected


class TestRoundTrip:
    def test_save_load_identity_up_to_f32(self, tmp_path):
        bundle = make_synthetic_dataset(oracle_spec())
        save_dataset(bundle, str(tmp_path / "ds"))
        loaded = load_dataset(str(tmp_path / "ds"))
        np.testing.assert_allclose(loaded.visual_train, bundle.visual_train, atol=1e-6)
        assert np.array_equal(loaded.labels_train, bundle.labels_train)
        assert loaded.seen_classes == bundle.seen_classes
        assert loaded.unseen_classes == bundle.unseen_classes

    def test_benchmark_scale_metadata(self, tmp_path):
        # CUB-like dims with tiny row counts: 312 attributes, 150/50 classes
        rng = np.random.default_rng(0)
        seen = tuple(range(150))
        unseen = tuple(range(150, 200))
        bundle = DatasetBundle(
            visual_train=np.abs(rng.standard_normal((300, 2048))),
            labels_train=np.repeat(np.arange(150), 2),
            visual_test_seen=np.abs(rng.standard_normal((150, 2048))),
            labels_test_seen=np.arange(150),
            visual_test_unseen=np.abs(rng.standard_normal((50, 2048))),
            labels_test_unseen=np.arange(150, 200),
            attributes=rng.uniform(0, 1, (200, 312)),
            seen_classes=seen,
            unseen_classes=unseen,
        )
        save_dataset(bundle, str(tmp_path / "cub_layout"))
        loaded = load_dataset(str(tmp_path / "cub_layout"))
        assert loaded.attributes.shape == (200, 312)
        assert loaded.feature_dim == 2048

    def test_minimal_dataset(self, tmp_path):
        bundle = make_synthetic_dataset(oracle_spec(
            n_seen_classes=1, n_unseen_classes=1, samples_per_class=2,
            feature_dim=4, attribute_dim=2))
        save_dataset(bundle, str(tmp_path / "tiny"))
        loaded = load_dataset(str(tmp_path / "tiny"))
        assert loaded.visual_train.shape[0] == 2
        assert loaded.attributes.shape[0] == 2

    def test_missing_file_names_it(self, tmp_path):
        bundle = make_synthetic_dataset(oracle_spec(samples_per_class=2))
        root = tmp_path / "ds"
        save_dataset(bundle, str(root))
        (root / "train_X.f32").unlink()
        with pytest.raises(DataLoadError, match="train_X.f32"):
            load_dataset(str(root))

    def test_payload_size_mismatch_is_format_error(self, tmp_path):
        bundle = make_synthetic_dataset(oracle_spec(samples_per_class=2))
        root = tmp_path / "ds"
        save_dataset(bundle, str(root))
        meta = (root / "meta.json").read_text()
        (root / "meta.json").write_text(meta.replace('"n_train": 6', '"n_train": 8'))
        with pytest.raises(FormatError):
            load_dataset(str(root))

    def test_overlapping_partitions_rejected(self, tmp_path):
        bundle = make_synthetic_dataset(oracle_spec(samples_per_class=2))
        root = tmp_path / "ds"
        save_dataset(bundle, str(root))
        meta = (root / "meta.json").read_text()
        (root / "meta.json").write_text(
            meta.replace('"unseen_classes": [\n    3,\n    4\n  ]',
                         '"unseen_classes": [\n    2,\n    4\n  ]'))
        with pytest.raises(ValidationError):
            load_dataset(str(root))

    def test_directory_naming_a_split_trains(self, tmp_path):
        # a directory holds one split; older writers recorded its name
        root = tmp_path / "ds"
        save_dataset(make_synthetic_dataset(oracle_spec(samples_per_class=4)), str(root))
        meta = json.loads((root / "meta.json").read_text())
        (root / "meta.json").write_text(json.dumps({**meta, "split_name": "proposed"}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": str(root), "out": str(tmp_path / "run"),
            "train": {"batch_size": 12, "epochs": 1, "n1": 1, "n2": 1, "hidden_dim": 8},
        }))
        assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "checkpoint.zip").exists()


class TestBatchIterator:
    def test_batch_count(self):
        bundle = make_synthetic_dataset(oracle_spec())  # 150 train rows
        assert len(list(batch_iterator(bundle, 25, 0))) == 6
        sizes = [len(b) for b in batch_iterator(bundle, 40, 0)]
        assert sizes == [40, 40, 40, 30]  # remainder batch included

    def test_attribute_rows_match_labels(self):
        bundle = make_synthetic_dataset(oracle_spec())
        for batch in batch_iterator(bundle, 32, 3):
            np.testing.assert_array_equal(batch.attributes, bundle.attributes[batch.labels])

    def test_oversized_batch_warns_and_truncates(self):
        bundle = make_synthetic_dataset(oracle_spec(samples_per_class=2))
        with pytest.warns(UserWarning, match="truncated"):
            batches = list(batch_iterator(bundle, 1000, 0))
        assert len(batches) == 1
        assert len(batches[0]) == 6

    def test_bad_batch_size_rejected(self):
        bundle = make_synthetic_dataset(oracle_spec(samples_per_class=2))
        with pytest.raises(ValidationError, match=r"^batch_size must be >= 1, got 0$"):
            list(batch_iterator(bundle, 0, 0))

    def test_epochs_are_permutations_of_the_same_rows(self):
        bundle = make_synthetic_dataset(oracle_spec())
        rows = lambda seed: np.vstack([b.visual for b in batch_iterator(bundle, 32, seed)])
        a, b = rows(1), rows(2)
        assert not np.array_equal(a, b)  # different order w.h.p.
        assert np.array_equal(np.sort(a, axis=0), np.sort(b, axis=0))

    def test_noise_statistics(self):
        bundle = make_synthetic_dataset(oracle_spec())
        noise = np.concatenate([b.noise.ravel() for b in batch_iterator(bundle, 25, 9)])
        n = noise.size
        assert abs(noise.mean()) < 5.0 / np.sqrt(n)
        assert abs(noise.var() - 1.0) < 5.0 * np.sqrt(2.0 / (n - 1))


def test_validate_bundle_rejects_nan():
    bundle = make_synthetic_dataset(oracle_spec(samples_per_class=2))
    bundle.visual_train[0, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        validate_bundle(bundle)


@pytest.mark.parametrize("field, ids", [("seen_classes", (0, 1, 2, 2)),
                                       ("unseen_classes", (3, 4, 3))])
def test_validate_bundle_names_a_repeated_class_id(field, ids):
    bundle = make_synthetic_dataset(oracle_spec(samples_per_class=2))
    setattr(bundle, field, ids)
    with pytest.raises(ValidationError, match=rf"{field} repeats class ids: \[{ids[-1]}\]"):
        validate_bundle(bundle)


def test_normalize_flag_scales_by_train_max(tmp_path):
    bundle = make_synthetic_dataset(oracle_spec(samples_per_class=5))
    save_dataset(bundle, str(tmp_path / "ds"))
    raw = load_dataset(str(tmp_path / "ds"))
    scaled = load_dataset(str(tmp_path / "ds"), normalize=True)
    assert np.abs(scaled.visual_train).max() <= 1.0 + 1e-6
    scale = np.abs(raw.visual_train).max(axis=0)
    np.testing.assert_allclose(scaled.visual_test_seen, raw.visual_test_seen / scale,
                               rtol=1e-6)
