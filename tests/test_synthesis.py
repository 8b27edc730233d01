import numpy as np
import pytest

from gzslgen.data import SyntheticSpec, make_synthetic_dataset
from gzslgen.errors import ValidationError
from gzslgen.networks import init_params
from gzslgen.synthesis import (
    GzslClassifier,
    SynthesisRequest,
    fit_gzsl_classifier,
    predict,
    synthesize_features,
)
from gzslgen.networks import LinearParams


@pytest.fixture(scope="module")
def bundle():
    spec = SyntheticSpec(3, 2, 12, 3, 10, 0.1, projection_seed=1, noise_seed=2)
    return make_synthetic_dataset(spec)


@pytest.fixture(scope="module")
def model(bundle):
    return init_params(12, 3, 3, seed=0, hidden_dim=16)


class TestSynthesize:
    def test_counts_and_block_labels(self, model, bundle):
        request = SynthesisRequest(classes=tuple(range(5)), n_per_class=200, seed=0)
        feats, labels = synthesize_features(model, bundle, request)
        assert feats.shape == (1000, 12)
        assert labels.shape == (1000,)
        np.testing.assert_array_equal(labels, np.repeat(np.arange(5), 200))

    def test_deterministic(self, model, bundle):
        request = SynthesisRequest(classes=(0, 3), n_per_class=7, seed=42)
        a = synthesize_features(model, bundle, request)
        b = synthesize_features(model, bundle, request)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_outputs_nonnegative(self, model, bundle):
        feats, _ = synthesize_features(
            model, bundle, SynthesisRequest(classes=(1, 4), n_per_class=20, seed=3))
        assert np.all(feats >= 0)

    def test_unknown_class_rejected(self, model, bundle):
        with pytest.raises(ValidationError, match="attribute row"):
            synthesize_features(
                model, bundle, SynthesisRequest(classes=(0, 9), n_per_class=2, seed=0))

    def test_bad_count_rejected(self, model, bundle):
        with pytest.raises(ValidationError):
            synthesize_features(
                model, bundle, SynthesisRequest(classes=(0,), n_per_class=0, seed=0))


class TestFitClassifier:
    def separated_data(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0, 8.0], [8.0, 0.0, 0.0]])
        feats = np.vstack([centers[c] + 0.05 * rng.standard_normal((30, 3))
                           for c in (0, 1)])
        labels = np.repeat([0, 1], 30)
        return feats, labels

    def test_separable_classes_fit_accurately(self):
        feats, labels = self.separated_data()
        clf = fit_gzsl_classifier(feats, labels, [0, 1])
        acc = np.mean(predict(clf, feats) == labels)
        assert acc >= 0.99

    def test_single_class_trivial(self):
        feats = np.random.default_rng(1).standard_normal((5, 3))
        clf = fit_gzsl_classifier(feats, np.zeros(5, dtype=int), [0])
        assert np.all(predict(clf, feats) == 0)

    def test_row_permutation_leaves_fit_unchanged(self):
        feats, labels = self.separated_data()
        clf_a = fit_gzsl_classifier(feats, labels, [0, 1])
        perm = np.random.default_rng(2).permutation(len(labels))
        clf_b = fit_gzsl_classifier(feats[perm], labels[perm], [0, 1])
        np.testing.assert_allclose(clf_a.params.w, clf_b.params.w, atol=1e-8)
        np.testing.assert_allclose(clf_a.params.b, clf_b.params.b, atol=1e-8)

    def test_missing_class_rejected(self):
        feats, labels = self.separated_data()
        with pytest.raises(ValidationError, match=r"classes without training rows: \[2\]"):
            fit_gzsl_classifier(feats, labels, [0, 1, 2])

    def test_label_outside_class_set_rejected(self):
        feats, labels = self.separated_data()
        with pytest.raises(ValidationError, match=r"outside the declared class set: \[1\]"):
            fit_gzsl_classifier(feats, labels, [0])


class TestPredict:
    def clf_with_logits(self, w):
        return GzslClassifier(
            params=LinearParams(w=np.asarray(w, dtype=float), b=np.zeros(w.shape[1])),
            class_ids=tuple(range(w.shape[1])),
        )

    def test_unique_maximum(self):
        clf = self.clf_with_logits(np.eye(3))
        x = np.array([[0.0, 5.0, 0.0]])
        assert predict(clf, x)[0] == 1

    def test_exact_tie_goes_to_lower_id(self):
        clf = self.clf_with_logits(np.eye(3))
        x = np.array([[0.0, 4.0, 4.0]])  # classes 1 and 2 tie exactly
        assert predict(clf, x)[0] == 1

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        clf = self.clf_with_logits(rng.standard_normal((4, 3)))
        x = rng.standard_normal((6, 4))
        base = predict(clf, x)
        clf.params.b += 11.0  # constant shift of every logit
        np.testing.assert_array_equal(predict(clf, x), base)

    def test_search_space_covers_seen_and_unseen(self, model, bundle):
        feats, labels = synthesize_features(
            model, bundle,
            SynthesisRequest(classes=bundle.all_classes, n_per_class=5, seed=0))
        clf = fit_gzsl_classifier(feats, labels, bundle.all_classes, max_steps=5)
        assert clf.class_ids == bundle.all_classes
        preds = predict(clf, bundle.visual_test_unseen)
        assert set(np.unique(preds)) <= set(bundle.all_classes)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        clf = self.clf_with_logits(rng.standard_normal((4, 3)))
        x = rng.standard_normal((5, 4))
        base = predict(clf, x)
        # scaling the weights applies a strictly increasing transform of the
        # per-row probability ordering
        clf.params.w *= 2.5
        np.testing.assert_array_equal(predict(clf, x), base)


class TestTrainedSynthesisQuality:
    def test_synthesized_centroids_land_nearest_their_own_class(self):
        # after training on the oracle, each class's synthesized centroid
        # must sit closer to its own true cluster mean than to any other,
        # for at least 80% of classes
        from gzslgen.data import oracle_class_means
        from gzslgen.trainer import OptimizerConfig, TrainConfig, train

        spec = SyntheticSpec(3, 2, 16, 4, 50, 0.1, projection_seed=5, noise_seed=11)
        oracle = make_synthetic_dataset(spec)
        config = TrainConfig(batch_size=30, epochs=600, hidden_dim=64,
                             optimizer=OptimizerConfig(learning_rate=1e-4, beta2=0.999),
                             seed=0)
        trained, _ = train(oracle, config)
        feats, labels = synthesize_features(
            trained, oracle,
            SynthesisRequest(classes=oracle.all_classes, n_per_class=200, seed=1))
        true_means = oracle_class_means(spec)
        hits = 0
        for c in oracle.all_classes:
            centroid = feats[labels == c].mean(axis=0)
            dists = np.linalg.norm(true_means - centroid, axis=1)
            hits += int(np.argmin(dists) == c)
        assert hits >= 0.8 * len(oracle.all_classes)
