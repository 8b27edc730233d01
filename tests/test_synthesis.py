import numpy as np
import pytest

from gzslgen import losses, synthesis
from gzslgen.data import SyntheticSpec, make_synthetic_dataset
from gzslgen.errors import ValidationError
from gzslgen.networks import gen_sv_forward, init_params
from gzslgen.synthesis import (
    GzslClassifier,
    SynthesisRequest,
    fit_gzsl_classifier,
    fit_softmax,
    predict,
    synthesize_features,
)
from gzslgen.networks import LinearParams

# the final classifier's step cap and tolerance, as in EvalConfig
FIT = dict(max_steps=1000, grad_tol=1e-5)


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

    # The byte-equality tests below hold for the OpenBLAS build they were checked
    # on (scipy-openblas 0.3.31, bundled with numpy's wheels): stacked-row and
    # per-class GEMMs round alike there. Another BLAS build, or another kernel
    # choice for small matrices, may round them differently.
    @staticmethod
    def per_class_reference(model, bundle, request):
        """One noise draw and one generator forward per class, in request order."""
        rng = np.random.default_rng(request.seed)
        blocks, labels = [], []
        for c in request.classes:
            attrs = np.tile(bundle.attributes[c], (request.n_per_class, 1))
            noise = rng.standard_normal((request.n_per_class, bundle.attribute_dim))
            blocks.append(gen_sv_forward(model, attrs, noise))
            labels.append(np.full(request.n_per_class, c, dtype=np.int64))
        return np.vstack(blocks), np.concatenate(labels)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_matches_per_class_forwards_bytewise(self, model, bundle, n):
        request = SynthesisRequest(classes=(4, 0, 2, 1), n_per_class=n, seed=5)
        feats, labels = synthesize_features(model, bundle, request)
        ref_feats, ref_labels = self.per_class_reference(model, bundle, request)
        assert feats.tobytes() == ref_feats.tobytes()
        assert labels.dtype == ref_labels.dtype and np.array_equal(labels, ref_labels)

    def test_one_row_per_class_matches_to_rounding(self, model, bundle):
        # a one-row forward per class goes down numpy's gemv path, which
        # rounds differently from the GEMM over the stacked rows
        request = SynthesisRequest(classes=bundle.all_classes, n_per_class=1, seed=6)
        feats, labels = synthesize_features(model, bundle, request)
        ref_feats, ref_labels = self.per_class_reference(model, bundle, request)
        np.testing.assert_allclose(feats, ref_feats, rtol=1e-12, atol=1e-14)
        assert np.array_equal(labels, ref_labels)

    def test_chunking_keeps_the_bytes(self, model, bundle, monkeypatch):
        request = SynthesisRequest(classes=(0, 3, 1), n_per_class=7, seed=8)
        whole, _ = synthesize_features(model, bundle, request)
        chunk_rows = []

        def recording_forward(model, attributes, noise):
            chunk_rows.append(len(attributes))
            return gen_sv_forward(model, attributes, noise)

        monkeypatch.setattr(synthesis, "_SYNTH_ROWS", 4)
        monkeypatch.setattr(synthesis, "gen_sv_forward", recording_forward)
        chunked, _ = synthesize_features(model, bundle, request)
        assert chunked.tobytes() == whole.tobytes()
        assert sum(chunk_rows) == 21 and len(chunk_rows) == 6
        assert 2 <= min(chunk_rows) and max(chunk_rows) - min(chunk_rows) <= 1
        assert max(chunk_rows) <= 4


def reference_fit(x, labels, class_ids, max_steps, grad_tol, log=None, class_major=True):
    """The softmax fit in its plainest form: separate arrays for every
    intermediate, ``np.exp`` of every shifted logit, ``x.T @ d_logits`` and
    ``fit_softmax``'s norm test at every step.
    ``log``, if given, collects every step's shifted logits and gradient norm.

    With ``class_major`` the weight is iterated as ``fit_softmax`` holds it,
    the transposed view of a C-contiguous ``[C, K]`` array, so ``x @ w`` is
    ``x @ w_t.T``; without it, as a C-contiguous ``[K, C]`` array, the old
    layout. Either way a C-contiguous ``[K, C]`` copy is returned.

    ``fit_softmax`` forms ``d_logits.T @ x`` instead; its byte equality with
    this reference holds for the OpenBLAS build the tests were checked on
    (scipy-openblas 0.3.31, bundled with numpy's wheels), not for every BLAS."""
    ids = np.asarray(class_ids)
    cols = np.searchsorted(ids, labels)
    rows = np.arange(x.shape[0])
    if class_major:
        w = np.zeros((ids.size, x.shape[1])).T
    else:
        w = np.zeros((x.shape[1], ids.size))
    b = np.zeros(ids.size)
    tiny = np.finfo(np.float64).tiny
    for _ in range(max_steps):
        logits = x @ w + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        norm = exp.sum(axis=1, keepdims=True)
        d_logits = exp / norm
        d_logits[rows, cols] -= 1.0
        d_logits /= x.shape[0]
        d_logits[np.abs(d_logits) < tiny] = 0.0
        dw, db = x.T @ d_logits, d_logits.sum(axis=0)
        gnorm = np.sqrt(np.vdot(dw.T, dw.T) + np.vdot(db, db))
        if log is not None:
            log.append((shifted, gnorm))
        if gnorm < grad_tol:
            break
        w -= dw
        b -= db
    return np.ascontiguousarray(w), b


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
        clf = fit_gzsl_classifier(feats, labels, [0, 1], **FIT)
        acc = np.mean(predict(clf, feats) == labels)
        assert acc >= 0.99

    def test_single_class_trivial(self):
        feats = np.random.default_rng(1).standard_normal((5, 3))
        clf = fit_gzsl_classifier(feats, np.zeros(5, dtype=int), [0], **FIT)
        assert np.all(predict(clf, feats) == 0)

    def test_row_permutation_leaves_fit_unchanged(self):
        feats, labels = self.separated_data()
        clf_a = fit_gzsl_classifier(feats, labels, [0, 1], **FIT)
        perm = np.random.default_rng(2).permutation(len(labels))
        clf_b = fit_gzsl_classifier(feats[perm], labels[perm], [0, 1], **FIT)
        np.testing.assert_allclose(clf_a.params.w, clf_b.params.w, atol=1e-8)
        np.testing.assert_allclose(clf_a.params.b, clf_b.params.b, atol=1e-8)

    def test_matches_reference_fit_bytewise(self):
        feats, labels = self.separated_data()
        got = fit_softmax(feats, labels, [0, 1], 1000, 1e-5)
        w, b = reference_fit(feats, labels, [0, 1], 1000, 1e-5)
        assert got.w.flags.c_contiguous
        assert got.w.tobytes() == w.tobytes() and got.b.tobytes() == b.tobytes()

    @staticmethod
    def large_norm_data():
        # rows of norm ~1000, like real paper-shape features, make the unit
        # step overshoot, so most shifted logits underflow in np.exp; ten
        # rows repeated under another label keep the fit from separating the
        # classes, so it runs to the step cap
        rng = np.random.default_rng(9)
        n_classes, k = 10, 256
        centers = rng.standard_normal((n_classes, k)) * (1000 / np.sqrt(k))
        labels = np.repeat(np.arange(n_classes), 12)
        feats = centers[labels] + 20.0 * rng.standard_normal((labels.size, k))
        feats = np.vstack([feats, feats[:10]])
        labels = np.concatenate([labels, (labels[:10] + 1) % n_classes])
        assert 800 < np.median(np.linalg.norm(feats, axis=1)) < 1200
        return feats, labels, range(n_classes)

    def test_matches_reference_fit_bytewise_at_large_norms(self):
        feats, labels, ids = self.large_norm_data()
        got = fit_softmax(feats, labels, ids, 300, 1e-5)
        log = []
        w, b = reference_fit(feats, labels, ids, 300, 1e-5, log=log)
        assert len(log) == 300
        assert np.mean(np.stack([s for s, _ in log]) < losses._EXP_FLOOR) >= 0.5
        assert got.w.tobytes() == w.tobytes() and got.b.tobytes() == b.tobytes()

    def test_stops_at_the_reference_step_when_the_norm_meets_the_tolerance(self):
        # overlapping classes at unit scale: the gradient norm falls at
        # every step, so each step's norm is a tolerance the fit first meets
        # there. Equal to the norm, the fit takes that step; one ulp above
        # it, the fit stops. A norm rounded one ulp off flips one of the two.
        rng = np.random.default_rng(10)
        labels = np.repeat(np.arange(4), 50)
        feats = 0.5 * rng.standard_normal((4, 16))[labels] + rng.standard_normal((200, 16))
        log = []
        reference_fit(feats, labels, range(4), 200, 0.0, log=log)
        norms = [g for _, g in log]
        assert all(later < earlier for earlier, later in zip(norms, norms[1:]))
        for j in range(0, 200, 10):
            for tol in (norms[j], np.nextafter(norms[j], np.inf)):
                got = fit_softmax(feats, labels, range(4), j + 2, tol)
                w, b = reference_fit(feats, labels, range(4), j + 2, tol)
                assert got.w.tobytes() == w.tobytes() and got.b.tobytes() == b.tobytes()

    def test_class_major_fit_matches_the_row_major_iteration_bytewise(self):
        # at 64 rows x 512 features x 40 classes the products take OpenBLAS's
        # standard dgemm path, which packs x @ w_t.T and x @ w alike; only
        # the small-matrix kernels of tiny fits round the two differently
        rng = np.random.default_rng(11)
        labels = np.arange(64) % 40
        feats = rng.standard_normal((40, 512))[labels] + 0.3 * rng.standard_normal((64, 512))
        got = fit_softmax(feats, labels, range(40), 50, 1e-5)
        w, b = reference_fit(feats, labels, range(40), 50, 1e-5, class_major=False)
        assert got.w.flags.c_contiguous
        assert got.w.tobytes() == w.tobytes() and got.b.tobytes() == b.tobytes()

    def test_missing_class_rejected(self):
        feats, labels = self.separated_data()
        with pytest.raises(ValidationError, match=r"classes without training rows: \[2\]"):
            fit_gzsl_classifier(feats, labels, [0, 1, 2], **FIT)

    def test_label_outside_class_set_rejected(self):
        feats, labels = self.separated_data()
        with pytest.raises(ValidationError, match=r"outside the declared class set: \[1\]"):
            fit_gzsl_classifier(feats, labels, [0], **FIT)


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
        clf = fit_gzsl_classifier(feats, labels, bundle.all_classes, max_steps=5, grad_tol=1e-5)
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

