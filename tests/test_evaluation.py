from dataclasses import replace

import numpy as np
import pytest

from gzslgen import evaluation
from gzslgen.config import parse_run_config
from gzslgen.data import SyntheticSpec, make_synthetic_dataset
from gzslgen.errors import ContractViolation, ValidationError
from gzslgen.evaluation import (
    EvalConfig,
    EvalReport,
    evaluate_gzsl,
    format_report_table,
    harmonic_mean,
    per_class_accuracy,
    run_ablation,
    sweep_samples,
)
from gzslgen.networks import init_params
from gzslgen.trainer import OptimizerConfig, TrainConfig, train


class TestPerClassAccuracy:
    def test_all_correct(self):
        labels = np.array([0, 0, 1, 2])
        mean, per = per_class_accuracy(labels.copy(), labels, [0, 1, 2])
        assert mean == 1.0
        assert per == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_unweighted_over_classes(self):
        # class 0: 100 correct rows, class 1: single wrong row -> mean 0.5
        labels = np.concatenate([np.zeros(100, dtype=int), [1]])
        preds = np.concatenate([np.zeros(100, dtype=int), [0]])
        mean, per = per_class_accuracy(preds, labels, [0, 1])
        assert mean == 0.5
        assert per == {0: 1.0, 1: 0.0}

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, 200)
        preds = rng.integers(0, 4, 200)
        mean, per = per_class_accuracy(preds, labels, range(4))
        for c in range(4):
            idx = labels == c
            hits = sum(1 for p, t in zip(preds[idx], labels[idx]) if p == t)
            assert per[c] == pytest.approx(hits / idx.sum())
        assert mean == pytest.approx(np.mean([per[c] for c in range(4)]))

    def test_duplicating_class_rows_leaves_mean_unchanged(self):
        rng = np.random.default_rng(1)
        labels = np.array([0] * 5 + [1] * 5)
        preds = rng.integers(0, 2, 10)
        base, _ = per_class_accuracy(preds, labels, [0, 1])
        dup_labels = np.concatenate([labels, [0] * 5])
        dup_preds = np.concatenate([preds, preds[:5]])
        dup, _ = per_class_accuracy(dup_preds, dup_labels, [0, 1])
        assert dup == pytest.approx(base)

    def test_empty_class_rejected(self):
        with pytest.raises(ValidationError, match="no test rows"):
            per_class_accuracy(np.array([0]), np.array([0]), [0, 1])

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ContractViolation, match="align"):
            per_class_accuracy(np.array([0, 1]), np.array([0, 1, 1]), [0, 1])

    def test_labels_outside_the_class_set_named(self):
        with pytest.raises(ValidationError, match=r"outside the class set: \[2, 5\]"):
            per_class_accuracy(np.zeros(4, dtype=int), np.array([0, 5, 1, 2]), [0, 1])


class TestHarmonicMean:
    def test_zero_numerator(self):
        for x in (0.0, 0.3, 1.0):
            assert harmonic_mean(0.0, x) == 0.0
            assert harmonic_mean(x, 0.0) == 0.0

    def test_symmetry_identity_and_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = rng.uniform(0, 1, 2)
            h = harmonic_mean(a, b)
            assert h == pytest.approx(harmonic_mean(b, a), abs=1e-15)
            assert h <= 2 * min(a, b) + 1e-15
            assert h <= (a + b) / 2 + 1e-15
            assert harmonic_mean(a, a) == pytest.approx(a, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            harmonic_mean(1.5, 0.5)
        with pytest.raises(ContractViolation):
            harmonic_mean(0.5, -0.1)


@pytest.fixture(scope="module")
def oracle():
    spec = SyntheticSpec(3, 2, 12, 3, 15, 0.08, projection_seed=4, noise_seed=5)
    return make_synthetic_dataset(spec)


def quick_config(**kw):
    base = dict(batch_size=15, epochs=8, hidden_dim=16, n1=2, n2=2,
                optimizer=OptimizerConfig(learning_rate=1e-3, beta2=0.999), seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestEvaluateGzsl:
    def test_report_shape_and_h_consistency(self, oracle):
        model, _ = train(oracle, quick_config())
        report = evaluate_gzsl(model, oracle, EvalConfig(n_per_class=20))
        assert 0.0 <= report.ts <= 1.0
        assert 0.0 <= report.tr <= 1.0
        assert report.h == pytest.approx(harmonic_mean(report.ts, report.tr), abs=1e-12)
        assert set(report.per_class_acc) == set(oracle.all_classes)
        assert all(v == 15 for v in report.n_test_per_class.values())

    def test_seen_only_predictions_give_zero_h(self):
        # the seen-bias failure mode: ts = 0 forces H = 0
        preds = np.zeros(10, dtype=int)
        labels = np.array([3] * 5 + [4] * 5)
        ts, _ = per_class_accuracy(preds, labels, [3, 4])
        assert ts == 0.0
        assert harmonic_mean(ts, 1.0) == 0.0

    def test_fit_sees_the_real_seen_rows_only_when_included(self, oracle, monkeypatch):
        fit = evaluation.fit_gzsl_classifier
        rows = []

        def counted_fit(features, labels, *args, **kwargs):
            rows.append(len(features))
            return fit(features, labels, *args, **kwargs)

        monkeypatch.setattr(evaluation, "fit_gzsl_classifier", counted_fit)
        model = init_params(12, 3, 3, seed=0, hidden_dim=16)
        for include in (False, True):
            evaluate_gzsl(model, oracle, EvalConfig(n_per_class=4, include_real_seen=include))
        synthesized = 4 * len(oracle.all_classes)
        assert rows == [synthesized, synthesized + len(oracle.labels_train)]


class TestAblationAndSweep:
    def test_ablation_table_shape(self, oracle):
        variants = ["baseline_single_gan", "dual_only", "no_VC", "no_SC", "full"]
        rows = run_ablation(oracle, quick_config(epochs=3), variants,
                            EvalConfig(n_per_class=10))
        assert [name for name, _ in rows] == variants
        table = format_report_table(rows)
        assert table.count("\n") == len(variants) + 2
        for _, report in rows:
            assert report.h == pytest.approx(
                harmonic_mean(report.ts, report.tr), abs=1e-12)

    def test_ablation_deterministic(self, oracle):
        variants = ["full", "dual_only"]
        a = run_ablation(oracle, quick_config(epochs=3), variants, EvalConfig(n_per_class=10))
        b = run_ablation(oracle, quick_config(epochs=3), variants, EvalConfig(n_per_class=10))
        assert [(n, r.to_dict()) for n, r in a] == [(n, r.to_dict()) for n, r in b]

    def test_sweep_shape_and_determinism(self, oracle):
        model, _ = train(oracle, quick_config())
        curve = sweep_samples(oracle, None, [10, 100, 500], EvalConfig(), model=model)
        assert [n for n, _ in curve] == [10, 100, 500]
        curve_dup = sweep_samples(oracle, None, [10, 10], EvalConfig(), model=model)
        assert curve_dup[0] == curve_dup[1]

    def test_sweep_validates_counts(self, oracle):
        with pytest.raises(ValidationError):
            sweep_samples(oracle, quick_config(), [], EvalConfig())
        with pytest.raises(ValidationError):
            sweep_samples(oracle, quick_config(), [0, 5], EvalConfig())


@pytest.mark.parametrize("counts", [[0], [5, -1], []], ids=["zero", "negative", "empty"])
def test_sweep_counts_read_as_the_run_config_does(oracle, counts):
    doc = {"synthetic": {"n_seen_classes": 1, "n_unseen_classes": 1, "feature_dim": 2,
                         "attribute_dim": 1, "samples_per_class": 1, "cluster_std": 1.0},
           "eval": {"counts": counts}}
    with pytest.raises(ValidationError) as from_config:
        parse_run_config(doc)
    assert str(from_config.value) == f"eval.counts must be a nonempty list of integers >= 1, got {counts}"
    with pytest.raises(ValidationError) as from_library:
        sweep_samples(oracle, quick_config(), counts, EvalConfig())
    assert str(from_library.value) == str(from_config.value)


def test_ablation_checks_every_variant_before_training(oracle, monkeypatch):
    calls = []
    monkeypatch.setattr(evaluation, "train", lambda *args: calls.append(args))
    with pytest.raises(ValidationError, match=r"^train\.variant must be one of .*, got 'nope'$"):
        run_ablation(oracle, quick_config(), ["full", "nope"], EvalConfig(n_per_class=10))
    assert calls == []


@pytest.mark.parametrize("field,value", [
    ("seed", -1), ("classifier_max_steps", -3), ("classifier_grad_tol", float("nan")),
])
def test_library_entry_points_check_eval_bounds_first(oracle, monkeypatch, field, value):
    def downstream(*args, **kwargs):
        raise AssertionError("work began before the eval config was checked")

    monkeypatch.setattr(evaluation, "synthesize_features", downstream)
    monkeypatch.setattr(evaluation, "train", downstream)
    bad = EvalConfig(**{field: value})
    named = rf"^eval\.{field} must be >= 0, got {value}$"
    with pytest.raises(ValidationError, match=named):
        evaluate_gzsl(None, oracle, bad)
    with pytest.raises(ValidationError, match=named):
        sweep_samples(oracle, quick_config(), [10], bad)
    with pytest.raises(ValidationError, match=named):
        run_ablation(oracle, quick_config(), ["full"], bad)


def test_library_entry_points_name_every_class_without_test_rows_first(oracle, monkeypatch):
    calls = []

    def counted(name):
        real = getattr(evaluation, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(evaluation, name, wrapper)

    counted("train")
    counted("fit_gzsl_classifier")
    seen, unseen = oracle.labels_test_seen != 1, oracle.labels_test_unseen != 4
    bundle = replace(oracle,
                     visual_test_seen=oracle.visual_test_seen[seen],
                     labels_test_seen=oracle.labels_test_seen[seen],
                     visual_test_unseen=oracle.visual_test_unseen[unseen],
                     labels_test_unseen=oracle.labels_test_unseen[unseen])
    model = init_params(12, 3, 3, seed=0, hidden_dim=16)
    eval_cfg = EvalConfig(n_per_class=5)
    named = r"^classes without test rows: \[1, 4\]$"
    with pytest.raises(ValidationError, match=named):
        evaluate_gzsl(model, bundle, eval_cfg)
    with pytest.raises(ValidationError, match=named):
        run_ablation(bundle, quick_config(), ["full"], eval_cfg)
    with pytest.raises(ValidationError, match=named):
        sweep_samples(bundle, quick_config(), [5], eval_cfg)
    assert calls == []


def test_report_serialization_roundtrip():
    report = EvalReport(ts=0.25, tr=0.75, h=harmonic_mean(0.25, 0.75),
                        per_class_acc={0: 1.0, 3: 0.5}, n_test_per_class={0: 4, 3: 2})
    doc = report.to_dict()
    assert doc["H"] == pytest.approx(0.375)
    assert doc["per_class_acc"] == {"0": 1.0, "3": 0.5}
