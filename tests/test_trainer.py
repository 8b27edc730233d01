import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gzslgen import losses, networks, trainer
from gzslgen.data import SyntheticSpec, make_synthetic_dataset
from gzslgen.errors import ContractViolation, TrainingDiverged, ValidationError
from gzslgen.trainer import (
    Adam,
    OptimizerConfig,
    TrainConfig,
    effective_weights,
    pretrain_classifier,
    seen_class_columns,
    train,
)
from gzslgen.losses import LossWeights
from gzslgen.networks import classifier_forward
from helpers import ORACLE_SEEDS, ORACLE_SPEC, step_kinds


def desk_bundle(samples=20, std=0.05):
    spec = SyntheticSpec(
        n_seen_classes=3, n_unseen_classes=2, feature_dim=8, attribute_dim=3,
        samples_per_class=samples, cluster_std=std, projection_seed=2, noise_seed=3,
    )
    return make_synthetic_dataset(spec)


def desk_config(**kw):
    base = dict(
        batch_size=15, n1=2, n2=2, epochs=1, hidden_dim=16,
        optimizer=OptimizerConfig(learning_rate=1e-3), seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestPretrain:
    def test_separable_bundle_reaches_high_accuracy(self):
        bundle = desk_bundle(std=0.02)
        cfg = desk_config()
        cls = pretrain_classifier(bundle, cfg)
        lookup, _ = seen_class_columns(bundle)
        preds = classifier_forward(cls, bundle.visual_train).argmax(axis=1)
        acc = np.mean(preds == lookup[bundle.labels_train])
        assert acc >= 0.99

    def test_single_class_trivial(self):
        spec = SyntheticSpec(1, 1, 6, 2, 5, 0.1, projection_seed=0, noise_seed=0)
        bundle = make_synthetic_dataset(spec)
        cls = pretrain_classifier(bundle, desk_config(batch_size=5))
        preds = classifier_forward(cls, bundle.visual_train).argmax(axis=1)
        assert np.mean(preds == 0) == 1.0

    def test_missing_seen_class_rejected(self):
        bundle = desk_bundle()
        bundle.labels_train = np.where(
            bundle.labels_train == 2, 1, bundle.labels_train)
        with pytest.raises(ValidationError, match="without training rows"):
            pretrain_classifier(bundle, desk_config())


class TestVariantMasking:
    def test_no_sc_zeroes_lambda5(self):
        cfg = desk_config(variant="no_SC")
        w = effective_weights(cfg)
        assert w.lambda5 == 0.0
        assert w.lambda3 == cfg.weights.lambda3

    def test_no_vc_zeroes_lambda3_and_6(self):
        w = effective_weights(desk_config(variant="no_VC"))
        assert w.lambda3 == 0.0 and w.lambda6 == 0.0
        assert w.lambda5 == 0.1

    def test_dual_only_zeroes_all_consistency_terms(self):
        w = effective_weights(desk_config(variant="dual_only"))
        assert w.lambda3 == w.lambda5 == w.lambda6 == 0.0
        assert w.lambda2 == 0.01

    def test_baseline_zeroes_all_consistency_terms(self):
        cfg = desk_config(variant="baseline_single_gan")
        w = effective_weights(cfg)
        assert w.lambda3 == w.lambda5 == w.lambda6 == 0.0
        assert (w.lambda1, w.lambda2, w.lambda4) == (
            cfg.weights.lambda1, cfg.weights.lambda2, cfg.weights.lambda4)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValidationError):
            desk_config(variant="nonsense").validate()


class TestTrainLoop:
    def test_baseline_skips_dual_steps(self):
        bundle = desk_bundle(samples=20)
        cfg = desk_config(variant="baseline_single_gan")
        _, log = train(bundle, cfg)
        kinds = {r["step"] for r in log.records}
        assert kinds == {"d_v", "g_sv"}
        assert step_kinds(log, 1) == ["d_v", "d_v", "g_sv"]

    def test_no_sc_logs_zero_sc_contribution(self):
        bundle = desk_bundle(samples=20)
        _, log = train(bundle, desk_config(variant="no_SC", epochs=2))
        sc_terms = [r["terms"]["sc"] for r in log.records if r["step"] == "g_vs"]
        assert sc_terms and all(v == 0.0 for v in sc_terms)

    def test_classifier_changed_during_training_raises(self):
        # an exception, not an assert, so ``python -O`` keeps the check
        def nudge(kind, iteration, params):
            params.cls_seen.w[0, 0] += 1.0

        with pytest.raises(ContractViolation, match="seen-class classifier"):
            train(desk_bundle(samples=20), desk_config(), step_callback=nudge)

    @pytest.mark.parametrize("kind,loss_fn", [
        ("d_v", "disc_v_loss_and_grads"),
        ("d_s", "disc_s_loss_and_grads"),
        ("g_sv", "gen_sv_loss_and_grads"),
        ("g_vs", "gen_vs_loss_and_grads"),
    ])
    def test_divergence_names_the_updated_network(self, monkeypatch, kind, loss_fn):
        original = getattr(losses, loss_fn)

        def poisoned(*args, **kwargs):
            value, terms, grads = original(*args, **kwargs)
            grads.b1[0] = np.nan  # the loss stays finite
            return value, terms, grads

        monkeypatch.setattr(losses, loss_fn, poisoned)
        with pytest.raises(TrainingDiverged, match=rf"after {kind} update at iteration 1$"):
            train(desk_bundle(samples=20), desk_config())

    def test_peak_memory_holds_no_parameter_sized_gradient(self, monkeypatch):
        # 4096-double blocks, far below the largest network (about 1.06M doubles)
        monkeypatch.setattr(networks, "_ADD_BLOCK", 1 << 12)
        spec = SyntheticSpec(3, 2, 1024, 8, 8, 0.05, projection_seed=2, noise_seed=3)
        bundle = make_synthetic_dataset(spec)
        cfg = desk_config(batch_size=4, n1=1, n2=1, hidden_dim=1024)
        tracemalloc.start()
        try:
            model, log = train(bundle, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert {r["step"] for r in log.records} == {"d_v", "d_s", "g_sv", "g_vs"}
        nets = [model.g_sv, model.g_vs, model.d_v, model.d_s]
        params = sum(a.nbytes for a in model.all_arrays())
        moments = 2 * sum(net.flat.nbytes for net in nets)
        largest = max(net.flat.nbytes for net in nets)
        # a full-size gradient buffer alone would take the whole largest network
        assert peak < params + moments + largest // 2, (peak, params + moments, largest)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            desk_config(n1=0).validate()
        with pytest.raises(ValidationError):
            desk_config(epochs=0).validate()
        with pytest.raises(ValidationError):
            TrainConfig(optimizer=OptimizerConfig(learning_rate=0.0)).validate()
        with pytest.raises(ValidationError):
            TrainConfig(weights=LossWeights(lambda1=-1.0)).validate()
        # the endpoints the Adam betas' bound accepts
        TrainConfig(optimizer=OptimizerConfig(beta1=0.0, beta2=0.0)).validate()

    def test_library_train_checks_its_bounds_before_the_pretrain(self, monkeypatch):
        def pretrain(*args):
            raise AssertionError("pretrain reached")

        monkeypatch.setattr(trainer, "pretrain_classifier", pretrain)
        nan = float("nan")
        for name, bad in (
            ("train.hidden_dim", desk_config(hidden_dim=0)),
            ("train.seed", desk_config(seed=-1)),
            ("train.beta1", desk_config(optimizer=OptimizerConfig(beta1=1.0))),
            ("train.pretrain_grad_tol", desk_config(pretrain_grad_tol=nan)),
            ("train.learning_rate", desk_config(optimizer=OptimizerConfig(learning_rate=nan))),
            ("lambda1", desk_config(weights=LossWeights(lambda1=nan))),
        ):
            with pytest.raises(ValidationError, match=name):
                train(desk_bundle(), bad)


def test_child_seeds_of_roots_2_48_apart_differ():
    from gzslgen.seeds import child_seed

    assert child_seed(0, "init") != child_seed(2**48, "init")


class TestAdamBiasCorrection:
    def test_matches_the_always_divide_update_for_400_steps(self):
        cfg = OptimizerConfig(learning_rate=0.01, beta1=0.5, beta2=0.9)
        b1, b2, lr, eps = cfg.beta1, cfg.beta2, cfg.learning_rate, trainer._ADAM_EPS
        # both corrections reach exactly 1.0 before the last step (t=54 and t=356)
        assert 1.0 - b1**53 != 1.0 and 1.0 - b1**54 == 1.0
        assert 1.0 - b2**355 != 1.0 and 1.0 - b2**356 == 1.0
        rng = np.random.default_rng(3)
        param = rng.standard_normal(1000)
        opt = Adam(param, cfg)
        p, m, v = param.copy(), np.zeros(1000), np.zeros(1000)
        for t in range(1, 401):
            g = rng.standard_normal(1000)
            opt.step([g])
            # the always-divide update, in the optimizer's operation order
            m = m * b1 + g * (1.0 - b1)
            v = v * b2 + (g * (1.0 - b2)) * g
            p = p - ((m / (1.0 - b1**t)) * lr) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        assert np.array_equal(opt.m, m)
        assert np.array_equal(opt.v, v)
        assert np.array_equal(param, p)


class TestParamsFiniteScan:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_naming_the_step(self, bad):
        arr = np.ones((40, 25))
        arr[17, 3] = bad
        where = "after d_v update at iteration 7"
        with pytest.raises(TrainingDiverged, match=f"non-finite parameter {where}$"):
            trainer._check_params_finite([np.ones(10), arr], where)

    def test_finite_entry_whose_square_overflows_passes(self):
        arr = np.ones(1000)
        arr[3] = 1e200
        with np.errstate(over="ignore"):
            assert not np.isfinite(arr @ arr)  # the quick dot defers to the exact scan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trainer._check_params_finite([arr, arr.reshape(10, 100)], "after g_sv update")


class TestBlockedAdam:
    def test_multi_block_update_is_exact_and_in_place(self):
        rng = np.random.default_rng(1)
        flat = rng.standard_normal(257 * 300)
        param = flat.reshape(257, 300)
        assert param.size > trainer._ADAM_BLOCK and param.size % trainer._ADAM_BLOCK
        cfg = OptimizerConfig(learning_rate=0.01, beta1=0.5, beta2=0.9)
        opt = Adam(param, cfg)
        m = np.zeros_like(param)
        v = np.zeros_like(param)
        expected = param.copy()
        for t in range(1, 4):
            g = rng.standard_normal(param.shape)
            opt.step([g.reshape(-1)])
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            m_hat = m / (1.0 - cfg.beta1**t)
            v_hat = v / (1.0 - cfg.beta2**t)
            expected -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + trainer._ADAM_EPS)
            assert opt.param is param
            assert np.array_equal(param, expected)
            assert np.array_equal(flat, expected.reshape(-1))


def test_full_variant_keeps_configured_weights():
    w = effective_weights(desk_config(variant="full"))
    assert (w.lambda1, w.lambda4) == (10.0, 10.0)
    assert (w.lambda2, w.lambda3, w.lambda6) == (0.01, 0.01, 0.01)
    assert w.lambda5 == 0.1


def test_heldout_semantic_centroid_loss_decreases(oracle_bundle, oracle_runs):
    # the oracle's linear semantic map makes the reconstruction learnable:
    # after training, centroid error on a held-out batch drops vs iteration 0
    from gzslgen import losses
    from gzslgen.data import batch_iterator
    from gzslgen.networks import init_params, mlp_forward
    from gzslgen.seeds import child_seed

    def heldout_sc(model):
        vals = []
        for batch in batch_iterator(oracle_bundle, 30, epoch_seed=987654):
            synth = mlp_forward(model.g_sv, np.hstack([batch.attributes, batch.noise]))
            recon = mlp_forward(model.g_vs, synth)
            vals.append(losses._centroid_match_grads(
                recon, batch.labels, losses._attr_targets(batch))[0])
        return float(np.mean(vals))

    initial = init_params(16, 4, 3, seed=child_seed(0, "init"), hidden_dim=64)
    assert heldout_sc(oracle_runs["full"][ORACLE_SEEDS.index(0)]) < heldout_sc(initial)


def relabelled(bundle, new_ids):
    """``bundle`` with class ``c`` renamed ``new_ids[c]``; each attribute row
    moves with its id."""
    ids = np.asarray(new_ids)
    attributes = np.empty_like(bundle.attributes)
    attributes[ids] = bundle.attributes
    return replace(
        bundle,
        labels_train=ids[bundle.labels_train],
        labels_test_seen=ids[bundle.labels_test_seen],
        labels_test_unseen=ids[bundle.labels_test_unseen],
        attributes=attributes,
        seen_classes=tuple(int(ids[c]) for c in bundle.seen_classes),
        unseen_classes=tuple(int(ids[c]) for c in bundle.unseen_classes),
    )


def test_seen_ids_outside_the_first_columns_train_alike():
    # seen ids (0, 2, 4) keep their relative order, so seen_class_columns
    # maps them to the columns 0, 1, 2 that the ids 0, 1, 2 get; the
    # generator's classification term must score each row in that column,
    # not in the column its class id names
    bundle = make_synthetic_dataset(ORACLE_SPEC)
    assert (bundle.seen_classes, bundle.unseen_classes) == ((0, 1, 2), (3, 4))
    moved = relabelled(bundle, [0, 2, 4, 1, 3])
    assert (moved.seen_classes, moved.unseen_classes) == ((0, 2, 4), (1, 3))
    cfg = desk_config(batch_size=30, epochs=2)
    params, log = train(bundle, cfg)
    moved_params, moved_log = train(moved, cfg)
    assert moved_log.seen_class_cols == {0: 0, 2: 1, 4: 2}
    for a, b in zip(params.all_arrays(), moved_params.all_arrays()):
        assert a.tobytes() == b.tobytes()
    assert moved_log.pretrain_accuracy == log.pretrain_accuracy
    cls_terms = [r["terms"]["cls"] for r in log.records if r["step"] == "g_sv"]
    assert cls_terms and all(v > 0 for v in cls_terms)
    assert [r["terms"]["cls"] for r in moved_log.records if r["step"] == "g_sv"] == cls_terms
