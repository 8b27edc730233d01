import numpy as np
import pytest

from gzslgen import losses, trainer
from gzslgen.data import SyntheticSpec, make_synthetic_dataset
from gzslgen.errors import TrainingDiverged, ValidationError
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

    def test_deterministic(self):
        bundle = desk_bundle()
        a = pretrain_classifier(bundle, desk_config())
        b = pretrain_classifier(bundle, desk_config())
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.b, b.b)

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

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValidationError):
            desk_config(variant="nonsense").validate()


class TestTrainLoop:
    def test_step_schedule_and_counts(self):
        bundle = desk_bundle(samples=20)  # 60 rows, batch 15 -> 4 iterations
        cfg = desk_config(n1=2, n2=2, epochs=1)
        _, log = train(bundle, cfg)
        assert len(log.records) == 4 * (2 + 2 + 2)
        for it in (1, 2, 3, 4):
            assert log.step_kinds(it) == ["d_v", "d_v", "d_s", "d_s", "g_sv", "g_vs"]

    def test_baseline_skips_dual_steps(self):
        bundle = desk_bundle(samples=20)
        cfg = desk_config(variant="baseline_single_gan")
        _, log = train(bundle, cfg)
        kinds = {r["step"] for r in log.records}
        assert kinds == {"d_v", "g_sv"}
        assert log.step_kinds(1) == ["d_v", "d_v", "g_sv"]

    def test_no_sc_logs_zero_sc_contribution(self):
        bundle = desk_bundle(samples=20)
        _, log = train(bundle, desk_config(variant="no_SC", epochs=2))
        sc_terms = [r["terms"]["sc"] for r in log.records if r["step"] == "g_vs"]
        assert sc_terms and all(v == 0.0 for v in sc_terms)

    def test_identical_runs_produce_identical_logs(self):
        bundle = desk_bundle(samples=20)
        _, log_a = train(bundle, desk_config(epochs=2))
        _, log_b = train(bundle, desk_config(epochs=2))
        assert len(log_a.records) == len(log_b.records)
        for ra, rb in zip(log_a.records, log_b.records):
            assert ra["loss"] == rb["loss"]
            assert ra["terms"] == rb["terms"]
            assert ra["grad_norm"] == rb["grad_norm"]

    def test_identical_runs_produce_identical_params(self):
        bundle = desk_bundle(samples=20)
        model_a, _ = train(bundle, desk_config(epochs=2))
        model_b, _ = train(bundle, desk_config(epochs=2))
        for x, y in zip(model_a.all_arrays(), model_b.all_arrays()):
            assert np.array_equal(x, y)

    def test_classifier_frozen_through_training(self):
        bundle = desk_bundle(samples=20)
        cfg = desk_config(epochs=2)
        theta = pretrain_classifier(bundle, cfg)
        model, _ = train(bundle, cfg)
        assert np.array_equal(model.cls_seen.w, theta.w)
        assert np.array_equal(model.cls_seen.b, theta.b)

    def test_critic_and_generator_updates_are_isolated(self):
        bundle = desk_bundle(samples=20)
        cfg = desk_config(epochs=1)
        snapshots = {}
        changed = {"d_v": set(), "d_s": set(), "g_sv": set(), "g_vs": set()}

        def callback(kind, iteration, params):
            current = {
                "d_v": params.d_v.w1.copy(), "d_s": params.d_s.w1.copy(),
                "g_sv": params.g_sv.w1.copy(), "g_vs": params.g_vs.w1.copy(),
            }
            if snapshots:
                for name, arr in current.items():
                    if not np.array_equal(arr, snapshots[name]):
                        changed[kind].add(name)
            snapshots.update(current)

        train(bundle, cfg, step_callback=callback)
        for kind, touched in changed.items():
            assert touched <= {kind}, f"{kind} step modified {touched}"
        assert changed["d_v"] == {"d_v"}
        assert changed["g_sv"] == {"g_sv"}

    def test_finite_through_200_iterations(self):
        bundle = desk_bundle(samples=20)  # 60 rows, batch 15 -> 4 iters/epoch
        cfg = desk_config(epochs=50)      # 200 iterations
        model, log = train(bundle, cfg)
        iterations = {r["iteration"] for r in log.records}
        assert max(iterations) == 200
        for record in log.records:
            assert np.isfinite(record["loss"])
            assert np.isfinite(record["grad_norm"])
            assert all(np.isfinite(v) for v in record["terms"].values())
        for arr in model.all_arrays():
            assert np.all(np.isfinite(arr))

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
            grads.flat[0] = np.nan  # the loss stays finite
            return value, terms, grads

        monkeypatch.setattr(losses, loss_fn, poisoned)
        with pytest.raises(TrainingDiverged, match=rf"after {kind} update at iteration 1$"):
            train(desk_bundle(samples=20), desk_config())

    def test_noise_dim_must_match_attribute_dim(self):
        bundle = desk_bundle()
        with pytest.raises(ValidationError, match="noise_dim"):
            train(bundle, desk_config(noise_dim=7))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            desk_config(n1=0).validate()
        with pytest.raises(ValidationError):
            desk_config(epochs=0).validate()
        with pytest.raises(ValidationError):
            TrainConfig(optimizer=OptimizerConfig(learning_rate=0.0)).validate()
        with pytest.raises(ValidationError):
            TrainConfig(weights=LossWeights(lambda1=-1.0)).validate()


class TestAdam:
    def test_matches_reference_formula(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(5)
        arrays = {"p": theta.copy()}
        cfg = OptimizerConfig(learning_rate=0.01, beta1=0.5, beta2=0.9)
        opt = Adam(arrays, cfg)
        m = np.zeros(5)
        v = np.zeros(5)
        expected = theta.copy()
        for t in range(1, 4):
            g = rng.standard_normal(5)
            opt.step({"p": g.copy()})
            m = 0.5 * m + 0.5 * g
            v = 0.9 * v + 0.1 * g * g
            m_hat = m / (1 - 0.5**t)
            v_hat = v / (1 - 0.9**t)
            expected -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(arrays["p"], expected, rtol=1e-12)


class TestBlockedAdam:
    def test_multi_block_update_is_exact_and_in_place(self):
        rng = np.random.default_rng(1)
        flat = rng.standard_normal(257 * 300)
        param = flat.reshape(257, 300)
        assert param.size > trainer._ADAM_BLOCK and param.size % trainer._ADAM_BLOCK
        cfg = OptimizerConfig(learning_rate=0.01, beta1=0.5, beta2=0.9)
        opt = Adam({"p": param}, cfg)
        m = np.zeros_like(param)
        v = np.zeros_like(param)
        expected = param.copy()
        for t in range(1, 4):
            g = rng.standard_normal(param.shape)
            opt.step({"p": g})
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            m_hat = m / (1.0 - cfg.beta1**t)
            v_hat = v / (1.0 - cfg.beta2**t)
            expected -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
            assert opt.arrays["p"] is param
            assert np.array_equal(param, expected)
            assert np.array_equal(flat, expected.reshape(-1))


def test_full_variant_keeps_configured_weights():
    w = effective_weights(desk_config(variant="full"))
    assert (w.lambda1, w.lambda4) == (10.0, 10.0)
    assert (w.lambda2, w.lambda3, w.lambda6) == (0.01, 0.01, 0.01)
    assert w.lambda5 == 0.1


def test_heldout_semantic_centroid_loss_decreases():
    # the oracle's linear semantic map makes the reconstruction learnable:
    # after training, centroid error on a held-out batch drops vs iteration 0
    from gzslgen import losses
    from gzslgen.data import SyntheticSpec, batch_iterator, make_synthetic_dataset
    from gzslgen.networks import init_params, mlp_forward
    from gzslgen.seeds import child_seed

    spec = SyntheticSpec(3, 2, 16, 4, 50, 0.1, projection_seed=5, noise_seed=11)
    bundle = make_synthetic_dataset(spec)
    cfg = TrainConfig(batch_size=30, epochs=300, hidden_dim=64,
                      optimizer=OptimizerConfig(learning_rate=1e-4, beta2=0.999),
                      seed=0)

    def heldout_sc(model):
        vals = []
        for batch in batch_iterator(bundle, 30, epoch_seed=987654):
            synth = mlp_forward(model.g_sv, np.hstack([batch.attributes, batch.noise]))
            recon = mlp_forward(model.g_vs, synth)
            vals.append(losses.semantic_centroid_loss(
                recon, batch.labels, losses._attr_targets(batch)))
        return float(np.mean(vals))

    initial = init_params(16, 4, 3, seed=child_seed(0, "init"), hidden_dim=64)
    trained, _ = train(bundle, cfg)
    assert heldout_sc(trained) < heldout_sc(initial)
