import tracemalloc

import numpy as np
import pytest

from gzslgen import losses, networks, trainer
from gzslgen.errors import ContractViolation
from gzslgen.losses import LossWeights
from gzslgen.trainer import Adam, OptimizerConfig
from gzslgen.networks import (
    LinearParams,
    disc_v_forward,
    gen_sv_forward,
    init_params,
    mlp_forward,
)
from helpers import (
    check_param_grads,
    class_centroid,
    critic_grads,
    dense_reference,
    gradient_penalty,
    linear_critic,
    random_batch,
    small_model,
    visual_consistency_loss,
    zero_mlp,
)

K, L, B = 12, 3, 6
LOSS_NAMES = ("disc_v_loss_and_grads", "disc_s_loss_and_grads",
              "gen_sv_loss_and_grads", "gen_vs_loss_and_grads")


def alpha_for(batch, seed=99):
    return np.random.default_rng(seed).uniform(0, 1, size=len(batch))


class TestClassificationLoss:
    def test_perfect_classifier_gives_zero(self):
        # huge margins drive the true-class probability to 1
        x = np.eye(4) * 100.0
        cls = LinearParams(w=np.eye(4), b=np.zeros(4))
        assert losses.softmax_ce_grads(cls, x, np.arange(4), input_grad=False)[0] < 1e-12

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(2)
        cls = LinearParams(w=rng.standard_normal((K, 3)), b=rng.standard_normal(3))
        x = rng.standard_normal((B, K))
        labels = rng.integers(0, 3, B)
        # independent route: explicit per-sample -log p summation
        logits = x @ cls.w + cls.b
        expected = 0.0
        for i in range(B):
            p = np.exp(logits[i]) / np.exp(logits[i]).sum()
            expected -= np.log(p[labels[i]])
        expected /= B
        loss = losses.softmax_ce_grads(cls, x, labels, input_grad=False)[0]
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_label_out_of_range(self):
        cls = LinearParams(w=np.zeros((K, 3)), b=np.zeros(3))
        with pytest.raises(ContractViolation):
            losses.softmax_ce_grads(cls, np.zeros((2, K)), np.array([0, 3]), input_grad=False)

    def test_subnormal_logit_gradients_are_flushed(self):
        # rows of two classes; a third, unlabelled column sits ~720 below
        # them, so its probability (~1e-313) and logit gradient are subnormal
        rng = np.random.default_rng(4)
        w = rng.uniform(-0.5, 0.5, (K, 3))
        cls = LinearParams(w=w, b=np.array([0.0, 0.0, -720.0]))
        x = rng.uniform(-1.0, 1.0, (B, K))
        labels = np.arange(B) % 2
        _, dw, db, dx = losses.softmax_ce_grads(cls, x, labels)

        # the unflushed formula
        logits = x @ cls.w + cls.b
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        d_logits = exp / exp.sum(axis=1, keepdims=True)
        d_logits[np.arange(B), labels] -= 1.0
        d_logits /= B
        tiny = np.finfo(np.float64).tiny
        assert np.all((d_logits[:, 2] != 0) & (np.abs(d_logits[:, 2]) < tiny))

        for grad in (dw, db, dx):
            assert not np.any((grad != 0) & (np.abs(grad) < tiny))
        assert np.all(dw[:, 2] == 0.0) and db[2] == 0.0
        assert np.array_equal(dw[:, :2], (x.T @ d_logits)[:, :2])
        assert np.array_equal(db[:2], d_logits.sum(axis=0)[:2])
        assert np.array_equal(dx, d_logits @ cls.w.T)

    def test_exp_floor_bounds_the_subnormal_results(self):
        # every shifted logit that skips np.exp would have given less than
        # the smallest normal double
        floor = losses._EXP_FLOOR
        assert np.exp(np.nextafter(floor, -np.inf)) < np.finfo(np.float64).tiny
        assert floor < -700.0

    @staticmethod
    def large_logit_case():
        # a third of the shifted logits lie below the exp floor, and a third
        # just above it, where np.exp is still a normal double
        rng = np.random.default_rng(5)
        cls = LinearParams(w=rng.uniform(-0.5, 0.5, (K, 3)), b=np.array([0.0, -700.0, -900.0]))
        x = rng.uniform(-1.0, 1.0, (B, K))
        return cls, x, np.arange(B) % 3

    def test_matches_the_unmasked_formula(self):
        # dw against x.T @ d_logits: equal bytes on the OpenBLAS build this was
        # checked on (scipy-openblas 0.3.31, bundled with numpy's wheels), not
        # necessarily under another BLAS
        cls, x, labels = self.large_logit_case()
        loss, dw, db, dx = losses.softmax_ce_grads(cls, x, labels)
        logits = x @ cls.w + cls.b
        shifted = logits - logits.max(axis=1, keepdims=True)
        assert np.mean(shifted < losses._EXP_FLOOR) >= 1 / 3
        exp = np.exp(shifted)
        norm = exp.sum(axis=1, keepdims=True)
        d_logits = exp / norm
        d_logits[np.arange(B), labels] -= 1.0
        d_logits /= B
        d_logits[np.abs(d_logits) < np.finfo(np.float64).tiny] = 0.0
        assert loss == float(-(shifted - np.log(norm))[np.arange(B), labels].mean())
        assert dw.tobytes() == (x.T @ d_logits).tobytes()
        assert db.tobytes() == d_logits.sum(axis=0).tobytes()
        assert dx.tobytes() == (d_logits @ cls.w.T).tobytes()


class TestCentroids:
    def test_matches_column_sum_oracle(self):
        m = np.random.default_rng(3).standard_normal((7, 5))
        expected = np.array([m[:, j].sum() for j in range(5)]) / 7
        np.testing.assert_allclose(class_centroid(m), expected, rtol=1e-12)

    def test_empty_is_contract_violation(self):
        with pytest.raises(ContractViolation):
            class_centroid(np.zeros((0, 3)))


class TestSemanticCentroidLoss:
    def test_exact_reconstruction_gives_zero(self):
        batch = random_batch()
        attrs = losses._attr_targets(batch)
        assert losses._centroid_match_grads(batch.attributes, batch.labels, attrs)[0] == 0.0

    def test_matches_grouping_oracle(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 3, 10)
        labels[:3] = [0, 1, 2]
        recon = rng.standard_normal((10, L))
        attrs = rng.uniform(0, 1, (3, L))
        expected = np.mean([
            np.linalg.norm(recon[labels == c].mean(axis=0) - attrs[c])
            for c in np.unique(labels)
        ])
        got = losses._centroid_match_grads(recon, labels, attrs)[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_class_at_its_target_gets_a_finite_zero_gradient(self):
        # class 0's batch centroid is its target, a zero norm to divide by
        rng = np.random.default_rng(8)
        labels = np.array([0, 0, 1, 1])
        recon = rng.standard_normal((4, L))
        attrs = np.vstack([recon[:2].mean(axis=0), rng.uniform(0, 1, L)])
        d_recon = losses._centroid_match_grads(recon, labels, attrs)[1]
        assert np.all(np.isfinite(d_recon))
        assert np.array_equal(d_recon[:2], np.zeros((2, L)))
        assert np.all(d_recon[2:] != 0)

    def test_permutation_invariant_within_class(self):
        rng = np.random.default_rng(5)
        labels = np.repeat([0, 1], 5)
        recon = rng.standard_normal((10, L))
        attrs = rng.uniform(0, 1, (2, L))
        base = losses._centroid_match_grads(recon, labels, attrs)[0]
        perm = np.concatenate([rng.permutation(5), 5 + rng.permutation(5)])
        assert losses._centroid_match_grads(recon[perm], labels[perm], attrs)[0] == pytest.approx(
            base, abs=1e-12)


class TestVisualConsistencyLoss:
    def test_matching_centroids_give_zero(self):
        rng = np.random.default_rng(6)
        real = {0: rng.standard_normal((4, K))}
        cycle = np.tile(real[0].mean(axis=0), (3, 1))
        labels = np.zeros(3, dtype=int)
        assert visual_consistency_loss(cycle, labels, real) == pytest.approx(0.0, abs=1e-12)

    def test_matches_grouping_oracle(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 3, 12)
        labels[:3] = [0, 1, 2]
        cycle = rng.standard_normal((12, K))
        real = {c: rng.standard_normal((5, K)) for c in range(3)}
        expected = np.mean([
            np.linalg.norm(cycle[labels == c].mean(axis=0) - real[c].mean(axis=0))
            for c in np.unique(labels)
        ])
        assert visual_consistency_loss(cycle, labels, real) == pytest.approx(expected, rel=1e-12)

    def test_missing_real_class_is_contract_violation(self):
        with pytest.raises(ContractViolation):
            visual_consistency_loss(np.ones((2, K)), np.array([0, 1]), {0: np.ones((1, K))})


class TestGradientPenalty:
    # the penalty's rows written out as the formula, not through _interpolate
    def test_interpolated_rows_are_the_literal_formula(self):
        rng = np.random.default_rng(12)
        real, fake = rng.standard_normal((B, K)), rng.standard_normal((B, K))
        alpha = rng.uniform(0, 1, size=B)
        want = alpha[:, None] * real + (1.0 - alpha[:, None]) * fake
        assert np.array_equal(losses._interpolate(real, fake, alpha), want)

    def test_disc_v_penalty_term_at_the_literal_rows(self):
        # small_model's leaky critic has an input gradient that depends on
        # where the penalty is taken
        model = small_model(seed=22)
        batch = random_batch(seed=23)
        synth = gen_sv_forward(model, batch.attributes, batch.noise)
        w = LossWeights(lambda1=7.5)
        alpha = alpha_for(batch)
        mixed = alpha[:, None] * batch.visual + (1.0 - alpha[:, None]) * synth
        g = critic_grads(model.d_v, np.hstack([mixed, batch.attributes]))[:, :K]
        want = w.lambda1 * np.mean((np.linalg.norm(g, axis=1) - 1.0) ** 2)
        terms = losses.disc_v_loss_and_grads(model, batch, synth, w, alpha)[1]
        assert terms["gp"] == pytest.approx(want, rel=1e-12)

    def test_mismatched_real_and_fake_rejected(self):
        # one interpolation checks the shapes and alpha's length for both
        # critics; the reference penalty checks the shapes on its own
        model = small_model()
        batch = random_batch()
        w = LossWeights()
        grad_fn = lambda u: np.zeros_like(u)
        alpha = alpha_for(batch)
        calls = [
            lambda: losses.disc_v_loss_and_grads(model, batch, batch.visual[:-1], w, alpha)[0],
            lambda: losses.disc_s_loss_and_grads(
                model, batch, batch.attributes[:, :-1], w, alpha)[0],
            lambda: gradient_penalty(grad_fn, batch.attributes, batch.attributes[:-1], 0),
        ]
        for call in calls:
            with pytest.raises(ContractViolation, match="must match"):
                call()
        # a length-1 alpha would broadcast silently over the batch
        with pytest.raises(ContractViolation, match=r"alpha \(1,\) must match the batch \(6,\)"):
            losses.disc_v_loss_and_grads(model, batch, batch.visual, w, alpha[:1])


class TestCriticObjectives:
    def test_zero_critic_total_is_lambda1(self):
        model = small_model()
        model.d_v = zero_mlp(K + L, 16, 1)
        batch = random_batch()
        w = LossWeights(lambda1=7.5)
        total = losses.disc_v_loss_and_grads(
            model, batch, np.abs(batch.visual) + 0.1, w, alpha_for(batch))[0]
        assert total == pytest.approx(7.5, abs=1e-12)

    def test_zero_critic_gradient_segments_are_finite(self):
        # a zero critic's input gradient has norm 0 at every penalized row
        model = small_model()
        model.d_v = zero_mlp(K + L, 16, 1)
        batch = random_batch()
        grads = losses.disc_v_loss_and_grads(
            model, batch, np.abs(batch.visual) + 0.1, LossWeights(), alpha_for(batch))[2]
        for values in grads.segments():
            assert np.all(np.isfinite(values))

    def test_disc_s_zero_critic_total_is_lambda4(self):
        model = small_model()
        model.d_s = zero_mlp(L, 16, 1)
        batch = random_batch()
        w = LossWeights(lambda4=3.0)
        recon = np.abs(np.random.default_rng(1).standard_normal(batch.attributes.shape))
        total = losses.disc_s_loss_and_grads(model, batch, recon, w, alpha_for(batch))[0]
        assert total == pytest.approx(3.0)

    def test_disc_s_identical_inputs_unit_critic_zero(self):
        model = small_model()
        direction = np.zeros(L)
        direction[0] = 1.0
        model.d_s = linear_critic(L, direction)
        batch = random_batch()
        total = losses.disc_s_loss_and_grads(model, batch, batch.attributes.copy(), LossWeights(),
                            alpha_for(batch))[0]
        assert total == pytest.approx(0.0, abs=1e-10)

class TestGeneratorObjectives:
    def setup_method(self):
        self.noise2 = np.random.default_rng(30).standard_normal((B, L))

    def test_gsv_isolates_classification_term(self):
        model = small_model()
        model.d_v = zero_mlp(K + L, 16, 1)
        batch = random_batch()
        w = LossWeights(lambda2=0.25, lambda3=0.0)
        synth = gen_sv_forward(model, batch.attributes, batch.noise)
        expected = 0.25 * losses.softmax_ce_grads(
            model.cls_seen, synth, batch.labels, input_grad=False)[0]
        total = losses.gen_sv_loss_and_grads(model, batch, w, self.noise2, batch.labels)[0]
        assert total == pytest.approx(expected, rel=1e-12)

    def test_gsv_compositional_oracle(self):
        model = small_model(seed=24)
        batch = random_batch(seed=25)
        w = LossWeights()
        total, terms, _ = losses.gen_sv_loss_and_grads(model, batch, w, self.noise2, batch.labels)

        synth = gen_sv_forward(model, batch.attributes, batch.noise)
        recon = mlp_forward(model.g_vs, synth)
        cycle = gen_sv_forward(model, recon, self.noise2)
        expected = (
            -disc_v_forward(model, synth, batch.attributes).mean()
            - disc_v_forward(model, batch.visual, recon).mean()
            + w.lambda2 * losses.softmax_ce_grads(
                model.cls_seen, synth, batch.labels, input_grad=False)[0]
            + w.lambda3 * visual_consistency_loss(
                cycle, batch.labels,
                {c: batch.visual[batch.labels == c] for c in np.unique(batch.labels)})
        )
        assert total == pytest.approx(expected, abs=1e-10)
        assert total == pytest.approx(sum(terms.values()), abs=1e-12)

    def test_gsv_without_pair_term(self):
        model = small_model(seed=24)
        batch = random_batch(seed=25)
        w = LossWeights()
        real_total, real_terms, _ = losses.gen_sv_loss_and_grads(
            model, batch, w, self.noise2, batch.labels)
        total, terms, _ = losses.gen_sv_loss_and_grads(
            model, batch, w, self.noise2, batch.labels, pair_mode=None)
        assert terms["w_pair"] == 0.0
        assert list(terms) == list(real_terms)
        assert {k: v for k, v in terms.items() if k != "w_pair"} == {
            k: v for k, v in real_terms.items() if k != "w_pair"}
        assert total == pytest.approx(real_total - real_terms["w_pair"], abs=1e-12)
        assert losses.gen_sv_loss_and_grads(
            model, batch, w, self.noise2, batch.labels, pair_mode=None)[0] == total

    def test_gsv_cycle_pairing_oracle(self):
        model = small_model(seed=26)
        batch = random_batch(seed=27)
        w = LossWeights()
        total = losses.gen_sv_loss_and_grads(
            model, batch, w, self.noise2, batch.labels, pair_mode="cycle")[0]
        synth = gen_sv_forward(model, batch.attributes, batch.noise)
        recon = mlp_forward(model.g_vs, synth)
        cycle = gen_sv_forward(model, recon, self.noise2)
        expected = (
            -disc_v_forward(model, synth, batch.attributes).mean()
            - disc_v_forward(model, cycle, recon).mean()
            + w.lambda2 * losses.softmax_ce_grads(
                model.cls_seen, synth, batch.labels, input_grad=False)[0]
            + w.lambda3 * visual_consistency_loss(
                cycle, batch.labels,
                {c: batch.visual[batch.labels == c] for c in np.unique(batch.labels)})
        )
        assert total == pytest.approx(expected, abs=1e-10)

    def test_gvs_isolates_centroid_term(self):
        model = small_model()
        model.d_s = zero_mlp(L, 16, 1)
        batch = random_batch()
        w = LossWeights(lambda5=0.4, lambda6=0.0)
        synth = gen_sv_forward(model, batch.attributes, batch.noise)
        recon = mlp_forward(model.g_vs, synth)
        expected = 0.4 * losses._centroid_match_grads(
            recon, batch.labels, losses._attr_targets(batch))[0]
        total = losses.gen_vs_loss_and_grads(model, batch, w, self.noise2)[0]
        assert total == pytest.approx(expected, rel=1e-12)

    def test_gvs_compositional_oracle(self):
        model = small_model(seed=28)
        batch = random_batch(seed=29)
        w = LossWeights()
        total, terms, _ = losses.gen_vs_loss_and_grads(model, batch, w, self.noise2)
        synth = gen_sv_forward(model, batch.attributes, batch.noise)
        recon = mlp_forward(model.g_vs, synth)
        cycle = gen_sv_forward(model, recon, self.noise2)
        expected = (
            -mlp_forward(model.d_s, recon)[:, 0].mean()
            + w.lambda5 * losses._centroid_match_grads(
                recon, batch.labels, losses._attr_targets(batch))[0]
            + w.lambda6 * visual_consistency_loss(
                cycle, batch.labels,
                {c: batch.visual[batch.labels == c] for c in np.unique(batch.labels)})
        )
        assert total == pytest.approx(expected, abs=1e-10)
        assert total == pytest.approx(sum(terms.values()), abs=1e-12)


class TestRegularizersNonnegative:
    def test_random_cases(self):
        rng = np.random.default_rng(31)
        model = small_model()
        for trial in range(10):
            batch = random_batch(seed=100 + trial)
            synth = gen_sv_forward(model, batch.attributes, batch.noise)
            recon = mlp_forward(model.g_vs, synth)
            assert losses.softmax_ce_grads(
                model.cls_seen, synth, batch.labels, input_grad=False)[0] >= 0
            assert losses._centroid_match_grads(
                recon, batch.labels, losses._attr_targets(batch))[0] >= 0
            assert visual_consistency_loss(
                synth, batch.labels,
                {c: batch.visual[batch.labels == c] for c in np.unique(batch.labels)}) >= 0
            grad_fn = lambda u: np.tile(rng.standard_normal(L), (u.shape[0], 1))
            assert gradient_penalty(
                grad_fn, batch.attributes, recon, int(rng.integers(1e6))) >= 0


class TestLossGradients:
    """Composite-loss analytic gradients vs finite differences (<= 1e-3)."""

    TOL = 1e-3

    @pytest.mark.parametrize("pair_mode", [None])
    def test_gen_sv_grads(self, pair_mode):
        model = small_model(seed=46)
        batch = random_batch(seed=47)
        noise2 = np.random.default_rng(48).standard_normal((B, L))
        w = LossWeights()
        _, _, grads = losses.gen_sv_loss_and_grads(
            model, batch, w, noise2, batch.labels, pair_mode=pair_mode)
        fn = lambda: losses.gen_sv_loss_and_grads(
            model, batch, w, noise2, batch.labels, pair_mode=pair_mode)[0]
        errors = check_param_grads(fn, model.g_sv, grads)
        assert max(errors.values()) < self.TOL, errors

    def test_classification_grads_without_input_grad(self):
        model = small_model(seed=52)
        batch = random_batch(seed=53)
        full = losses.softmax_ce_grads(model.cls_seen, batch.visual, batch.labels)
        loss, dw, db, dx = losses.softmax_ce_grads(
            model.cls_seen, batch.visual, batch.labels, input_grad=False)
        assert dx is None
        assert loss == full[0]
        assert np.array_equal(dw, full[1]) and np.array_equal(db, full[2])


class TestBlockedGradient:
    def test_critic_step_peaks_below_one_parameter_buffer(self):
        k, l, b = 1024, 32, 16
        model = init_params(k, l, 3, seed=0, hidden_dim=2048)
        batch = random_batch(seed=63, b=b, k=k, l=l)
        synth = np.abs(np.random.default_rng(64).standard_normal((b, k)))
        opt = Adam(model.d_v.flat, OptimizerConfig())

        def step():
            _, _, grads = losses.disc_v_loss_and_grads(
                model, batch, synth, LossWeights(), alpha_for(batch))
            opt.step(grads.segments())

        step()
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the gradient reaches Adam a block of rows at a time
        assert peak < model.d_v.flat.nbytes, (peak, model.d_v.flat.nbytes)


def call(name, model, batch, rng):
    w = LossWeights()
    if name == "disc_v_loss_and_grads":
        synth = np.abs(rng.standard_normal(batch.visual.shape))
        return losses.disc_v_loss_and_grads(model, batch, synth, w, alpha_for(batch))
    if name == "disc_s_loss_and_grads":
        recon = np.abs(rng.standard_normal(batch.attributes.shape))
        return losses.disc_s_loss_and_grads(model, batch, recon, w, alpha_for(batch))
    noise2 = rng.standard_normal(batch.noise.shape)
    if name == "gen_sv_loss_and_grads":
        return losses.gen_sv_loss_and_grads(model, batch, w, noise2, batch.labels)
    return losses.gen_vs_loss_and_grads(model, batch, w, noise2)


class TestStreamedStep:
    """An Adam step fed the gradient a block of rows at a time leaves the
    parameters and both moments exactly as one fed the whole gradient does."""

    @pytest.mark.parametrize("name,net", zip(LOSS_NAMES, ("d_v", "d_s", "g_sv", "g_vs")))
    def test_matches_dense_gradient_and_unfused_adam(self, monkeypatch, name, net):
        # blocks of at most 4 rows split every weight gradient; the visual
        # critic's block of rows 6:9 straddles the penalty's last input row,
        # 6 (n_grad = K = 7): its term spans all K + L rows, zero below row 6,
        # so that block takes rows 6:9 of every term alike
        monkeypatch.setattr(networks, "_ADD_BLOCK", 8)
        k, l = 7, 6
        model = small_model(seed=70, k=k, l=l)
        params = getattr(model, net)
        for n_rows, n_cols in ((params.w1.shape), (params.w2.shape)):
            assert len(networks.row_blocks(n_rows, max(4, 8 // n_cols))) > 1
        assert (6, 9) in networks.row_blocks(k + l, 4)
        cfg = OptimizerConfig(learning_rate=0.01, beta1=0.5, beta2=0.9)
        b1, b2, lr, eps = cfg.beta1, cfg.beta2, cfg.learning_rate, trainer._ADAM_EPS
        opt = Adam(params.flat, cfg)
        p, m, v = params.flat.copy(), np.zeros(params.flat.size), np.zeros(params.flat.size)
        for t in (1, 2):
            batch = random_batch(seed=70 + t, k=k, l=l)
            _, _, grads = call(name, model, batch, np.random.default_rng(t))
            # every term spans its whole weight, so each block slices all alike
            for terms, weight in ((grads.w1, params.w1), (grads.w2, params.w2)):
                assert all((a.shape[0], b.shape[1]) == weight.shape for a, b, _ in terms)
            g = dense_reference(grads)
            norm = opt.step(grads.segments())
            m = m * b1 + g * (1.0 - b1)
            v = v * b2 + (g * (1.0 - b2)) * g
            p = p - ((m / (1.0 - b1**t)) * lr) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            assert np.array_equal(params.flat, p)
            assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
            assert norm == pytest.approx(float(np.sqrt(g @ g)), rel=1e-12)
