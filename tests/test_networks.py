import numpy as np
import pytest

from gzslgen.config import load_checkpoint, parse_run_config, save_checkpoint
from gzslgen.errors import ContractViolation
from gzslgen.networks import (
    LinearParams,
    MLPParams,
    NetworkShape,
    classifier_forward,
    disc_s_forward,
    disc_v_forward,
    gen_sv_forward,
    gen_vs_forward,
    init_params,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
)
from helpers import check_param_grads, numeric_grad, rel_error, small_model, random_batch, zero_mlp


class TestInit:
    def test_deterministic(self):
        a = init_params(16, 4, 3, seed=5, hidden_dim=32)
        b = init_params(16, 4, 3, seed=5, hidden_dim=32)
        for x, y in zip(a.all_arrays(), b.all_arrays()):
            assert np.array_equal(x, y)

    def test_layer_shapes(self):
        m = init_params(16, 4, 3, seed=0, hidden_dim=32)
        assert m.g_sv.w1.shape == (8, 32)   # concatenated [a | z] is 2L wide
        assert m.g_sv.w2.shape == (32, 16)
        assert m.g_vs.w1.shape == (16, 32)
        assert m.d_v.w1.shape == (20, 32)   # [x | a]
        assert m.d_s.w1.shape == (4, 32)
        assert m.cls_seen.w.shape == (16, 3)

    def test_biases_zero_at_init(self):
        m = init_params(16, 4, 3, seed=0, hidden_dim=32)
        for net in (m.g_sv, m.g_vs, m.d_v, m.d_s):
            assert not net.b1.any()
            assert not net.b2.any()
        assert not m.cls_seen.b.any()


class TestForwards:
    def setup_method(self):
        self.model = small_model()
        self.batch = random_batch()

    def test_gen_sv_output_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            attrs = rng.standard_normal((5, 3)) * rng.uniform(0.1, 10)
            noise = rng.standard_normal((5, 3))
            out = gen_sv_forward(self.model, attrs, noise)
            assert out.shape == (5, 12)
            assert np.all(out >= 0)

    def test_zero_params_give_zero_outputs(self):
        model = small_model()
        model.g_sv = zero_mlp(6, 16, 12, activation="relu")
        model.g_vs = zero_mlp(12, 16, 3, activation="relu")
        model.d_v = zero_mlp(15, 16, 1)
        model.d_s = zero_mlp(3, 16, 1)
        assert not gen_sv_forward(model, self.batch.attributes, self.batch.noise).any()
        assert not gen_vs_forward(model, self.batch.visual).any()
        assert not disc_v_forward(model, self.batch.visual, self.batch.attributes).any()
        assert not disc_s_forward(model, self.batch.attributes).any()

    def test_gen_vs_shape(self):
        for b in (1, 4, 9):
            out = gen_vs_forward(self.model, np.ones((b, 12)))
            assert out.shape == (b, 3)

    def test_critic_scores_scale_with_final_layer(self):
        scores = disc_v_forward(self.model, self.batch.visual, self.batch.attributes)
        self.model.d_v.w2 *= 3.0
        self.model.d_v.b2 *= 3.0
        np.testing.assert_allclose(
            disc_v_forward(self.model, self.batch.visual, self.batch.attributes),
            3.0 * scores, rtol=1e-12,
        )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ContractViolation):
            gen_sv_forward(self.model, self.batch.attributes, np.ones((6, 5)))
        with pytest.raises(ContractViolation):
            disc_v_forward(self.model, self.batch.visual[:3], self.batch.attributes)
        with pytest.raises(ContractViolation):
            gen_vs_forward(self.model, np.ones((4, 7)))

    def test_forward_deterministic(self):
        a = gen_sv_forward(self.model, self.batch.attributes, self.batch.noise)
        b = gen_sv_forward(self.model, self.batch.attributes, self.batch.noise)
        assert np.array_equal(a, b)


class TestClassifier:
    def test_zero_params_uniform(self):
        cls = LinearParams(w=np.zeros((12, 4)), b=np.zeros(4))
        probs = classifier_forward(cls, np.random.default_rng(0).standard_normal((7, 12)))
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        cls = LinearParams(w=rng.standard_normal((12, 4)), b=rng.standard_normal(4))
        x = rng.standard_normal((5, 12))
        probs = classifier_forward(cls, x)
        cls.b += 7.5  # adds a constant to every logit of every row
        np.testing.assert_allclose(classifier_forward(cls, x), probs, atol=1e-6)

    def test_rows_are_probability_simplex(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            cls = LinearParams(w=rng.standard_normal((12, 5)), b=rng.standard_normal(5))
            probs = classifier_forward(cls, 10 * rng.standard_normal((8, 12)))
            assert np.all(probs >= 0)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


class TestGradients:
    """Analytic backward passes vs central finite differences (step 1e-5)."""

    TOL = 1e-4

    def scalarized(self, params, u, seed):
        r = np.random.default_rng(seed).standard_normal(
            (u.shape[0], params.shape.output_dim))
        cache = mlp_forward_cached(params, u)
        grads, d_u = mlp_backward(params, cache, r / r.size)
        fn = lambda: float((mlp_forward(params, u) * r).mean())
        return fn, grads, d_u, r

    @pytest.mark.parametrize("net,builder", [
        ("g_sv", lambda m, b: np.hstack([b.attributes, b.noise])),
        ("g_vs", lambda m, b: b.visual),
        ("d_v", lambda m, b: np.hstack([b.visual, b.attributes])),
        ("d_s", lambda m, b: b.attributes),
    ])
    def test_param_grads_match_fd(self, net, builder):
        model = small_model(seed=3)
        batch = random_batch(seed=4)
        params = getattr(model, net)
        fn, grads, _, _ = self.scalarized(params, builder(model, batch), seed=5)
        errors = check_param_grads(fn, params, grads)
        assert max(errors.values()) < self.TOL, errors

    def test_input_grads_match_fd(self):
        model = small_model(seed=6)
        batch = random_batch(seed=7)
        u = np.hstack([batch.visual, batch.attributes])
        fn, _, d_u, r = self.scalarized(model.d_v, u, seed=8)
        assert rel_error(d_u, numeric_grad(fn, u)) < self.TOL

    def test_critic_visual_input_gradient(self):
        from gzslgen.networks import critic_input_grads
        model = small_model(seed=9)
        batch = random_batch(seed=10)
        u = np.hstack([batch.visual, batch.attributes])
        g = critic_input_grads(model.d_v, u)

        def score_sum():
            return float(mlp_forward(model.d_v, u).sum())

        assert rel_error(g, numeric_grad(score_sum, u)) < self.TOL


def test_gvs_output_activation_switch():
    rectified = init_params(12, 3, 3, seed=0, hidden_dim=16)
    linear = init_params(12, 3, 3, seed=0, hidden_dim=16,
                         gvs_output_activation="none")
    x = np.random.default_rng(0).standard_normal((40, 12))
    out_rect = gen_vs_forward(rectified, x)
    out_lin = gen_vs_forward(linear, x)
    assert np.all(out_rect >= 0)
    assert (out_lin < 0).any()  # same weights, no rectifier
    np.testing.assert_array_equal(out_rect, np.maximum(out_lin, 0.0))


class TestFlatLayout:
    """w1/b1/w2/b2 are consecutive views into one contiguous ``flat`` buffer."""

    @staticmethod
    def assert_flat_layout(net):
        views = list(net.arrays().values())
        assert net.flat.ndim == 1 and net.flat.flags.c_contiguous
        assert all(np.shares_memory(view, net.flat) for view in views)
        assert np.array_equal(net.flat, np.concatenate([a.ravel() for a in views]))
        net.flat[:] = np.arange(net.flat.size)
        assert np.array_equal(np.concatenate([a.ravel() for a in views]),
                              np.arange(net.flat.size))

    def test_init_params(self):
        m = init_params(16, 4, 3, seed=0, hidden_dim=32)
        for net in (m.g_sv, m.g_vs, m.d_v, m.d_s):
            self.assert_flat_layout(net)

    def test_keyword_constructor(self):
        rng = np.random.default_rng(0)
        shape = NetworkShape(5, 7, 2)
        arrays = {"w1": rng.standard_normal((5, 7)), "b1": rng.standard_normal(7),
                  "w2": rng.standard_normal((7, 2)), "b2": rng.standard_normal(2)}
        net = MLPParams(**arrays, shape=shape)
        for name, arr in arrays.items():
            assert np.array_equal(getattr(net, name), arr)
            assert not np.shares_memory(getattr(net, name), arr)
        self.assert_flat_layout(net)
        self.assert_flat_layout(zero_mlp(4, 6, 3))
        with pytest.raises(ContractViolation, match="b1"):
            MLPParams(**{**arrays, "b1": np.zeros(6)}, shape=shape)

    def test_copy_shares_nothing_with_its_source(self):
        source = small_model().d_v
        twin = source.copy()
        assert np.array_equal(twin.flat, source.flat)
        assert not np.shares_memory(twin.flat, source.flat)
        self.assert_flat_layout(twin)
        assert not np.array_equal(twin.flat, source.flat)  # the probe wrote only the copy

    def test_load_checkpoint(self, tmp_path):
        model = init_params(8, 2, 2, seed=0, hidden_dim=8)
        run_config = parse_run_config({"synthetic": {
            "n_seen_classes": 2, "n_unseen_classes": 1, "feature_dim": 8,
            "attribute_dim": 2, "samples_per_class": 4, "cluster_std": 0.05,
            "projection_seed": 1, "noise_seed": 2}})
        path = str(tmp_path / "checkpoint.zip")
        save_checkpoint(path, model, run_config)
        loaded, _ = load_checkpoint(path)
        for name in ("g_sv", "g_vs", "d_v", "d_s"):
            assert np.array_equal(getattr(loaded, name).flat, getattr(model, name).flat)
            self.assert_flat_layout(getattr(loaded, name))

    def test_backward_grads(self):
        model = small_model()
        batch = random_batch()
        u = np.hstack([batch.visual, batch.attributes])
        cache = mlp_forward_cached(model.d_v, u)
        grads, _ = mlp_backward(model.d_v, cache, np.ones((u.shape[0], 1)))
        assert grads.flat.size == model.d_v.flat.size
        self.assert_flat_layout(grads)
