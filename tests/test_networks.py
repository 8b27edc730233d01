from dataclasses import replace

import numpy as np
import pytest

from gzslgen.config import load_checkpoint, parse_run_config, save_checkpoint
from gzslgen.errors import ContractViolation
from gzslgen import networks
from gzslgen.networks import (
    LinearParams,
    MLPParams,
    NetworkShape,
    classifier_forward,
    critic_input_grads,
    disc_v_forward,
    gen_sv_forward,
    init_params,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
)
from helpers import (
    check_param_grads,
    critic_grads,
    numeric_grad,
    random_batch,
    rel_error,
    small_model,
    zero_mlp,
)


# each network with an input of its kind; the two critics come last
NET_INPUTS = [
    ("g_sv", lambda m, b: np.hstack([b.attributes, b.noise])),
    ("g_vs", lambda m, b: b.visual),
    ("d_v", lambda m, b: np.hstack([b.visual, b.attributes])),
    ("d_s", lambda m, b: b.attributes),
]


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
        assert not mlp_forward(model.g_vs, self.batch.visual).any()
        assert not disc_v_forward(model, self.batch.visual, self.batch.attributes).any()
        assert not mlp_forward(model.d_s, self.batch.attributes).any()

    def test_gen_vs_shape(self):
        for b in (1, 4, 9):
            out = mlp_forward(self.model.g_vs, np.ones((b, 12)))
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
            mlp_forward(self.model.g_vs, np.ones((4, 7)))

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

    @pytest.mark.parametrize("net,builder", NET_INPUTS)
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
        model = small_model(seed=9)
        batch = random_batch(seed=10)
        u = np.hstack([batch.visual, batch.attributes])
        g = critic_grads(model.d_v, u)

        def score_sum():
            return float(mlp_forward(model.d_v, u).sum())

        assert rel_error(g, numeric_grad(score_sum, u)) < self.TOL


class TestRowBlocks:
    @pytest.mark.parametrize("most", [3, 4, 7, 512])
    def test_equal_blocks_of_two_rows_or_more(self, most):
        for n in (0, 1, 2, most, most + 1, 10 * most):
            blocks = networks.row_blocks(n, most)
            sizes = [hi - lo for lo, hi in blocks]
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert max(sizes) <= most and max(sizes) - min(sizes) <= 1
            assert len(blocks) == max(1, -(-n // most))  # the fewest that fit
            if n >= 2:
                assert min(sizes) >= 2, (n, sizes)


class TestBufferedBackward:
    """Gradients formed a block of rows at a time, and sums of backwards,
    round exactly as whole products and full-size temporaries do."""

    @pytest.mark.parametrize("scale", [None, 10.0 / 3.0])
    def test_later_term_matches_full_temporary(self, monkeypatch, scale):
        monkeypatch.setattr(networks, "_ADD_BLOCK", 128 * 64)  # 128-row blocks
        rng = np.random.default_rng(20)
        first_a = rng.standard_normal((64, 301)).T  # transposed views, as u.T is
        first_b = rng.standard_normal((64, 64))
        a = rng.standard_normal((64, 301)).T
        b = rng.standard_normal((64, 64))
        product = a @ b
        if scale is not None:
            product *= scale
        expected = first_a @ first_b + product
        blocks = networks._weight_blocks([(first_a, first_b, None), (a, b, scale)], 301, 64, 0)
        got = np.concatenate([values.copy() for _, values in blocks])  # 3 blocks of 100 or 101 rows
        assert np.array_equal(got, expected.reshape(-1))

    @pytest.mark.parametrize("net,builder", NET_INPUTS)
    def test_backward_into_and_adding_into_a_buffer(self, monkeypatch, net, builder):
        model = small_model(seed=21)
        params = getattr(model, net)
        caches = [mlp_forward_cached(params, builder(model, random_batch(seed=s))) for s in (22, 23)]
        rng = np.random.default_rng(24)
        d_outs = [rng.standard_normal(c.out.shape) for c in caches]
        # at this size each weight gradient is one block: whole products
        first, d_u = mlp_backward(params, caches[0], d_outs[0])
        second, _ = mlp_backward(params, caches[1], d_outs[1])
        expected = first.dense().flat + second.dense().flat

        # a 40-double scratch splits most weight gradients into several blocks
        monkeypatch.setattr(networks, "_ADD_BLOCK", 40)
        grads, d_u_again = mlp_backward(params, caches[0], d_outs[0])
        assert np.array_equal(d_u_again, d_u)
        grads.add(mlp_backward(params, caches[1], d_outs[1], input_grad=False)[0])
        assert np.array_equal(grads.dense().flat, expected)


class TestSelectiveBackward:
    """A backward computes only the parts its caller asks for, bit for bit."""

    @staticmethod
    def full_backward(net, builder):
        model = small_model(seed=11)
        params = getattr(model, net)
        cache = mlp_forward_cached(params, builder(model, random_batch(seed=12)))
        d_out = np.random.default_rng(13).standard_normal(cache.out.shape)
        return params, cache, d_out, mlp_backward(params, cache, d_out)

    @pytest.mark.parametrize("net,builder", NET_INPUTS)
    def test_param_grads_only(self, net, builder):
        params, cache, d_out, (grads, _) = self.full_backward(net, builder)
        grads_only, d_u = mlp_backward(params, cache, d_out, input_grad=False)
        assert d_u is None
        assert np.array_equal(grads_only.dense().flat, grads.dense().flat)

    @pytest.mark.parametrize("net,builder", NET_INPUTS[2:])
    def test_critic_input_grads_reuses_h_pre(self, net, builder):
        model = small_model(seed=14)
        params = getattr(model, net)
        u = builder(model, random_batch(seed=15))
        cache = mlp_forward_cached(params, u)
        assert np.array_equal(cache.h_pre, u @ params.w1 + params.b1)
        # the input gradient depends on u only through h_pre, so the cached
        # h_pre is read, not recomputed from the cached u
        other_cache = mlp_forward_cached(params, builder(model, random_batch(seed=16)))
        assert np.array_equal(critic_input_grads(params, replace(cache, h_pre=other_cache.h_pre)),
                              critic_input_grads(params, other_cache))
        with pytest.raises(ContractViolation, match="h_pre"):
            critic_input_grads(params, replace(cache, h_pre=cache.h_pre[:, 1:]))


def test_gvs_output_activation_switch():
    rectified = init_params(12, 3, 3, seed=0, hidden_dim=16)
    linear = MLPParams(rectified.g_vs.flat, NetworkShape(12, 16, 3, output_activation="none"))
    x = np.random.default_rng(0).standard_normal((40, 12))
    out_rect = mlp_forward(rectified.g_vs, x)
    out_lin = mlp_forward(linear, x)
    assert np.all(out_rect >= 0)
    assert (out_lin < 0).any()  # same weights, no rectifier
    np.testing.assert_array_equal(out_rect, np.maximum(out_lin, 0.0))


@pytest.mark.parametrize("slope", [1.5, -0.1])
def test_slope_outside_unit_interval_rejected(slope):
    with pytest.raises(ContractViolation, match="negative_slope"):
        NetworkShape(4, 8, 2, negative_slope=slope).validate()


@pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
def test_leaky_is_the_where_form_bit_for_bit(slope):
    rng = np.random.default_rng(0)
    scaled = rng.standard_normal(2000) * 10.0 ** rng.integers(-320, 300, 2000)
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e308, -1e308]
    x = np.concatenate([scaled, edges]).reshape(8, 251)
    expected = np.where(x >= 0, x, slope * x)
    assert networks._leaky(x, slope).tobytes() == expected.tobytes()


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

    def test_flat_buffer_constructor(self):
        shape = NetworkShape(5, 7, 2)
        flat = np.random.default_rng(0).standard_normal(5 * 7 + 7 + 7 * 2 + 2)
        net = MLPParams(flat, shape)
        assert net.flat is flat  # wrapped, not copied
        assert np.array_equal(net.w1, flat[:35].reshape(5, 7))
        assert np.array_equal(net.b2, flat[-2:])
        self.assert_flat_layout(net)
        self.assert_flat_layout(zero_mlp(4, 6, 3))
        for bad in (flat[:-1], flat.reshape(1, -1), flat.astype(np.float32),
                    np.repeat(flat, 2)[::2]):
            with pytest.raises(ContractViolation, match="flat"):
                MLPParams(bad, shape)

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
        dense = grads.dense()
        assert dense.flat.size == model.d_v.flat.size
        self.assert_flat_layout(dense)
