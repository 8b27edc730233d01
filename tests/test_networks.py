import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from gzslgen.config import load_checkpoint, parse_run_config, save_checkpoint
from gzslgen.errors import ContractViolation, ValidationError
from gzslgen.matio import check_bounds
from gzslgen.seeds import child_seed
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
    dense_reference,
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
    def test_layer_shapes(self):
        m = init_params(16, 4, 3, seed=0, hidden_dim=32)
        assert m.g_sv.w1.shape == (8, 32)   # concatenated [a | z] is 2L wide
        assert m.g_sv.w2.shape == (32, 16)
        assert m.g_vs.w1.shape == (16, 32)
        assert m.d_v.w1.shape == (20, 32)   # [x | a]
        assert m.d_s.w1.shape == (4, 32)
        assert m.cls_seen.w.shape == (16, 3)

    def test_dimension_one_is_accepted(self):
        m = init_params(1, 1, 1, seed=0, hidden_dim=1)
        shapes = {
            "g_sv": {"w1": (2, 1), "b1": (1,), "w2": (1, 1), "b2": (1,)},
            "g_vs": {"w1": (1, 1), "b1": (1,), "w2": (1, 1), "b2": (1,)},
            "d_v": {"w1": (2, 1), "b1": (1,), "w2": (1, 1), "b2": (1,)},
            "d_s": {"w1": (1, 1), "b1": (1,), "w2": (1, 1), "b2": (1,)},
        }
        for name, want in shapes.items():
            assert {k: a.shape for k, a in getattr(m, name).arrays().items()} == want
        assert m.cls_seen.w.shape == (1, 1) and m.cls_seen.b.shape == (1,)

    def test_weights_are_the_seeded_draws_over_root_fan_in(self):
        # distinct widths, so a weight scaled by the wrong fan-in differs too
        k, l, n_seen, hidden, seed = 6, 2, 3, 5, child_seed(3, "init")
        m = init_params(k, l, n_seen, seed=seed, hidden_dim=hidden)
        rng = np.random.default_rng(seed)
        for net, fan_in, n_out in ((m.g_sv, 2 * l, k), (m.g_vs, k, l),
                                   (m.d_v, k + l, 1), (m.d_s, l, 1)):
            w1 = rng.standard_normal((fan_in, hidden)) / np.sqrt(fan_in)
            w2 = rng.standard_normal((hidden, n_out)) / np.sqrt(hidden)
            assert net.w1.tobytes() == w1.tobytes() and net.w2.tobytes() == w2.tobytes()
            assert not net.b1.any() and not net.b2.any()
        cls_w = rng.standard_normal((k, n_seen)) / np.sqrt(k)
        assert m.cls_seen.w.tobytes() == cls_w.tobytes() and not m.cls_seen.b.any()

    @pytest.mark.parametrize("dims,named", [
        ((0, 4, 3, 32), "g_sv.output_dim"),
        ((16, 0, 3, 32), "g_sv.input_dim"),
        ((16, 4, 3, 0), "g_sv.hidden_dim"),
    ], ids=["feature_dim", "attribute_dim", "hidden_dim"])
    def test_width_below_one_names_the_shape_field(self, dims, named):
        k, l, n_seen, hidden = dims
        with pytest.raises(ValidationError, match=rf"^network_shapes\.{named} must be >= 1, got 0$"):
            init_params(k, l, n_seen, seed=0, hidden_dim=hidden)

    def test_no_seen_class_rejected(self):
        with pytest.raises(ContractViolation, match="n_seen must be >= 1, got 0"):
            init_params(16, 4, 0, seed=0, hidden_dim=32)


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
    """A weight gradient formed a block of rows at a time rounds exactly as
    whole products summed in a full-size temporary do."""

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
        blocks = networks._weight_blocks([(first_a, first_b, None), (a, b, scale)])
        got = np.concatenate([values.copy() for values in blocks])  # 3 blocks of 100 or 101 rows
        assert np.array_equal(got, expected.reshape(-1))


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
        assert np.array_equal(dense_reference(grads_only), dense_reference(grads))

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
    with pytest.raises(ValidationError, match=rf"^net\.negative_slope must be in \[0, 1\], got {slope}$"):
        check_bounds("net", NetworkShape(4, 8, 2, negative_slope=slope))


# the bound accepts both endpoints, and _leaky keeps the where form's bits
# at each slope the bound accepts
@pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
def test_leaky_is_the_where_form_bit_for_bit(slope):
    check_bounds("net", NetworkShape(4, 8, 2, negative_slope=slope))
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

    def test_pickle_and_deepcopy_keep_the_views(self):
        model = small_model()
        for copied in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            for name in ("g_sv", "g_vs", "d_v", "d_s"):
                net, original = getattr(copied, name), getattr(model, name)
                assert not np.shares_memory(net.flat, original.flat)
                assert net.flat.tobytes() == original.flat.tobytes()
                self.assert_flat_layout(net)
