"""Acceptance gate.

One test (or parametrized family) per criterion; the conftest summary
hook prints a PASS/FAIL line per criterion at the end of the session.

Table rounding in criterion 1: the benchmark table prints ts, tr and H
each rounded to one decimal, and its H was computed from the unrounded
accuracies. The check therefore carries the inputs' +/-0.05 rounding
through the mean under test: H increases in each argument, so its values
at (ts-0.05, tr-0.05) and (ts+0.05, tr+0.05) bound every H the unrounded
accuracies could give, and that interval must overlap the published H's
own +/-0.05 band. The same check is run with the arithmetic and the
geometric mean, and must reject both on every row.
"""

import json
import os
import time

import numpy as np
import pytest

from gzslgen import losses
from gzslgen.cli import main as cli_main
from gzslgen.data import SyntheticSpec, make_synthetic_dataset, oracle_class_means
from gzslgen.evaluation import EvalConfig, evaluate_gzsl, harmonic_mean, sweep_samples
from gzslgen.losses import LossWeights
from gzslgen.matio import dumps_json
from gzslgen.networks import (
    LinearParams,
    disc_v_forward,
    gen_sv_forward,
    init_params,
    mlp_forward,
)
from gzslgen.synthesis import SynthesisRequest, synthesize_features
from gzslgen.trainer import OptimizerConfig, TrainConfig, pretrain_classifier, train
from helpers import (
    ORACLE_SEEDS,
    ORACLE_SPEC,
    check_param_grads,
    class_centroid,
    cli_config,
    critic_grads,
    gradient_penalty,
    linear_critic,
    load_script,
    numeric_grad,
    random_batch,
    rel_error,
    small_model,
    step_kinds,
    visual_consistency_loss,
    zero_mlp,
)

# ---------------------------------------------------------------------------
# criterion 1 — harmonic-mean fixtures (benchmark table rows, percent units)


TABLE_HALF_UNIT = 0.05  # half of the table's last printed decimal, in percent


def _reproduces_table_h(mean, ts, tr, expected):
    """Whether `mean` of some accuracies that round to (ts, tr) rounds to `expected`.

    All arguments are in percent; `mean` takes and returns fractions and
    must increase in each argument, so its values at the two corners of
    the inputs' rounding box bound it over the whole box.
    """
    low = 100.0 * mean((ts - TABLE_HALF_UNIT) / 100.0, (tr - TABLE_HALF_UNIT) / 100.0)
    high = 100.0 * mean((ts + TABLE_HALF_UNIT) / 100.0, (tr + TABLE_HALF_UNIT) / 100.0)
    return low <= expected + TABLE_HALF_UNIT and high >= expected - TABLE_HALF_UNIT


@pytest.mark.parametrize("ts,tr,expected", [
    pytest.param(39.7, 59.5, 47.6, id="aPY"),
    pytest.param(59.3, 68.0, 63.4, id="AWA1"),
    pytest.param(45.9, 59.0, 51.6, id="CUB"),
    pytest.param(42.4, 38.5, 40.3, id="SUN"),
])
def test_criterion_01_metric_fixtures(ts, tr, expected):
    t0 = time.time()
    assert _reproduces_table_h(harmonic_mean, ts, tr, expected)
    # the check still tells the harmonic mean from its near neighbours
    assert not _reproduces_table_h(lambda a, b: (a + b) / 2.0, ts, tr, expected)
    assert not _reproduces_table_h(lambda a, b: float(np.sqrt(a * b)), ts, tr, expected)
    assert time.time() - t0 < 1.0


# ---------------------------------------------------------------------------
# criterion 2 — loss-term unit suite


def test_criterion_02_loss_unit_suite():
    t0 = time.time()
    k, l, b = 12, 3, 6
    model = small_model()
    batch = random_batch()
    alpha = np.random.default_rng(99).uniform(0, 1, size=b)
    noise2 = np.random.default_rng(30).standard_normal((b, l))

    # trivial fixtures, asserted exactly
    cls0 = LinearParams(w=np.zeros((k, 4)), b=np.zeros(4))
    assert losses.softmax_ce_grads(
        cls0, batch.visual, np.zeros(b, dtype=int), input_grad=False)[0] == np.log(4.0)
    row = np.array([[1.0, 2.0]])
    assert np.array_equal(class_centroid(row), row[0])
    np.testing.assert_array_equal(
        class_centroid(np.array([[0.0, 0.0], [2.0, 4.0]])), [1.0, 2.0])
    assert losses._centroid_match_grads(
        np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([0, 0]), np.array([[0.0, 0.0]])
    )[0] == 1.0
    assert visual_consistency_loss(
        np.array([[3.0, 0.0]]), np.array([0]),
        {0: np.array([[0.0, 0.0], [2.0, 0.0]])}) == 2.0

    zero_critic = small_model()
    zero_critic.d_v = zero_mlp(k + l, 16, 1)
    zero_critic.d_s = zero_mlp(l, 16, 1)
    w = LossWeights(lambda1=10.0, lambda4=10.0)
    assert losses.disc_v_loss_and_grads(
        zero_critic, batch, np.abs(batch.visual), w, alpha)[0] == 10.0
    recon = np.abs(np.random.default_rng(1).standard_normal(batch.attributes.shape))
    assert losses.disc_s_loss_and_grads(zero_critic, batch, recon, w, alpha)[0] == 10.0
    assert losses.gen_sv_loss_and_grads(
        zero_critic, batch, LossWeights(lambda2=0.0, lambda3=0.0), noise2, batch.labels)[0] == 0.0
    assert losses.gen_vs_loss_and_grads(
        zero_critic, batch, LossWeights(lambda5=0.0, lambda6=0.0), noise2)[0] == 0.0

    direction = np.zeros(k + l)
    direction[1] = 1.0
    unit_model = small_model()
    unit_model.d_v = linear_critic(k + l, direction)
    assert losses.disc_v_loss_and_grads(
        unit_model, batch, batch.visual.copy(), LossWeights(), alpha)[0] == \
        pytest.approx(0.0, abs=1e-10)

    # compositional oracles, 1e-10 in double precision
    model = small_model(seed=20)
    batch = random_batch(seed=21)
    synth = gen_sv_forward(model, batch.attributes, batch.noise)
    total = losses.disc_v_loss_and_grads(model, batch, synth, LossWeights(), alpha)[0]
    grad_fn = lambda u: critic_grads(model.d_v, np.hstack([u, batch.attributes]))[:, :k]
    expected = (
        disc_v_forward(model, synth, batch.attributes).mean()
        - disc_v_forward(model, batch.visual, batch.attributes).mean()
        + 10.0 * gradient_penalty(grad_fn, batch.visual, synth, alpha)
    )
    assert total == pytest.approx(expected, abs=1e-10)

    w = LossWeights()
    total = losses.gen_sv_loss_and_grads(model, batch, w, noise2, batch.labels)[0]
    recon = mlp_forward(model.g_vs, synth)
    cycle = gen_sv_forward(model, recon, noise2)
    real_groups = {c: batch.visual[batch.labels == c] for c in np.unique(batch.labels)}
    expected = (
        -disc_v_forward(model, synth, batch.attributes).mean()
        - disc_v_forward(model, batch.visual, recon).mean()
        + w.lambda2 * losses.softmax_ce_grads(
            model.cls_seen, synth, batch.labels, input_grad=False)[0]
        + w.lambda3 * visual_consistency_loss(cycle, batch.labels, real_groups)
    )
    assert total == pytest.approx(expected, abs=1e-10)

    total = losses.gen_vs_loss_and_grads(model, batch, w, noise2)[0]
    expected = (
        -mlp_forward(model.d_s, recon)[:, 0].mean()
        + w.lambda5 * losses._centroid_match_grads(
            recon, batch.labels, losses._attr_targets(batch))[0]
        + w.lambda6 * visual_consistency_loss(cycle, batch.labels, real_groups)
    )
    assert total == pytest.approx(expected, abs=1e-10)

    beta = alpha
    total = losses.disc_s_loss_and_grads(model, batch, recon, w, beta)[0]
    grad_fn = lambda u: critic_grads(model.d_s, u)
    expected = (
        mlp_forward(model.d_s, recon)[:, 0].mean()
        - mlp_forward(model.d_s, batch.attributes)[:, 0].mean()
        + w.lambda4 * gradient_penalty(grad_fn, batch.attributes, recon, beta)
    )
    assert total == pytest.approx(expected, abs=1e-10)
    assert time.time() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 3 — gradient correctness at the stated shapes (K<=16, L<=4,
# hidden<=32, B<=8), relative error <= 1e-3 at step 1e-5


def test_criterion_03_gradient_correctness():
    t0 = time.time()
    tol = 1e-3
    k, l, b, hidden = 16, 4, 8, 32
    model = small_model(seed=60, k=k, l=l, n_seen=3, hidden=hidden)
    batch = random_batch(seed=61, b=b, k=k, l=l, n_classes=3)
    alpha = np.random.default_rng(62).uniform(0, 1, size=b)
    noise2 = np.random.default_rng(63).standard_normal((b, l))
    w = LossWeights()

    # classification term: gradients w.r.t. classifier parameters and inputs
    _, dw, db, dx = losses.softmax_ce_grads(model.cls_seen, batch.visual, batch.labels)
    fn = lambda: losses.softmax_ce_grads(
        model.cls_seen, batch.visual, batch.labels, input_grad=False)[0]
    assert rel_error(dw, numeric_grad(fn, model.cls_seen.w)) < tol
    assert rel_error(db, numeric_grad(fn, model.cls_seen.b)) < tol
    assert rel_error(dx, numeric_grad(fn, batch.visual)) < tol

    # semantic-centroid term w.r.t. reconstructed attributes
    recon = np.random.default_rng(64).uniform(0.1, 1.0, (b, l))
    attrs = losses._attr_targets(batch)
    _, d_recon = losses._centroid_match_grads(recon, batch.labels, attrs)
    fn = lambda: losses._centroid_match_grads(recon, batch.labels, attrs)[0]
    assert rel_error(d_recon, numeric_grad(fn, recon)) < tol

    # visual-consistency term w.r.t. cycle features
    cycle = np.random.default_rng(65).uniform(0.1, 1.0, (b, k))
    real_groups = {c: batch.visual[batch.labels == c] for c in np.unique(batch.labels)}
    _, d_cycle = losses._centroid_match_grads(
        cycle, batch.labels, losses._batch_centroid_targets(batch))
    fn = lambda: visual_consistency_loss(cycle, batch.labels, real_groups)
    assert rel_error(d_cycle, numeric_grad(fn, cycle)) < tol

    # visual-critic objective w.r.t. critic parameters (incl. penalty path)
    synth = np.abs(np.random.default_rng(66).standard_normal((b, k))) + 0.05
    _, _, grads = losses.disc_v_loss_and_grads(model, batch, synth, w, alpha)
    fn = lambda: losses.disc_v_loss_and_grads(model, batch, synth, w, alpha)[0]
    errors = check_param_grads(fn, model.d_v, grads)
    assert max(errors.values()) < tol, errors

    # visual-generator objective w.r.t. that generator (both pairings)
    for pair_mode in ("real", "cycle"):
        _, _, grads = losses.gen_sv_loss_and_grads(model, batch, w, noise2, batch.labels,
                                                   pair_mode=pair_mode)
        fn = lambda: losses.gen_sv_loss_and_grads(
            model, batch, w, noise2, batch.labels, pair_mode=pair_mode)[0]
        errors = check_param_grads(fn, model.g_sv, grads)
        assert max(errors.values()) < tol, (pair_mode, errors)

    # semantic-critic objective w.r.t. critic parameters
    recon_pos = np.abs(np.random.default_rng(67).standard_normal((b, l)))
    _, _, grads = losses.disc_s_loss_and_grads(model, batch, recon_pos, w, alpha)
    fn = lambda: losses.disc_s_loss_and_grads(model, batch, recon_pos, w, alpha)[0]
    errors = check_param_grads(fn, model.d_s, grads)
    assert max(errors.values()) < tol, errors

    # semantic-generator objective w.r.t. that generator
    _, _, grads = losses.gen_vs_loss_and_grads(model, batch, w, noise2)
    fn = lambda: losses.gen_vs_loss_and_grads(model, batch, w, noise2)[0]
    errors = check_param_grads(fn, model.g_vs, grads)
    assert max(errors.values()) < tol, errors

    assert time.time() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 4 — gradient-penalty fixtures


def test_criterion_04_gradient_penalty_fixtures():
    rng = np.random.default_rng(70)
    real, fake = rng.standard_normal((8, 10)), rng.standard_normal((8, 10))

    unit = np.zeros(10)
    unit[3] = 1.0
    gp = gradient_penalty(lambda u: np.tile(unit, (len(u), 1)), real, fake, mix=0)
    assert gp == pytest.approx(0.0, abs=1e-10)

    gp = gradient_penalty(lambda u: np.zeros_like(u), real, fake, mix=1)
    assert gp == pytest.approx(1.0, abs=1e-10)

    slope3 = np.zeros(10)
    slope3[0] = 3.0
    gp = gradient_penalty(lambda u: np.tile(slope3, (len(u), 1)), real, fake, mix=2)
    assert gp == pytest.approx(4.0, abs=1e-8)


# ---------------------------------------------------------------------------
# criterion 5 — training-loop contract


def test_criterion_05_training_loop_contract():
    t0 = time.time()
    spec = SyntheticSpec(3, 2, 8, 3, 20, 0.05, projection_seed=2, noise_seed=3)
    bundle = make_synthetic_dataset(spec)  # 60 rows -> 4 batches of 15

    # exact step schedule: critics before generators, every iteration
    cfg = TrainConfig(batch_size=15, n1=2, n2=2, epochs=1, hidden_dim=16,
                      optimizer=OptimizerConfig(learning_rate=1e-3), seed=0)
    _, log = train(bundle, cfg)
    assert len(log.records) == 4 * (2 + 2 + 2)
    for it in (1, 2, 3, 4):
        assert step_kinds(log, it) == ["d_v", "d_v", "d_s", "d_s", "g_sv", "g_vs"]

    # frozen classifier
    theta = pretrain_classifier(bundle, cfg)
    model, _ = train(bundle, cfg)
    assert np.array_equal(model.cls_seen.w, theta.w)
    assert np.array_equal(model.cls_seen.b, theta.b)

    # critic/generator isolation via parameter snapshots
    snapshots, changed = {}, {k: set() for k in ("d_v", "d_s", "g_sv", "g_vs")}

    def callback(kind, iteration, params):
        current = {name: getattr(params, name).w1.copy()
                   for name in ("d_v", "d_s", "g_sv", "g_vs")}
        if snapshots:
            for name, arr in current.items():
                if not np.array_equal(arr, snapshots[name]):
                    changed[kind].add(name)
        snapshots.update(current)

    train(bundle, cfg, step_callback=callback)
    for kind, touched in changed.items():
        assert touched <= {kind}, f"{kind} step modified {touched}"

    # 200 iterations with default weights, everything finite
    cfg200 = TrainConfig(batch_size=15, epochs=50, hidden_dim=16,
                         optimizer=OptimizerConfig(learning_rate=1e-3), seed=0)
    model, log = train(bundle, cfg200)
    assert max(r["iteration"] for r in log.records) == 200
    for record in log.records:
        assert np.isfinite(record["loss"]) and np.isfinite(record["grad_norm"])
        assert all(np.isfinite(v) for v in record["terms"].values())
    for arr in model.all_arrays():
        assert np.all(np.isfinite(arr))
    assert time.time() - t0 < 120.0


# ---------------------------------------------------------------------------
# criterion 6 — synthetic-oracle end-to-end


def test_criterion_06_oracle_end_to_end(oracle_bundle, oracle_runs):
    t0 = time.time()
    eval_cfg = EvalConfig(n_per_class=300)
    h = {variant: [evaluate_gzsl(m, oracle_bundle, eval_cfg).h
                   for m in oracle_runs[variant]]
         for variant in ("full", "baseline_single_gan")}
    full_median = float(np.median(h["full"]))
    base_median = float(np.median(h["baseline_single_gan"]))
    print(f"\n  full H per seed: {[round(v, 3) for v in h['full']]} "
          f"(median {full_median:.3f})")
    print(f"  baseline H per seed: {[round(v, 3) for v in h['baseline_single_gan']]} "
          f"(median {base_median:.3f})")
    assert full_median >= 0.6
    assert full_median > base_median
    assert oracle_runs["train_seconds"] + (time.time() - t0) < 600.0


# ---------------------------------------------------------------------------
# criterion 7 — sample-count sweep direction


def test_criterion_07_sample_count_sweep(oracle_bundle, oracle_runs):
    t0 = time.time()
    h10, h500 = [], []
    for model in oracle_runs["full"]:
        curve = sweep_samples(oracle_bundle, None, [10, 500], EvalConfig(), model=model)
        h10.append(curve[0][1])
        h500.append(curve[1][1])
    print(f"\n  H@10 median {np.median(h10):.3f}, H@500 median {np.median(h500):.3f}")
    assert np.median(h500) >= np.median(h10)
    assert oracle_runs["train_seconds"] + (time.time() - t0) < 600.0


# ---------------------------------------------------------------------------
# synthesis quality of the criterion-6 oracle model


def test_synthesized_centroids_land_nearest_their_own_class(oracle_bundle, oracle_runs):
    # after training on the oracle, each class's synthesized centroid
    # must sit closer to its own true cluster mean than to any other,
    # for at least 80% of classes
    trained = oracle_runs["full"][ORACLE_SEEDS.index(0)]
    feats, labels = synthesize_features(
        trained, oracle_bundle,
        SynthesisRequest(classes=oracle_bundle.all_classes, n_per_class=200, seed=1))
    true_means = oracle_class_means(ORACLE_SPEC)
    hits = 0
    for c in oracle_bundle.all_classes:
        centroid = feats[labels == c].mean(axis=0)
        dists = np.linalg.norm(true_means - centroid, axis=1)
        hits += int(np.argmin(dists) == c)
    assert hits >= 0.8 * len(oracle_bundle.all_classes)


# ---------------------------------------------------------------------------
# bit identity of the trained oracle against scripts/param_digest.expected


def test_oracle_seed_0_models_match_their_recorded_digests(oracle_runs):
    """Seed 0's ``full`` and ``baseline_single_gan`` models are the ones
    ``scripts/param_digest.py`` trains, so a change to training's rounding at
    oracle shape shows here as well as in that script's ``--check``."""
    param_digest = load_script("param_digest")
    path = os.path.join(os.path.dirname(param_digest.__file__), "param_digest.expected")
    want = param_digest.read_digests(path)
    note = param_digest.environment_note(
        param_digest.read_environment(path), param_digest.environment())
    seed_0 = ORACLE_SEEDS.index(0)
    for variant in ("full", "baseline_single_gan"):
        got = param_digest._sha256(oracle_runs[variant][seed_0].all_arrays())
        assert got == want[variant], f"{variant} {note}".rstrip()


# ---------------------------------------------------------------------------
# criterion 8 — determinism of command re-runs


def test_criterion_08_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dumps_json(cli_config(tmp_path / "run")))

    assert cli_main(["train", "--config", str(cfg)]) == 0
    first_ckpt = (tmp_path / "run" / "checkpoint.zip").read_bytes()
    assert cli_main(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "run" / "checkpoint.zip").read_bytes() == first_ckpt

    ckpt = str(tmp_path / "run" / "checkpoint.zip")
    assert cli_main(["evaluate", "--checkpoint", ckpt, "--out", str(tmp_path / "e1")]) == 0
    assert cli_main(["evaluate", "--checkpoint", ckpt, "--out", str(tmp_path / "e2")]) == 0
    assert (tmp_path / "e1" / "report.json").read_bytes() == \
        (tmp_path / "e2" / "report.json").read_bytes()
    assert (tmp_path / "e1" / "report.txt").read_bytes() == \
        (tmp_path / "e2" / "report.txt").read_bytes()

    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s1")]) == 0
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s2")]) == 0
    assert (tmp_path / "s1" / "curve.json").read_bytes() == \
        (tmp_path / "s2" / "curve.json").read_bytes()


# ---------------------------------------------------------------------------
# criterion 9 — documented-format dataset through train + evaluate


def test_criterion_09_documented_format_end_to_end(tmp_path):
    from gzslgen.data import DatasetBundle, save_dataset

    # a benchmark-shaped feature dump in the documented directory format
    rng = np.random.default_rng(8)
    k, l, n_seen, n_unseen, per = 128, 16, 8, 3, 20
    c_total = n_seen + n_unseen
    attributes = rng.uniform(0, 1, (c_total, l))
    proj = rng.uniform(0, 1, (k, l))
    means = attributes @ proj.T

    def draw(classes, n):
        feats = np.vstack([means[c] + 0.05 * rng.standard_normal((n, k)) for c in classes])
        return feats, np.repeat(classes, n)

    seen, unseen = np.arange(n_seen), np.arange(n_seen, c_total)
    train_x, train_y = draw(seen, per)
    ts_x, ts_y = draw(seen, 6)
    tu_x, tu_y = draw(unseen, 6)
    bundle = DatasetBundle(train_x, train_y, ts_x, ts_y, tu_x, tu_y,
                           attributes, tuple(seen), tuple(unseen))
    ds_dir = tmp_path / "benchmark"
    save_dataset(bundle, str(ds_dir))

    cfg = tmp_path / "cfg.json"
    cfg.write_text(dumps_json({
        "dataset": str(ds_dir),
        "train": {"batch_size": 32, "epochs": 3, "n1": 2, "n2": 2,
                  "hidden_dim": 32, "learning_rate": 1e-3, "beta2": 0.999,
                  "seed": 0, "pretrain_max_steps": 200},
        "eval": {"n_per_class": 30, "classifier_max_steps": 200},
        "out": str(tmp_path / "run"),
    }))
    assert cli_main(["train", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "run" / "checkpoint.zip"
    assert ckpt.exists()
    assert cli_main(["evaluate", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "run")]) == 0

    report = json.loads((tmp_path / "run" / "report.json").read_text())
    row = report["rows"][0]
    assert set(row) >= {"ts", "tr", "H", "per_class_acc"}
    assert 0.0 <= row["ts"] <= 1.0 and 0.0 <= row["tr"] <= 1.0
    table = (tmp_path / "run" / "report.txt").read_text()
    assert "ts" in table and "tr" in table and "H" in table
