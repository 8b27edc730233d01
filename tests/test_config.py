import numpy as np
import pytest

from gzslgen.config import (
    RunConfig,
    effective_dict,
    load_checkpoint,
    parse_run_config,
    save_checkpoint,
)
from gzslgen.data import SyntheticSpec, make_synthetic_dataset
from gzslgen.errors import TrainingDiverged, ValidationError
from gzslgen.evaluation import evaluate_gzsl
from gzslgen.trainer import OptimizerConfig, TrainConfig, train


def tiny_run_config(out="run"):
    return parse_run_config({
        "synthetic": {"n_seen_classes": 2, "n_unseen_classes": 1,
                      "feature_dim": 8, "attribute_dim": 2,
                      "samples_per_class": 8, "cluster_std": 0.05,
                      "projection_seed": 1, "noise_seed": 2},
        "train": {"batch_size": 8, "epochs": 2, "n1": 1, "n2": 1,
                  "hidden_dim": 8, "learning_rate": 1e-3, "seed": 0},
        "eval": {"n_per_class": 6},
        "out": out,
    })


class TestRunConfigParsing:
    def test_defaults_fill_in(self):
        cfg = tiny_run_config()
        assert cfg.train.weights.lambda1 == 10.0
        assert cfg.train.weights.lambda5 == 0.1
        assert cfg.train.n1 == 1  # explicit value kept
        assert cfg.train.optimizer.beta1 == 0.5
        assert cfg.eval.include_real_seen is True

    def test_exactly_one_source(self):
        with pytest.raises(ValidationError, match="exactly one data source"):
            parse_run_config({"out": "x"})

    def test_unknown_keys_named(self):
        with pytest.raises(ValidationError, match="lambda9"):
            parse_run_config({
                "synthetic": {"n_seen_classes": 1, "n_unseen_classes": 1,
                              "feature_dim": 4, "attribute_dim": 2,
                              "samples_per_class": 2, "cluster_std": 0.1},
                "train": {"lambda9": 1.0},
                "out": "x",
            })

    def test_overrides_beat_file(self):
        doc = {
            "synthetic": {"n_seen_classes": 1, "n_unseen_classes": 1,
                          "feature_dim": 4, "attribute_dim": 2,
                          "samples_per_class": 2, "cluster_std": 0.1},
            "train": {"seed": 1, "variant": "full"},
            "out": "x",
        }
        cfg = parse_run_config(doc, overrides={"seed": 7, "variant": "no_SC"})
        assert cfg.train.seed == 7
        assert cfg.train.variant == "no_SC"

    def test_effective_dict_round_trips(self):
        cfg = tiny_run_config()
        doc = effective_dict(cfg)
        again = parse_run_config(doc)
        assert effective_dict(again) == doc


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        cfg = tiny_run_config(out=str(tmp_path))
        bundle = cfg.resolve_bundle()
        model, _ = train(bundle, cfg.train)
        path = str(tmp_path / "checkpoint.zip")
        save_checkpoint(path, model, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        for a, b in zip(model.all_arrays(), loaded.all_arrays()):
            assert np.array_equal(a, b)
        assert loaded.g_sv.shape.output_activation == "relu"
        assert loaded_cfg.train.seed == cfg.train.seed

    def test_reload_evaluates_identically(self, tmp_path):
        cfg = tiny_run_config(out=str(tmp_path))
        bundle = cfg.resolve_bundle()
        model, _ = train(bundle, cfg.train)
        path = str(tmp_path / "checkpoint.zip")
        save_checkpoint(path, model, cfg)
        loaded, _ = load_checkpoint(path)
        a = evaluate_gzsl(model, bundle, cfg.eval)
        b = evaluate_gzsl(loaded, bundle, cfg.eval)
        assert a.to_dict() == b.to_dict()

    def test_identical_params_identical_bytes(self, tmp_path):
        cfg = tiny_run_config(out=str(tmp_path))
        bundle = cfg.resolve_bundle()
        model, _ = train(bundle, cfg.train)
        p1, p2 = str(tmp_path / "a.zip"), str(tmp_path / "b.zip")
        save_checkpoint(p1, model, cfg)
        save_checkpoint(p2, model, cfg)
        assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # intentional blow-up
def test_divergence_names_term_and_iteration():
    bundle = make_synthetic_dataset(
        SyntheticSpec(2, 1, 8, 2, 8, 0.05, projection_seed=1, noise_seed=2))
    config = TrainConfig(batch_size=8, epochs=5, hidden_dim=8,
                         optimizer=OptimizerConfig(learning_rate=1e150), seed=0)
    with pytest.raises(TrainingDiverged, match=r"iteration \d+"):
        train(bundle, config)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # intentional blow-up
def test_divergence_in_pretrain_names_the_pretrain():
    bundle = make_synthetic_dataset(
        SyntheticSpec(2, 1, 8, 2, 8, 0.05, projection_seed=1, noise_seed=2))
    config = TrainConfig(batch_size=8, epochs=5, hidden_dim=8, pretrain_lr=1e308, seed=0)
    with pytest.raises(TrainingDiverged, match="classifier after its pretrain") as exc:
        train(bundle, config)
    assert "d_v" not in str(exc.value)
