import io
import json
import shutil
import warnings
import zipfile

import numpy as np
import pytest

from gzslgen import evaluation
from gzslgen.cli import main
from gzslgen.data import SyntheticSpec, load_dataset, make_synthetic_dataset, save_dataset
from gzslgen.matio import dumps_json


ORACLE_SPEC = {
    "n_seen_classes": 3, "n_unseen_classes": 2,
    "feature_dim": 12, "attribute_dim": 3,
    "samples_per_class": 12, "cluster_std": 0.08,
    "projection_seed": 4, "noise_seed": 5,
}


def write_config(path, out, **overrides):
    doc = {
        "synthetic": dict(ORACLE_SPEC),
        "train": {
            "batch_size": 18, "epochs": 4, "n1": 2, "n2": 2, "hidden_dim": 16,
            "learning_rate": 1e-3, "beta2": 0.999, "seed": 0,
        },
        "eval": {"n_per_class": 15, "counts": [5, 20]},
        "out": str(out),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in doc:
            doc[key].update(value)
        else:
            doc[key] = value
    path.write_text(dumps_json(doc))
    return path


class TestTrainCommand:
    def test_train_writes_checkpoint(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "checkpoint.zip").exists()
        assert (tmp_path / "run" / "train_log.jsonl").exists()
        assert (tmp_path / "run" / "config_effective.json").exists()

    def test_both_sources_rejected(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["synth-data", "--spec", str(write_spec(tmp_path)), "--out", str(ds)]) == 0
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run", dataset=str(ds))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "exactly one data source" in capsys.readouterr().err

    def test_lambda_defaults_applied_and_echoed(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 0
        echoed = json.loads((tmp_path / "run" / "config_effective.json").read_text())
        t = echoed["train"]
        assert t["lambda1"] == 10.0 and t["lambda4"] == 10.0
        assert t["lambda2"] == 0.01 and t["lambda3"] == 0.01 and t["lambda6"] == 0.01
        assert t["lambda5"] == 0.1

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run",
                           train={"learning_rte": 0.1})
        assert main(["train", "--config", str(cfg)]) == 2
        assert "learning_rte" in capsys.readouterr().err

    @pytest.mark.parametrize("section,value", [
        ("train", 5), ("eval", [1]), ("synthetic", 3),
    ], ids=["train", "eval", "synthetic"])
    def test_section_not_an_object(self, tmp_path, capsys, section, value):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run", **{section: value})
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"'{section}'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("5")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "JSON object" in capsys.readouterr().err

    # a None value deletes the field from the written config
    @pytest.mark.parametrize("section,update,name", [
        ("eval", {"counts": 5}, "eval.counts"),
        ("eval", {"counts": ["a"]}, "eval.counts"),
        ("eval", {"n_per_class": "3"}, "eval.n_per_class"),
        ("synthetic", {"cluster_std": None}, "synthetic.cluster_std"),
        ("synthetic", {"feature_dim": "8"}, "synthetic.feature_dim"),
        ("train", {"epochs": "1"}, "train.epochs"),
        ("train", {"learning_rate": "x"}, "train.learning_rate"),
        ("synthetic", {"projection_seed": -1}, "projection_seed"),
        ("synthetic", {"noise_seed": -1}, "noise_seed"),
        ("eval", {"seed": -1}, "eval.seed"),
        ("train", {"seed": -1}, "train.seed"),
        ("train", {"beta1": 1.0}, "train.beta1"),
        ("train", {"beta2": 1.0}, "train.beta2"),
        ("train", {"beta2": -0.5}, "train.beta2"),
        ("train", {"hidden_dim": 0}, "train.hidden_dim"),
        ("train", {"pretrain_max_steps": -5}, "train.pretrain_max_steps"),
        ("train", {"pretrain_grad_tol": -1e-5}, "train.pretrain_grad_tol"),
        ("eval", {"classifier_max_steps": -5}, "eval.classifier_max_steps"),
        ("eval", {"classifier_grad_tol": -1e-5}, "eval.classifier_grad_tol"),
        ("train", {"learning_rate": float("nan")}, "train.learning_rate"),
        ("train", {"learning_rate": float("inf")}, "train.learning_rate"),
        ("train", {"lambda1": float("nan")}, "train.lambda1"),
        ("train", {"lambda2": float("inf")}, "train.lambda2"),
        ("train", {"pretrain_grad_tol": float("nan")}, "train.pretrain_grad_tol"),
        ("eval", {"classifier_grad_tol": float("-inf")}, "eval.classifier_grad_tol"),
        ("synthetic", {"cluster_std": float("nan")}, "synthetic.cluster_std"),
    ], ids=["counts-int", "counts-str", "n_per_class-str", "cluster_std-missing",
            "feature_dim-str", "epochs-str", "learning_rate-str", "projection_seed-negative",
            "noise_seed-negative", "eval_seed-negative", "train_seed-negative", "beta1-one",
            "beta2-one", "beta2-negative", "hidden_dim-zero", "pretrain_max_steps-negative",
            "pretrain_grad_tol-negative", "classifier_max_steps-negative",
            "classifier_grad_tol-negative", "learning_rate-NaN", "learning_rate-Infinity",
            "lambda1-NaN", "lambda2-Infinity", "pretrain_grad_tol-NaN",
            "classifier_grad_tol--Infinity", "cluster_std-NaN"])
    def test_malformed_field_exits_two_naming_it(self, tmp_path, capsys, section, update, name):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run", **{section: update})
        doc = json.loads(cfg.read_text())
        doc[section] = {k: v for k, v in doc[section].items() if v is not None}
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()


def write_dataset_config(path, out, dataset):
    """``write_config`` with the synthetic source replaced by a directory."""
    doc = json.loads(write_config(path, out).read_text())
    del doc["synthetic"]
    path.write_text(dumps_json({**doc, "dataset": str(dataset)}))
    return path


def zip_with_meta(text):
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("meta.json", text)
    return buf.getvalue()


def write_spec(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(dumps_json(ORACLE_SPEC))
    return spec


class TestSynthDataCommand:
    def test_round_trip_through_loader(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["synth-data", "--spec", str(write_spec(tmp_path)), "--out", str(out)]) == 0
        bundle = load_dataset(str(out))
        assert bundle.visual_train.shape == (36, 12)
        assert bundle.attributes.shape == (5, 3)

    def test_missing_spec_file(self, tmp_path, capsys):
        assert main(["synth-data", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "ds")]) == 2
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize("update,name", [
        ({"feature_dim": "8"}, "spec.feature_dim"),
        ({"cluster_std": None}, "spec.cluster_std"),
    ], ids=["feature_dim-str", "cluster_std-missing"])
    def test_malformed_field_exits_two_naming_it(self, tmp_path, capsys, update, name):
        doc = {k: v for k, v in {**ORACLE_SPEC, **update}.items() if v is not None}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["synth-data", "--spec", str(spec), "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err


class TestEvaluateCommand:
    def test_evaluate_after_train(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "checkpoint.zip"
        assert main(["evaluate", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 0
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        row = report["rows"][0]
        assert set(row) >= {"run", "ts", "tr", "H"}
        assert (tmp_path / "eval" / "report.txt").exists()

    def test_missing_checkpoint(self, tmp_path, capsys):
        assert main(["evaluate", "--checkpoint", str(tmp_path / "no.zip"),
                     "--out", str(tmp_path / "eval")]) == 2
        assert "no.zip" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"not a zip archive", zip_with_meta("{not json"), zip_with_meta("[1]"),
    ], ids=["not_zip", "not_json", "not_object"])
    def test_corrupt_checkpoint(self, tmp_path, capsys, content):
        ckpt = tmp_path / "checkpoint.zip"
        ckpt.write_bytes(content)
        assert main(["evaluate", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 2
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.parametrize("section,value", [
        (None, 5), ("train", 5), ("eval", [1]), ("synthetic", 3),
    ], ids=["run_config", "train", "eval", "synthetic"])
    def test_checkpoint_run_config_not_an_object(self, tmp_path, capsys, section, value):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "checkpoint.zip"
        with zipfile.ZipFile(ckpt) as zf:
            entries = {name: zf.read(name) for name in zf.namelist()}
        meta = json.loads(entries["meta.json"])
        if section is None:
            meta["run_config"] = value
        else:
            meta["run_config"][section] = value
        with zipfile.ZipFile(ckpt, "w") as zf:
            for name, data in entries.items():
                zf.writestr(name, dumps_json(meta) if name == "meta.json" else data)
        assert main(["evaluate", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "run_config" in err
        if section is not None:
            assert f"'{section}'" in err

    @pytest.mark.parametrize("spec,quantity", [
        ({"attribute_dim": 6}, "attribute_dim"),
        ({"feature_dim": 10}, "feature_dim"),
        ({"n_seen_classes": 4}, "seen-class count"),
    ], ids=["attribute_dim", "feature_dim", "seen_classes"])
    def test_dataset_of_other_shape_is_named(self, tmp_path, capsys, spec, quantity):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "checkpoint.zip"
        other = write_config(tmp_path / "other.json", tmp_path / "eval", synthetic=spec)
        assert main(["evaluate", "--checkpoint", str(ckpt), "--config", str(other)]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and quantity in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("field", ["feature_dim", "attribute_dim"])
    def test_zero_width_dataset_exits_two_naming_the_field(self, tmp_path, capsys, field):
        ds = tmp_path / "ds"
        assert main(["synth-data", "--spec", str(write_spec(tmp_path)), "--out", str(ds)]) == 0
        bundle = load_dataset(str(ds))
        arrays = ("attributes",) if field == "attribute_dim" else (
            "visual_train", "visual_test_seen", "visual_test_unseen")
        for name in arrays:  # a self-consistent directory of zero-width rows
            setattr(bundle, name, getattr(bundle, name)[:, :0])
        save_dataset(bundle, str(ds))
        assert json.loads((ds / "meta.json").read_text())[field] == 0
        cfg = write_dataset_config(tmp_path / "cfg.json", tmp_path / "run", ds)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(ds / "meta.json") in err and field in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_config_follows_a_moved_dataset(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["synth-data", "--spec", str(write_spec(tmp_path)), "--out", str(ds)]) == 0
        cfg = write_dataset_config(tmp_path / "cfg.json", tmp_path / "run", ds)
        assert main(["train", "--config", str(cfg)]) == 0
        moved = tmp_path / "moved"
        ds.rename(moved)
        new_cfg = write_dataset_config(tmp_path / "new.json", tmp_path / "run", moved)
        assert main(["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint.zip"),
                     "--config", str(new_cfg), "--out", str(tmp_path / "eval")]) == 0
        assert (tmp_path / "eval" / "report.json").exists()
        # training on the directory's old place still fails cleanly
        out = tmp_path / "run_missing"
        assert main(["train", "--config", str(write_dataset_config(
            tmp_path / "old.json", out, ds))]) == 2
        assert str(ds) in capsys.readouterr().err
        assert not out.exists()


class TestAblateAndSweep:
    def test_ablate_default_variants_emit_five_rows(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run",
                           train={"epochs": 2}, eval={"n_per_class": 8})
        assert main(["ablate", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert len(report["rows"]) == 5
        names = [r["run"] for r in report["rows"]]
        assert names == ["full", "no_SC", "no_VC", "dual_only", "baseline_single_gan"]

    def test_sweep_curve(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run")
        assert main(["sweep", "--config", str(cfg)]) == 0
        curve = json.loads((tmp_path / "run" / "curve.json").read_text())
        assert [p["n_per_class"] for p in curve["curve"]] == [5, 20]

    def test_ablate_unknown_variant_exits_two_before_writing(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run")
        assert main(["ablate", "--config", str(cfg), "--variants", "full,nope"]) == 2
        assert "'nope'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("counts", [[0], [5, -1], []], ids=["zero", "negative", "empty"])
    def test_sweep_rejects_counts_before_writing(self, tmp_path, capsys, counts):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run", eval={"counts": counts})
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "eval.counts" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def dataset_without_rows(tmp_path, *drops):
    """The oracle dataset directory without, for each ``(split, cls)`` of
    ``drops``, class ``cls``'s rows of ``split``."""
    ds = tmp_path / "ds"
    assert main(["synth-data", "--spec", str(write_spec(tmp_path)), "--out", str(ds)]) == 0
    bundle = load_dataset(str(ds))
    for split, cls in drops:
        keep = getattr(bundle, f"labels_{split}") != cls
        for name in (f"visual_{split}", f"labels_{split}"):
            setattr(bundle, name, getattr(bundle, name)[keep])
    save_dataset(bundle, str(ds))
    return ds


class TestMissingRows:
    """A dataset without the rows a command needs exits 2, naming the classes,
    before the command writes anything or trains."""

    @pytest.mark.parametrize("command,split,cls,kind", [
        ("train", "train", 1, "training"),
        ("sweep", "test_seen", 2, "test"),
        ("ablate", "test_unseen", 4, "test"),
    ])
    def test_exits_two_before_any_output(self, tmp_path, capsys, command, split, cls, kind):
        ds = dataset_without_rows(tmp_path, (split, cls))
        cfg = write_dataset_config(tmp_path / "cfg.json", tmp_path / "run", ds)
        assert main([command, "--config", str(cfg)]) == 2
        assert f"classes without {kind} rows: [{cls}]" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_evaluate_exits_two_before_the_fit(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 0
        ds = dataset_without_rows(tmp_path, ("test_seen", 2), ("test_unseen", 4))
        eval_cfg = write_dataset_config(tmp_path / "eval.json", tmp_path / "eval", ds)

        def no_fit(*args, **kwargs):
            raise AssertionError("the final classifier was fitted")

        monkeypatch.setattr(evaluation, "fit_gzsl_classifier", no_fit)
        assert main(["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint.zip"),
                     "--config", str(eval_cfg)]) == 2
        assert "classes without test rows: [2, 4]" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_normalize_without_training_rows(self, tmp_path, capsys):
        # the train-split rescale must not reduce over zero rows
        ds = dataset_without_rows(tmp_path, *(("train", c) for c in range(3)))
        cfg = write_dataset_config(tmp_path / "cfg.json", tmp_path / "run", ds)
        cfg.write_text(dumps_json({**json.loads(cfg.read_text()), "normalize": True}))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "classes without training rows: [0, 1, 2]" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def dataset_on_one_side(tmp_path, empty):
    """The oracle dataset directory with every class moved off the side whose
    class list ``empty`` names, each row kept in a split that side allows."""
    ds = tmp_path / "ds"
    assert main(["synth-data", "--spec", str(write_spec(tmp_path)), "--out", str(ds)]) == 0
    b = load_dataset(str(ds))
    everything = b.all_classes
    test_x = np.vstack([b.visual_test_seen, b.visual_test_unseen])
    test_y = np.concatenate([b.labels_test_seen, b.labels_test_unseen])
    none_x, none_y = test_x[:0], test_y[:0]
    if empty == "seen_classes":
        b.seen_classes, b.unseen_classes = (), everything
        b.visual_train, b.labels_train = none_x, none_y
        b.visual_test_seen, b.labels_test_seen = none_x, none_y
        b.visual_test_unseen, b.labels_test_unseen = test_x, test_y
    else:
        b.seen_classes, b.unseen_classes = everything, ()
        b.visual_train = np.vstack([b.visual_train, b.visual_test_unseen])
        b.labels_train = np.concatenate([b.labels_train, b.labels_test_unseen])
        b.visual_test_seen, b.labels_test_seen = test_x, test_y
        b.visual_test_unseen, b.labels_test_unseen = none_x, none_y
    save_dataset(b, str(ds))
    return ds


@pytest.mark.parametrize("field", ["seen_classes", "unseen_classes"])
def test_empty_class_list_is_named(tmp_path, capsys, field):
    ds = dataset_on_one_side(tmp_path, field)
    cfg = write_dataset_config(tmp_path / "cfg.json", tmp_path / "run", ds)
    assert main(["train", "--config", str(cfg)]) == 2
    assert f"{field} must list at least one class" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


class TestExportViz:
    def test_export_counts(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "checkpoint.zip"
        out = tmp_path / "viz"
        assert main(["export-viz", "--checkpoint", str(ckpt), "--classes", "3,4",
                     "--n-per-class", "10", "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        # 12 real test rows per unseen class plus 10 synthesized per class
        assert meta["n_real"] == 24
        assert meta["n_synth"] == 20
        assert meta["n_rows"] == 44
        feats = np.fromfile(out / "viz_features.f32", dtype="<f4")
        assert feats.size == 44 * 12
        source = np.fromfile(out / "viz_source.i32", dtype="<i4")
        assert source.sum() == 20

    def test_dataset_of_other_shape_is_named(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["synth-data", "--spec", str(write_spec(tmp_path)), "--out", str(ds)]) == 0
        cfg = write_dataset_config(tmp_path / "cfg.json", tmp_path / "run", ds)
        assert main(["train", "--config", str(cfg)]) == 0
        # the directory the embedded run config names now holds wider attributes
        shutil.rmtree(ds)
        wide = tmp_path / "wide.json"
        wide.write_text(dumps_json({**ORACLE_SPEC, "attribute_dim": 5}))
        assert main(["synth-data", "--spec", str(wide), "--out", str(ds)]) == 0
        ckpt = tmp_path / "run" / "checkpoint.zip"
        out = tmp_path / "viz"
        assert main(["export-viz", "--checkpoint", str(ckpt), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "attribute_dim" in err
        assert not out.exists()

    @staticmethod
    def trained_checkpoint(tmp_path, **overrides):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run", **overrides)
        assert main(["train", "--config", str(cfg)]) == 0
        return str(tmp_path / "run" / "checkpoint.zip")

    def test_seen_and_unseen_classes_in_request_order(self, tmp_path):
        ckpt = self.trained_checkpoint(tmp_path)
        out = tmp_path / "viz"
        assert main(["export-viz", "--checkpoint", ckpt, "--classes", "0,3",
                     "--n-per-class", "10", "--out", str(out)]) == 0
        bundle = make_synthetic_dataset(SyntheticSpec(**ORACLE_SPEC))
        # class 0 is seen and class 3 unseen: each exports its own test split's rows
        real = [bundle.visual_test_seen[bundle.labels_test_seen == 0],
                bundle.visual_test_unseen[bundle.labels_test_unseen == 3]]
        n0, n3 = (len(rows) for rows in real)
        assert n0 > 0 and n3 > 0
        feats = np.fromfile(out / "viz_features.f32", dtype="<f4").reshape(-1, 12)
        assert np.array_equal(feats[: n0 + n3], np.vstack(real).astype("<f4"))
        labels = np.fromfile(out / "viz_labels.i32", dtype="<i4")
        assert labels.tolist() == [0] * n0 + [3] * n3 + [0] * 10 + [3] * 10
        source = np.fromfile(out / "viz_source.i32", dtype="<i4")
        assert source.tolist() == [0] * (n0 + n3) + [1] * 20
        meta = json.loads((out / "meta.json").read_text())
        assert meta["classes"] == [0, 3]
        assert (meta["n_real"], meta["n_synth"]) == (n0 + n3, 20)

    def test_class_outside_the_dataset_exits_two(self, tmp_path, capsys):
        ckpt = self.trained_checkpoint(tmp_path)
        out = tmp_path / "viz"
        assert main(["export-viz", "--checkpoint", ckpt, "--classes", "3,9",
                     "--out", str(out)]) == 2
        assert "class 9 is not part of the dataset" in capsys.readouterr().err
        assert not out.exists()

    def test_default_classes_are_the_first_three_unseen(self, tmp_path):
        ckpt = self.trained_checkpoint(tmp_path, synthetic={"n_unseen_classes": 4})
        out = tmp_path / "viz"
        assert main(["export-viz", "--checkpoint", ckpt, "--n-per-class", "2",
                     "--out", str(out)]) == 0
        # seen classes 0..2, unseen 3..6
        assert json.loads((out / "meta.json").read_text())["classes"] == [3, 4, 5]

    def test_malformed_classes_exit_two_naming_the_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "checkpoint.zip"
        out = tmp_path / "viz"
        assert main(["export-viz", "--checkpoint", str(ckpt), "--classes", "a",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--classes" in err and "Traceback" not in err
        assert not out.exists()


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.json", tmp_path / "run_a")
        cfg_b = write_config(tmp_path / "b.json", tmp_path / "run_b")
        assert main(["train", "--config", str(cfg_a)]) == 0
        assert main(["train", "--config", str(cfg_b)]) == 0
        bytes_a = (tmp_path / "run_a" / "checkpoint.zip").read_bytes()
        bytes_b = (tmp_path / "run_b" / "checkpoint.zip").read_bytes()
        assert bytes_a != b""
        # out dir differs inside the archived config; params must match exactly
        from gzslgen.config import load_checkpoint
        pa, _ = load_checkpoint(str(tmp_path / "run_a" / "checkpoint.zip"))
        pb, _ = load_checkpoint(str(tmp_path / "run_b" / "checkpoint.zip"))
        for x, y in zip(pa.all_arrays(), pb.all_arrays()):
            assert np.array_equal(x, y)

    def test_config_roundtrip_reruns_identically(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 0
        first = (tmp_path / "run" / "checkpoint.zip").read_bytes()
        echoed = tmp_path / "run" / "config_effective.json"
        assert main(["train", "--config", str(echoed)]) == 0
        second = (tmp_path / "run" / "checkpoint.zip").read_bytes()
        assert first == second

    def test_same_out_dir_same_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "checkpoint.zip"
        first = ckpt.read_bytes()
        assert main(["train", "--config", str(cfg)]) == 0
        assert ckpt.read_bytes() == first

    def test_train_log_steps_are_byte_identical_without_timing(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run")
        logs = []
        for _ in range(2):
            assert main(["train", "--config", str(cfg)]) == 0
            lines = (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()
            steps = [json.loads(line) for line in lines[1:]]
            assert all(set(rec["timing"]) == {"wall_time"} for rec in steps)
            assert not any("wall_time" in rec for rec in steps)
            logs.append([json.dumps({k: v for k, v in rec.items() if k != "timing"},
                                    sort_keys=True) for rec in steps])
        assert len(logs[0]) > 0 and logs[0] == logs[1]

    def test_evaluate_is_idempotent(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = str(tmp_path / "run" / "checkpoint.zip")
        assert main(["evaluate", "--checkpoint", ckpt, "--out", str(tmp_path / "e1")]) == 0
        assert main(["evaluate", "--checkpoint", ckpt, "--out", str(tmp_path / "e2")]) == 0
        assert (tmp_path / "e1" / "report.json").read_bytes() == \
            (tmp_path / "e2" / "report.json").read_bytes()


class TestSeedOverride:
    @pytest.mark.parametrize("flag,value,field", [
        ("--seed", "9", "seed"), ("--seed", "7", "seed"), ("--variant", "no_SC", "variant"),
    ], ids=["seed-9", "seed-7", "variant"])
    def test_flag_beats_file(self, tmp_path, flag, value, field):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run",
                           train={"seed": 1, "variant": "full"})
        assert main(["train", "--config", str(cfg), flag, value]) == 0
        echoed = json.loads((tmp_path / "run" / "config_effective.json").read_text())
        assert str(echoed["train"][field]) == value

    def test_negative_seed_flag_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run")
        assert main(["train", "--config", str(cfg), "--seed", "-1"]) == 2
        assert "train.seed" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def evaluate_argv(tmp_path, n_per_class):
    cfg = write_config(tmp_path / "cfg.json", tmp_path / "run", train={"epochs": 1})
    assert main(["train", "--config", str(cfg)]) == 0
    return ["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint.zip"),
            "--n-per-class", str(n_per_class), "--out", str(tmp_path / "eval")]


def synth_data_argv(tmp_path, feature_dim):
    spec = tmp_path / "spec.json"
    spec.write_text(dumps_json({**ORACLE_SPEC, "feature_dim": feature_dim}))
    return ["synth-data", "--spec", str(spec), "--out", str(tmp_path / "ds")]


def train_argv(tmp_path, hidden_dim):
    cfg = write_config(tmp_path / "cfg.json", tmp_path / "run",
                       train={"epochs": 1, "hidden_dim": hidden_dim})
    return ["train", "--config", str(cfg)]


class TestRuntimeFailures:
    def test_divergence_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run",
                           train={"learning_rate": 1e150, "epochs": 3})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # intentional blow-up
            code = main(["train", "--config", str(cfg)])
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    # sizes no host grants, none of them allocated: 10**13 rows per class ask
    # for hundreds of TiB (MemoryError); the others are refused by numpy as
    # too big for any array (ValueError) or for a C long (OverflowError)
    @pytest.mark.parametrize("argv,size", [
        (evaluate_argv, 10**13),
        (evaluate_argv, 10**20),
        (synth_data_argv, 2**62),
        (train_argv, 2**62),
    ], ids=["evaluate-rows", "evaluate-overflow", "synth-data-feature-dim",
            "train-hidden-dim"])
    def test_out_of_memory_exits_three(self, tmp_path, capsys, argv, size):
        args = argv(tmp_path, size)
        capsys.readouterr()
        code = main(args)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("out of memory: ") and err.count("\n") == 1
