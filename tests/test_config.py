import hashlib
import re
import struct
import zipfile

import numpy as np
import pytest

from gzslgen import losses
from gzslgen.config import (
    effective_dict,
    load_checkpoint,
    parse_run_config,
    save_checkpoint,
)
from gzslgen.data import SyntheticSpec, make_synthetic_dataset
from gzslgen.cli import main
from gzslgen.errors import FormatError, TrainingDiverged, ValidationError
from gzslgen.networks import NETWORKS, init_params
from gzslgen.matio import write_archive
from gzslgen.trainer import OptimizerConfig, TrainConfig, train

from helpers import archive_contents


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


# every removed run-config option, with the default older versions echoed
RETIRED_KEYS = [
    ("train", "separate_critic_batches", False),
    ("train", "resample_critic_noise", True),
    ("train", "noise_dim", None),
    ("train", "baseline_cls_loss", True),
    ("train", "pretrain_lr", 1.0),
    ("train", "negative_slope", 0.2),
    ("train", "gvs_output_activation", "relu"),
    ("train", "eps", 1e-8),
    ("eval", "classifier_lr", 1.0),
]


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

    def test_integer_given_for_a_float_echoes_as_a_float(self):
        doc = effective_dict(tiny_run_config())
        doc["synthetic"]["cluster_std"] = 1
        doc["eval"]["classifier_grad_tol"] = 0
        echoed = effective_dict(parse_run_config(doc))
        assert repr(echoed["synthetic"]["cluster_std"]) == "1.0"
        assert repr(echoed["eval"]["classifier_grad_tol"]) == "0.0"

    def test_effective_dict_round_trips(self):
        cfg = tiny_run_config()
        doc = effective_dict(cfg)
        again = parse_run_config(doc)
        assert effective_dict(again) == doc

    def test_settable_value_count(self):
        # a new run-config setting must show up here as an edit to this number
        def leaves(doc, prefix=()):
            for key, value in doc.items():
                if isinstance(value, dict):
                    yield from leaves(value, prefix + (key,))
                else:
                    yield prefix + (key,)

        synthetic = effective_dict(tiny_run_config())
        dataset = effective_dict(parse_run_config({"dataset": "ds"}))
        paths = set(leaves(synthetic)) | set(leaves(dataset))
        sections = [p[0] for p in paths]
        assert [sections.count(s) for s in ("synthetic", "train", "eval")] == [8, 19, 6]
        assert len(paths) == 36


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
        # the shapes too, so the loaded model computes as the saved one
        for name in NETWORKS:
            assert getattr(loaded, name).shape == getattr(model, name).shape
        assert loaded.g_sv.shape.output_activation == "relu"
        assert loaded_cfg.train.seed == cfg.train.seed

    @pytest.mark.parametrize("section,key,old_default", RETIRED_KEYS,
                             ids=[f"{s}.{k}" for s, k, _ in RETIRED_KEYS])
    def test_older_checkpoint_with_retired_key_loads(self, tmp_path, section, key, old_default):
        cfg = tiny_run_config(out=str(tmp_path))
        model, _ = train(cfg.resolve_bundle(), cfg.train)
        path = str(tmp_path / "checkpoint.zip")
        save_checkpoint(path, model, cfg)
        meta, arrays = archive_contents(path)
        meta["run_config"][section][key] = old_default
        write_archive(path, meta, arrays)
        loaded, loaded_cfg = load_checkpoint(path)
        for a, b in zip(model.all_arrays(), loaded.all_arrays()):
            assert np.array_equal(a, b)
        assert effective_dict(loaded_cfg) == effective_dict(cfg)
        # a run config that still names the key is rejected, not ignored
        with pytest.raises(ValidationError, match=f"unknown {section} field.*{key}"):
            parse_run_config(meta["run_config"])

    def test_older_checkpoint_with_normalize_beside_synthetic_loads(self, tmp_path):
        # that pair was accepted and ignored before the run config rejected it
        cfg = tiny_run_config(out=str(tmp_path))
        path = str(tmp_path / "checkpoint.zip")
        save_checkpoint(path, init_params(8, 2, 2, seed=0, hidden_dim=8), cfg)
        meta, arrays = archive_contents(path)
        meta["run_config"]["normalize"] = True
        write_archive(path, meta, arrays)
        assert load_checkpoint(path)[1].normalize is False

    @pytest.mark.parametrize("keys", [
        ("network_shapes", "d_v", "negative_slope"),
        ("network_shapes", "g_vs"),
        ("array_shapes", "cls_w"),
        ("array_shapes",),
        ("run_config",),
        ("version",),
    ], ids=".".join)
    def test_missing_metadata_key_is_named(self, tmp_path, capsys, keys):
        cfg = tiny_run_config(out=str(tmp_path))
        model, _ = train(cfg.resolve_bundle(), cfg.train)
        path = str(tmp_path / "checkpoint.zip")
        save_checkpoint(path, model, cfg)
        meta, arrays = archive_contents(path)
        parent = meta
        for key in keys[:-1]:
            parent = parent[key]
        del parent[keys[-1]]
        write_archive(path, meta, arrays)
        dotted = ".".join(keys)
        with pytest.raises(FormatError, match=f"missing {dotted}$"):
            load_checkpoint(path)
        assert main(["evaluate", "--checkpoint", path, "--out", str(tmp_path / "eval")]) == 2
        assert dotted in capsys.readouterr().err

    # a network's shape is checked before a network of that shape is allocated;
    # the seen-class classifier must be [K, n] and [n], K being g_sv's output width
    @pytest.mark.parametrize("keys,value", [
        (("network_shapes", "d_s", "output_activation"), "tanh"),
        (("network_shapes", "d_s", "hidden_dim"), 10**9),
        (("network_shapes", "d_s", "negative_slope"), 1.5),
        (("network_shapes", "d_s", "negative_slope"), -0.1),
        (("array_shapes", "cls_w"), [16]),
        (("array_shapes", "cls_w"), [2, 8]),
        (("array_shapes", "cls_b"), [1, 2]),
        (("version",), 2),
    ], ids=["output_activation", "hidden_dim", "slope-above-one", "slope-negative",
            "cls_w-flat", "cls_w-transposed", "cls_b-matrix", "version-2"])
    def test_malformed_network_shape_is_named(self, tmp_path, capsys, keys, value):
        cfg = tiny_run_config(out=str(tmp_path))
        model, _ = train(cfg.resolve_bundle(), cfg.train)
        path = str(tmp_path / "checkpoint.zip")
        save_checkpoint(path, model, cfg)
        meta, arrays = archive_contents(path)
        assert (meta["array_shapes"]["cls_w"], meta["array_shapes"]["cls_b"]) == ([8, 2], [2])
        parent = meta
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        write_archive(path, meta, arrays)
        named = ".".join(keys[:2])
        with pytest.raises(FormatError, match=named):
            load_checkpoint(path)
        assert main(["evaluate", "--checkpoint", path, "--out", str(tmp_path / "eval")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,bound", [
        ("negative_slope", 1.5, r"in \[0, 1\]"),
        ("hidden_dim", 0, ">= 1"),
        ("output_activation", "tanh", r"one of \('relu', 'none'\)"),
    ], ids=["negative_slope", "hidden_dim", "output_activation"])
    def test_shape_out_of_bound_names_field_and_value(self, tmp_path, capsys, field, value, bound):
        cfg = tiny_run_config(out=str(tmp_path))
        path = str(tmp_path / "checkpoint.zip")
        save_checkpoint(path, init_params(8, 2, 2, seed=0, hidden_dim=8), cfg)
        meta, arrays = archive_contents(path)
        meta["network_shapes"]["d_s"][field] = value
        write_archive(path, meta, arrays)
        named = rf"network_shapes\.d_s\.{field} must be {bound}, got {value!r}$"
        with pytest.raises(FormatError, match=rf"^{re.escape(path)}: checkpoint metadata: {named}"):
            load_checkpoint(path)
        assert main(["evaluate", "--checkpoint", path, "--out", str(tmp_path / "eval")]) == 2
        assert re.search(named, capsys.readouterr().err.strip())

    def test_round_trip_keeps_special_values_bit_for_bit(self, tmp_path):
        cfg = tiny_run_config(out=str(tmp_path))
        model = init_params(8, 2, 2, seed=0, hidden_dim=8)
        special = np.array([-0.0, 5e-324, 2.2e-310, -1e-310, np.inf, -np.inf])
        for arr in model.all_arrays():
            n = min(arr.size, special.size)
            arr.flat[:n] = special[:n]
        path = str(tmp_path / "checkpoint.zip")
        save_checkpoint(path, model, cfg)
        loaded, _ = load_checkpoint(path)
        for a, b in zip(model.all_arrays(), loaded.all_arrays()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_corrupted_payload_fails_its_crc(self, tmp_path, capsys):
        cfg = tiny_run_config(out=str(tmp_path))
        model, _ = train(cfg.resolve_bundle(), cfg.train)
        path = str(tmp_path / "checkpoint.zip")
        save_checkpoint(path, model, cfg)
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("g_sv_w1.f64")
        data = bytearray(open(path, "rb").read())
        # the payload follows the 30-byte local header, the member's name and its extra field
        name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
        data[info.header_offset + 30 + name_len + extra_len + info.file_size // 2] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError, match="CRC"):
            load_checkpoint(path)
        assert main(["evaluate", "--checkpoint", path, "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert path in err and "CRC" in err

    # a save killed part-way through an in-place overwrite leaves the first
    # bytes of the new archive over the old one: same shapes, other values
    @pytest.mark.parametrize("share", [0.1, 0.5, 0.9])
    def test_torn_in_place_save_fails_its_crc(self, tmp_path, capsys, share):
        cfg = tiny_run_config(out=str(tmp_path))
        path, new = str(tmp_path / "checkpoint.zip"), str(tmp_path / "new.zip")
        save_checkpoint(path, init_params(8, 2, 2, seed=0, hidden_dim=8), cfg)
        save_checkpoint(new, init_params(8, 2, 2, seed=1, hidden_dim=8), cfg)
        data = open(new, "rb").read()
        with open(path, "r+b") as fh:
            fh.write(data[: int(share * len(data))])
        with pytest.raises(FormatError, match="CRC"):
            load_checkpoint(path)
        assert main(["evaluate", "--checkpoint", path, "--out", str(tmp_path / "eval")]) == 2
        assert "CRC" in capsys.readouterr().err

    # a member's size is checked against its declared shape before anything of
    # that shape is allocated
    @pytest.mark.parametrize("name", ["d_v_b1", "cls_w"])
    def test_member_one_value_short_is_named(self, tmp_path, capsys, name):
        cfg = tiny_run_config(out=str(tmp_path))
        model, _ = train(cfg.resolve_bundle(), cfg.train)
        path = str(tmp_path / "checkpoint.zip")
        save_checkpoint(path, model, cfg)
        meta, arrays = archive_contents(path)
        arrays[name] = arrays[name].ravel()[:-1]
        write_archive(path, meta, arrays)
        with pytest.raises(FormatError, match=f"{name} .*payload holds {arrays[name].size} values"):
            load_checkpoint(path)
        assert main(["evaluate", "--checkpoint", path, "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert path in err and name in err

    def test_member_with_a_partial_value_is_named(self, tmp_path, capsys):
        cfg = tiny_run_config(out=str(tmp_path))
        path = str(tmp_path / "checkpoint.zip")
        save_checkpoint(path, init_params(8, 2, 2, seed=0, hidden_dim=8), cfg)
        with zipfile.ZipFile(path) as zf:
            entries = {name: zf.read(name) for name in zf.namelist()}
        entries["d_v_b1.f64"] = entries["d_v_b1.f64"][:-3]
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in entries.items():
                zf.writestr(name, data)
        with pytest.raises(FormatError, match="d_v_b1 .*payload holds 7.625 values"):
            load_checkpoint(path)
        assert main(["evaluate", "--checkpoint", path, "--out", str(tmp_path / "eval")]) == 2
        assert "d_v_b1" in capsys.readouterr().err


# SHA-256 of write_archive's output for these inputs, which pins the archive
# format: a transposed view and a float32 array are written as C-order <f8
ARCHIVE_SHA256 = "5d5c862917b92c373661e879f14b8739e13053d6b88e5c54fe5e57ea5a6558f5"


# the archive is written in place, so a longer file already at the path must
# not leave its tail behind
@pytest.mark.parametrize("held", [None, b"\xff" * (1 << 20)], ids=["fresh-path", "longer-file"])
def test_archive_bytes_are_frozen(tmp_path, held):
    meta = {"format": "frozen", "shapes": {"c": [2, 2], "t": [3, 2], "f": [3]}}
    arrays = {
        "c": np.array([[1.5, -0.0], [np.inf, 5e-324]]),
        "t": np.arange(6.0).reshape(2, 3).T,
        "f": np.array([0.1, -2.5, 3.0], dtype=np.float32),
    }
    path = tmp_path / "archive.zip"
    if held is not None:
        path.write_bytes(held)
    write_archive(str(path), meta, arrays)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ARCHIVE_SHA256
    read_meta, read = archive_contents(path)
    assert read_meta == meta
    for name, arr in arrays.items():
        assert read[name].tobytes() == np.ascontiguousarray(arr, "<f8").tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # intentional blow-up
def test_divergence_names_term_and_iteration():
    bundle = make_synthetic_dataset(
        SyntheticSpec(2, 1, 8, 2, 8, 0.05, projection_seed=1, noise_seed=2))
    config = TrainConfig(batch_size=8, epochs=5, hidden_dim=8,
                         optimizer=OptimizerConfig(learning_rate=1e150), seed=0)
    with pytest.raises(TrainingDiverged,
                       match=r"^non-finite loss term '\w+' in d_v at iteration 1$"):
        train(bundle, config)


def test_non_finite_total_with_finite_terms_names_the_total(monkeypatch):
    original = losses.disc_v_loss_and_grads

    def infinite_total(*args, **kwargs):
        _, terms, grads = original(*args, **kwargs)
        return float("inf"), terms, grads

    monkeypatch.setattr(losses, "disc_v_loss_and_grads", infinite_total)
    bundle = make_synthetic_dataset(
        SyntheticSpec(2, 1, 8, 2, 8, 0.05, projection_seed=1, noise_seed=2))
    config = TrainConfig(batch_size=8, epochs=1, hidden_dim=8, seed=0)
    with pytest.raises(TrainingDiverged,
                       match=r"^non-finite loss term 'total' in d_v at iteration 1$"):
        train(bundle, config)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # intentional blow-up
def test_divergence_in_pretrain_names_the_pretrain():
    bundle = make_synthetic_dataset(
        SyntheticSpec(2, 1, 8, 2, 8, 0.05, projection_seed=1, noise_seed=2))
    bundle.visual_train = bundle.visual_train * 1e300
    config = TrainConfig(batch_size=8, epochs=5, hidden_dim=8, seed=0)
    with pytest.raises(TrainingDiverged, match="classifier after its pretrain") as exc:
        train(bundle, config)
    assert "d_v" not in str(exc.value)
