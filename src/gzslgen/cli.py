"""Command-line entry point.

Subcommands: train, evaluate, ablate, sweep, synth-data, export-viz.
Exit codes: 0 success, 2 validation/format problems, 3 runtime failures
(including training divergence, running out of memory and asking for an
array larger than numpy can size).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import (
    RunConfig,
    effective_dict,
    load_checkpoint,
    parse_run_config,
    parse_synthetic_spec,
    save_checkpoint,
    CHECKPOINT_NAME,
)
from .data import DatasetBundle, make_synthetic_dataset, save_dataset
from .errors import (
    ContractViolation,
    DataLoadError,
    FormatError,
    TrainingDiverged,
    ValidationError,
)
from .evaluation import EvalReport, evaluate_gzsl, format_report_table, run_ablation, sweep_samples
from .matio import dumps_json, load_json, write_matrix
from .networks import ModelParams
from .synthesis import SynthesisRequest, synthesize_features
from .trainer import VARIANTS, train, write_train_log


def _configure(args, embedded: RunConfig | None = None) -> RunConfig:
    """The run config a command runs with, validated: the ``--config`` file, else
    a checkpoint's ``embedded`` one, with the flags applied over it. ``--seed``
    seeds training, or evaluation for the commands that load a checkpoint."""
    flags = vars(args)
    cfg = parse_run_config(load_json(flags["config"])) if flags.get("config") else embedded
    if flags.get("seed") is not None:
        (cfg.eval if "checkpoint" in flags else cfg.train).seed = flags["seed"]
    if flags.get("variant") is not None:
        cfg.train.variant = flags["variant"]
    if flags.get("n_per_class") is not None:
        cfg.eval.n_per_class = flags["n_per_class"]
    if flags.get("out") is not None:
        cfg.out = flags["out"]
    cfg.validate()
    return cfg


def _check_rows(bundle: DatasetBundle, training_rows: bool, test_rows: bool) -> None:
    """Reject a dataset, naming the classes, where a seen class lacks training
    rows (with ``training_rows``) or any class lacks test rows (with ``test_rows``)."""
    needs = [("training", bundle.seen_classes, bundle.labels_train)] if training_rows else []
    if test_rows:
        needs.append(("test", bundle.all_classes,
                      np.concatenate([bundle.labels_test_seen, bundle.labels_test_unseen])))
    for kind, classes, labels in needs:
        missing = np.setdiff1d(classes, labels)
        if missing.size:
            raise ValidationError(f"classes without {kind} rows: {missing.tolist()}")


def _prepare_run(args, test_rows: bool) -> tuple[RunConfig, DatasetBundle]:
    """The run config and dataset of a command that trains, once the dataset has
    the rows it needs, and its output directory holding ``config_effective.json``.

    Every seen class needs training rows, and with ``test_rows`` every class
    needs test rows, so a dataset without them is rejected before anything is
    written or trained.
    """
    cfg = _configure(args)
    bundle = cfg.resolve_bundle()
    _check_rows(bundle, training_rows=True, test_rows=test_rows)
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "config_effective.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps_json(effective_dict(cfg)))
    return cfg, bundle


def _load_model(args) -> tuple[ModelParams, RunConfig, DatasetBundle]:
    """The ``--checkpoint`` parameters, the run config and a dataset of their shapes."""
    params, embedded = load_checkpoint(args.checkpoint)
    cfg = _configure(args, embedded)
    bundle = cfg.resolve_bundle()
    g_sv = params.g_sv.shape  # [a | z] (2L) -> K
    for quantity, trained, given in (
        ("feature_dim", g_sv.output_dim, bundle.feature_dim),
        ("attribute_dim", g_sv.input_dim / 2, bundle.attribute_dim),
        ("seen-class count", params.cls_seen.b.size, len(bundle.seen_classes)),
    ):
        if trained != given:
            raise ValidationError(f"{args.checkpoint}: trained on {quantity} {trained:g}, "
                                  f"the dataset has {given}")
    return params, cfg, bundle


def _write_report(out_dir: str, rows: list[tuple[str, EvalReport]]) -> None:
    doc = {"rows": [{"run": name, **report.to_dict()} for name, report in rows]}
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps_json(doc))
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_report_table(rows))


def cmd_train(args) -> int:
    cfg, bundle = _prepare_run(args, test_rows=False)
    params, log = train(bundle, cfg.train)
    ckpt = os.path.join(cfg.out, CHECKPOINT_NAME)
    save_checkpoint(ckpt, params, cfg)
    log.checkpoint_path = ckpt
    write_train_log(log, os.path.join(cfg.out, "train_log.jsonl"), effective_dict(cfg))
    print(f"trained {cfg.train.variant} variant: checkpoint at {ckpt}")
    return 0


def cmd_evaluate(args) -> int:
    params, cfg, bundle = _load_model(args)
    _check_rows(bundle, training_rows=False, test_rows=True)
    report = evaluate_gzsl(params, bundle, cfg.eval)
    os.makedirs(cfg.out, exist_ok=True)
    _write_report(cfg.out, [("gzsl", report)])
    print(format_report_table([("gzsl", report)]), end="")
    return 0


def cmd_ablate(args) -> int:
    variants = args.variants.split(",") if args.variants else list(VARIANTS)
    for v in variants:
        if v not in VARIANTS:
            raise ValidationError(f"unknown variant {v!r}; pick from {tuple(VARIANTS)}")
    cfg, bundle = _prepare_run(args, test_rows=True)
    rows = run_ablation(bundle, cfg.train, variants, cfg.eval)
    _write_report(cfg.out, rows)
    print(format_report_table(rows), end="")
    return 0


def cmd_sweep(args) -> int:
    cfg, bundle = _prepare_run(args, test_rows=True)
    curve = sweep_samples(bundle, cfg.train, cfg.counts, cfg.eval)
    doc = {"curve": [{"n_per_class": n, "H": h} for n, h in curve]}
    with open(os.path.join(cfg.out, "curve.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps_json(doc))
    for n, h in curve:
        print(f"n_per_class={n:>6d}  H={h:.4f}")
    return 0


def cmd_synth_data(args) -> int:
    bundle = make_synthetic_dataset(parse_synthetic_spec(load_json(args.spec), "spec"))
    save_dataset(bundle, args.out)
    print(f"wrote synthetic dataset to {args.out}")
    return 0


def cmd_export_viz(args) -> int:
    params, cfg, bundle = _load_model(args)
    if args.classes:
        try:
            classes = [int(c) for c in args.classes.split(",")]
        except ValueError:
            raise ValidationError(f"--classes must list class ids, got {args.classes!r}") from None
    else:
        classes = list(bundle.unseen_classes)[:3]

    # class -> (visual, labels) of the test split that holds its real rows
    test_split = {
        **dict.fromkeys(bundle.seen_classes, (bundle.visual_test_seen, bundle.labels_test_seen)),
        **dict.fromkeys(bundle.unseen_classes,
                        (bundle.visual_test_unseen, bundle.labels_test_unseen)),
    }
    real_rows, real_labels = [], []
    for c in classes:
        if c not in test_split:
            raise ValidationError(f"class {c} is not part of the dataset")
        visual, split_labels = test_split[c]
        mask = split_labels == c
        real_rows.append(visual[mask])
        real_labels.append(split_labels[mask])

    request = SynthesisRequest(
        classes=tuple(classes), n_per_class=cfg.eval.n_per_class, seed=cfg.eval.seed
    )
    synth_x, synth_y = synthesize_features(params, bundle, request)
    features = np.vstack(real_rows + [synth_x])
    labels = np.concatenate(real_labels + [synth_y])
    n_real, n_synth = features.shape[0] - synth_x.shape[0], synth_x.shape[0]
    source = np.repeat([0, 1], [n_real, n_synth])

    os.makedirs(args.out, exist_ok=True)
    write_matrix(os.path.join(args.out, "viz_features.f32"), features, "f32")
    write_matrix(os.path.join(args.out, "viz_labels.i32"), labels, "i32")
    write_matrix(os.path.join(args.out, "viz_source.i32"), source, "i32")
    meta = {
        "format": "gzslgen-viz",
        "n_rows": int(features.shape[0]),
        "feature_dim": int(features.shape[1]),
        "classes": [int(c) for c in classes],
        "n_real": n_real,
        "n_synth": n_synth,
        "source_flags": "viz_source.i32 holds one flag per row: 0 real, 1 synthesized",
    }
    with open(os.path.join(args.out, "meta.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps_json(meta))
    print(f"wrote {features.shape[0]} labeled rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gzslgen",
        description="Adversarial feature synthesis and evaluation for generalized zero-shot recognition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="run config JSON")
        else:
            p.add_argument("--config", help="run config JSON (overrides checkpoint config)")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--seed", type=int, help="root seed override")

    p = sub.add_parser("train", help="train a model from a run config")
    common(p)
    p.add_argument("--variant", choices=VARIANTS, help="ablation variant override")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint (ts/tr/H report)")
    p.add_argument("--checkpoint", required=True)
    common(p, config_required=False)
    p.add_argument("--n-per-class", dest="n_per_class", type=int)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train+evaluate every ablation variant")
    common(p)
    p.add_argument("--variants", help="comma-separated subset of variants")
    p.add_argument("--n-per-class", dest="n_per_class", type=int)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="H versus synthesized samples per class")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth-data", help="materialize a synthetic dataset directory")
    p.add_argument("--spec", required=True, help="SyntheticSpec JSON file")
    p.add_argument("--out", required=True, help="dataset directory to write")
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("export-viz", help="export labeled real+synthesized matrices for 2-D projection")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--classes", help="comma-separated class ids (default: first 3 unseen)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-per-class", dest="n_per_class", type=int)
    p.set_defaults(func=cmd_export_viz)

    return parser


# numpy's ValueError messages for an array size that no array can have
_UNALLOCATABLE = ("array is too big", "Maximum allowed dimension exceeded")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FormatError, DataLoadError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, OverflowError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_UNALLOCATABLE):
            raise
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
