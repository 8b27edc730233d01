"""Per-layer metrics of a traced run, named after gzslgen's modules.

``calls`` counts spans; ``ms`` is their total duration; ``self_ms`` subtracts
the time covered by their direct child spans. Totals are over the whole run.
A span's step kind is the kind of the next ``step_callback``; spans that start
before the seen-class pretrain has returned belong to ``pretrain``.
"""

from __future__ import annotations

import numpy as np

from gzslgen import losses, trainer

import counts

STEP_KINDS = ("d_v", "d_s", "g_sv", "g_vs")
NETWORK_FUNCS = (
    "mlp_forward_cached", "mlp_backward", "critic_input_grads",
    "mlp_forward", "gen_sv_forward", "classifier_forward",
)
LOSS_FUNCS = ("disc_v", "disc_s", "gen_sv", "gen_vs")
SOFTMAX_CALLERS = {
    "pretrain": "trainer.pretrain_classifier",
    "fit": "synthesis.fit_gzsl_classifier",
    "gen": "losses.gen_sv_loss_and_grads",
}


def _grad_norm(cls, features, cols) -> float:
    _, dw, db, _ = losses.softmax_ce_grads(cls, features, cols)
    return float(np.sqrt(np.sum(dw * dw) + np.sum(db * db)))


def _solver(steps: int, max_steps: int, grad_norm: float, tol: float) -> dict:
    return {"steps": steps, "hit_cap": int(steps >= max_steps and grad_norm >= tol),
            "final_grad_norm": grad_norm}


def solver_outcomes(tracer, bundle, run_config) -> dict[str, dict]:
    """Steps, cap hits and final gradient norms of the two softmax solvers.

    The gradient norm is recomputed at the returned weights after the run,
    outside every timed span.
    """
    names = np.asarray(tracer.names)
    parent = np.asarray(tracer.parent)
    out = {}
    pre_idx = int(np.flatnonzero(names == "trainer.pretrain_classifier")[0])
    cls = tracer.first_calls["trainer.pretrain_classifier"][2]
    lookup, _ = trainer.seen_class_columns(bundle)
    out["pretrain"] = _solver(
        int(np.sum(parent == pre_idx)), run_config.train.pretrain_max_steps,
        _grad_norm(cls, bundle.visual_train, lookup[bundle.labels_train]),
        run_config.train.pretrain_grad_tol,
    )
    fit_idx = int(np.flatnonzero(names == "synthesis.fit_gzsl_classifier")[0])
    (features, labels, all_classes), _, clf = tracer.first_calls["synthesis.fit_gzsl_classifier"]
    col_of = {c: i for i, c in enumerate(clf.class_ids)}
    cols = np.asarray([col_of[int(c)] for c in labels])
    out["fit"] = _solver(
        int(np.sum(parent == fit_idx)), run_config.eval.classifier_max_steps,
        _grad_norm(clf.params, features, cols), run_config.eval.classifier_grad_tol,
    )
    return out


def per_layer(tracer, rec, solvers: dict, overhead_pct: float) -> dict[str, tuple[float, str]]:
    a = tracer.arrays()
    names = np.asarray(tracer.names)
    parent_name = np.where(a["parent"] >= 0, names[np.maximum(a["parent"], 0)], "")
    kinds = np.asarray(list(tracer.step_kinds) + ["after"])[a["step"]]
    step_ends = np.asarray(tracer.step_ends, dtype=np.int64)
    pre = names == "trainer.pretrain_classifier"
    pretrain_end = int(a["end"][pre][0])
    kinds = np.where(a["start"] < pretrain_end, "pretrain", kinds)
    ms = lambda mask: float(a["dur"][mask].sum()) / 1e6
    self_ms = lambda mask: float(a["self_ns"][mask].sum()) / 1e6
    m: dict[str, tuple[float, str]] = {}

    # data
    m["data.make_synthetic_dataset.ms"] = (ms(names == "data.make_synthetic_dataset"), "ms")
    nxt = names == "data.batch_iterator.next"
    m["data.batch_iterator.next.calls"] = (int(nxt.sum()), "count")
    m["data.batch_iterator.next.ms"] = (ms(nxt), "ms")

    # networks, with GEMM work computed from the shapes
    for fn in NETWORK_FUNCS:
        sel = names == f"networks.{fn}"
        m[f"networks.{fn}.calls"] = (int(sel.sum()), "count")
        m[f"networks.{fn}.self_ms"] = (self_ms(sel), "ms")
    work = counts.step_work(rec.params, rec.run_config.train.batch_size)
    for kind in STEP_KINDS:
        m[f"networks.gemm_gflop.{kind}.computed"] = (work[kind][0], "GFLOP")
        m[f"networks.gemm_mb.{kind}.computed"] = (work[kind][1], "MB")
    step_kinds = np.asarray(tracer.step_kinds)
    total_gflop = sum(work[k][0] * int(np.sum(step_kinds == k)) for k in STEP_KINDS)
    loop_s = (int(step_ends[-1]) - pretrain_end) / 1e9
    m["networks.gflop_per_s"] = (total_gflop / loop_s, "GFLOP/s")

    # losses
    for fn in LOSS_FUNCS:
        sel = names == f"losses.{fn}_loss_and_grads"
        m[f"losses.{fn}_loss_and_grads.calls"] = (int(sel.sum()), "count")
        m[f"losses.{fn}_loss_and_grads.self_ms"] = (self_ms(sel), "ms")
    softmax = names == "losses.softmax_ce_grads"
    for caller, parent in SOFTMAX_CALLERS.items():
        sel = softmax & (parent_name == parent)
        m[f"losses.softmax_ce_grads.{caller}.calls"] = (int(sel.sum()), "count")
        m[f"losses.softmax_ce_grads.{caller}.ms"] = (ms(sel), "ms")

    # trainer: step wall time from the callbacks; self time is each step's
    # interval minus the spans the train call opened directly inside it
    gaps = np.diff(step_ends)
    starts = np.concatenate([[pretrain_end], step_ends[:-1]])
    train_idx = int(np.flatnonzero(names == "trainer.train")[0])
    child = (a["parent"] == train_idx) & (a["start"] >= pretrain_end)
    child_ns = np.bincount(a["step"][child], weights=a["dur"][child],
                           minlength=len(step_ends))[: len(step_ends)]
    step_self_ms = (step_ends - starts - child_ns) / 1e6
    adam = names == "trainer.Adam.step"
    for kind in STEP_KINDS:
        of_kind = step_kinds == kind
        m[f"trainer.step.{kind}.ms.p50"] = (float(np.median(gaps[of_kind[1:]])) / 1e6, "ms")
        m[f"trainer.train.self_ms.{kind}"] = (float(step_self_ms[of_kind].sum()), "ms")
        sel = adam & (kinds == kind)
        m[f"trainer.Adam.step.{kind}.calls"] = (int(sel.sum()), "count")
        m[f"trainer.Adam.step.{kind}.ms"] = (ms(sel), "ms")
    m["trainer.pretrain_classifier.ms"] = (ms(pre), "ms")
    m["trainer.pretrain_classifier.steps"] = (solvers["pretrain"]["steps"], "count")
    m["trainer.pretrain_classifier.hit_cap"] = (solvers["pretrain"]["hit_cap"], "flag")
    m["trainer.write_train_log.ms"] = (ms(names == "trainer.write_train_log"), "ms")
    m["trainer.write_train_log.mb"] = (rec.train_log_bytes / 1e6, "MB")

    # synthesis
    m["synthesis.synthesize_features.ms"] = (ms(names == "synthesis.synthesize_features"), "ms")
    m["synthesis.fit_gzsl_classifier.ms"] = (ms(names == "synthesis.fit_gzsl_classifier"), "ms")
    for key in ("steps", "hit_cap", "final_grad_norm"):
        unit = {"steps": "count", "hit_cap": "flag", "final_grad_norm": "1"}[key]
        m[f"synthesis.fit_gzsl_classifier.{key}"] = (solvers["fit"][key], unit)
    m["synthesis.predict.ms"] = (ms(names == "synthesis.predict"), "ms")

    # evaluation
    for fn in ("evaluate_gzsl", "sweep_samples"):
        m[f"evaluation.{fn}.self_ms"] = (self_ms(names == f"evaluation.{fn}"), "ms")

    # config
    m["config.parse_run_config.ms"] = (ms(names == "config.parse_run_config"), "ms")
    for fn in ("save_checkpoint", "load_checkpoint"):
        m[f"config.{fn}.ms"] = (ms(names == f"config.{fn}"), "ms")
        m[f"config.{fn}.mb"] = (rec.checkpoint_bytes / 1e6, "MB")

    m["trace.spans"] = (len(tracer.names), "count")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m

