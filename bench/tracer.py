"""Span tracer that patches gzslgen's public functions where they are bound.

A module that does ``from .networks import mlp_forward`` holds its own
reference, so patching ``networks.mlp_forward`` alone would miss every call
made through that module. ``BINDINGS`` therefore lists each binding site: the
module (or class) attribute that the calling code actually looks up. The
coverage test in ``test_bench_trace.py`` fails when a rename or rebinding makes
any traced layer record zero calls.

Spans are kept in memory as parallel lists (name, start, end, parent, step)
and aggregated or written out once the run has ended. The step index counts
the trainer's ``step_callback`` calls made before the span started, so a span
belongs to the step that the next callback closes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

# (module path, attribute, span name)
BINDINGS = (
    ("config", "make_synthetic_dataset", "data.make_synthetic_dataset"),
    ("trainer", "batch_iterator", "data.batch_iterator.next"),
    ("networks", "mlp_forward_cached", "networks.mlp_forward_cached"),
    ("losses", "mlp_forward_cached", "networks.mlp_forward_cached"),
    ("losses", "mlp_backward", "networks.mlp_backward"),
    ("losses", "critic_input_grads", "networks.critic_input_grads"),
    ("networks", "mlp_forward", "networks.mlp_forward"),
    ("trainer", "mlp_forward", "networks.mlp_forward"),
    ("synthesis", "gen_sv_forward", "networks.gen_sv_forward"),
    ("trainer", "classifier_forward", "networks.classifier_forward"),
    ("synthesis", "classifier_forward", "networks.classifier_forward"),
    ("trainer", "init_params", "networks.init_params"),
    ("losses", "disc_v_loss_and_grads", "losses.disc_v_loss_and_grads"),
    ("losses", "disc_s_loss_and_grads", "losses.disc_s_loss_and_grads"),
    ("losses", "gen_sv_loss_and_grads", "losses.gen_sv_loss_and_grads"),
    ("losses", "gen_vs_loss_and_grads", "losses.gen_vs_loss_and_grads"),
    ("losses", "softmax_ce_grads", "losses.softmax_ce_grads"),
    ("synthesis", "softmax_ce_grads", "losses.softmax_ce_grads"),
    ("trainer", "train", "trainer.train"),
    ("evaluation", "train", "trainer.train"),
    ("trainer", "pretrain_classifier", "trainer.pretrain_classifier"),
    ("trainer.Adam", "step", "trainer.Adam.step"),
    ("trainer", "write_train_log", "trainer.write_train_log"),
    ("evaluation", "synthesize_features", "synthesis.synthesize_features"),
    ("evaluation", "fit_gzsl_classifier", "synthesis.fit_gzsl_classifier"),
    ("evaluation", "predict", "synthesis.predict"),
    ("evaluation", "evaluate_gzsl", "evaluation.evaluate_gzsl"),
    ("evaluation", "sweep_samples", "evaluation.sweep_samples"),
    ("config", "parse_run_config", "config.parse_run_config"),
    ("config", "save_checkpoint", "config.save_checkpoint"),
    ("config", "load_checkpoint", "config.load_checkpoint"),
)


# Spans whose first call keeps (args, kwargs, result), so that solver outcomes
# can be recomputed after the run without timing them.
CAPTURE = ("trainer.pretrain_classifier", "synthesis.fit_gzsl_classifier")


def _resolve(path: str):
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"gzslgen.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.step: list[int] = []
        self.step_kinds: list[str] = []
        self.step_ends: list[int] = []
        self.first_calls: dict[str, tuple] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(len(self.step_kinds))
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def on_step(self, kind: str, now_ns: int) -> None:
        """Record one trainer step_callback; closes the current step."""
        self.step_ends.append(now_ns)
        self.step_kinds.append(kind)

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.close(idx)
                        return
                    tracer.close(idx)
                    yield item
            return traced_gen

        if name in CAPTURE:
            @functools.wraps(fn)
            def traced_capture(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                tracer.first_calls.setdefault(name, (args, kwargs, result))
                return result
            return traced_capture

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return traced

    def install(self) -> None:
        for path, attr, name in BINDINGS:
            owner = _resolve(path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays; ``self_ns`` is the duration minus direct children."""
        start = np.asarray(self.start, dtype=np.int64)
        end = np.asarray(self.end, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "start": start, "end": end, "parent": parent,
            "step": np.asarray(self.step, dtype=np.int64),
            "dur": dur, "self_ns": dur - child,
        }

    def save(self, path: str) -> None:
        names = sorted(set(self.names))
        code = {n: i for i, n in enumerate(names)}
        a = self.arrays()
        np.savez(
            path,
            names=np.asarray(names),
            name=np.asarray([code[n] for n in self.names], dtype=np.int32),
            start=a["start"], end=a["end"], parent=a["parent"], step=a["step"],
            step_kinds=np.asarray(self.step_kinds),
            step_ends=np.asarray(self.step_ends, dtype=np.int64),
        )
