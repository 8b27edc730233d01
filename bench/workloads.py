"""The benchmark's workloads and the closed loop that drives each one.

Every run calls the public library API from one thread, each call waiting
for the previous one, in the order the ``train``, ``evaluate`` and ``sweep``
commands use it:

    parse_run_config -> resolve_bundle            (set-up, repeated)
    train(step_callback=...)                      train_s, first step, iterations
    save_checkpoint + write_train_log             save_s
    load_checkpoint + evaluate_gzsl               evaluate_s
    sweep_samples(model=loaded)                   sweep_s

Every workload runs every phase, so that every end-to-end metric exists on
every workload; the sizes put each workload's weight on a different layer.
Each phase, and each repetition of one, is an attempted operation; ``check``
records the ones that raised or returned wrong outputs.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from gzslgen import config, evaluation, trainer
from gzslgen.errors import GzslError

# The acceptance oracle of tests/test_acceptance.py (criteria 6 and 7).
ORACLE_SYNTHETIC = {
    "n_seen_classes": 3, "n_unseen_classes": 2, "feature_dim": 16,
    "attribute_dim": 4, "samples_per_class": 50, "cluster_std": 0.1,
    "projection_seed": 5, "noise_seed": 11,
}
ORACLE_TRAIN = {
    "batch_size": 30, "epochs": 600, "hidden_dim": 64,
    "learning_rate": 1e-4, "beta2": 0.999, "variant": "full",
}
# Training seed of the oracle: the first criterion-6 seed. Single training
# seeds of the seed code collapse (seed 3 gives H = 0, seed 5 H = 0.28), which
# criterion 6 tolerates through its five-seed median; a per-run H bar is only
# a sound output check with the training seed held fixed. The run seed still
# drives the synthesis seed of evaluate and sweep.
ORACLE_TRAIN_SEED = 0
ORACLE_MIN_H = 0.6

# ROADMAP aim 1's paper-shaped bundle: 40 seen + 10 unseen classes, K=2048,
# L=85; training uses the default H=4096 and every other default.
PAPER_SHAPE = {
    "n_seen_classes": 40, "n_unseen_classes": 10, "feature_dim": 2048,
    "attribute_dim": 85, "cluster_std": 0.1,
}

# paper_eval's run seeds map onto this many input sets, whose evaluate
# outputs (tr, ts, H) were recorded on the seed commit.
PAPER_EVAL_INPUT_SETS = 10
PAPER_EVAL_EXPECTED = {
    0: (1.0, 0.0, 0.0), 1: (1.0, 0.0, 0.0), 2: (0.85, 0.0, 0.0),
    3: (1.0, 0.0, 0.0), 4: (1.0, 0.0, 0.0), 5: (1.0, 0.0, 0.0),
    6: (0.875, 0.0, 0.0), 7: (0.6, 0.0, 0.0), 8: (0.7, 0.0, 0.0),
    9: (0.6, 0.0, 0.0),
}


@dataclass(frozen=True)
class Workload:
    name: str
    synthetic: dict  # SyntheticSpec fields; seeds default to the input seed
    train: dict      # run-config train section; seed defaults to the input seed
    eval: dict       # run-config eval section; seed is the input seed
    counts: tuple[int, ...]
    setup_reps: int
    repeats: dict[str, int]  # extra runs of the short phases, see run_pipeline
    check_report: Callable[[evaluation.EvalReport, int], str | None] = lambda report, seed: None
    input_sets: int | None = None  # run seeds map onto this many input sets

    def input_seed(self, seed: int) -> int:
        return seed % self.input_sets if self.input_sets else seed

    def run_config(self, seed: int, out_dir: str) -> dict:
        """The run-config document for ``seed``; the same seed, the same inputs."""
        seed = self.input_seed(seed)
        return {
            "synthetic": {"projection_seed": seed, "noise_seed": seed, **self.synthetic},
            "train": {"seed": seed, **self.train},
            "eval": {**self.eval, "seed": seed, "counts": list(self.counts)},
            "out": out_dir,
        }


def _check_oracle(report, seed: int) -> str | None:
    if report.h < ORACLE_MIN_H:
        return f"oracle H {report.h:.4f} below the criterion-6 bar {ORACLE_MIN_H}"
    return None


def _check_paper_eval(report, seed: int) -> str | None:
    got = (report.tr, report.ts, report.h)
    want = PAPER_EVAL_EXPECTED[seed]
    if got != want:
        return f"input set {seed}: (tr, ts, H) {got} differ from the seed commit's {want}"
    return None


WORKLOADS = {
    w.name: w for w in (
        # Overhead-bound: 30x64 matrices, 3000 iterations of 12 steps, so
        # Python and numpy call overhead dominate; the only workload whose
        # model reaches a meaningful H.
        Workload(
            name="oracle", synthetic=ORACLE_SYNTHETIC,
            train={**ORACLE_TRAIN, "seed": ORACLE_TRAIN_SEED},
            eval={"n_per_class": 300}, counts=(10, 100, 500), setup_reps=200,
            repeats={"first_step": 9, "save": 3, "evaluate": 4, "sweep": 3},
            check_report=_check_oracle,
        ),
        # GEMM- and bandwidth-bound training: 240 rows make four B=64
        # iterations (the last one 48 rows) after a pretrain over the same
        # rows; the evaluation is kept light (50 synthesized rows) so the run
        # stays in budget.
        Workload(
            name="paper_train", synthetic={**PAPER_SHAPE, "samples_per_class": 6},
            train={"epochs": 1}, eval={"n_per_class": 1, "include_real_seen": False},
            counts=(1,), setup_reps=15,
            repeats={"save": 1, "evaluate": 1, "sweep": 1},
        ),
        # Solver-bound evaluation: a two-iteration train (80 rows, B=40) gives
        # the model, then each final softmax fit runs its capped 1000 steps at
        # K=2048, over 80 real + 150 synthesized rows for evaluate.
        Workload(
            name="paper_eval", synthetic={**PAPER_SHAPE, "samples_per_class": 2},
            train={"epochs": 1, "batch_size": 40}, eval={"n_per_class": 3},
            counts=(1,), setup_reps=15, repeats={"save": 1, "sweep": 1},
            check_report=_check_paper_eval,
            input_sets=PAPER_EVAL_INPUT_SETS,
        ),
    )
}


@dataclass
class RunRecord:
    """Raw timings, outputs and operation outcomes of one pipeline pass."""

    setup_s: list[float] = field(default_factory=list)
    train_s: float = math.nan
    first_step_s: list[float] = field(default_factory=list)
    iteration_ends_ns: list[int] = field(default_factory=list)
    save_s: list[float] = field(default_factory=list)
    evaluate_s: list[float] = field(default_factory=list)
    sweep_s: list[float] = field(default_factory=list)
    pass_s: float = math.nan
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    report: evaluation.EvalReport | None = None
    curve: list[tuple[int, float]] = field(default_factory=list)
    run_config: config.RunConfig | None = None
    bundle: object = None
    params: object = None
    checkpoint_bytes: int = 0
    train_log_bytes: int = 0

    def check(self, op: str, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{op}: {failure}")

    def iteration_ms(self) -> list[float]:
        return [d / 1e6 for d in np.diff(self.iteration_ends_ns)]

    def iteration_p90(self) -> dict | None:
        """p90 of iteration time, only where ten samples lie beyond it."""
        samples = self.iteration_ms()
        if len(samples) < 100:
            return None
        return {"value": statistics.quantiles(samples, n=10)[-1], "unit": "ms",
                "samples": len(samples)}


class _FirstStepReached(Exception):
    pass


def _nonfinite(params) -> str | None:
    bad = [i for i, a in enumerate(params.all_arrays()) if not np.all(np.isfinite(a))]
    return f"non-finite returned parameter array(s) {bad}" if bad else None


def _mismatch(saved, loaded) -> str | None:
    pairs = zip(saved.all_arrays(), loaded.all_arrays())
    if all(a.shape == b.shape and np.array_equal(a, b) for a, b in pairs):
        return None
    return "load_checkpoint result differs from the saved params"


def _report_problem(report) -> str | None:
    values = (report.tr, report.ts, report.h)
    if all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
        return None
    return f"accuracies outside [0, 1]: tr={report.tr} ts={report.ts} H={report.h}"


def run_pipeline(workload: Workload, seed: int, seconds: float, out_dir: str,
                 tracer=None, fill: bool = True) -> RunRecord:
    """One closed-loop pass over every phase; with ``fill``, then the
    workload's repetitions of the short phases."""
    rec = RunRecord()
    doc = workload.run_config(seed, out_dir)
    for _ in range(workload.setup_reps):
        t = time.perf_counter()
        cfg = config.parse_run_config(doc)
        bundle = cfg.resolve_bundle()
        rec.setup_s.append(time.perf_counter() - t)
    rec.run_config = cfg
    rec.bundle = bundle

    marks: list[tuple[int, int]] = []

    def on_step(kind: str, iteration: int, params) -> None:
        now = time.perf_counter_ns()
        marks.append((now, iteration))
        if tracer is not None:
            tracer.on_step(kind, now)

    ckpt = os.path.join(out_dir, config.CHECKPOINT_NAME)
    log_path = os.path.join(out_dir, "train_log.jsonl")

    def save() -> None:
        t = time.perf_counter()
        config.save_checkpoint(ckpt, params, cfg)
        log.checkpoint_path = ckpt
        trainer.write_train_log(log, log_path, config.effective_dict(cfg))
        rec.save_s.append(time.perf_counter() - t)

    def load_and_evaluate():
        t = time.perf_counter()
        loaded, loaded_cfg = config.load_checkpoint(ckpt)
        report = evaluation.evaluate_gzsl(loaded, bundle, loaded_cfg.eval)
        rec.evaluate_s.append(time.perf_counter() - t)
        return loaded, loaded_cfg, report

    def sweep() -> list[tuple[int, float]]:
        t = time.perf_counter()
        curve = evaluation.sweep_samples(
            bundle, loaded_cfg.train, loaded_cfg.counts, loaded_cfg.eval, model=loaded
        )
        rec.sweep_s.append(time.perf_counter() - t)
        return curve

    def first_step() -> None:
        """Time train() to its first step callback, then abandon it."""
        def stop(kind, iteration, params):
            raise _FirstStepReached

        t = time.perf_counter()
        try:
            trainer.train(bundle, cfg.train, step_callback=stop)
        except _FirstStepReached:
            rec.first_step_s.append(time.perf_counter() - t)

    def evaluate_again() -> str | None:
        again = load_and_evaluate()[2]
        same = (again.tr, again.ts, again.h) == (report.tr, report.ts, report.h)
        return None if same else "repeated evaluate differs from the first"

    def sweep_again() -> str | None:
        return None if sweep() == rec.curve else "repeated sweep differs from the first"

    # A library error fails the operation in progress and ends the run.
    op = "train"
    try:
        t_pass = time.perf_counter()
        t0 = time.perf_counter_ns()
        params, log = trainer.train(bundle, cfg.train, step_callback=on_step)
        rec.train_s = (time.perf_counter_ns() - t0) / 1e9
        rec.first_step_s.append((marks[0][0] - t0) / 1e9)
        rec.iteration_ends_ns = [
            t for (t, it), nxt in zip(marks, marks[1:] + [(0, None)]) if nxt[1] != it
        ]
        rec.params = params
        rec.check(op, _nonfinite(params))

        op = "save"
        save()
        rec.check(op, None)
        rec.checkpoint_bytes = os.path.getsize(ckpt)
        rec.train_log_bytes = os.path.getsize(log_path)

        op = "evaluate"
        loaded, loaded_cfg, report = load_and_evaluate()
        rec.report = report
        rec.check("load", _mismatch(params, loaded))
        rec.check(op, _report_problem(report)
                  or workload.check_report(report, workload.input_seed(seed)))

        op = "sweep"
        rec.curve = sweep()
        rec.pass_s = time.perf_counter() - t_pass
        got = [n for n, _ in rec.curve]
        bad = [(n, h) for n, h in rec.curve if not (math.isfinite(h) and 0.0 <= h <= 1.0)]
        rec.check(op, f"curve counts {got} != {list(workload.counts)}"
                  if got != list(workload.counts) else
                  f"H outside [0, 1] at {bad}" if bad else None)

        # The short phases run again a fixed number of times, round-robin,
        # so that their medians rest on the same samples in every run; a
        # round starts only within the measuring time. Repetitions must
        # reproduce the first outputs.
        actions = {"first_step": first_step, "save": save,
                   "evaluate": evaluate_again, "sweep": sweep_again}
        plan = dict(workload.repeats) if fill else {}
        while plan and time.perf_counter() - t_pass < seconds:
            for op in list(plan):
                rec.check(op, actions[op]())
                plan[op] -= 1
                if not plan[op]:
                    del plan[op]
    except GzslError as exc:
        rec.check(op, f"{type(exc).__name__}: {exc}")
    return rec


def end_to_end(rec: RunRecord, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(rec.setup_s), "s"),
        "train_s": (rec.train_s, "s"),
        "train_first_step_s": (statistics.median(rec.first_step_s), "s"),
        "train_iter_ms.p50": (float(statistics.median(rec.iteration_ms())), "ms"),
        "save_s": (statistics.median(rec.save_s), "s"),
        "evaluate_s": (statistics.median(rec.evaluate_s), "s"),
        "sweep_s": (statistics.median(rec.sweep_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
