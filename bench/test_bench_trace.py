"""The benchmark's own checks, on a tiny configuration (about a second).

They fail when a refactor renames or rebinds a traced function, so that the
benchmark breaks loudly instead of silently reporting a layer as idle.
"""

import dataclasses
import importlib
import json
import os

import pytest

import layers
import tracer as tracer_mod
import workloads

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCHMARK.json")
LIBRARY_MODULES = ("config", "data", "evaluation", "losses", "matio", "networks",
                   "seeds", "synthesis", "trainer")

TINY = workloads.Workload(
    name="tiny",
    synthetic={"n_seen_classes": 3, "n_unseen_classes": 2, "feature_dim": 8,
               "attribute_dim": 3, "samples_per_class": 6, "cluster_std": 0.1},
    train={"batch_size": 6, "epochs": 2, "hidden_dim": 8, "n1": 2, "n2": 2,
           "pretrain_max_steps": 30},
    eval={"n_per_class": 4, "classifier_max_steps": 30},
    counts=(2, 3), setup_reps=2,
    repeats={"first_step": 2, "save": 1, "evaluate": 1, "sweep": 1},
)


def _declared(section):
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)[section]}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    t = tracer_mod.Tracer()
    t.install()
    try:
        rec = workloads.run_pipeline(TINY, 0, 0.0, str(tmp_path_factory.mktemp("tiny")),
                                     tracer=t, fill=False)
    finally:
        t.uninstall()
    return t, rec


def test_every_layer_records_work(traced):
    t, rec = traced
    assert rec.failures == []
    solvers = layers.solver_outcomes(t, rec.bundle, rec.run_config)
    metrics = layers.per_layer(t, rec, solvers, overhead_pct=0.0)
    assert set(metrics) == set(_declared("per_layer"))
    idle = [name for name, (value, _) in metrics.items()
            if name.rsplit(".", 1)[-1] in ("calls", "ms", "self_ms", "steps") and value <= 0]
    assert idle == []
    assert solvers["pretrain"]["hit_cap"] == 1 and solvers["fit"]["steps"] == 30


def test_end_to_end_metrics_match_the_declaration(traced):
    _, rec = traced
    metrics = workloads.end_to_end(rec, peak_rss_mb=1.0)
    declared = _declared("end_to_end")
    assert set(metrics) == set(declared)
    assert all(value > 0 for value, _ in metrics.values())
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        name: m["unit"] for name, m in declared.items()}
    assert set(_declared("workloads")) <= set(workloads.WORKLOADS)


def test_every_binding_site_is_patched():
    """A library module that binds a traced function by name must be listed."""
    sites = {(path, attr) for path, attr, _ in tracer_mod.BINDINGS}
    traced_functions = {id(getattr(tracer_mod._resolve(path), attr))
                        for path, attr, _ in tracer_mod.BINDINGS}
    missing = []
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"gzslgen.{name}")
        for attr, value in vars(module).items():
            if (id(value) in traced_functions and callable(value)
                    and value.__module__ != module.__name__ and (name, attr) not in sites):
                missing.append(f"gzslgen.{name}.{attr}")
    assert missing == []


def test_a_wrong_output_fails_its_operation(tmp_path):
    wrong = dataclasses.replace(TINY, check_report=lambda report, seed: "wrong output")
    rec = workloads.run_pipeline(wrong, 0, 0.0, str(tmp_path), fill=False)
    assert rec.failures == ["evaluate: wrong output"]
    assert rec.attempted == 5


def test_repetitions_add_samples(tmp_path):
    rec = workloads.run_pipeline(TINY, 0, 60.0, str(tmp_path))
    assert rec.failures == []
    assert [len(rec.first_step_s), len(rec.save_s), len(rec.evaluate_s), len(rec.sweep_s)] == [3, 2, 2, 2]
    assert rec.attempted == 5 + 5
