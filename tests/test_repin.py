import ast
import json
import os
from types import SimpleNamespace

from helpers import load_script

repin = load_script("repin")
workloads = repin.workloads


def test_literal_evaluates_back_to_the_dict():
    got = {s: (1.0 - s / 16, 0.0, 0.0) for s in range(10)}
    got[3] = None
    name, _, value = repin.literal(got).partition(" = ")
    assert name == "PAPER_EVAL_EXPECTED" and ast.literal_eval(value) == got


def test_literal_of_the_pins_is_their_text_in_bench_workloads():
    # a re-pin pastes the printed literal over these lines
    with open(os.path.abspath(workloads.__file__), encoding="utf-8") as fh:
        assert repin.literal(workloads.PAPER_EVAL_EXPECTED) in fh.read()


def test_each_differing_set_is_named():
    want = {0: (1.0, 0.0, 0.0), 1: (0.85, 0.0, 0.0), 2: (0.6, 0.0, 0.0)}
    got = {0: (1.0, 0.0, 0.0), 1: (0.875, 0.0, 0.0), 3: (0.7, 0.0, 0.0)}
    assert repin.differing_sets(want, got) == [
        "input set 1: pinned (0.85, 0.0, 0.0), got (0.875, 0.0, 0.0)",
        "input set 2: pinned (0.6, 0.0, 0.0), got nothing",
        "input set 3: pinned nothing, got (0.7, 0.0, 0.0)",
    ]
    assert repin.differing_sets(want, dict(want)) == []


def test_main_prints_what_it_got_and_exits_one_naming_the_moved_set(monkeypatch, capsys):
    pins = workloads.PAPER_EVAL_EXPECTED
    moved = {**pins, 4: (0.875, 0.0, 0.0)}

    def run_pipeline(workload, seed, seconds, out_dir, fill):
        assert workload is workloads.WORKLOADS["paper_eval"] and not fill
        tr, ts, h = moved[seed]
        return SimpleNamespace(report=SimpleNamespace(tr=tr, ts=ts, h=h), failures=[])

    monkeypatch.setattr(workloads, "run_pipeline", run_pipeline)
    assert repin.main() == 1
    out, err = capsys.readouterr()
    assert ast.literal_eval(out.partition(" = ")[2]) == moved
    # the pins depend on the BLAS thread count, so the stamp comes first
    assert err.splitlines()[0] == f"environment: {json.dumps(repin.run.environment())}"
    assert [line for line in err.splitlines() if line.startswith("differs")] == [
        "differs from bench/workloads.py: input set 4: pinned (1.0, 0.0, 0.0), "
        "got (0.875, 0.0, 0.0)"]
