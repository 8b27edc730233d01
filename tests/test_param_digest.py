import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest

import helpers
from helpers import ORACLE_TRAIN, load_script

CALLER_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")
param_digest = load_script("param_digest")

LABELS = [*param_digest.VARIANTS, "full_cycle", "paper_fit", "paper_train", "checkpoint", "synth"]


EXPECTED = os.path.join(os.path.dirname(param_digest.__file__), "param_digest.expected")


def test_expected_file_holds_every_line_once():
    want = param_digest.read_expected(EXPECTED)
    assert list(want) == [param_digest.ENVIRONMENT, *LABELS]
    assert want[param_digest.ENVIRONMENT].startswith("numpy ")
    assert all(re.fullmatch(r"[0-9a-f]{64}", want[label]) for label in LABELS)


def test_differing_lines_names_each_differing_label():
    env = param_digest.ENVIRONMENT
    want = {env: "numpy 1; blas 1; cpu", "full": "a", "no_SC": "b", "synth": "c"}
    got = {env: "numpy 1; blas 1; cpu", "full": "a", "no_SC": "x", "paper_fit": "d"}
    assert param_digest.differences(want, got) == [
        "no_SC: expected b, got x",
        "synth: expected c, got no line",
        "paper_fit: expected no line, got d",
    ]
    assert param_digest.differences(want, dict(want)) == []


def test_environment_note_names_both_environments_only_when_they_differ(tmp_path):
    env = param_digest.ENVIRONMENT
    want = {env: "numpy 1; blas 1; cpu", "full": "a", "no_SC": "b", "synth": "c"}
    got = {env: "numpy 1; blas 1; cpu", "full": "a", "no_SC": "x", "paper_fit": "d"}
    differing = param_digest.differences(want, got)
    running = "numpy 9.9.9; other-blas 1.0; some CPU"
    assert param_digest.differences(want, {**got, env: running}) == [
        *differing, f"recorded under {want[env]}; running under {running}"]
    # another environment alone is no difference
    assert param_digest.differences(want, {**want, env: running}) == []
    bare = tmp_path / "bare.expected"
    bare.write_text("full " + "0" * 64 + "\n")
    assert env not in param_digest.read_expected(str(bare))
    assert param_digest.differences(param_digest.read_expected(str(bare)),
                                    {**got, env: running})[-1] == (
        f"recorded under no environment line; running under {running}")


@pytest.mark.parametrize("lines, problem", [
    (["full " + "0" * 64, "no_SC"], "label without a digest: no_SC"),
    (["full " + "0" * 64, "# a comment", "full " + "1" * 64], "label given twice: full"),
], ids=["no_digest", "label_twice"])
def test_a_malformed_expected_file_exits_2_naming_its_line(tmp_path, lines, problem):
    path = tmp_path / "bad.expected"
    path.write_text("\n".join(["# header", *lines]) + "\n")
    where = f"{path}:{len(lines) + 1}"
    with pytest.raises(ValueError, match=re.escape(f"{where}: {problem}")):
        param_digest.read_expected(str(path))
    # run as a script, it stops before any training
    proc = subprocess.run([sys.executable, param_digest.__file__, "--check", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and f"{where}: {problem}" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_run_as_a_script_it_takes_one_blas_thread_whatever_the_caller_sets():
    script = param_digest.__file__
    bench = os.path.join(os.path.dirname(os.path.dirname(script)), "bench")
    code = f"""
import runpy, sys
sys.argv = [{script!r}, "--help"]
try:
    runpy.run_path({script!r}, run_name="__main__")
except SystemExit:
    pass
import numpy
sys.path.insert(0, {bench!r})
from run import _blas_threads
print(_blas_threads(numpy))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "2"}, check=True)
    assert proc.stdout.splitlines()[-1] == "1"
    # imported, as here, it leaves the importing process's setting alone
    assert os.environ.get("OPENBLAS_NUM_THREADS") == CALLER_THREADS


def test_train_in_pool_takes_no_more_workers_than_usable_cores(monkeypatch, oracle_bundle):
    workers = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # a host of two CPUs, of which this process may use one
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(helpers, "ProcessPoolExecutor", RecordingPool)
    models = helpers.train_in_pool(oracle_bundle, [replace(ORACLE_TRAIN, epochs=1)])
    assert workers == [1] and len(models) == 1
