import json
import os
import sys

import pytest

from helpers import load_script

bench_ab = load_script("bench_ab")

PARENT = [3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7, 3.8, 3.9]


class TestVerdict:
    def test_clear_gain(self):
        change = [p - 1.5 for p in PARENT]
        v = bench_ab.verdict(PARENT, change, "lower", 0.25)
        assert v["status"] == "gain" and v["wins"] == 10 and v["pairs"] == 10

    def test_nine_of_ten_wins_is_enough(self):
        change = [p - 1.5 for p in PARENT[:9]] + [PARENT[9] + 0.1]
        v = bench_ab.verdict(PARENT, change, "lower", 0.25)
        assert v["wins"] == 9 and v["status"] == "gain"

    def test_eight_of_ten_wins_is_not(self):
        change = [p - 1.5 for p in PARENT[:8]] + [PARENT[8], PARENT[9] + 0.1]
        v = bench_ab.verdict(PARENT, change, "lower", 0.25)
        assert v["wins"] == 8 and v["status"] != "gain"

    def test_ties_count_for_neither(self):
        v = bench_ab.verdict(PARENT, list(PARENT), "lower", 0.25)
        assert v["wins"] == 0 and v["status"] == "within bound"

    def test_gap_inside_the_parent_spread_is_no_gain(self):
        # wins every pair, but by less than the parent's quartile distance
        q1, med, q3 = bench_ab.quartiles(PARENT)
        change = [p - 0.5 * (q3 - q1) for p in PARENT]
        v = bench_ab.verdict(PARENT, change, "lower", 0.25)
        assert v["wins"] == 10 and v["status"] == "within bound"
        assert v["parent"] == (med, q1, q3)

    def test_higher_is_better(self):
        change = [p + 1.5 for p in PARENT]
        assert bench_ab.verdict(PARENT, change, "higher", 0.25)["status"] == "gain"
        assert bench_ab.verdict(PARENT, change, "lower", 0.25)["status"] == "worse"

    def test_worse_beyond_the_bound(self):
        change = [p * 1.3 for p in PARENT]
        assert bench_ab.verdict(PARENT, change, "lower", 0.25)["status"] == "worse"
        assert bench_ab.verdict(PARENT, change, "lower", 0.4)["status"] == "within bound"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0]
        change = [p + 0.1 for p in parent]
        assert bench_ab.verdict(parent, change, "lower", 0.25)["status"] == "unresolved"

    def test_every_change_run_better_resolves_a_wide_spread(self):
        parent = [2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0]
        change = [1.9] * 10
        v = bench_ab.verdict(parent, change, "lower", 0.25)
        assert v["wins"] == 10 and v["status"] == "within bound"

    def test_closest_pair_is_the_least_won_or_most_lost(self):
        # the medians move by -40%, but pair 3 is won by only 5% and pair 7 is
        # lost by 2%: the closest pair is the lost one
        change = [0.6 * p for p in PARENT]
        change[3], change[7] = 0.95 * PARENT[3], 1.02 * PARENT[7]
        v = bench_ab.verdict(PARENT, change, "lower", 0.25)
        assert v["status"] == "gain"
        assert v["closest"][0] == 7 and v["closest"][1] == pytest.approx(1.02)
        change[7] = 0.6 * PARENT[7]
        assert bench_ab.verdict(PARENT, change, "lower", 0.25)["closest"][0] == 3
        # when higher is better, the smallest ratio is the closest
        higher = [p / r for p, r in zip(PARENT, [0.6] * 3 + [0.95] + [0.6] * 6)]
        assert bench_ab.verdict(PARENT, higher, "higher", 0.25)["closest"][0] == 3

    def test_one_pair_decides_nothing(self):
        # one pair is always one of one won, with a quartile distance of 0
        v = bench_ab.verdict([1.0], [0.5], "lower", 0.25)
        assert v["wins"] == 1 and v["status"] == "unresolved"

    def test_nine_clean_wins_are_too_few_pairs(self):
        change = [p - 1.5 for p in PARENT[:9]]
        v = bench_ab.verdict(PARENT[:9], change, "lower", 0.25)
        assert v["wins"] == 9 and v["status"] == "unresolved"

    def test_unpaired_runs_are_rejected(self):
        with pytest.raises(ValueError):
            bench_ab.verdict(PARENT, PARENT[:9], "lower", 0.25)


def test_parse_seeds():
    assert bench_ab.parse_seeds("900-903") == [900, 901, 902, 903]
    assert bench_ab.parse_seeds("7") == [7]


def checkout(root, files: dict[str, str]) -> str:
    """A fake checkout at ``root`` holding ``files`` (path relative to it: text)."""
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return str(root)


def declaration(**overrides) -> str:
    """A ``BENCHMARK.json`` with this repository's command, run length and
    paths, and one end-to-end metric, ``train_s``."""
    return json.dumps({"command": [sys.executable, "bench/run.py"], "run_seconds": 40,
                       "paths": ["bench"],
                       "end_to_end": [{"name": "train_s", "better": "lower", "bound": 0.25}],
                       **overrides})


def test_benchmark_check_names_each_differing_file(tmp_path):
    same = {"BENCHMARK.json": "{}", "bench/run.py": "x = 1\n", "bench/data/pins.json": "[]"}
    parent = checkout(tmp_path / "parent", {**same, "bench/__pycache__/run.pyc": "a"})
    twin = checkout(tmp_path / "twin", {**same, "bench/__pycache__/run.pyc": "b"})
    assert bench_ab.benchmark_check(parent, twin, ["bench"]) == [
        "bench and BENCHMARK.json match between the two checkouts"]

    edited = checkout(tmp_path / "edited", {**same, "BENCHMARK.json": '{"bound": 1}',
                                            "bench/data/pins.json": "[1]", "bench/extra.py": ""})
    assert bench_ab.benchmark_check(parent, edited, ["bench"]) == [
        f"benchmark file differs between the checkouts: {path}"
        for path in ("BENCHMARK.json", os.path.join("bench", "data", "pins.json"),
                     os.path.join("bench", "extra.py"))]


def test_run_bench_returns_the_detail_record_and_main_prints_its_environment(tmp_path, capsys):
    # a fake bench/run.py whose BLAS thread count is its seed + 1
    result = {"metrics": {"train_s": {"value": 2.0}}, "failed": 0, "attempted": 3}
    checkout(tmp_path, {"BENCHMARK.json": declaration(), "bench/run.py": (
        "import json, sys\n"
        "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
        "print(json.dumps({'environment': {'usable_cores': 1, 'blas': 'some-blas 1.0',"
        " 'blas_threads': seed + 1}}))\n"
        f"print({json.dumps(result)!r})\n")})
    declared = json.loads(declaration())

    def env(seed):
        return {"usable_cores": 1, "blas": "some-blas 1.0", "blas_threads": seed + 1}

    def stamp(seed):
        return f"environment: {json.dumps(env(seed))}"

    assert bench_ab.run_bench(str(tmp_path), declared, "w", 0) == (
        result, {"environment": env(0)})
    assert bench_ab.main([str(tmp_path), str(tmp_path), "--workload", "w", "--seeds", "0-1"]) == 0
    # a stamp before the first run's metrics, and again when the stamp changes
    assert capsys.readouterr().out.splitlines()[1:7] == [
        stamp(0), "seed 0 parent: train_s=2 failed 0/3", "seed 0 change: train_s=2 failed 0/3",
        stamp(1), "seed 1 change: train_s=2 failed 0/3", "seed 1 parent: train_s=2 failed 0/3"]


def test_run_bench_fails_cleanly_on_fewer_than_two_lines(tmp_path):
    checkout(tmp_path, {"bench/run.py": "print('{}')\n"})
    with pytest.raises(SystemExit, match="after 1 stdout lines"):
        bench_ab.run_bench(str(tmp_path), json.loads(declaration()), "w", 0)


def test_main_runs_the_declared_command_for_the_declared_seconds_and_paths(tmp_path, capsys):
    # a benchmark declared at tools/time.py and 7 s, whose result reports the
    # seconds it was given; bench/ is not a benchmark path there
    script = (
        "import json, sys\n"
        "seconds = float(sys.argv[sys.argv.index('--seconds') + 1])\n"
        "print(json.dumps({'environment': {'argv': sys.argv[1:]}}))\n"
        "print(json.dumps({'metrics': {'train_s': {'value': seconds}},"
        " 'failed': 0, 'attempted': 1}))\n")
    benchmark = declaration(command=[sys.executable, "tools/time.py"], run_seconds=7,
                            paths=["tools"])
    parent = checkout(tmp_path / "parent", {"BENCHMARK.json": benchmark, "tools/time.py": script,
                                            "tools/pins.json": "[]", "bench/run.py": ""})
    change = checkout(tmp_path / "change", {"BENCHMARK.json": benchmark, "tools/time.py": script,
                                            "tools/pins.json": "[1]", "bench/run.py": "x"})
    assert bench_ab.main([parent, change, "--workload", "w", "--seeds", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    argv = ["--workload", "w", "--seed", "3", "--seconds", "7", "--trace", "0"]
    assert out[:4] == [
        f"benchmark file differs between the checkouts: {os.path.join('tools', 'pins.json')}",
        f"environment: {json.dumps({'argv': argv})}",
        "seed 3 parent: train_s=7 failed 0/1", "seed 3 change: train_s=7 failed 0/1"]
