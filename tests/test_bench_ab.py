import os

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

    def test_unpaired_runs_are_rejected(self):
        with pytest.raises(ValueError):
            bench_ab.verdict(PARENT, PARENT[:9], "lower", 0.25)


def test_parse_seeds():
    assert bench_ab.parse_seeds("900-903") == [900, 901, 902, 903]
    assert bench_ab.parse_seeds("7") == [7]


def test_benchmark_check_names_each_differing_file(tmp_path):
    def checkout(name, files):
        root = tmp_path / name
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        return str(root)

    same = {"BENCHMARK.json": "{}", "bench/run.py": "x = 1\n", "bench/data/pins.json": "[]"}
    parent = checkout("parent", {**same, "bench/__pycache__/run.pyc": "a"})
    twin = checkout("twin", {**same, "bench/__pycache__/run.pyc": "b"})
    assert bench_ab.benchmark_check(parent, twin) == [
        "bench/ and BENCHMARK.json match between the two checkouts"]

    edited = checkout("edited", {**same, "BENCHMARK.json": '{"bound": 1}',
                                 "bench/data/pins.json": "[1]", "bench/extra.py": ""})
    assert bench_ab.benchmark_check(parent, edited) == [
        f"benchmark file differs between the checkouts: {path}"
        for path in ("BENCHMARK.json", os.path.join("bench", "data", "pins.json"),
                     os.path.join("bench", "extra.py"))]
