"""Run the benchmark on two checkouts in alternating pairs and judge the gain.

    python3 scripts/bench_ab.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B

The parent's ``BENCHMARK.json`` declares what it runs and judges: its
``command``, ``run_seconds``, ``paths`` and ``end_to_end`` metrics. For each
seed S from A to B it runs ``<command> --workload W --seed S --seconds
<run_seconds> --trace 0`` once in each checkout, alternating which side runs
first, and prints every run's end-to-end metrics as it goes. It then prints,
for each end-to-end metric, the parent's median [q1, q3] -> the change's
median, the number of pairs the change won (ties count for neither) and the
closest pair, followed by the verdict. The closest pair is the one the
change won by the least or lost by the most, shown as its change/parent
ratio: a gain that rests on the medians alone may not survive a noisier
host, and that pair shows how near it came. A metric that fewer than 10
pairs reported is ``unresolved``, as one clean win is no evidence. Otherwise
the verdicts are, in this order:

  gain          the change won at least 9 in 10 pairs and the medians
                differ by more than the parent's quartile distance;
  worse         the change's median is worse than the parent's by more
                than the metric's bound;
  unresolved    the parent's quartile distance exceeds the bound, so the
                bound cannot decide the metric, and not every change run
                is better than every parent run;
  within bound  none of these.

Before the first run it prints each file under the declared ``paths``, and
``BENCHMARK.json``, that differs between the two checkouts (or is in one
only), or one line saying that they match: a gain measured against an
edited benchmark does not count. Bytecode caches are not compared.

Before the first run's metrics, and again whenever a run reports another
one, it prints ``environment: <json>``: the environment stamp of the detail
record that the command prints before its result (usable cores, BLAS name,
version and thread count, numpy and Python versions, CPU model).

A last line gives each side's failed/attempted operation count. Only the
standard library is used; the two checkouts need not be the one holding
this script.

Run it alone on a small host, not beside the tests, another benchmark run or
``scripts/param_digest.py``: nothing caps the BLAS thread count, and
overlapping runs slow each other far more than twofold, so timings taken
while another run overlaps cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

# fewer pairs than this decide no metric (Kalibera & Jones 2013)
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by the ``statistics`` module's default method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Judge one metric over paired runs: ``parent[i]`` and ``change[i]`` share a seed.

    ``better`` is "lower" or "higher"; ``bound`` is the metric's allowed
    worsening as a fraction of the parent's median. Fewer than ``MIN_PAIRS``
    pairs are ``unresolved`` whatever their values. ``closest`` is the
    (index, change/parent ratio) of the pair the change did best in least.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of parent and change runs")
    sign = 1.0 if better == "lower" else -1.0
    q1, med, q3 = quartiles(parent)
    change_med = statistics.median(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = sign * (med - change_med)  # > 0 when the change is better
    spread = q3 - q1
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    ratios = [c / p if p else math.inf for p, c in zip(parent, change)]
    closest = max(range(len(ratios)), key=lambda i: sign * ratios[i])
    if len(parent) < MIN_PAIRS:
        status = "unresolved"
    elif 10 * wins >= 9 * len(parent) and gain > spread:
        status = "gain"
    elif -gain > bound * abs(med):
        status = "worse"
    elif spread > bound * abs(med) and not every_run_better:
        status = "unresolved"
    else:
        status = "within bound"
    return {"parent": (med, q1, q3), "change": change_med, "wins": wins,
            "pairs": len(parent), "closest": (closest, ratios[closest]), "status": status}


def run_bench(checkout: str, declared: dict, workload: str, seed: int) -> tuple[dict, dict]:
    """One untraced run of the ``declared`` benchmark's command; returns its
    last stdout line, the result, and the line before it, the detail record,
    as JSON."""
    cmd = [*declared["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(declared["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode} "
                         f"after {len(lines)} stdout lines\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def benchmark_files(checkout: str, declared: list[str]) -> dict[str, bytes]:
    """``BENCHMARK.json`` and every file under the ``declared`` paths, by path
    relative to ``checkout``; ``__pycache__`` directories are skipped."""
    paths = [os.path.join(checkout, top) for top in ["BENCHMARK.json", *declared]]
    for top in declared:
        for root, dirs, names in os.walk(os.path.join(checkout, top)):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            paths += [os.path.join(root, name) for name in names]
    files = {}
    for path in paths:
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                files[os.path.relpath(path, checkout)] = fh.read()
    return files


def benchmark_check(parent_dir: str, change_dir: str, declared: list[str]) -> list[str]:
    """One line per benchmark file under the ``declared`` paths, or
    ``BENCHMARK.json``, that differs between the checkouts, or one line
    saying that they match."""
    parent = benchmark_files(parent_dir, declared)
    change = benchmark_files(change_dir, declared)
    differ = sorted(p for p in parent.keys() | change.keys() if parent.get(p) != change.get(p))
    if not differ:
        return [f"{', '.join(declared)} and BENCHMARK.json match between the two checkouts"]
    return [f"benchmark file differs between the checkouts: {path}" for path in differ]


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    args = parser.parse_args(argv)
    with open(os.path.join(args.parent_dir, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)

    for line in benchmark_check(args.parent_dir, args.change_dir, declared["paths"]):
        print(line, flush=True)

    sides = {"parent": args.parent_dir, "change": args.change_dir}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    stamp = None
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, detail = run_bench(sides[side], declared, args.workload, seed)
            if detail.get("environment") != stamp:
                stamp = detail.get("environment")
                print(f"environment: {json.dumps(stamp)}", flush=True)
            runs[side].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"seed {seed} {side}: {values} failed {result['failed']}/{result['attempted']}",
                  flush=True)

    print(f"\n{args.workload}, {len(args.seeds)} pairs: parent median [q1, q3] -> change median")
    for metric in declared["end_to_end"]:
        name = metric["name"]
        # a run that failed before its first full pass reports no metrics
        pairs = [(seed, p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for seed, p, c in zip(args.seeds, runs["parent"], runs["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            print(f"  {name}: no pair of runs reported it")
            continue
        seeds, parent, change = (list(side) for side in zip(*pairs))
        v = verdict(parent, change, metric["better"], metric["bound"])
        med, q1, q3 = v["parent"]
        pct = 100.0 * (v["change"] / med - 1.0) if med else float("nan")
        i, ratio = v["closest"]
        print(f"  {name}: {med:.4g} [{q1:.4g}, {q3:.4g}] -> {v['change']:.4g} "
              f"({pct:+.1f}%), change won {v['wins']} of {v['pairs']}, closest pair "
              f"seed {seeds[i]} at {ratio:.3f}: {v['status']}")
    counts = {side: (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
              for side, rs in runs.items()}
    print("  failed/attempted operations: " + ", ".join(
        f"{side} {failed}/{attempted}" for side, (failed, attempted) in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
