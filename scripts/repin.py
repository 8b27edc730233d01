"""Re-run the benchmark's ten ``paper_eval`` input sets and print the
``PAPER_EVAL_EXPECTED`` literal of the (tr, ts, H) outputs they give.

    python3 scripts/repin.py

``bench/workloads.py`` pins, per input set, the evaluate outputs of the
``paper_eval`` workload, and the benchmark counts a run whose outputs differ
as a failed operation. A change that moves training's or the fit's
arithmetic moves those outputs, so it needs new pins first. This script runs
each input set once through the benchmark's own ``run_pipeline`` (one pass,
no repetitions), prints a ``PAPER_EVAL_EXPECTED = {...}`` literal of what it
got, in the layout ``bench/workloads.py`` uses, and exits 1 after naming on
stderr each input set whose outputs differ from the pinned ones. It edits no
file: a re-pin pastes the literal into ``bench/workloads.py`` in a change of
its own.

Before the first input set it prints ``environment: <json>`` on stderr,
``bench/run.py``'s environment stamp (usable cores, BLAS name, version and
thread count, numpy and Python versions, CPU model): the pinned outputs
depend on the BLAS thread count, so a re-pin records the one it ran at.

It takes about 100 seconds on a 2-vCPU host. Run it alone, not beside the
tests or the benchmark: nothing caps the BLAS thread count. It imports
``gzslgen`` from ``src/`` and the workloads and ``run`` from ``bench/`` next
to this script.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "bench")]

import run  # noqa: E402
import workloads  # noqa: E402

_PER_LINE = 3  # input sets per line of the literal, as in bench/workloads.py


def literal(outputs: dict[int, tuple[float, float, float] | None]) -> str:
    """``PAPER_EVAL_EXPECTED = {...}`` for ``outputs``, input set -> (tr, ts, H)."""
    items = [f"{s}: {outputs[s]!r}," for s in sorted(outputs)]
    lines = [" ".join(items[i : i + _PER_LINE]) for i in range(0, len(items), _PER_LINE)]
    return "PAPER_EVAL_EXPECTED = {\n" + "".join(f"    {line}\n" for line in lines) + "}"


def differing_sets(want: dict, got: dict) -> list[str]:
    """One message per input set whose outputs differ between ``want`` and ``got``."""
    return [f"input set {s}: pinned {want.get(s, 'nothing')}, got {got.get(s, 'nothing')}"
            for s in sorted({*want, *got}) if want.get(s) != got.get(s)]


def main() -> int:
    workload = workloads.WORKLOADS["paper_eval"]
    print(f"environment: {json.dumps(run.environment())}", file=sys.stderr, flush=True)
    got: dict[int, tuple[float, float, float] | None] = {}
    for s in range(workloads.PAPER_EVAL_INPUT_SETS):
        t = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            rec = workloads.run_pipeline(workload, s, 0.0, tmp, fill=False)
        report = rec.report
        got[s] = None if report is None else (report.tr, report.ts, report.h)
        print(f"input set {s}: {got[s]} in {time.perf_counter() - t:.1f} s", file=sys.stderr,
              flush=True)
        if report is None:
            print(f"input set {s}: no report: {rec.failures}", file=sys.stderr)
    print(literal(got))
    differing = differing_sets(workloads.PAPER_EVAL_EXPECTED, got)
    for message in differing:
        print(f"differs from bench/workloads.py: {message}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
