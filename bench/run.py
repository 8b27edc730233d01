"""Benchmark entry point.

    python3 bench/run.py --workload oracle --seed 0 --seconds 40 --trace 0

Run from the repository root. It imports ``gzslgen`` from ``src/`` of that
checkout (pure Python, so there is nothing to build) and exits with code 2,
printing no result, when that source tree is missing. With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a traced run, whose tracing overhead is measured
against untraced runs of the same workload. The line before it is a JSON
detail record: environment stamp, output values and failed operations.
Work files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import resource
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")


def _import_library() -> bool:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gzslgen", "__init__.py")):
        return False
    sys.path.insert(0, src)
    import gzslgen

    return os.path.dirname(os.path.abspath(gzslgen.__file__)) == os.path.join(src, "gzslgen")


def _blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    base = os.path.dirname(os.path.dirname(numpy.__file__))
    for lib in glob.glob(os.path.join(base, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "cpu": cpu,
    }


def _untraced_pass_s(workload: str) -> list[float]:
    values = []
    for path in glob.glob(os.path.join(OUT, "results", f"{workload}-seed*-trace0.json")):
        with open(path, encoding="utf-8") as fh:
            values.append(json.load(fh)["pass_s"])
    return values


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not _import_library():
        print(f"gzslgen sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import layers
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    try:
        if args.trace:
            reference = _untraced_pass_s(workload.name)
            if not reference:
                reference = [workloads.run_pipeline(
                    workload, args.seed, args.seconds, work_dir, fill=False).pass_s]
            tracer = Tracer()
            tracer.install()
            try:
                rec = workloads.run_pipeline(
                    workload, args.seed, args.seconds, work_dir, tracer=tracer, fill=False)
            finally:
                tracer.uninstall()
            metrics = {}
            if math.isfinite(rec.pass_s):
                overhead = 100.0 * (rec.pass_s / statistics.median(reference) - 1.0)
                solvers = layers.solver_outcomes(tracer, rec.bundle, rec.run_config)
                metrics = layers.per_layer(tracer, rec, solvers, overhead)
                tracer.save(os.path.join(OUT, f"spans-{workload.name}.npz"))
        else:
            rec = workloads.run_pipeline(workload, args.seed, args.seconds, work_dir)
            metrics = {}
            if math.isfinite(rec.pass_s):
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                metrics = workloads.end_to_end(rec, peak_rss_mb)
                result = os.path.join(OUT, "results", f"{workload.name}-seed{args.seed}-trace0.json")
                with open(result, "w", encoding="utf-8") as fh:
                    json.dump({"pass_s": rec.pass_s,
                               **{k: v for k, (v, _) in metrics.items()}}, fh, sort_keys=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "outputs": None if rec.report is None else {
            "tr": rec.report.tr, "ts": rec.report.ts, "H": rec.report.h,
            "sweep": [[n, h] for n, h in rec.curve],
        },
        "samples": {"setup": len(rec.setup_s), "train_iter": len(rec.iteration_ms()),
                    "first_step": len(rec.first_step_s), "save": len(rec.save_s),
                    "evaluate": len(rec.evaluate_s), "sweep": len(rec.sweep_s)},
        "train_iter_ms.p90": rec.iteration_p90(),
        "pass_s": rec.pass_s if math.isfinite(rec.pass_s) else None,
        "failed_ops": rec.failures,
        "failed_ops_ratio": len(rec.failures) / rec.attempted,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
