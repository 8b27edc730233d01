import os
import re
import sys
import time
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from gzslgen.data import make_synthetic_dataset  # noqa: E402
from helpers import ORACLE_SEEDS, ORACLE_SPEC, ORACLE_TRAIN, train_in_pool  # noqa: E402


@pytest.fixture(scope="session")
def oracle_bundle():
    return make_synthetic_dataset(ORACLE_SPEC)


@pytest.fixture(scope="session")
def oracle_runs(oracle_bundle):
    """Every oracle model the suite trains, each once, in ``train_in_pool``'s
    worker processes: the ten criterion-6 models, one per seed of
    ``ORACLE_SEEDS`` for ``"full"`` and for ``"baseline_single_gan"``.
    Criteria 6 and 7, the synthesis-quality check, the held-out
    semantic-centroid check and the digest check against
    ``scripts/param_digest.expected`` share them."""
    t0 = time.time()
    variants = ("full", "baseline_single_gan")
    configs = [replace(ORACLE_TRAIN, seed=seed, variant=variant)
               for variant in variants for seed in ORACLE_SEEDS]
    models = train_in_pool(oracle_bundle, configs)
    runs = {variant: models[i * len(ORACLE_SEEDS): (i + 1) * len(ORACLE_SEEDS)]
            for i, variant in enumerate(variants)}
    runs["train_seconds"] = time.time() - t0
    return runs

CRITERIA_LABELS = {
    1: "harmonic-mean fixtures from the benchmark table",
    2: "loss-term unit suite (exact + compositional oracles)",
    3: "analytic gradients vs finite differences",
    4: "gradient-penalty fixtures",
    5: "training-loop step schedule and isolation",
    6: "synthetic-oracle end-to-end H and variant ordering",
    7: "sample-count sweep direction",
    8: "byte-identical re-runs",
    9: "documented-format dataset through train+evaluate",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, aggregated over subtests."""
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            when = getattr(rep, "when", "call")
            match = re.search(r"test_criterion_0?(\d+)", nodeid)
            if not match:
                continue
            ok = outcome == "passed"
            if when != "call" and ok:
                continue  # count setup/teardown only when they break
            crit = int(match.group(1))
            total, passed = results.get(crit, (0, 0))
            results[crit] = (total + 1, passed + (1 if ok else 0))
    if not results:
        return
    tw = terminalreporter
    tw.write_sep("-", "acceptance criteria")
    for crit in sorted(results):
        total, passed = results[crit]
        status = "PASS" if passed == total else "FAIL"
        label = CRITERIA_LABELS.get(crit, "")
        tw.write_line(
            f"criterion {crit} ({label}): {status} [{passed}/{total} checks]"
        )
