"""Train the acceptance oracle once per variant and print the SHA-256 of its parameters.

    python3 scripts/param_digest.py [--check FILE]

It prints one ``<variant> <sha256>`` line for each of the five variants of
``trainer.VARIANTS``, so the baseline and ablation training paths are
checked as well as ``full``, and a ``full_cycle`` line for ``full``
with ``pair_mode="cycle"``, which pairs the reconstructed attributes with
the cycled features instead of the real ones.

A seventh ``paper_fit <sha256>`` line checks the final softmax fit at paper
shape, where the oracle lines cannot: at H=64 and K=16 no logit gradient
gets small enough to be subnormal. It is the evaluate fit of input set 0 of
``paper_eval``, as ``bench/workloads.py`` declares it: its synthesized rows
plus the real seen rows, fit over all 50 classes with its eval section's step
cap and tolerance. The digest covers ``w`` then ``b``. It adds about eight
seconds.

An eighth ``paper_train <sha256>`` line checks training itself at paper
shape: input set 0 of ``paper_train``, as ``bench/workloads.py`` declares
it, hashing ``ModelParams.all_arrays()``. Its 240 rows make three batches of
64 and a last one of 48, and its weight gradients are formed several blocks
of rows at a time, as pieces that tile the flat buffer in order
(``networks.MLPGrads.segments``), which the H=64 oracle lines, one block per
gradient, cannot reach. It adds about twelve seconds.

A ninth ``checkpoint <sha256>`` line hashes the archive bytes that
``save_checkpoint`` writes for the oracle ``full`` model, with the oracle
spec and that model's ``TrainConfig`` as its run config. The parameter lines
cannot see the checkpoint format; this one pins it, so a change to how
checkpoints are written must leave it equal.

A tenth ``synth <sha256>`` line hashes the features, then the labels, that
``synthesize_features`` returns for the ``paper_fit`` model and request,
so a change to how features are synthesized
must leave them equal. It reuses the ``paper_fit`` model and adds well under
a second.

Run from any directory; it imports ``gzslgen`` from ``src/``, the test
helpers from ``tests/``, and the benchmark's workloads and environment stamp
from ``bench/`` next to this script. The oracle is the one of
acceptance criteria 6 and 7, ``tests/helpers.py``'s ``ORACLE_SPEC``
(``SyntheticSpec(3, 2, 16, 4, 50, 0.1, 5, 11)``) trained with its
``ORACLE_TRAIN`` (600 epochs at seed 0, B=30, H=64, learning rate 1e-4,
beta2 0.999), and the six oracle models train in that module's
``train_in_pool``: at most two spawned processes with one BLAS thread each.
Run as a script, it sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads, so
the paper-shape lines take one BLAS thread too: no line depends on the
caller's thread setting or the host's core count. The digest covers the
bytes of every array of ``ModelParams.all_arrays()`` in order, so two
commits that print the same digest trained bit-identical parameters.

``--check FILE`` compares the printed lines with the ``<label> <sha256>``
lines of ``FILE``, skipping blank and ``#`` comment lines, and exits 1 after
naming on stderr each line that differs. A line with a label but no text, or
a label given twice, makes it exit 2 naming ``FILE:line`` before any
training. ``scripts/param_digest.expected`` holds the lines; a change that
alters trained bits updates it in the same commit, so the new digests show
in its diff. Its ``environment`` line records what the
digests were taken under: the numpy version, the BLAS name and version, and
the CPU model of ``bench/run.py``'s ``environment()`` stamp, which matters
because the OpenBLAS in numpy's wheels picks its kernels for the CPU at run
time. When a digest differs and the running environment is not the
recorded one, ``--check`` names both.

It prints the ten lines together, once the last is taken, after about a
minute on a 2-vCPU host. Run it alone there, not beside the
tests, ``bench/run.py`` or ``scripts/bench_ab.py``: its oracle lines keep
both cores busy, and overlapping runs slow each other far more than
twofold, so the timings of whatever it overlaps cannot be compared.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from dataclasses import replace

if __name__ == "__main__":
    # read when numpy loads OpenBLAS; an import, as by the tests, leaves the
    # importing process's environment alone
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests"),
                os.path.join(_ROOT, "bench")]

from gzslgen import (SynthesisRequest, TrainConfig, fit_gzsl_classifier,  # noqa: E402
                     make_synthetic_dataset, synthesize_features, train)
from gzslgen.config import RunConfig, parse_run_config, save_checkpoint  # noqa: E402
from gzslgen.trainer import VARIANTS  # noqa: E402
from helpers import ORACLE_SPEC, ORACLE_TRAIN, train_in_pool  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ENVIRONMENT = "environment"


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(arr.tobytes())
    return digest.hexdigest()


def paper_fit_digests() -> tuple[str, str]:
    """The ``paper_fit`` and ``synth`` digests, from one trained model."""
    cfg = parse_run_config(WORKLOADS["paper_eval"].run_config(0, "run"))
    bundle = cfg.resolve_bundle()
    params, _ = train(bundle, cfg.train)
    request = SynthesisRequest(bundle.all_classes, cfg.eval.n_per_class, cfg.eval.seed)
    synth, synth_labels = synthesize_features(params, bundle, request)
    features = np.vstack([synth, bundle.visual_train])
    labels = np.concatenate([synth_labels, bundle.labels_train])
    clf = fit_gzsl_classifier(features, labels, bundle.all_classes,
                              max_steps=cfg.eval.classifier_max_steps,
                              grad_tol=cfg.eval.classifier_grad_tol)
    return _sha256([clf.params.w, clf.params.b]), _sha256([synth, synth_labels])


def paper_train_digest() -> str:
    cfg = parse_run_config(WORKLOADS["paper_train"].run_config(0, "run"))
    params, _ = train(cfg.resolve_bundle(), cfg.train)
    return _sha256(params.all_arrays())


def checkpoint_digest(params, config: TrainConfig) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.zip")
        save_checkpoint(path, params, RunConfig(synthetic=ORACLE_SPEC, train=config))
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def environment_line() -> str:
    """The numpy version, BLAS name and version, and CPU model of this process."""
    env = run.environment()
    return f"numpy {env['numpy']}; {env['blas']}; {env['cpu']}"


def read_expected(path: str) -> dict[str, str]:
    """Each ``<label> <text>`` line of ``path`` by label, the environment line
    included, skipping blank and ``#`` lines. A line without text, or a label
    given twice, is a ValueError naming ``path:line``."""
    lines: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip() or line.startswith("#"):
                continue
            label, *text = line.split(maxsplit=1)
            if not text or label in lines:
                problem = "label given twice" if text else "label without a digest"
                raise ValueError(f"{path}:{number}: {problem}: {label}")
            lines[label] = text[0].strip()
    return lines


def differences(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """One message per label, the environment aside, whose line differs
    between ``want`` and ``got``; then, if any does and the environments
    differ too, one naming both."""
    messages = [f"{label}: expected {want.get(label, 'no line')}, got {got.get(label, 'no line')}"
                for label in {**want, **got}
                if label != ENVIRONMENT and want.get(label) != got.get(label)]
    recorded, running = want.get(ENVIRONMENT), got.get(ENVIRONMENT)
    if messages and recorded != running:
        messages.append(f"recorded under {recorded or 'no environment line'}; "
                        f"running under {running}")
    return messages


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE", help="expected lines; exit 1 if any differs")
    args = parser.parse_args()
    try:
        want = read_expected(args.check) if args.check else None
    except ValueError as exc:
        parser.error(str(exc))

    runs = {variant: (variant, "real") for variant in VARIANTS}
    runs["full_cycle"] = ("full", "cycle")
    configs = [replace(ORACLE_TRAIN, variant=variant, pair_mode=pair_mode)
               for variant, pair_mode in runs.values()]
    models = train_in_pool(make_synthetic_dataset(ORACLE_SPEC), configs)
    got = {label: _sha256(params.all_arrays()) for label, params in zip(runs, models)}
    full = list(runs).index("full")
    fit, synth = paper_fit_digests()
    got.update(paper_fit=fit, paper_train=paper_train_digest(),
               checkpoint=checkpoint_digest(models[full], configs[full]), synth=synth)
    for label, digest in got.items():
        print(label, digest)

    if want is None:
        return 0
    messages = differences(want, {**got, ENVIRONMENT: environment_line()})
    for message in messages:
        print(f"{args.check}: {message}", file=sys.stderr)
    return 1 if messages else 0


if __name__ == "__main__":
    sys.exit(main())
