"""Train the acceptance oracle once per variant and print the SHA-256 of its parameters.

    python3 scripts/param_digest.py [--check FILE]

It prints one ``<variant> <sha256>`` line for each of the five variants of
``trainer.VARIANTS``, so the baseline and ablation training paths are
checked as well as ``full``, and a ``full_cycle`` line for ``full``
with ``pair_mode="cycle"``, which pairs the reconstructed attributes with
the cycled features instead of the real ones.

A seventh ``paper_fit <sha256>`` line checks the final softmax fit at paper
shape, where the oracle lines cannot: at H=64 and K=16 no logit gradient
gets small enough to be subnormal. It is the evaluate fit of the
benchmark's ``paper_eval`` input set 0: ``SyntheticSpec(40, 10, 2048, 85,
2, 0.1, 0, 0)`` trained with ``TrainConfig(epochs=1, batch_size=40,
seed=0)``, 3 synthesized rows per class (seed 0) plus the real seen rows,
and ``fit_gzsl_classifier`` over all 50 classes (``EvalConfig``'s 1000
steps and tolerance 1e-5); the digest covers ``w`` then ``b``. It adds
about eight seconds.

An eighth ``paper_train <sha256>`` line checks training itself at paper
shape: ``SyntheticSpec(40, 10, 2048, 85, 6, 0.1, 0, 0)`` trained with
``TrainConfig(epochs=1, seed=0)``, hashing ``ModelParams.all_arrays()``. Its
240 rows make three batches of 64 and a last one of 48, and its weight
gradients are formed several blocks of rows at a time, as pieces that tile
the flat buffer in order (``networks.MLPGrads.segments``), which the H=64
oracle lines, one block per gradient, cannot reach. It adds about twelve
seconds.

A ninth ``checkpoint <sha256>`` line hashes the archive bytes that
``save_checkpoint`` writes for the oracle ``full`` model, with the oracle
spec and that model's ``TrainConfig`` as its run config. The parameter lines
cannot see the checkpoint format; this one pins it, so a change to how
checkpoints are written must leave it equal.

A tenth ``synth <sha256>`` line hashes the features, then the labels, that
``synthesize_features`` returns for the ``paper_fit`` model and request
(3 rows per class, seed 0), so a change to how features are synthesized
must leave them equal. It reuses the ``paper_fit`` model and adds well under
a second.

Run from any directory; it imports ``gzslgen`` from ``src/``, the test
helpers from ``tests/`` and the benchmark's environment stamp from
``bench/run.py`` next to this script. The oracle is the one of
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
lines of ``FILE``, skipping ``#`` comment lines, and exits 1 after naming on
stderr each line that differs. ``scripts/param_digest.expected`` holds the
lines; a change that alters trained bits updates it in the same commit, so
the new digests show in its diff. Its ``environment`` line records what the
digests were taken under: the numpy version, the BLAS name and version, and
the CPU model of ``bench/run.py``'s ``environment()`` stamp, which matters
because the OpenBLAS in numpy's wheels picks its kernels for the CPU at run
time. When a digest differs and the running environment is not the
recorded one, ``--check`` names both.

It takes about a minute on a 2-vCPU host. Run it alone there, not beside the
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

from gzslgen import (  # noqa: E402
    SynthesisRequest,
    SyntheticSpec,
    TrainConfig,
    fit_gzsl_classifier,
    make_synthetic_dataset,
    synthesize_features,
    train,
)
from gzslgen.config import RunConfig, save_checkpoint  # noqa: E402
from gzslgen.trainer import VARIANTS  # noqa: E402
from helpers import ORACLE_SPEC, ORACLE_TRAIN, train_in_pool  # noqa: E402
import run  # noqa: E402


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(arr.tobytes())
    return digest.hexdigest()


def paper_fit_digests() -> tuple[str, str]:
    """The ``paper_fit`` and ``synth`` digests, from one trained model."""
    bundle = make_synthetic_dataset(SyntheticSpec(40, 10, 2048, 85, 2, 0.1, 0, 0))
    params, _ = train(bundle, TrainConfig(epochs=1, batch_size=40, seed=0))
    request = SynthesisRequest(classes=bundle.all_classes, n_per_class=3, seed=0)
    synth, synth_labels = synthesize_features(params, bundle, request)
    features = np.vstack([synth, bundle.visual_train])
    labels = np.concatenate([synth_labels, bundle.labels_train])
    clf = fit_gzsl_classifier(features, labels, bundle.all_classes,
                              max_steps=1000, grad_tol=1e-5)
    return _sha256([clf.params.w, clf.params.b]), _sha256([synth, synth_labels])


def paper_train_digest() -> str:
    bundle = make_synthetic_dataset(SyntheticSpec(40, 10, 2048, 85, 6, 0.1, 0, 0))
    params, _ = train(bundle, TrainConfig(epochs=1, seed=0))
    return _sha256(params.all_arrays())


def checkpoint_digest(params, config: TrainConfig) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.zip")
        save_checkpoint(path, params, RunConfig(synthetic=ORACLE_SPEC, train=config))
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


ENVIRONMENT = "environment"


def environment_line() -> str:
    """The numpy version, BLAS name and version, and CPU model of this process."""
    env = run.environment()
    return f"numpy {env['numpy']}; {env['blas']}; {env['cpu']}"


def _read_lines(path: str) -> dict[str, str]:
    """Each ``<label> <text>`` line of ``path`` by label, skipping blank and ``#`` lines."""
    with open(path, encoding="utf-8") as fh:
        return dict(line.strip().split(maxsplit=1) for line in fh
                    if line.strip() and not line.startswith("#"))


def read_digests(path: str) -> dict[str, str]:
    """The ``<label> <sha256>`` lines of ``path``, without its environment line."""
    return {label: text for label, text in _read_lines(path).items() if label != ENVIRONMENT}


def read_environment(path: str) -> str | None:
    """The text of the environment line of ``path``; None without one."""
    return _read_lines(path).get(ENVIRONMENT)


def environment_note(recorded: str | None, running: str) -> str:
    """A line naming both environments for a differing digest; empty when
    ``running`` is the ``recorded`` one."""
    if recorded == running:
        return ""
    return f"recorded under {recorded or 'no environment line'}; running under {running}"


def differing_lines(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """One message per label whose digest differs between ``want`` and ``got``."""
    return [f"{label}: expected {want.get(label, 'no line')}, got {got.get(label, 'no line')}"
            for label in {**want, **got} if want.get(label) != got.get(label)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE", help="expected lines; exit 1 if any differs")
    args = parser.parse_args()
    want = read_digests(args.check) if args.check else None
    got = {}

    def emit(label: str, digest: str) -> None:
        got[label] = digest
        print(label, digest, flush=True)

    runs = {variant: (variant, "real") for variant in VARIANTS}
    runs["full_cycle"] = ("full", "cycle")
    configs = [replace(ORACLE_TRAIN, variant=variant, pair_mode=pair_mode)
               for variant, pair_mode in runs.values()]
    models = train_in_pool(make_synthetic_dataset(ORACLE_SPEC), configs)
    for label, params in zip(runs, models):
        emit(label, _sha256(params.all_arrays()))
    full = list(runs).index("full")
    fit, synth = paper_fit_digests()
    emit("paper_fit", fit)
    emit("paper_train", paper_train_digest())
    emit("checkpoint", checkpoint_digest(models[full], configs[full]))
    emit("synth", synth)

    if want is None:
        return 0
    differing = differing_lines(want, got)
    for message in differing:
        print(f"differs from {args.check}: {message}", file=sys.stderr)
    note = environment_note(read_environment(args.check), environment_line())
    if differing and note:
        print(f"{args.check}: {note}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
