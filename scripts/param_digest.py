"""Train the acceptance oracle once per variant and print the SHA-256 of its parameters.

    python3 scripts/param_digest.py --epochs 600 [--seed 0]

It prints one ``<variant> <sha256>`` line for each of the five variants of
``trainer.VARIANTS``, so the baseline and ablation training paths are
checked as well as ``full``, and a last ``full_cycle`` line for ``full``
with ``pair_mode="cycle"``, which pairs the reconstructed attributes with
the cycled features instead of the real ones.

Run from any directory; it imports ``gzslgen`` from ``src/`` next to this
script. The oracle is the one of tests/test_acceptance.py (criteria 6 and 7):
``SyntheticSpec(3, 2, 16, 4, 50, 0.1, 5, 11)``, B=30, H=64,
learning rate 1e-4, beta2 0.999. The digest covers the bytes of every array
of ``ModelParams.all_arrays()`` in order, so two commits that print the same
digest trained bit-identical parameters.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from gzslgen import OptimizerConfig, SyntheticSpec, TrainConfig, make_synthetic_dataset, train  # noqa: E402
from gzslgen.trainer import VARIANTS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    bundle = make_synthetic_dataset(SyntheticSpec(3, 2, 16, 4, 50, 0.1, 5, 11))
    runs = [(variant, variant, "real") for variant in VARIANTS]
    runs.append(("full_cycle", "full", "cycle"))
    for label, variant, pair_mode in runs:
        config = TrainConfig(
            batch_size=30, epochs=args.epochs, hidden_dim=64,
            optimizer=OptimizerConfig(learning_rate=1e-4, beta2=0.999),
            seed=args.seed, variant=variant, pair_mode=pair_mode,
        )
        params, _ = train(bundle, config)
        digest = hashlib.sha256()
        for arr in params.all_arrays():
            digest.update(arr.tobytes())
        print(label, digest.hexdigest(), flush=True)


if __name__ == "__main__":
    main()
