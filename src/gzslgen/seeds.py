"""Deterministic seed derivation.

All randomness of training flows from one root seed, split into named
sub-streams (``init``, ``shuffle-<epoch>`` and ``noise``) so that changing
one consumer never perturbs the others. Both softmax fits start from zero
and draw nothing; synthesis is seeded by ``eval.seed`` directly.
"""

import zlib

import numpy as np


def child_seed(root: int, name: str) -> int:
    """Derive a stable child seed from a root seed and a stream name.

    Uses CRC32 of the name (not ``hash()``, which is salted per process)
    so the mapping is reproducible across runs and machines. ``root`` must
    be >= 0; distinct roots give distinct streams.
    """
    tag = zlib.crc32(name.encode("utf-8"))
    seq = np.random.SeedSequence([int(root), tag])
    return int(seq.generate_state(1, np.uint64)[0])
