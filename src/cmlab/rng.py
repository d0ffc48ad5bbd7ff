"""Deterministic derivation of independent random streams.

Every stochastic operation in the package draws from a stream derived from
(root seed, operation tag, indices).  Derivation is stable across runs and
platforms, which is what makes whole experiment reports byte-reproducible
and lets sweeps share their noise exactly (common random numbers).  An
operation that hands a seed on to another takes it from `derive_seed`.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_seed_sequence(root_seed: int, *tags) -> np.random.SeedSequence:
    """Build a SeedSequence from a root seed and a tag path.

    Tags are hashed (not Python ``hash``, which is salted per process) so the
    same (seed, tags) always yields the same stream.
    """
    h = hashlib.blake2s(digest_size=16)
    for tag in tags:
        h.update(repr(tag).encode("utf-8"))
        h.update(b"\x1f")
    digest = int.from_bytes(h.digest(), "little")
    return np.random.SeedSequence([int(root_seed) & _MASK64, digest])


def derive_rng(root_seed: int, *tags) -> np.random.Generator:
    """Independent Generator for the given (root seed, tag path)."""
    return np.random.default_rng(derive_seed_sequence(root_seed, *tags))


def derive_seed(root_seed: int, *tags) -> int:
    """Root seed in [0, 2**63) for a child operation, drawn from the
    (root seed, tag path) stream."""
    return int(derive_rng(root_seed, *tags).integers(2**63))
