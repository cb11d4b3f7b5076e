"""Seed derivation and random-stream construction.

All randomness in the toolkit flows through counter-based Philox generators
keyed via numpy SeedSequence spawn keys.  A child seed is a pure function of
(root seed, path), so adding more replicates or resplits to an experiment
never perturbs the streams of existing ones, and results reproduce across
platforms.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_seed", "generator"]


def derive_seed(root: int, *path: int) -> int:
    """Derive a 64-bit child seed from a root seed and an index path."""
    if any(p < 0 for p in path):
        raise ValueError("seed path components must be non-negative")
    seq = np.random.SeedSequence(int(root), spawn_key=tuple(int(p) for p in path))
    return int(seq.generate_state(1, np.uint64)[0])


def generator(seed: int) -> np.random.Generator:
    """Philox generator for `seed`; `generator(derive_seed(root, *path))` descends a path."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
