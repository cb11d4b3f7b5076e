"""Butina clustering over fingerprints and cluster-based training plans.

Neighbor computation is vectorized over packed 64-bit words, so the O(L^2)
similarity table stays cheap at dataset scale (a few thousand molecules).
The greedy assignment is the classic scheme: repeatedly promote the
unassigned item with the most unassigned neighbors to centroid, ties going
to the lowest index.  Because neighbor counts only shrink as items are
assigned, clusters emerge in non-increasing size order.

The protocol's sampling constants are fixed here: training sets draw k <=
`MAX_PER_CLUSTER` members from each cluster of at least
`LARGE_CLUSTER_MIN_SIZE` members, and everything else is the test set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SplitPlan
from .errors import ConfigError, DataError, InvariantViolation
from .fingerprint import Fingerprint
from .rng import generator

__all__ = ["Clustering", "butina_cluster", "cluster_training_plan", "neighbor_matrix"]

LARGE_CLUSTER_MIN_SIZE = 21
MAX_PER_CLUSTER = 7
NEIGHBOR_CHUNK = 256  # rows per block of the neighbor matrix


@dataclass(frozen=True)
class Clustering:
    """Partition of input indices; each cluster leads with its centroid."""

    clusters: tuple[tuple[int, ...], ...]

    @property
    def n_items(self) -> int:
        return sum(len(c) for c in self.clusters)

    def labels(self) -> np.ndarray:
        out = np.empty(self.n_items, dtype=np.int64)
        for cluster_id, members in enumerate(self.clusters):
            for idx in members:
                out[idx] = cluster_id
        return out

    def sizes(self) -> list[int]:
        return [len(c) for c in self.clusters]


def neighbor_matrix(fps: list[Fingerprint], cutoff: float) -> np.ndarray:
    """Boolean matrix of pairwise Tanimoto >= cutoff (diagonal True)."""
    widths = {fp.nbits for fp in fps}
    if len(widths) > 1:
        raise InvariantViolation(f"mixed fingerprint widths: {sorted(widths)}")
    words = np.stack([fp.to_words() for fp in fps])
    pop = np.bitwise_count(words).sum(axis=1).astype(np.int64)
    n = len(fps)
    out = np.empty((n, n), dtype=bool)
    for start in range(0, n, NEIGHBOR_CHUNK):
        stop = min(start + NEIGHBOR_CHUNK, n)
        inter = np.bitwise_count(words[start:stop, None, :] & words[None, :, :]).sum(axis=2)
        union = pop[start:stop, None] + pop[None, :] - inter
        sims = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
        out[start:stop] = sims >= cutoff
    return out


def butina_cluster(fps: list[Fingerprint], cutoff: float) -> Clustering:
    """Greedy neighbor-count clustering at the given similarity cutoff."""
    if not 0.0 < cutoff <= 1.0:
        raise ConfigError(f"cutoff must be in (0, 1], got {cutoff}")
    if not fps:
        raise DataError("cannot cluster an empty fingerprint list")

    neighbors = neighbor_matrix(fps, cutoff)
    counts = neighbors.sum(axis=1)  # unassigned neighbors per item
    unassigned = np.ones(len(fps), dtype=bool)
    clusters: list[tuple[int, ...]] = []
    remaining = len(fps)
    while remaining:
        centroid = int(np.argmax(np.where(unassigned, counts, -1)))
        members = np.flatnonzero(neighbors[centroid] & unassigned)
        cluster = (centroid, *[int(m) for m in members if m != centroid])
        unassigned[members] = False
        counts -= neighbors[members].sum(axis=0)
        remaining -= len(cluster)
        clusters.append(cluster)
    return Clustering(clusters=tuple(clusters))


def cluster_training_plan(clustering: Clustering, k_per_cluster: int = 1, seed: int = 0) -> SplitPlan:
    """Draw k members from every cluster of size >= LARGE_CLUSTER_MIN_SIZE as training data.

    Everything else, small-cluster members included, becomes the test set.
    """
    if not 1 <= k_per_cluster <= MAX_PER_CLUSTER:
        raise ConfigError(f"k_per_cluster must be in 1..{MAX_PER_CLUSTER}, got {k_per_cluster}")
    large = [c for c in clustering.clusters if len(c) >= LARGE_CLUSTER_MIN_SIZE]
    if not large:
        raise DataError(f"no cluster reaches size {LARGE_CLUSTER_MIN_SIZE}")

    rng = generator(seed)
    picks: list[np.ndarray] = []
    for members in large:
        picks.append(rng.choice(np.array(members, dtype=np.int64), size=k_per_cluster, replace=False))
    train = np.sort(np.concatenate(picks))
    mask = np.ones(clustering.n_items, dtype=bool)
    mask[train] = False
    return SplitPlan(train_indices=train, test_indices=np.flatnonzero(mask))
