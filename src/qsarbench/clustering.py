"""Butina clustering over fingerprints and cluster-based training plans.

Neighbors are found over packed 64-bit words, `NEIGHBOR_CHUNK` rows at a
time: intersection counts accumulate one word at a time into a (chunk, L)
int32 block, and each pair is decided by its float64 Tanimoto quotient.
They are kept as CSR neighbor lists, not an L x L matrix, so memory grows
with the number of neighbor pairs: 4 B per pair (an int32 index; 8 B for
a moment while the blocks' lists are joined) against 1 B per pair for a
dense boolean matrix.  The lists are the larger only above 25% density,
for example at a very low cutoff.  Beside them, one block's temporaries,
about 18 B per cell of a (chunk, L) block, set the peak.

The greedy assignment is the classic scheme: repeatedly promote the
unassigned item with the most unassigned neighbors to centroid, ties going
to the lowest index.  Because neighbor counts only shrink as items are
assigned, clusters emerge in non-increasing size order.

The protocol's constants are fixed here: it clusters at Tanimoto
`DEFAULT_CUTOFF`, and training sets draw k <= `MAX_PER_CLUSTER` members from
each cluster of at least `LARGE_CLUSTER_MIN_SIZE` members, and everything
else is the test set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SplitPlan
from .errors import ConfigError, DataError, InvariantViolation
from .fingerprint import Fingerprint
from .rng import generator

__all__ = ["Clustering", "butina_cluster", "cluster_training_plan", "neighbor_matrix"]

DEFAULT_CUTOFF = 0.65
LARGE_CLUSTER_MIN_SIZE = 21
MAX_PER_CLUSTER = 7
NEIGHBOR_CHUNK = 256  # rows per block of the neighbor search


@dataclass(frozen=True)
class Clustering:
    """Partition of input indices; each cluster leads with its centroid."""

    clusters: tuple[tuple[int, ...], ...]

    @property
    def n_items(self) -> int:
        return sum(len(c) for c in self.clusters)



def neighbor_matrix(fps: list[Fingerprint], cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of Tanimoto >= cutoff as CSR neighbor lists `(indptr, indices)`.

    Row i's neighbors are `indices[indptr[i]:indptr[i + 1]]` in ascending
    order, i itself included; `indptr` is int64 and `indices` int32.
    """
    widths = {fp.nbits for fp in fps}
    if len(widths) > 1:
        raise InvariantViolation(f"mixed fingerprint widths: {sorted(widths)}")
    columns = np.stack([fp.to_words() for fp in fps], axis=1)  # (words, L): one row per word
    pop = np.bitwise_count(columns).sum(axis=0, dtype=np.int32)
    lengths, lists = zip(*(_neighbor_rows(columns, pop, start, start + NEIGHBOR_CHUNK, cutoff)
                           for start in range(0, len(fps), NEIGHBOR_CHUNK)))
    indptr = np.zeros(len(fps) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(lengths), out=indptr[1:])
    return indptr, np.concatenate(lists)


def _neighbor_rows(columns: np.ndarray, pop: np.ndarray, start: int, stop: int,
                   cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """List lengths and concatenated neighbor lists of rows start:stop.

    A function of its own, so one block's (rows, L) temporaries are freed
    before the next block's are allocated.
    """
    block = pop[start:stop]
    inter = np.zeros((len(block), len(pop)), dtype=np.int32)
    for word in columns:
        inter += np.bitwise_count(word[start:stop, None] & word)
    union = np.add.outer(block, pop)
    union -= inter
    # the same float64 quotient as a dense Tanimoto table, so every decision
    # at the cutoff is kept; the all-zero pair counts as 1.0
    sims = np.maximum(union, 1, dtype=np.float64)
    np.divide(inter, sims, out=sims)
    sims[union == 0] = 1.0
    near = sims >= cutoff
    return near.sum(axis=1), np.nonzero(near)[1].astype(np.int32)


def butina_cluster(fps: list[Fingerprint], cutoff: float) -> Clustering:
    """Greedy neighbor-count clustering at the given similarity cutoff."""
    if not 0.0 < cutoff <= 1.0:
        raise ConfigError(f"cutoff must be in (0, 1], got {cutoff}")
    if not fps:
        raise DataError("cannot cluster an empty fingerprint list")

    indptr, indices = neighbor_matrix(fps, cutoff)
    counts = np.diff(indptr)  # unassigned neighbors per item
    unassigned = np.ones(len(fps), dtype=bool)
    clusters: list[tuple[int, ...]] = []
    remaining = len(fps)
    while remaining:
        centroid = int(np.argmax(np.where(unassigned, counts, -1)))
        near = indices[indptr[centroid]:indptr[centroid + 1]]
        members = near[unassigned[near]]
        cluster = (centroid, *[int(m) for m in members if m != centroid])
        unassigned[members] = False
        # the lists are symmetric: each new member leaves the count of every item on its list
        lists = [indices[indptr[m]:indptr[m + 1]] for m in members]
        counts -= np.bincount(np.concatenate(lists), minlength=len(fps))
        remaining -= len(cluster)
        clusters.append(cluster)
    return Clustering(clusters=tuple(clusters))


def cluster_training_plan(clustering: Clustering, k_per_cluster: int, seed: int) -> SplitPlan:
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
