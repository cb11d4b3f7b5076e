import tracemalloc

import numpy as np
import pytest

from qsarbench.clustering import butina_cluster, cluster_training_plan, neighbor_matrix
from qsarbench.errors import ConfigError, DataError
from qsarbench.fingerprint import Fingerprint, tanimoto

from conftest import fingerprint_families
from test_fingerprint import fp_from_bits


def random_fps(rng, count, n_on=24, nbits=512):
    return [fp_from_bits(rng.choice(nbits, size=n_on, replace=False), nbits) for _ in range(count)]


def test_identical_fingerprints_form_one_cluster():
    fps = [fp_from_bits([1, 5, 9])] * 7
    clustering = butina_cluster(fps, cutoff=0.8)
    assert len(clustering.clusters) == 1
    assert sorted(clustering.clusters[0]) == list(range(7))


def test_disjoint_groups_split_cleanly(rng):
    group_a = [fp_from_bits([0, 1, 2, int(i)]) for i in rng.choice(range(3, 100), 10, replace=False)]
    group_b = [fp_from_bits([400, 401, 402, int(i)]) for i in rng.choice(range(403, 500), 8, replace=False)]
    fps = group_a + group_b
    # oracle: brute-force pairwise similarity confirms zero overlap across groups
    for i in range(10):
        for j in range(10, 18):
            assert tanimoto(fps[i], fps[j]) == 0.0
    clustering = butina_cluster(fps, cutoff=0.5)
    assert len(clustering.clusters) == 2
    assert sorted(clustering.clusters[0]) == list(range(10))
    assert sorted(clustering.clusters[1]) == list(range(10, 18))


def test_all_distinct_at_cutoff_one_gives_singletons(rng):
    fps = random_fps(rng, 12)
    clustering = butina_cluster(fps, cutoff=1.0)
    assert len(clustering.clusters) == 12
    assert all(len(c) == 1 for c in clustering.clusters)


def test_partition_property(rng):
    for _ in range(20):
        fps = random_fps(rng, 30, n_on=int(rng.integers(4, 60)))
        cutoff = float(rng.uniform(0.05, 1.0))
        clustering = butina_cluster(fps, cutoff)
        seen = [idx for cluster in clustering.clusters for idx in cluster]
        assert sorted(seen) == list(range(30))


def test_clusters_ordered_by_size_descending(rng):
    fps = random_fps(rng, 40, n_on=10)
    clustering = butina_cluster(fps, cutoff=0.3)
    sizes = [len(c) for c in clustering.clusters]
    assert sizes == sorted(sizes, reverse=True)


def test_members_similar_to_centroid(rng):
    # widths under one 64-bit word included: they pack into a single word
    for nbits, n_on in ((512, 12), (32, 8), (8, 3)):
        fps = random_fps(rng, 40, n_on=n_on, nbits=nbits)
        cutoff = 0.25
        clustering = butina_cluster(fps, cutoff)
        assert sorted(i for c in clustering.clusters for i in c) == list(range(40))
        for cluster in clustering.clusters:
            centroid = cluster[0]
            for member in cluster:
                assert tanimoto(fps[centroid], fps[member]) >= cutoff


def test_tie_breaks_to_lowest_index():
    # two disjoint pairs: equal neighbor counts, so index 0 must lead
    fps = [fp_from_bits([1, 2]), fp_from_bits([1, 2]),
           fp_from_bits([9, 10]), fp_from_bits([9, 10])]
    clustering = butina_cluster(fps, cutoff=0.9)
    assert clustering.clusters[0][0] == 0
    assert clustering.clusters[1][0] == 2


def greedy_butina(fps, cutoff):
    """Plain greedy reference: recount unassigned neighbors from scratch each step."""
    near = [[tanimoto(a, b) >= cutoff for b in fps] for a in fps]
    left = set(range(len(fps)))
    clusters = []
    while left:
        centroid = max(sorted(left), key=lambda i: sum(near[i][j] for j in left))
        members = sorted(j for j in left if near[centroid][j])
        clusters.append((centroid, *[j for j in members if j != centroid]))
        left -= set(members)
    return tuple(clusters)


def test_matches_plain_greedy_reference(rng):
    for nbits in (8, 64, 512):
        for _ in range(8):
            fps = random_fps(rng, 30, n_on=int(rng.integers(2, max(3, nbits // 4))), nbits=nbits)
            for cutoff in (0.2, 0.4, 0.7):
                assert butina_cluster(fps, cutoff).clusters == greedy_butina(fps, cutoff)


def test_cutoff_monotonicity(rng):
    for _ in range(30):
        fps = random_fps(rng, 25, n_on=int(rng.integers(6, 40)))
        cutoffs = sorted(rng.uniform(0.05, 1.0, size=4))
        counts = [len(butina_cluster(fps, c).clusters) for c in cutoffs]
        assert counts == sorted(counts)  # lower cutoff never yields more clusters


def test_neighbor_matrix_matches_bruteforce(rng):
    for nbits, n_on in ((512, 20), (32, 8), (8, 2)):
        fps = random_fps(rng, 15, n_on=n_on, nbits=nbits)
        cutoff = 0.3
        indptr, indices = neighbor_matrix(fps, cutoff)
        assert (indptr.dtype, indices.dtype) == (np.int64, np.int32)
        assert indptr[0] == 0 and indptr[-1] == len(indices)
        for i in range(15):
            near = indices[indptr[i]:indptr[i + 1]].tolist()
            assert near == [j for j in range(15) if tanimoto(fps[i], fps[j]) >= cutoff]


def test_butina_memory_grows_with_pairs_not_rows_squared():
    fps = [Fingerprint(bits, 512) for bits in fingerprint_families(np.random.default_rng(3), 3000)]
    tracemalloc.start()
    try:
        clustering = butina_cluster(fps, cutoff=0.65)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert clustering.n_items == 3000 and len(clustering.clusters) < 3000
    assert peak < 32 << 20   # a dense 3,000-row neighbor matrix and its temporaries peak at 79 MiB


def test_empty_input_rejected():
    with pytest.raises(DataError, match="cannot cluster an empty fingerprint list"):
        butina_cluster([], 0.5)
    with pytest.raises(ConfigError):
        butina_cluster([fp_from_bits([1])], 0.0)


def clustered_world():
    # one cluster of 25 identical, one of 22, one of 5, plus 3 singletons
    fps = (
        [fp_from_bits([0, 1, 2])] * 25
        + [fp_from_bits([100, 101, 102])] * 22
        + [fp_from_bits([200, 201, 202])] * 5
        + [fp_from_bits([300 + 2 * i]) for i in range(3)]
    )
    return butina_cluster(fps, cutoff=0.9)


def test_plan_single_large_cluster():
    fps = [fp_from_bits([0, 1, 2])] * 25
    clustering = butina_cluster(fps, cutoff=0.9)
    plan = cluster_training_plan(clustering, k_per_cluster=1, seed=5)
    assert plan.train_indices.size == 1
    assert plan.test_indices.size == 24


def test_plan_size_filter_and_arithmetic():
    clustering = clustered_world()
    plan = cluster_training_plan(clustering, k_per_cluster=3, seed=7)
    assert plan.train_indices.size == 6  # only the 25- and 22-clusters qualify
    assert plan.test_indices.size == 55 - 6
    small_cluster_members = set(range(47, 52))
    assert small_cluster_members <= set(plan.test_indices.tolist())


def test_plan_deterministic():
    clustering = clustered_world()
    a = cluster_training_plan(clustering, k_per_cluster=2, seed=13)
    b = cluster_training_plan(clustering, k_per_cluster=2, seed=13)
    assert a.train_indices.tolist() == b.train_indices.tolist()


def test_plan_no_large_clusters():
    fps = [fp_from_bits([int(7 * i)]) for i in range(10)]
    clustering = butina_cluster(fps, cutoff=1.0)
    with pytest.raises(DataError, match="no cluster reaches size"):
        cluster_training_plan(clustering, k_per_cluster=1, seed=0)


def test_plan_k_out_of_range():
    clustering = clustered_world()
    with pytest.raises(ConfigError):
        cluster_training_plan(clustering, k_per_cluster=0, seed=0)
    with pytest.raises(ConfigError):
        cluster_training_plan(clustering, k_per_cluster=8, seed=0)

