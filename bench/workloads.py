"""The three protocol workloads: their inputs, entry point and config.

`inputs` sets what gen.py writes for the workload: schema, row counts and
which embedding to build.  `config` fixes the protocol's shape (qubit
counts, sweep values, replication).  Replication is reduced from the
published 5 resplits x 20 reps x 100 epochs so that one protocol run takes
seconds, and a measured run can repeat it several times.
"""

from __future__ import annotations

WORKLOADS = {
    # Pool of one worker per core, as the protocol is really run.  The n=8
    # cells dominate, so this is the memory-bound simulator path.
    "feature_sweep": dict(
        entry="run_protocol",
        pooled=True,
        inputs=dict(schema="bace", families=10, active_families=5, family_size=120,
                    decoys=285, malformed=15, positives=690, embeddings=False),
        config=dict(dataset="bace", embedding="mgfp", n_list=[2, 3, 4, 8],
                    resplits=2, reps=1, epochs=4),
    ),
    # One process.  Set-up (ingest, fingerprints, neighbor matrix, Butina per
    # resplit) carries most of the work; tiny training sets and large test
    # sets make forward-only prediction outweigh the gradient.
    "cluster_sweep": dict(
        entry="run_cluster_protocol",
        pooled=False,
        inputs=dict(schema="bbbp", families=16, active_families=12, family_size=150,
                    decoys=570, malformed=30, positives=2250, embeddings=False),
        config=dict(dataset="bbbp", embedding="mgfp", n_list=[2, 3, 4, 8],
                    cluster_k=[1, 3], resplits=2, reps=1, epochs=2),
    ),
    # One process.  Dense 512-d embeddings: no fingerprints or clustering,
    # one parse per SMILES, a PCA refit per resplit x fraction x n, and small
    # circuits whose simulator cost is per-call overhead.  No malformed rows:
    # an imgmol run fails when the loader skips one (see CHANGES.md).
    "fraction_sweep": dict(
        entry="run_fraction_sweep",
        pooled=False,
        inputs=dict(schema="bace", families=10, active_families=5, family_size=120,
                    decoys=300, malformed=0, positives=690, embeddings=True),
        config=dict(dataset="bace", embedding="imgmol", n_list=[2, 3],
                    fractions=[0.1, 0.25, 0.5, 1.0], resplits=2, reps=2, epochs=3),
    ),
}


def cell_count(workload: str) -> int:
    """Cells one protocol run trains: resplits x |n| x |x| (x = n in the feature sweep)."""
    config = WORKLOADS[workload]["config"]
    xs = config.get("cluster_k") or config.get("fractions") or [None]
    return config["resplits"] * len(config["n_list"]) * len(xs)
