"""Regenerate the golden protocol reports under `tests/golden/`.

Run from the repository root:

    PYTHONPATH=src python3 scripts/regen_golden.py

Each protocol (feature, fraction and cluster sweep) runs once at a tiny
scale, with two reps per cell, on a dataset of `synthetic_molecules` from
`tests/conftest.py` drawn under a fixed seed and written to a temporary
directory, so no data file is committed.  The report payload is written to
`tests/golden/<protocol>.json`; `tests/test_golden.py` re-runs the same
protocols and compares.  Regenerate only when a change is meant to move a
report, and list the moved fields in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
DATA_SEED = 1606
DATA_ROWS = 120

# protocol -> (harness entry point, config fields beyond the shared ones)
PROTOCOLS = {
    "feature_sweep": ("run_protocol", dict(n_list=(2, 3, 8))),
    "fraction_sweep": ("run_fraction_sweep", dict(n_list=(2, 3), fractions=(0.25, 0.5))),
    "cluster_sweep": ("run_cluster_protocol", dict(n_list=(2, 4), cluster_k=(1, 3),
                                                 cluster_cutoff=0.1)),
}
SHARED = dict(dataset="bace", reps=2, resplits=2, epochs=3, batch_size=8, master_seed=11,
              workers=1)


def write_dataset(directory: str) -> str:
    """The seeded synthetic dataset as a BACE-schema CSV in `directory`."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from conftest import synthetic_molecules, write_dataset_csv

    rng = np.random.Generator(np.random.Philox(DATA_SEED))
    smiles, labels = synthetic_molecules(rng, rows=DATA_ROWS)
    return str(write_dataset_csv(os.path.join(directory, "golden.csv"), smiles, labels))


def run_golden(protocol: str, dataset_path: str) -> dict:
    """One protocol's report payload, as its JSON file holds it.

    The config's dataset path is reduced to its file name, so the payload
    does not depend on the directory the dataset was written to.
    """
    from qsarbench import harness

    entry, fields = PROTOCOLS[protocol]
    config = harness.ExperimentConfig(dataset_path=dataset_path, **SHARED, **fields)
    payload = json.loads(json.dumps(asdict(getattr(harness, entry)(config))))
    payload["config"]["dataset_path"] = os.path.basename(dataset_path)
    return payload


def main() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="golden-") as work:
        dataset_path = write_dataset(work)
        for protocol in PROTOCOLS:
            path = os.path.join(GOLDEN_DIR, f"{protocol}.json")
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                json.dump(run_golden(protocol, dataset_path), handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
