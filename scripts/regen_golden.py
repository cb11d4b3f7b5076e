"""Regenerate the golden protocol reports and ingest pins under `tests/golden/`.

Run from the repository root:

    PYTHONPATH=src python3 scripts/regen_golden.py

Each protocol (feature, fraction and cluster sweep) runs once at a tiny
scale, with two reps per cell, on a dataset of `synthetic_molecules` from
`tests/conftest.py` drawn under a fixed seed and written to a temporary
directory, so no data file is committed.  The report payload is written to
`tests/golden/<protocol>.json`; `tests/test_golden.py` re-runs the same
protocols and compares.

`tests/golden/ingest.json` pins what ingest makes of a seeded corpus:
`REAL_SMILES`, seeded `synthetic_molecules` and one-character mutations of
them.  Each entry holds the string and either its graph (atoms, bonds in
order, implicit hydrogens, ring flags) plus a digest of its Morgan bits, or
the parse error's message and offset.

Regenerate only when a change is meant to move a report or an ingest entry,
and list what moved in CHANGES.md.
"""

from __future__ import annotations

import hashlib
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

INGEST_SEED = 1707
INGEST_ROWS = 300
# one-character mutations draw inserted and replacing characters from here
SMILES_ALPHABET = "CNOSPFIBrlcnopsH()[]=#-+@%.:/\\0123456789"
MORGAN_RADII = (0, 1, 2, 3)
MORGAN_WIDTHS = (64, 512)


def _conftest():
    """`tests/conftest.py`, where the seeded molecule generators live."""
    tests = os.path.join(ROOT, "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import conftest
    return conftest


def write_dataset(directory: str) -> str:
    """The seeded synthetic dataset as a BACE-schema CSV in `directory`."""
    conftest = _conftest()
    rng = np.random.Generator(np.random.Philox(DATA_SEED))
    smiles, labels = conftest.synthetic_molecules(rng, rows=DATA_ROWS)
    return str(conftest.write_dataset_csv(os.path.join(directory, "golden.csv"), smiles, labels))


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


def ingest_corpus() -> list[str]:
    """`REAL_SMILES`, seeded synthetic molecules, then one seeded one-character
    mutation (delete, insert or replace) of each synthetic molecule."""
    conftest = _conftest()
    rng = np.random.Generator(np.random.Philox(INGEST_SEED))
    synthetic, _ = conftest.synthetic_molecules(rng, rows=INGEST_ROWS)
    mutated = []
    for text in synthetic:
        kind = int(rng.integers(3))
        at = int(rng.integers(len(text) + (kind == 1)))
        char = SMILES_ALPHABET[int(rng.integers(len(SMILES_ALPHABET)))]
        if kind == 0:
            mutated.append(text[:at] + text[at + 1:])
        elif kind == 1:
            mutated.append(text[:at] + char + text[at:])
        else:
            mutated.append(text[:at] + char + text[at + 1:])
    return list(conftest.REAL_SMILES) + synthetic + mutated


def ingest_entry(text: str) -> dict:
    """What parsing and fingerprinting make of one string, as ingest.json holds it."""
    from qsarbench.errors import SmilesParseError
    from qsarbench.fingerprint import morgan_fingerprint, to_hex
    from qsarbench.smiles import parse_smiles

    try:
        graph = parse_smiles(text)
    except SmilesParseError as exc:
        return {"smiles": text, "error": [exc.message, exc.offset]}
    bits = hashlib.blake2b(digest_size=8)
    for radius in MORGAN_RADII:
        for nbits in MORGAN_WIDTHS:
            bits.update(to_hex(morgan_fingerprint(graph, radius, nbits)).encode("ascii"))
    return {
        "smiles": text,
        "atoms": [[a.atomic_number, a.formal_charge, a.explicit_h, int(a.aromatic), a.isotope]
                  for a in graph.atoms],
        "bonds": [[b.a, b.b, b.order.value] for b in graph.bonds],
        "implicit_h": graph.implicit_h,
        "atom_in_ring": [int(flag) for flag in graph.atom_in_ring],
        "bond_in_ring": [int(flag) for flag in graph.bond_in_ring],
        "morgan": bits.hexdigest(),
    }


def ingest_entries() -> list[dict]:
    return [ingest_entry(text) for text in ingest_corpus()]


def write_ingest(path: str) -> None:
    """One entry per line, so a moved entry shows as one changed line."""
    lines = [json.dumps(entry, sort_keys=True, ensure_ascii=False) for entry in ingest_entries()]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("[\n" + ",\n".join(lines) + "\n]\n")


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
    path = os.path.join(GOLDEN_DIR, "ingest.json")
    write_ingest(path)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
