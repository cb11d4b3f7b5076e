"""Seeded synthetic inputs for the protocol benchmark.

Molecules come from scaffold families with analog series: every family has
its own three-ring core of 22 heavy atoms with two substituent sites, and
its members are distinct (R1, tail) choices on that core, so a family
forms one or a few dense Butina clusters at cutoff 0.65.  Decoys are
random assemblies of the same fragments and mostly stay singletons.
Molecules carry 24-32 heavy atoms, about the size of BACE ligands.  Every
SMILES in a file is distinct.

Labels follow the family (each family is wholly active or inactive) and
decoys take random labels, so the task is learnable but not trivially so.
Class counts are exact, so class balancing always keeps the same number of
rows.  The imgmol embeddings are a per-family centre plus per-molecule
noise.  Malformed rows are valid SMILES with one ring bond left open; the
loader must skip and count them.

Run:  python3 bench/gen.py --workload cluster_sweep --seed 1 --out DIR
It writes the dataset CSV, the embedding CSV where the workload needs one,
and manifest.json describing what was written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys

import numpy as np

from workloads import WORKLOADS

# Ring units are written so that the next unit bonds to their last ring atom
# outside the branch, which lets a core be a plain concatenation.
RING_UNITS = (
    "c1ccc(cc1)", "c1ccc(nc1)", "c1cnc(nc1)", "C1CCN(CC1)", "C1CCC(CC1)",
    "N1CCN(CC1)", "c1ccc(o1)", "c1csc(n1)", "c1ccc2cc(ccc2c1)", "C1CCOC(C1)",
)
# The first unit of a core carries the R1 site as a branch.
HEAD_UNITS = (
    "c1cc({r})ccc1", "c1cc({r})ncc1", "c1cc({r})sc1", "C1CC({r})CCN1", "c1cc({r})cnc1",
)
LINKERS = ("C(=O)N", "CC", "O", "NC(=O)", "CN", "OC", "S(=O)(=O)N", "C(=O)", "CCO", "N")
SUBSTITUENTS = (
    "F", "Cl", "Br", "C", "CC", "OC", "N", "C(F)(F)F", "C#N", "O", "CCC", "C(C)C",
    "OCC", "N(C)C", "C(=O)O", "C(N)=O", "S(C)(=O)=O", "CO", "CCO", "OC(F)(F)F",
    "C1CC1", "I", "NC", "SC", "C=C", "CCN", "OC(C)C", "C(C)(C)C",
)
TAILS = ("C(=O)C", "C", "CC(=O)O", "S(C)(=O)=O", "C(=O)OC", "CCO", "C#N", "CC(C)C")

ATOM_TOKEN = re.compile(r"Cl|Br|[BCNOPSFI]|[cnops]")
CORE_ATOMS = 22
EMBEDDING_DIM = 512

def _heavy_atoms(smiles: str) -> int:
    return len(ATOM_TOKEN.findall(smiles))


def _core(rng: np.random.Generator) -> str:
    # Every core has the same heavy-atom count, so the work per molecule
    # varies little from one seed to the next.
    while True:
        head = HEAD_UNITS[rng.integers(len(HEAD_UNITS))]
        mid = RING_UNITS[rng.integers(len(RING_UNITS))]
        last = RING_UNITS[rng.integers(len(RING_UNITS))]
        link1 = LINKERS[rng.integers(len(LINKERS))]
        link2 = LINKERS[rng.integers(len(LINKERS))]
        core = head + link1 + mid + link2 + last + "{t}"
        if _heavy_atoms(core.format(r="", t="")) == CORE_ATOMS:
            return core


def _family_members(rng: np.random.Generator, core: str, size: int) -> list[str]:
    # Analogs vary R1 over every substituent and the tail over as few choices
    # as the family size allows, so most members stay within the cutoff of
    # a central member.
    tails = TAILS[:-(-size // len(SUBSTITUENTS)) + 1]
    combos = [(r, t) for r in SUBSTITUENTS for t in tails]
    picks = rng.choice(len(combos), size=size, replace=False)
    return [core.format(r=combos[i][0], t=combos[i][1]) for i in picks]


def _decoy(rng: np.random.Generator) -> str:
    core = _core(rng)
    return core.format(r=SUBSTITUENTS[rng.integers(len(SUBSTITUENTS))],
                       t=TAILS[rng.integers(len(TAILS))])


def generate(workload: str, seed: int, out_dir: str) -> dict:
    spec = WORKLOADS[workload]["inputs"]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    seen: set[str] = set()

    def fresh(make) -> str:
        while True:
            smiles = make()
            if smiles not in seen:
                seen.add(smiles)
                return smiles

    # rows: (smiles, label, family id); family ids -1 and -2 mark decoys and
    # malformed rows
    rows: list[tuple[str, int, int]] = []
    cores: set[str] = set()
    for family in range(spec["families"]):
        core = _core(rng)
        while core in cores:
            core = _core(rng)
        cores.add(core)
        label = 1 if family < spec["active_families"] else 0
        for smiles in _family_members(rng, core, spec["family_size"]):
            if smiles in seen:
                raise RuntimeError("family analogs collided; generator tables are too small")
            seen.add(smiles)
            rows.append((smiles, label, family))

    family_pos = sum(label for _, label, _ in rows)
    decoy_pos = spec["positives"] - family_pos
    if not 0 <= decoy_pos <= spec["decoys"]:
        raise ValueError(f"{workload}: positives cannot be met with {spec['decoys']} decoys")
    decoy_labels = np.zeros(spec["decoys"], dtype=np.int64)
    decoy_labels[rng.choice(spec["decoys"], size=decoy_pos, replace=False)] = 1
    for label in decoy_labels:
        rows.append((fresh(lambda: _decoy(rng)), int(label), -1))

    # Malformed rows: a fresh decoy with an unclosed ring bond appended.
    for _ in range(spec["malformed"]):
        rows.append((fresh(lambda: _decoy(rng) + "C9"), int(rng.integers(2)), -2))

    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]

    os.makedirs(out_dir, exist_ok=True)
    dataset_path = os.path.join(out_dir, "dataset.csv")
    with open(dataset_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        if spec["schema"] == "bace":
            writer.writerow(["CID", "mol", "Class"])
            for i, (smiles, label, _) in enumerate(rows):
                writer.writerow([f"BACE_{i}", smiles, label])
        else:
            writer.writerow(["num", "name", "p_np", "smiles"])
            for i, (smiles, label, _) in enumerate(rows):
                writer.writerow([i + 1, f"compound_{i}", label, smiles])

    embedding_path = None
    if spec["embeddings"]:
        centres = rng.normal(0.0, 1.0, size=(spec["families"], EMBEDDING_DIM))
        vectors = rng.normal(0.0, 0.5, size=(len(rows), EMBEDDING_DIM))
        for i, (_, _, family) in enumerate(rows):
            vectors[i] += centres[family] if family >= 0 else rng.normal(0.0, 1.0, EMBEDDING_DIM)
        embedding_path = os.path.join(out_dir, "embeddings.csv")
        header = "id," + ",".join(f"e{j}" for j in range(EMBEDDING_DIM))
        ids = np.arange(len(rows)).astype(str)[:, None]
        table = np.hstack([ids, np.char.mod("%.6f", vectors)])
        np.savetxt(embedding_path, table, fmt="%s", delimiter=",", header=header, comments="")

    valid = [r for r in rows if r[2] != -2]
    manifest = {
        "workload": workload,
        "seed": seed,
        "schema": spec["schema"],
        "dataset_path": dataset_path,
        "embedding_path": embedding_path,
        "rows": len(rows),
        "malformed_rows": spec["malformed"],
        "valid_labels": [label for _, label, _ in valid],
        "families": spec["families"],
        "family_size": spec["family_size"],
        "decoys": spec["decoys"],
        "distinct_smiles": len({smiles for smiles, _, _ in rows}),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
