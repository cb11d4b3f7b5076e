"""Shared fixtures: deterministic hypothesis profile, synthetic molecules,
dataset builders, and discovery of the optional real MoleculeNet CSVs."""

from __future__ import annotations

import csv
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qsarbench.rng import generator
from qsarbench.smiles import MolecularGraph, _ring_flags

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

DATA_DIR_ENV = "QSARBENCH_DATA"

# Hand-checked molecules covering aromatics, branches, rings, charges,
# isotopes, stereo markers and fused systems.
REAL_SMILES = [
    "C",
    "CC",
    "CCO",
    "CC(C)C",
    "CC(=O)O",
    "C#N",
    "CC#CC",
    "C1CCCCC1",
    "C1CCC1",
    "C1CC1C",
    "c1ccccc1",
    "Cc1ccccc1",
    "Oc1ccccc1",
    "Nc1ccccc1",
    "c1ccncc1",
    "c1ccoc1",
    "c1ccsc1",
    "c1c[nH]cn1",
    "c1ccc2ccccc2c1",
    "CC(=O)Oc1ccccc1C(=O)O",
    "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
    "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
    "[O-][N+](=O)c1ccccc1",
    "C[N+](C)(C)C",
    "[NH4+]",
    "[13CH4]",
    "[2H]O[2H]",
    "C[C@H](N)C(=O)O",
    "C/C=C/C",
    "CCS(=O)(=O)O",
    "ClC(Cl)(Cl)Cl",
    "BrCCBr",
    "FC(F)(F)c1ccccc1",
    "ICCI",
    "C1=CC=CC=C1",
    "O=C1CCCCC1",
    "C1CCOC1",
    "CNC(=O)c1ccccc1",
    "CC(C)(C)OC(=O)N",
    "C.C",
    "CCO.CC(=O)O",
    "C%12CCCCC%12",
]

_CHAIN_ATOMS = (("C", 4), ("C", 4), ("C", 4), ("C", 4), ("N", 3), ("O", 2), ("S", 2))
_RING_TEMPLATES = (
    "C1CCCCC1", "C1CCCC1", "C1CCC1", "c1ccccc1", "c1ccncc1", "C1CCOC1",
)
_SUBSTITUTED_RINGS = (
    "C1CC({a})CCC1", "C1CC({a})CC1", "c1cc({a})ccc1", "c1cc({a})cc({b})c1",
)


def _grow_chain(rng: np.random.Generator, budget: list[int]) -> str:
    """One atom plus random substituents, emitted as a SMILES fragment."""
    symbol, valence = _CHAIN_ATOMS[rng.integers(0, len(_CHAIN_ATOMS))]
    free = valence - 1  # one bond connects to the parent
    parts = [symbol]
    while free > 0 and budget[0] > 0 and rng.random() < 0.6:
        budget[0] -= 1
        if symbol == "C" and free >= 2 and rng.random() < 0.25:
            parts.append("(=O)")
            free -= 2
        else:
            parts.append(f"({_grow_chain(rng, budget)})")
            free -= 1
    return "".join(parts)


def random_smiles(rng: np.random.Generator, max_atoms: int = 10) -> str:
    """Random valid SMILES: a ring scaffold or branched chain."""
    budget = [max_atoms]
    roll = rng.random()
    if roll < 0.25:
        return str(rng.choice(_RING_TEMPLATES))
    if roll < 0.55:
        template = str(rng.choice(_SUBSTITUTED_RINGS))
        a = _grow_chain(rng, budget)
        b = _grow_chain(rng, budget)
        return template.format(a=a, b=b)
    return _grow_chain(rng, budget)


@pytest.fixture
def rng() -> np.random.Generator:
    return generator(20250811)


def write_dataset_csv(path: Path, smiles: list[str], labels: list[int],
                      smiles_col: str = "mol", label_col: str = "Class") -> Path:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["CID", smiles_col, label_col])
        for i, (s, y) in enumerate(zip(smiles, labels)):
            writer.writerow([f"m{i}", s, y])
    return path


def synthetic_molecules(rng: np.random.Generator, rows: int) -> tuple[list[str], list[int]]:
    """Random molecules labeled (noisily) by ring membership, so the label
    is learnable from fingerprint features."""
    from qsarbench.smiles import parse_smiles

    smiles, labels = [], []
    while len(smiles) < rows:
        s = random_smiles(rng)
        graph = parse_smiles(s)
        has_ring = any(graph.atom_in_ring)
        label = int(has_ring)
        if rng.random() < 0.1:
            label = 1 - label
        smiles.append(s)
        labels.append(label)
    # keep both classes present
    if len(set(labels)) == 1:
        labels[0] = 1 - labels[0]
    return smiles, labels


def fingerprint_families(rng: np.random.Generator, count: int, nbits: int = 512) -> list[int]:
    """Seeded fingerprint bits, as ints: each row is a random family's
    40-bit prototype with 4 random bits flipped, so Butina finds clusters
    (about 20 rows per family)."""
    prototypes = [sum(1 << int(b) for b in rng.choice(nbits, size=40, replace=False))
                  for _ in range(max(1, count // 20))]
    return [prototypes[rng.integers(len(prototypes))]
            ^ sum(1 << int(b) for b in rng.choice(nbits, size=4, replace=False))
            for _ in range(count)]


def perceive_rings(graph: MolecularGraph) -> MolecularGraph:
    """A copy of `graph` with its in-ring flags recomputed from cycle membership,
    by the bridge search that `parse_smiles` runs."""
    atom_in_ring, bond_in_ring = _ring_flags(graph.adjacency(), graph.bonds)
    return MolecularGraph(atoms=list(graph.atoms), bonds=list(graph.bonds),
                          implicit_h=list(graph.implicit_h),
                          atom_in_ring=atom_in_ring, bond_in_ring=bond_in_ring)


def write_embeddings_csv(path: Path, ids: list[str], matrix: np.ndarray) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id"] + [f"e{i}" for i in range(matrix.shape[1])])
        for key, row in zip(ids, matrix):
            writer.writerow([key] + [repr(float(v)) for v in row])
    return path


def moleculenet_path(name: str) -> Path | None:
    """Locate a real MoleculeNet CSV (bace.csv, BBBP.csv, HIV.csv) if present."""
    candidates = []
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    filenames = {
        "bace": ["bace.csv", "BACE.csv"],
        "bbbp": ["BBBP.csv", "bbbp.csv"],
        "hiv": ["HIV.csv", "hiv.csv"],
    }[name]
    for base in candidates:
        for filename in filenames:
            path = base / filename
            if path.is_file():
                return path
    return None


def require_bace() -> Path:
    path = moleculenet_path("bace")
    if path is None:
        pytest.skip(
            "bace.csv not found (set QSARBENCH_DATA or place it under ./data); "
            "this environment has no network access to fetch it"
        )
    return path
