"""Parse molecules, inspect their graphs, and compare fingerprints.

Run:  python demos/01_smiles_and_fingerprints.py
"""

from qsarbench import morgan_fingerprints, parse_smiles, tanimoto

MOLECULES = {
    "ethanol": "CCO",
    "acetic acid": "CC(=O)O",
    "benzene": "c1ccccc1",
    "toluene": "Cc1ccccc1",
    "phenol": "Oc1ccccc1",
    "aspirin": "CC(=O)Oc1ccccc1C(=O)O",
    "caffeine": "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
    "cyclohexane": "C1CCCCC1",
}


def main():
    print("=== molecular graphs ===")
    for name, smiles in MOLECULES.items():
        graph = parse_smiles(smiles)
        rings = sum(graph.atom_in_ring)
        hydrogens = sum(graph.implicit_h) + sum(a.explicit_h for a in graph.atoms)
        print(f"{name:>12}: {len(graph.atoms):2d} heavy atoms, {len(graph.bonds):2d} bonds, "
              f"{rings:2d} ring atoms, {hydrogens:2d} hydrogens")

    print("\n=== 512-bit circular fingerprints (radius 2) ===")
    graphs = [parse_smiles(s) for s in MOLECULES.values()]
    fps = dict(zip(MOLECULES, morgan_fingerprints(graphs, radius=2, nbits=512)))
    for name, fp in fps.items():
        print(f"{name:>12}: {int(fp.sum()):3d} bits set")

    print("\n=== pairwise Tanimoto similarity ===")
    names = list(MOLECULES)
    header = " " * 13 + "".join(f"{n[:7]:>9}" for n in names)
    print(header)
    for a in names:
        row = "".join(f"{tanimoto(fps[a], fps[b]):9.2f}" for b in names)
        print(f"{a:>12} {row}")

    print("\nNote how the three substituted benzenes score high against each")
    print("other while the aliphatic molecules stay near zero.")


if __name__ == "__main__":
    main()
