"""Reduce fingerprint features with PCA and see how much variance survives.

Run:  python demos/02_pca_feature_selection.py
"""

import numpy as np

from qsarbench import fit_pca, morgan_fingerprint, parse_smiles, transform

# a small mixed set: aromatics, aliphatics, ethers, amines
SMILES = [
    "CCO", "CCCO", "CCCCO", "CCN", "CCCN", "CCOC", "CCOCC",
    "c1ccccc1", "Cc1ccccc1", "CCc1ccccc1", "Oc1ccccc1", "Nc1ccccc1",
    "C1CCCCC1", "C1CCCC1", "CC(C)C", "CC(C)(C)C", "CC(=O)O", "CC(=O)OC",
    "c1ccncc1", "c1ccoc1", "C1CCOC1", "CCS", "CCSC", "CS(=O)(=O)O",
]


def main():
    features = np.array(
        [morgan_fingerprint(parse_smiles(s), 2, 512) for s in SMILES],
        dtype=float,
    )
    print(f"{features.shape[0]} molecules x {features.shape[1]} fingerprint bits")
    print(f"bits that ever fire: {int((features.sum(axis=0) > 0).sum())}")

    model = fit_pca(features, k=8)
    total_variance = model.eigenvalues.sum()
    print("\ntop-8 principal axes:")
    running = 0.0
    for i, value in enumerate(model.eigenvalues):
        running += value
        print(f"  component {i}: eigenvalue {value:6.3f}")

    # the classifiers consume the top-2^n scores directly
    scores = transform(model, features)
    print("\nprojected coordinates of the first four molecules (k=8):")
    for smiles, row in list(zip(SMILES, scores))[:4]:
        printable = ", ".join(f"{v:+.2f}" for v in row)
        print(f"  {smiles:>10}: [{printable}]")

    # aromatic vs aliphatic separation is usually visible on the first axis
    aromatic = [i for i, s in enumerate(SMILES) if "c1" in s]
    aliphatic = [i for i, s in enumerate(SMILES) if "c1" not in s]
    print(f"\nmean first-axis score, aromatic:  {scores[aromatic, 0].mean():+.3f}")
    print(f"mean first-axis score, aliphatic: {scores[aliphatic, 0].mean():+.3f}")


if __name__ == "__main__":
    main()
