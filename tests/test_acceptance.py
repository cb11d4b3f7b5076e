"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 4-6 reproduce the full published protocol and therefore require the
real BACE CSV (see README for where to place it); they skip with an explicit
message when it is absent, because this is an input file the toolkit cannot
synthesize.  Everything else runs self-contained.

Finite-difference comparisons use the norm-wise relative error
||g - fd|| / max(||fd||, eps): central differences carry ~1e-10 absolute
noise, so a per-component ratio is meaningless for entries near zero.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from qsarbench.classical import init_mlp_params, mlp_forward, mlp_gradient
from qsarbench.clustering import butina_cluster
from qsarbench.fingerprint import morgan_fingerprints, tanimoto
from qsarbench.harness import (
    CellSummary,
    ExperimentConfig,
    ExperimentReport,
    run_cluster_protocol,
    run_fraction_sweep,
    run_protocol,
    write_report_files,
)
from qsarbench.pca import fit_pca
from qsarbench.quantum import QuantumModelParams, init_quantum_params, q_forward, q_gradient
from qsarbench.rng import derive_seed, generator
from qsarbench.simulator import (
    amplitude_embed,
    parameter_shift_gradient,
    run_ansatz,
    z_expectations,
)
from qsarbench.smiles import parse_smiles

from conftest import random_smiles, require_bace, synthetic_molecules, write_dataset_csv, write_embeddings_csv
from oracles import dense_ansatz
from test_fingerprint import _permute_graph, fp_from_bits
from test_pca import eigenvalues_by_bisection
from test_clustering import random_fps

MASTER_SEED = 20240901

# Published BACE/MGFP accuracies: n -> (classical, quantum)
TABLE1_MGFP = {2: (0.60, 0.66), 3: (0.69, 0.75), 4: (0.75, 0.75), 8: (0.80, 0.76)}


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def norm_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12))


# --- criterion 1: exact parameter counts -------------------------------------------

def test_c01_parameter_counts():
    ok = True
    for n in (2, 3, 4, 8):
        classical = init_mlp_params(1 << n, seed=0)
        quantum = init_quantum_params(n, seed=0)
        ok &= len(classical) == 2 * ((1 << n) + 1)
        ok &= quantum.to_vector().size == 7 * n
    four_ratio = init_quantum_params(4, 0).to_vector().size / len(init_mlp_params(16, 0))
    ok &= init_quantum_params(4, 0).to_vector().size == 28
    ok &= len(init_mlp_params(16, 0)) == 34
    report_line(1, ok, f"2(N+1) and 7n exact for n in 2,3,4,8; n=4 ratio 28/34 = {four_ratio:.3f}")
    assert ok
    assert abs(four_ratio - 28 / 34) < 1e-15


# --- criterion 2: gradients vs central finite differences -----------------------------

def _fd_gradient(loss, vec, h):
    fd = np.zeros_like(vec)
    for j in range(vec.size):
        step = np.zeros_like(vec)
        step[j] = h
        fd[j] = (loss(vec + step) - loss(vec - step)) / (2 * h)
    return fd


def test_c02_gradient_correctness():
    rng = generator(derive_seed(MASTER_SEED, 2))
    worst = {"backprop": 0.0, "shift": 0.0, "quantum": 0.0}

    for trial in range(100):
        n_features = int(rng.integers(1, 17))
        params = init_mlp_params(n_features, seed=trial)
        x = rng.normal(size=(int(rng.integers(1, 9)), n_features))
        y = rng.choice([-1.0, 1.0], size=x.shape[0])
        grad = mlp_gradient(params, x, y)
        fd = _fd_gradient(lambda v: np.mean((mlp_forward(v, x) - y) ** 2), params, 1e-5)
        worst["backprop"] = max(worst["backprop"], norm_rel_err(grad, fd))

    for trial in range(100):
        n = int(rng.integers(1, 5))
        angles = rng.uniform(-math.pi, math.pi, size=(2, n, 3))
        upstream = rng.normal(size=n)
        x = rng.normal(size=1 << n)
        grad = parameter_shift_gradient(x, angles, upstream)

        def objective(flat):
            state = run_ansatz(amplitude_embed(x), flat.reshape(2, n, 3))
            return float(upstream @ z_expectations(state))

        fd = _fd_gradient(objective, angles.ravel(), 1e-6)
        worst["shift"] = max(worst["shift"], norm_rel_err(grad.ravel(), fd))

    for trial in range(100):
        n = int(rng.integers(1, 5))
        params = init_quantum_params(n, seed=1000 + trial)
        x = rng.normal(size=(int(rng.integers(1, 7)), 1 << n))
        y = rng.choice([-1.0, 1.0], size=x.shape[0])
        grad = q_gradient(params, x, y)

        def loss(vec):
            return np.mean((q_forward(QuantumModelParams.from_vector(n, vec), x) - y) ** 2)

        fd = _fd_gradient(loss, params.to_vector(), 1e-6)
        worst["quantum"] = max(worst["quantum"], norm_rel_err(grad, fd))

    ok = all(v <= 1e-6 for v in worst.values())
    report_line(2, ok, "max rel err over 100 cases each: "
                + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    assert ok


# --- criterion 3: simulator soundness --------------------------------------------------

def test_c03_simulator_soundness():
    rng = generator(derive_seed(MASTER_SEED, 3))
    n = 4
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    for _ in range(500):
        amps = run_ansatz(amps, rng.uniform(-math.pi, math.pi, size=(2, n, 3)))
    drift = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)

    worst_ansatz = 0.0
    for qubits in (1, 2, 3, 4, 5, 8):
        for _ in range(25):
            states = rng.normal(size=(3, 1 << qubits)) + 1j * rng.normal(size=(3, 1 << qubits))
            states /= np.linalg.norm(states, axis=1, keepdims=True)
            angles = rng.uniform(-math.pi, math.pi, size=(2, qubits, 3))
            fast = run_ansatz(states, angles)
            dense = states @ dense_ansatz(qubits, angles).T
            worst_ansatz = max(worst_ansatz, float(np.max(np.abs(fast - dense))))

    ok = drift <= 1e-12 and worst_ansatz <= 1e-12
    report_line(3, ok, f"norm drift after 500 two-layer ansatz runs = {drift:.2e}; "
                       f"worst ansatz-vs-dense-oracle deviation = {worst_ansatz:.2e}")
    assert ok


# --- criteria 4-6: full published protocol on BACE ---------------------------------------

def bace_config(**overrides):
    path = require_bace()
    base = dict(
        dataset="bace",
        dataset_path=str(path),
        embedding="mgfp",
        reps=20,
        resplits=5,
        epochs=100,
        master_seed=MASTER_SEED,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def summary_for(report: ExperimentReport, model: str, n: int, x: float) -> CellSummary:
    for cell in report.summaries:
        if cell.model == model and cell.n == n and cell.x == x:
            return cell
    raise KeyError(f"no summary for model={model} n={n} x={x}")


@pytest.mark.full_protocol
def test_c04_feature_sweep_reproduces_orderings():
    config = bace_config(n_list=(2, 3, 4, 8))
    report = run_protocol(config)
    write_report_files(report, "results/acceptance", "c04_features_bace_mgfp")

    acc = {(m, n): summary_for(report, m, n, float(n)).mean_accuracy
           for m in ("classical", "quantum") for n in (2, 3, 4, 8)}
    checks = {
        "quantum > classical at n=2": acc[("quantum", 2)] > acc[("classical", 2)],
        "quantum > classical at n=3": acc[("quantum", 3)] > acc[("classical", 3)],
        "classical > quantum at n=8": acc[("classical", 8)] > acc[("quantum", 8)],
        "|classical - quantum| <= 0.05 at n=4":
            abs(acc[("classical", 4)] - acc[("quantum", 4)]) <= 0.05,
    }
    for n, (c_ref, q_ref) in TABLE1_MGFP.items():
        checks[f"classical n={n} within 0.05 of {c_ref}"] = abs(acc[("classical", n)] - c_ref) <= 0.05
        checks[f"quantum n={n} within 0.05 of {q_ref}"] = abs(acc[("quantum", n)] - q_ref) <= 0.05

    ok = all(checks.values())
    cells = "; ".join(f"n={n}: C={acc[('classical', n)]:.3f} Q={acc[('quantum', n)]:.3f}"
                      for n in (2, 3, 4, 8))
    report_line(4, ok, cells)
    for name, passed in checks.items():
        assert passed, name


@pytest.mark.full_protocol
def test_c05_fraction_sweep_trends():
    fractions = (0.1, 0.2, 0.3, 0.4, 0.5)
    config = bace_config(n_list=(4, 8), fractions=fractions)
    report = run_fraction_sweep(config)
    write_report_files(report, "results/acceptance", "c05_fractions_bace_mgfp")

    def mean(model, n, fraction):
        return summary_for(report, model, n, fraction).mean_accuracy

    checks = {}
    for model in ("classical", "quantum"):
        for n in (4, 8):
            curve = [mean(model, n, f) for f in fractions]
            checks[f"{model} n={n} non-decreasing within 0.02"] = all(
                later >= earlier - 0.02 for earlier, later in zip(curve, curve[1:])
            )
    checks["quantum >= classical at n=4, fraction 0.1"] = (
        mean("quantum", 4, 0.1) >= mean("classical", 4, 0.1)
    )
    for f in fractions:
        checks[f"classical >= quantum at n=8, fraction {f}"] = (
            mean("classical", 8, f) >= mean("quantum", 8, f)
        )

    ok = all(checks.values())
    report_line(5, ok, "; ".join(
        f"n={n} {model[:1].upper()}: " + ",".join(f"{mean(model, n, f):.3f}" for f in fractions)
        for model in ("classical", "quantum") for n in (4, 8)
    ))
    for name, passed in checks.items():
        assert passed, name


@pytest.mark.full_protocol
def test_c06_cluster_protocol_quantum_wins_every_k():
    config = bace_config(n_list=(3,), cluster_k=tuple(range(1, 8)))
    report = run_cluster_protocol(config)
    write_report_files(report, "results/acceptance", "c06_clusters_bace_mgfp")

    comparisons = {
        k: (summary_for(report, "quantum", 3, float(k)).mean_accuracy,
            summary_for(report, "classical", 3, float(k)).mean_accuracy)
        for k in range(1, 8)
    }
    ok = all(q > c for q, c in comparisons.values())
    report_line(6, ok, "; ".join(f"k={k}: Q={q:.3f} C={c:.3f}"
                                 for k, (q, c) in comparisons.items()))
    for k, (q, c) in comparisons.items():
        assert q > c, f"quantum must beat classical at k={k}"


# --- criterion 7: report well-formedness for arbitrary embeddings -------------------------

def test_c07_embedding_file_report_wellformed(tmp_path):
    rng = generator(derive_seed(MASTER_SEED, 7))
    smiles, labels = synthetic_molecules(rng, rows=48)
    data_path = write_dataset_csv(tmp_path / "mols.csv", smiles, labels)
    matrix = rng.normal(size=(48, 512))
    emb_path = write_embeddings_csv(tmp_path / "emb.csv", [str(i) for i in range(48)], matrix)

    config = ExperimentConfig(
        dataset="bace", dataset_path=str(data_path),
        embedding="imgmol", embedding_path=str(emb_path),
        n_list=(2, 3), reps=2, resplits=2, epochs=3, batch_size=8,
        master_seed=MASTER_SEED, workers=1,
    )
    report = run_protocol(config)

    identity_gap = 0.0
    for cell in report.summaries:
        per_split = []
        for s in range(config.resplits):
            accs = [t.best_test_accuracy for t in report.trials
                    if t.model == cell.model and t.n == cell.n and t.x == cell.x
                    and t.split_index == s]
            per_split.append(np.mean(accs))
        identity_gap = max(identity_gap, abs(cell.mean_accuracy - float(np.mean(per_split))))

    complete = len(report.summaries) == 2 * 2  # models x n values
    ok = identity_gap <= 1e-12 and complete and report.skipped_rows == 0
    report_line(7, ok, f"imgmol report well-formed; aggregation identity gap = {identity_gap:.1e}")
    assert ok


# --- criterion 8: byte-identical determinism ------------------------------------------------

def _determinism_config(tmp_path) -> ExperimentConfig:
    smiles = ["CC(=O)Oc1ccccc1C(=O)O"] * 30 + ["CCCCCCCCCC"] * 30 + ["CCO", "CCN", "C1CCCCC1", "CS"]
    labels = ([1] * 15 + [0] * 15) * 2 + [1, 0, 1, 0]
    path = write_dataset_csv(tmp_path / "det.csv", smiles, labels)
    return ExperimentConfig(
        dataset="bace", dataset_path=str(path),
        n_list=(2,), cluster_k=(1, 2), reps=3, resplits=2, epochs=10, batch_size=4,
        master_seed=MASTER_SEED, workers=2,
    )


def test_c08_reruns_are_byte_identical(tmp_path):
    config = _determinism_config(tmp_path)
    first = run_cluster_protocol(config)
    second = run_cluster_protocol(config)
    a = write_report_files(first, str(tmp_path / "a"), "det")
    b = write_report_files(second, str(tmp_path / "b"), "det")
    same_json = Path(a["json"]).read_bytes() == Path(b["json"]).read_bytes()
    same_csv = Path(a["csv"]).read_bytes() == Path(b["csv"]).read_bytes()
    ok = same_json and same_csv
    report_line(8, ok, f"cluster-protocol re-run byte-identical: json={same_json} csv={same_csv}")
    assert ok


# --- criterion 9: PCA correctness --------------------------------------------------------------

def test_c09_pca_correctness():
    rng = generator(derive_seed(MASTER_SEED, 9))
    worst_orth = 0.0
    worst_trace = 0.0
    ordered = True
    for _ in range(20):
        rows = int(rng.integers(8, 40))
        cols = int(rng.integers(2, 12))
        x = rng.normal(size=(rows, cols)) * rng.uniform(0.1, 5.0, size=cols)
        model = fit_pca(x, cols)
        gram = model.components @ model.components.T
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(cols)))))
        ordered &= bool(np.all(np.diff(model.eigenvalues) <= 1e-12))
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (rows - 1)
        worst_trace = max(worst_trace, abs(float(model.eigenvalues.sum() - np.trace(cov))))

    worst_oracle = 0.0
    for m in (2, 3, 4):
        for _ in range(5):
            x = rng.normal(size=(12, m)) * rng.uniform(0.5, 3.0, size=m)
            model = fit_pca(x, m)
            centered = x - x.mean(axis=0)
            cov = centered.T @ centered / (x.shape[0] - 1)
            oracle = eigenvalues_by_bisection(cov)
            worst_oracle = max(worst_oracle, float(np.max(np.abs(model.eigenvalues - oracle))))

    ok = worst_orth <= 1e-10 and ordered and worst_trace <= 1e-8 and worst_oracle <= 1e-8
    report_line(9, ok, f"orthonormality={worst_orth:.1e}, trace gap={worst_trace:.1e}, "
                       f"char-poly oracle gap={worst_oracle:.1e}, ordering={ordered}")
    assert ok


# --- criterion 10: fingerprint and clustering properties ------------------------------------------

def test_c10_fingerprint_and_clustering_properties():
    rng = generator(derive_seed(MASTER_SEED, 10))

    molecules = [parse_smiles(random_smiles(rng, max_atoms=9)) for _ in range(100)]
    permutation_ok = True
    monotonic_ok = True
    for graph in molecules:
        reference = {r: morgan_fingerprints([graph], r, 512)[0] for r in range(3)}
        monotonic_ok &= all(np.all(reference[r + 1] >= reference[r]) for r in range(2))
        if len(graph.atoms) > 1:
            perm = rng.permutation(len(graph.atoms)).tolist()
            shuffled = _permute_graph(graph, perm)
            permutation_ok &= np.array_equal(morgan_fingerprints([shuffled], 2, 512)[0],
                                             reference[2])

    tanimoto_ok = True
    for _ in range(100):
        a = fp_from_bits(rng.choice(512, size=int(rng.integers(0, 50)), replace=False))
        b = fp_from_bits(rng.choice(512, size=int(rng.integers(0, 50)), replace=False))
        s = tanimoto(a, b)
        tanimoto_ok &= 0.0 <= s <= 1.0 and s == tanimoto(b, a) and tanimoto(a, a) == 1.0

    partition_ok = True
    monotone_cutoff_ok = True
    for _ in range(100):
        fps = random_fps(rng, int(rng.integers(10, 30)), n_on=int(rng.integers(5, 40)))
        cutoffs = sorted(rng.uniform(0.05, 1.0, size=3))
        counts = []
        for cutoff in cutoffs:
            clustering = butina_cluster(fps, float(cutoff))
            members = sorted(i for c in clustering.clusters for i in c)
            partition_ok &= members == list(range(len(fps)))
            counts.append(len(clustering.clusters))
        monotone_cutoff_ok &= counts == sorted(counts)

    ok = permutation_ok and monotonic_ok and tanimoto_ok and partition_ok and monotone_cutoff_ok
    report_line(10, ok, f"permutation={permutation_ok}, radius-monotone={monotonic_ok}, "
                        f"tanimoto axioms={tanimoto_ok}, butina partition={partition_ok}, "
                        f"cutoff-monotone={monotone_cutoff_ok} (100 cases each)")
    assert ok
