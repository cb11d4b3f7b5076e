"""Anatomy of the variational circuit: embedding, gates, measurement, and
gradients via the parameter-shift rule.

Run:  python demos/03_quantum_circuit.py
"""

import math

import numpy as np

from qsarbench import amplitude_embed, parameter_shift_gradient, run_ansatz, z_expectations
from qsarbench.simulator import apply_cnot_array, apply_single_array, rot_matrix


def main():
    print("=== amplitude embedding ===")
    x = np.array([3.0, 0.0, 4.0, 0.0])
    state = amplitude_embed(x)
    print(f"x = {x} embeds to amplitudes {np.round(state.real, 3)}")
    print(f"norm^2 = {np.sum(np.abs(state) ** 2):.15f}")
    print(f"<Z> per qubit: {np.round(z_expectations(state), 6)}")

    print("\n=== single gates ===")
    # a gate kernel takes the qubit count n, the qubit(s) it acts on and, for a
    # rotation, its 2x2 unitary
    flipped = apply_single_array(amplitude_embed(np.array([1.0, 0.0])), 1, 0,
                                 rot_matrix(0.0, math.pi, 0.0))
    print(f"RY(pi)|0> -> {np.round(flipped.real, 6)} (the excited state)")
    entangled = apply_cnot_array(amplitude_embed(np.array([0.0, 0.0, 1.0, 0.0])), 2, 0, 1)
    print(f"CNOT|10> -> basis amplitudes {np.round(entangled.real, 6)} (|11>)")

    print("\n=== two strongly entangling layers ===")
    rng = np.random.default_rng(7)
    n = 3
    angles = rng.uniform(0, 2 * math.pi, size=(2, n, 3))
    state = amplitude_embed(rng.normal(size=1 << n))
    out = run_ansatz(state, angles)
    norm = np.sum(np.abs(out) ** 2)
    print(f"{n} qubits, {angles.size} angles; output norm^2 = {norm:.15f}")
    print(f"<Z> = {np.round(z_expectations(out), 4)}")

    print("\n=== parameter-shift gradients vs finite differences ===")
    upstream = rng.normal(size=n)
    x = rng.normal(size=1 << n)
    grad = parameter_shift_gradient(x, angles, upstream)

    def objective(flat):
        out = run_ansatz(amplitude_embed(x), flat.reshape(2, n, 3))
        return float(upstream @ z_expectations(out))

    h = 1e-6
    flat = angles.ravel()
    fd = np.zeros_like(flat)
    for j in range(flat.size):
        step = np.zeros_like(flat)
        step[j] = h
        fd[j] = (objective(flat + step) - objective(flat - step)) / (2 * h)
    err = np.linalg.norm(grad.ravel() - fd) / np.linalg.norm(fd)
    print(f"norm-relative deviation over all {flat.size} angles: {err:.2e}")
    print("(the shift rule is exact; the residual is finite-difference noise)")


if __name__ == "__main__":
    main()
