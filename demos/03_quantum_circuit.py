"""Anatomy of the variational circuit: embedding, the ansatz, measurement, and
the model's gradient against finite differences.

Run:  python demos/03_quantum_circuit.py
"""

import math

import numpy as np

from qsarbench import (QuantumModelParams, amplitude_embed, init_quantum_params, q_forward,
                       q_gradient, run_ansatz, z_expectations)


def main():
    print("=== amplitude embedding ===")
    x = np.array([3.0, 0.0, 4.0, 0.0])
    state = amplitude_embed(x)
    print(f"x = {x} embeds to amplitudes {np.round(state.real, 3)}")
    print(f"norm^2 = {np.sum(np.abs(state) ** 2):.15f}")
    print(f"<Z> per qubit: {np.round(z_expectations(state), 6)}")

    print("\n=== one layer, read off basis states ===")
    # an ansatz is its (layers, n, 3) angles: RZ(alpha), RY(beta), RZ(gamma) per qubit
    flipped = run_ansatz(amplitude_embed(np.array([1.0, 0.0])), np.array([[[0.0, math.pi, 0.0]]]))
    print(f"RY(pi)|0> -> {np.round(flipped.real, 6)} (the excited state)")
    # with zero angles a two-qubit layer is its CNOT ring: CNOT(0->1), then CNOT(1->0)
    ring = run_ansatz(amplitude_embed(np.array([0.0, 0.0, 1.0, 0.0])), np.zeros((1, 2, 3)))
    print(f"CNOT ring |10> -> basis amplitudes {np.round(ring.real, 6)} (|01>)")

    print("\n=== two strongly entangling layers ===")
    rng = np.random.default_rng(7)
    n = 3
    angles = rng.uniform(0, 2 * math.pi, size=(2, n, 3))
    state = amplitude_embed(rng.normal(size=1 << n))
    out = run_ansatz(state, angles)
    norm = np.sum(np.abs(out) ** 2)
    print(f"{n} qubits, {angles.size} angles; output norm^2 = {norm:.15f}")
    print(f"<Z> = {np.round(z_expectations(out), 4)}")

    print("\n=== model gradient vs finite differences ===")
    params = init_quantum_params(n, seed=7)
    x = rng.normal(size=(6, 1 << n))
    y = rng.choice([-1.0, 1.0], size=6)
    grad = q_gradient(params, x, y)

    def loss(vec):
        return np.mean((q_forward(QuantumModelParams.from_vector(n, vec), x) - y) ** 2)

    h = 1e-6
    vec = params.to_vector()
    fd = np.zeros_like(vec)
    for j in range(vec.size):
        step = np.zeros_like(vec)
        step[j] = h
        fd[j] = (loss(vec + step) - loss(vec - step)) / (2 * h)
    err = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
    print(f"norm-relative deviation over all {vec.size} parameters: {err:.2e}")
    print("(the adjoint gradient is exact; the residual is finite-difference noise)")


if __name__ == "__main__":
    main()
