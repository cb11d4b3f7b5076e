"""Train the classical and quantum classifiers side by side on a toy task,
with the shared batch schedule the benchmark protocols use.

The two classes are noisy cones around two directions, with wildly varying
magnitudes.  Amplitude embedding normalizes each input, so the quantum
model is scale-invariant by construction; the perceptron has to cope with
the magnitudes on its own.

Run:  python demos/04_train_toy_classifiers.py
"""

import numpy as np

from qsarbench import (
    OptimizerConfig,
    QuantumModelParams,
    SupervisedSplit,
    batch_schedule,
    q_predict,
    train_mlp,
    train_quantum,
)
from qsarbench.rng import generator


def make_task(rng, rows=240, n_features=4):
    u = np.array([1.0, 1.0, 0.3, -0.2])
    v = np.array([1.0, -1.0, -0.3, 0.2])
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    half = rows // 2

    def cone(direction, count):
        base = direction[None, :] + 0.35 * rng.normal(size=(count, n_features))
        radii = np.exp(rng.normal(size=(count, 1)))
        return base * radii

    x = np.vstack([cone(u, half), cone(v, half)])
    y = np.concatenate([np.ones(half, dtype=int), -np.ones(half, dtype=int)])
    order = rng.permutation(rows)
    return x[order], y[order]


def main():
    rng = generator(123)
    x, y = make_task(rng)
    data = SupervisedSplit(x[:192], y[:192], x[192:], y[192:])

    config = OptimizerConfig(epochs=60, batch_size=16)
    schedule = batch_schedule(192, config.epochs, seed=42)

    [classical] = train_mlp(data, config, seeds=[1], schedules=[schedule])
    [quantum] = train_quantum(data, config, seeds=[2], schedules=[schedule])

    n_features = x.shape[1]
    n_qubits = int(np.log2(n_features))
    print(f"task: {n_features} features -> classical 2(N+1) = {2 * (n_features + 1)} params, "
          f"quantum 7n = {7 * n_qubits} params")
    print(f"shared batch schedule: both trainers saw digest "
          f"{classical.schedule_digest[:16]}... "
          f"(equal: {classical.schedule_digest == quantum.schedule_digest})")

    print("\nepoch   classical loss/acc     quantum loss/acc")
    for epoch in range(0, config.epochs, 10):
        print(f"{epoch:5d}   {classical.train_loss[epoch]:.4f} / {classical.test_accuracy[epoch]:.3f}"
              f"        {quantum.train_loss[epoch]:.4f} / {quantum.test_accuracy[epoch]:.3f}")

    print(f"\nbest test accuracy: classical {classical.best_test_accuracy:.3f} "
          f"(epoch {classical.best_epoch}), quantum {quantum.best_test_accuracy:.3f} "
          f"(epoch {quantum.best_epoch})")

    params = QuantumModelParams.from_vector(n_qubits, quantum.params)
    same = np.array_equal(
        q_predict(params, data.test_x), q_predict(params, 1024.0 * data.test_x)
    )
    print(f"quantum predictions invariant under x -> 1024x: {same}")


if __name__ == "__main__":
    main()
