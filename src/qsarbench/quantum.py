"""Hybrid quantum classifier: amplitude embedding, two-layer ansatz, linear
readout over per-qubit Z expectations, zero-threshold decision.

With the default two layers the model has exactly 7n trainable scalars:
6n rotation angles plus an n-vector of readout weights and no bias.  The
public angle-gradient path is the parameter-shift rule; the batched
trainer computes the same derivatives with the simulator's adjoint sweep
(`simulator.adjoint_gradient`: one gate pass forward, one backward)
because a shift evaluation per angle is two orders of magnitude more
circuit work.  This module holds only the readout and the MSE chain rule;
the circuit's structure lives in `simulator`.  The equality of the two
paths is part of the test suite.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyBatch
from .rng import generator
from .simulator import (
    DEFAULT_LAYERS,
    AnsatzParams,
    adjoint_gradient,
    embed_array,
    run_ansatz_array,
    z_expectations_array,
)
from .training import OptimizerConfig, SupervisedSplit, TrainingResult, batch_schedule, run_training

__all__ = ["QuantumModelParams", "init_quantum_params", "q_forward", "q_predict",
           "q_loss", "q_gradient", "train_quantum"]


@dataclass(frozen=True)
class QuantumModelParams:
    ansatz: AnsatzParams
    readout: np.ndarray  # (n,)

    def __post_init__(self):
        readout = np.asarray(self.readout, dtype=np.float64)
        if readout.shape != (self.ansatz.n_qubits,):
            raise DimensionMismatch(
                f"readout shape {readout.shape} does not match {self.ansatz.n_qubits} qubits"
            )
        object.__setattr__(self, "readout", readout)
        if self.ansatz.layers == DEFAULT_LAYERS and self.n_parameters != 7 * self.n_qubits:
            raise DimensionMismatch(
                f"two-layer model must have 7n parameters, got {self.n_parameters}"
            )

    @property
    def n_qubits(self) -> int:
        return self.ansatz.n_qubits

    @property
    def n_parameters(self) -> int:
        return self.ansatz.n_angles + self.readout.size

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.ansatz.angles.ravel(), self.readout])

    @classmethod
    def from_vector(cls, n_qubits: int, vec: np.ndarray,
                    layers: int = DEFAULT_LAYERS) -> "QuantumModelParams":
        vec = np.asarray(vec, dtype=np.float64)
        n_angles = layers * n_qubits * 3
        return cls(
            ansatz=AnsatzParams(vec[:n_angles].reshape(layers, n_qubits, 3).copy()),
            readout=vec[n_angles:n_angles + n_qubits].copy(),
        )

    def to_csv(self, path: str) -> None:
        """Angles (layer-major) followed by readout weights, one flat row."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerow([repr(float(v)) for v in self.to_vector()])


def init_quantum_params(n_qubits: int, seed: int, layers: int = DEFAULT_LAYERS) -> QuantumModelParams:
    """Angles uniform in [0, 2pi); readout uniform(-1/sqrt(n), +1/sqrt(n))."""
    rng = generator(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(layers, n_qubits, 3))
    bound = 1.0 / math.sqrt(n_qubits)
    readout = rng.uniform(-bound, bound, size=n_qubits)
    return QuantumModelParams(AnsatzParams(angles), readout)


def _check_features(params: QuantumModelParams, size: int) -> None:
    if size != 1 << params.n_qubits:
        raise DimensionMismatch(
            f"expected {1 << params.n_qubits} features for {params.n_qubits} qubits, got {size}"
        )


def q_forward(params: QuantumModelParams, x: np.ndarray) -> float | np.ndarray:
    """Readout score; accepts a single vector or a batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    _check_features(params, x.shape[-1])
    amps, _ = embed_array(x)
    amps = run_ansatz_array(amps, params.n_qubits, params.ansatz.angles)
    scores = z_expectations_array(amps, params.n_qubits) @ params.readout
    return float(scores) if single else scores


def q_predict(params: QuantumModelParams, x: np.ndarray) -> np.ndarray:
    scores = np.atleast_1d(q_forward(params, x))
    return np.where(scores >= 0.0, 1, -1)


def q_loss(params: QuantumModelParams, x: np.ndarray, y: np.ndarray) -> float:
    scores = q_forward(params, x)
    return float(np.mean((scores - y) ** 2))


def _loss_and_gradient(params: QuantumModelParams, x: np.ndarray,
                       y: np.ndarray) -> tuple[float, np.ndarray]:
    """MSE loss and its gradient via one forward and one adjoint sweep.

    For a fixed residual, the loss is a weighted sum of Z expectations with
    upstream weights 2*residual*readout/batch, so the angle gradient is
    `simulator.adjoint_gradient` of the circuit's output states.  Its
    values coincide with the parameter-shift rule, which stays available as
    the reference path in `parameter_shift_gradient`.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise EmptyBatch("gradient needs a non-empty batch of rows")
    _check_features(params, x.shape[1])
    n = params.n_qubits
    angles = params.ansatz.angles
    batch = x.shape[0]

    amps0, _ = embed_array(x)
    final = run_ansatz_array(amps0, n, angles)
    z = z_expectations_array(final, n)                 # (B, n)
    residual = z @ params.readout - y                  # (B,)
    loss = float(np.mean(residual ** 2))
    g_readout = 2.0 / batch * (z.T @ residual)
    upstream = 2.0 / batch * np.outer(residual, params.readout)  # (B, n)
    g_angles = adjoint_gradient(final, n, angles, upstream)
    return loss, np.concatenate([g_angles.ravel(), g_readout])


def q_gradient(params: QuantumModelParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of mean((score - y)^2) over all 7n parameters, flat vector.

    The readout part is analytic; the angle part equals averaging the
    parameter-shift gradient over the batch with upstream weights
    2*(score - y)*readout / batch.
    """
    return _loss_and_gradient(params, x, y)[1]


def train_quantum(
    data: SupervisedSplit,
    config: OptimizerConfig,
    seed: int,
    schedule: list[list[np.ndarray]] | None = None,
    layers: int = DEFAULT_LAYERS,
) -> TrainingResult:
    """Adam-train the hybrid classifier; contract mirrors train_mlp."""
    n_features = data.train_x.shape[1]
    if n_features < 2 or n_features & (n_features - 1):
        raise DimensionMismatch(f"feature count {n_features} is not a power of two")
    n_qubits = int(math.log2(n_features))
    params = init_quantum_params(n_qubits, seed, layers)
    if schedule is None:
        schedule = batch_schedule(data.train_x.shape[0], config.epochs, config.batch_size, seed)

    def loss_and_grad(vec, xb, yb):
        p = QuantumModelParams.from_vector(n_qubits, vec, layers)
        return _loss_and_gradient(p, xb, yb)

    def predict(vec, xs):
        return q_predict(QuantumModelParams.from_vector(n_qubits, vec, layers), xs)

    return run_training(loss_and_grad, predict, params.to_vector(), data, config, schedule)
