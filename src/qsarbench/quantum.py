"""Hybrid quantum classifier: amplitude embedding, two-layer ansatz, linear
readout over per-qubit Z expectations, zero-threshold decision.

With the default two layers the model has exactly 7n trainable scalars:
6n rotation angles plus an n-vector of readout weights and no bias.  The
public angle-gradient path is the parameter-shift rule; the batched
trainer computes the same derivatives with the simulator's adjoint sweep
(`simulator.adjoint_gradient`: one gate pass forward, one backward)
because a shift evaluation per angle is two orders of magnitude more
circuit work.  This module holds only the readout; the circuit's structure
lives in `simulator`, the MSE loss and its chain rule in `training`.  The
equality of the two gradient paths is part of the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .rng import generator
from .simulator import (
    DEFAULT_LAYERS,
    AnsatzParams,
    adjoint_gradient,
    embed_array,
    run_ansatz_array,
    z_expectations_array,
)
from .training import (OptimizerConfig, SupervisedSplit, TrainingResult, mse_loss_and_gradient,
                       run_training)

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
    def from_vector(cls, n_qubits: int, vec: np.ndarray) -> "QuantumModelParams":
        """Inverse of to_vector(); the layer count follows from the length."""
        angles, readout = _split_vector(np.asarray(vec, dtype=np.float64), n_qubits)
        return cls(AnsatzParams(angles.copy()), readout.copy())


def _split_vector(vec: np.ndarray, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the (layers, n, 3) angles and the (n,) readout in a flat vector."""
    n_angles = vec.size - n_qubits
    if n_angles < 0 or n_angles % (3 * n_qubits):
        raise DimensionMismatch(f"{vec.size} parameters are not whole layers on {n_qubits} qubits")
    return vec[:n_angles].reshape(-1, n_qubits, 3), vec[n_angles:]


def init_quantum_params(n_qubits: int, seed: int, layers: int = DEFAULT_LAYERS) -> QuantumModelParams:
    """Angles uniform in [0, 2pi); readout uniform(-1/sqrt(n), +1/sqrt(n))."""
    rng = generator(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(layers, n_qubits, 3))
    bound = 1.0 / math.sqrt(n_qubits)
    readout = rng.uniform(-bound, bound, size=n_qubits)
    return QuantumModelParams(AnsatzParams(angles), readout)


def _scores_and_backward(vec: np.ndarray, x: np.ndarray):
    """Readout scores for flat to_vector() parameters, and the map from
    d(loss)/d(scores) to the flat gradient.

    Weighting the scores by d_scores weights each <Z_q> by d_scores * readout,
    so the angle gradient is `simulator.adjoint_gradient` of the output
    states; it equals the parameter-shift rule (`parameter_shift_gradient`).
    """
    n = x.shape[-1].bit_length() - 1
    angles, readout = _split_vector(vec, n)
    final = run_ansatz_array(embed_array(x)[0], n, angles)
    z = z_expectations_array(final, n)                 # (B, n)
    scores = z @ readout                               # (B,)

    def backward(d_scores: np.ndarray) -> np.ndarray:
        g_angles = adjoint_gradient(final, n, angles, np.outer(d_scores, readout))
        return np.concatenate([g_angles.ravel(), z.T @ d_scores])

    return scores, backward


def _check_features(params: QuantumModelParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != 1 << params.n_qubits:
        raise DimensionMismatch(
            f"expected {1 << params.n_qubits} features for {params.n_qubits} qubits, "
            f"got {x.shape[-1]}"
        )
    return x


def q_forward(params: QuantumModelParams, x: np.ndarray) -> float | np.ndarray:
    """Readout score; accepts a single vector or a batch of rows."""
    x = _check_features(params, x)
    scores = _scores_and_backward(params.to_vector(), x)[0]
    return float(scores) if x.ndim == 1 else scores


def q_predict(params: QuantumModelParams, x: np.ndarray) -> np.ndarray:
    scores = np.atleast_1d(q_forward(params, x))
    return np.where(scores >= 0.0, 1, -1)


def q_loss(params: QuantumModelParams, x: np.ndarray, y: np.ndarray) -> float:
    scores = q_forward(params, x)
    return float(np.mean((scores - y) ** 2))


def q_gradient(params: QuantumModelParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of mean((score - y)^2) over all 7n parameters, flat vector.

    The readout part is analytic; the angle part equals averaging the
    parameter-shift gradient over the batch with upstream weights
    2*(score - y)*readout / batch.
    """
    x = _check_features(params, x)
    return mse_loss_and_gradient(_scores_and_backward, params.to_vector(), x, y)[1]


def train_quantum(
    data: SupervisedSplit,
    config: OptimizerConfig,
    seed: int,
    schedule: list[list[np.ndarray]],
) -> TrainingResult:
    """Adam-train the hybrid classifier; contract mirrors train_mlp."""
    n_features = data.train_x.shape[1]
    if n_features < 2 or n_features & (n_features - 1):
        raise DimensionMismatch(f"feature count {n_features} is not a power of two")
    n_qubits = int(math.log2(n_features))
    params = init_quantum_params(n_qubits, seed)

    def predict(vec, xs):
        return q_predict(QuantumModelParams.from_vector(n_qubits, vec), xs)

    return run_training(_scores_and_backward, predict, params.to_vector(), data, config, schedule)
