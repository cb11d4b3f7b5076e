"""Hybrid quantum classifier: amplitude embedding, two-layer ansatz, linear
readout over per-qubit Z expectations, zero-threshold decision.

With the default two layers the model has exactly 7n trainable scalars:
6n rotation angles plus an n-vector of readout weights and no bias, as the
paper counts them.  n of them never change a score: the last layer's
RZ(gamma) angles only rephase basis states, its CNOT ring only permutes
them, and <Z> reads squared magnitudes, so their gradient is zero up to
round-off (`test_last_layer_gamma_angles_never_change_a_score`).  The
angle gradients, in `q_gradient` as in the trainer, come from the
simulator's adjoint sweep (`simulator.adjoint_gradient`: one pass forward,
one backward with the same layer factors, each angle's gradient in closed
form) through `_scores_and_backward`; the parameter-shift rule
(`simulator.parameter_shift_gradient`) is the reference the tests check it
against, since a shift evaluation per angle is two orders of magnitude more
circuit work.  This module holds only the readout: the model supplies its
score function, `_scores_and_backward`, and its decisions, in training and
in `q_predict`, come from `training.decide`.  The parameters are the (layers, n, 3) angle
array and the readout vector; the score function takes (R, P) rows of flat
vectors, one per rep, and amplitudes rather than features.  `train_quantum`
embeds the train and test rows once per cell, so a step gathers embedded
rows; embedding works row by row, so that equals embedding the batch.  On
each rep's rows the score function runs the simulator's `ansatz_sweep` and
`z_expectations` for every rep at once, keeping each layer's input state and
factors for the backward pass.  For n <= 4 a layer is one product with a
factor that holds its CNOT ring, and the backward pass takes every qubit's
overlap of every layer from one partial-trace product (see `simulator`).
Rows shared by every rep, the test rows of each epoch, go forward-only
through `run_factors` in chunks of at most `SCORE_CHUNK_BYTES` of state, all
on one build of the layer factors (`rep_factors`), so scoring a large test
set holds no layer inputs and a bounded state.  A row's score is the same
alone, in any chunk and in `q_forward` of a batch, since the simulator
multiplies a lone row as inside a batch (on a BLAS kernel that sums a row
alike wherever it sits; see `simulator._rows_times`).  A chunk is 1 MiB:
its states stay near the caches, and the allocator serves them from the
heap it keeps.  16 MiB chunks took fresh pages from the OS on each call in
a fresh process (about 3,000 minor page faults per call on 1,400 rows at
n = 8, one rep) and scored those rows in 24 ms, against 13 ms.  The circuit's
structure lives in `simulator`, the MSE loss and its chain rule in
`training`.  The equality of the two gradient paths is part of the test
suite.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rng import generator
from .simulator import (DEFAULT_LAYERS, adjoint_gradient, amplitude_embed, ansatz_sweep,
                        rep_factors, run_factors, z_expectations)
from .training import (OptimizerConfig, SupervisedSplit, TrainingResult, decide,
                       mse_loss_and_gradient, run_training)

__all__ = ["QuantumModelParams", "init_quantum_params", "q_forward", "q_predict",
           "q_loss", "q_gradient", "train_quantum"]

# the most state, reps x rows x 2^n amplitudes, that one chunk of shared rows holds
SCORE_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class QuantumModelParams:
    ansatz: np.ndarray   # (layers, n, 3) rotation angles in radians
    readout: np.ndarray  # (n,)

    def __post_init__(self):
        ansatz = np.asarray(self.ansatz, dtype=np.float64)
        readout = np.asarray(self.readout, dtype=np.float64)
        if ansatz.ndim != 3 or ansatz.shape[1] < 1 or ansatz.shape[2] != 3:
            raise DataError(f"angles must be (layers, n, 3), got {ansatz.shape}")
        if readout.shape != (ansatz.shape[1],):
            raise DataError(
                f"readout shape {readout.shape} does not match {ansatz.shape[1]} qubits"
            )
        object.__setattr__(self, "ansatz", ansatz)
        object.__setattr__(self, "readout", readout)

    @property
    def n_qubits(self) -> int:
        return self.ansatz.shape[1]

    @property
    def n_parameters(self) -> int:
        return self.ansatz.size + self.readout.size

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.ansatz.ravel(), self.readout])

    @classmethod
    def from_vector(cls, n_qubits: int, vec: np.ndarray) -> "QuantumModelParams":
        """Inverse of to_vector(); the layer count follows from the length."""
        angles, readout = _split_vector(np.asarray(vec, dtype=np.float64), n_qubits)
        return cls(angles.copy(), readout.copy())


def _split_vector(vec: np.ndarray, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the (..., layers, n, 3) angles and the (..., n) readout in flat
    vectors along the last axis."""
    n_angles = vec.shape[-1] - n_qubits
    if n_angles < 0 or n_angles % (3 * n_qubits):
        raise DataError(f"{vec.shape[-1]} parameters are not whole layers on {n_qubits} qubits")
    return vec[..., :n_angles].reshape(vec.shape[:-1] + (-1, n_qubits, 3)), vec[..., n_angles:]


def init_quantum_params(n_qubits: int, seed: int, layers: int = DEFAULT_LAYERS) -> QuantumModelParams:
    """Angles uniform in [0, 2pi); readout uniform(-1/sqrt(n), +1/sqrt(n))."""
    rng = generator(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(layers, n_qubits, 3))
    bound = 1.0 / math.sqrt(n_qubits)
    readout = rng.uniform(-bound, bound, size=n_qubits)
    return QuantumModelParams(angles, readout)


def _scores_and_backward(params: np.ndarray, amps: np.ndarray):
    """Readout scores for (R, P) rows of to_vector() parameters on embedded
    rows, and the map from d(loss)/d(scores) to the (R, P) gradient.

    Rows amps (R, B, 2^n) are each rep's own.  Weighting the scores by
    d_scores weights each <Z_q> by d_scores * readout, so the angle gradient
    is `simulator.adjoint_gradient` of the output states and what the sweep
    kept; it equals the parameter-shift rule (`parameter_shift_gradient`).
    Rows amps (T, 2^n) are shared by every rep and are scored forward-only,
    with no backward.
    """
    n = amps.shape[-1].bit_length() - 1
    angles, readout = _split_vector(params, n)
    if amps.ndim == 2:
        return _shared_scores(amps, angles, readout), None
    final, kept = ansatz_sweep(amps, angles)
    z = z_expectations(final)                                   # (R, B, n)
    scores = (z @ readout[..., None])[..., 0]                   # (R, B)

    def backward(d_scores: np.ndarray) -> np.ndarray:
        g_angles = adjoint_gradient(final, kept, d_scores[..., None] * readout[:, None])
        g_readout = (z.swapaxes(1, 2) @ d_scores[..., None])[..., 0]
        return np.concatenate([g_angles.reshape(len(params), -1), g_readout], axis=1)

    return scores, backward


def _shared_scores(amps: np.ndarray, angles: np.ndarray, readout: np.ndarray) -> np.ndarray:
    """Every rep's (R, T) scores on the same (T, 2^n) rows, forward-only, in
    chunks of rows whose R x rows x 2^n state fits in SCORE_CHUNK_BYTES,
    all on one build of the layer factors.

    A row's score does not depend on the chunking.  The readout is an
    `einsum`, which sums each row's n terms on their own, where a
    matrix-vector product sums a row in an order that depends on its place
    in the chunk; and the simulator multiplies a one-row chunk as a batch.
    """
    rows = max(1, SCORE_CHUNK_BYTES // (len(angles) * amps.shape[-1] * amps.itemsize))
    factors = rep_factors(angles)
    chunks = [np.einsum("rtq,rq->rt",
                        z_expectations(run_factors(amps[start:start + rows], factors)), readout)
              for start in range(0, max(len(amps), 1), rows)]
    return np.concatenate(chunks, axis=1)


def _check_features(params: QuantumModelParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != 1 << params.n_qubits:
        raise DataError(
            f"expected {1 << params.n_qubits} features for {params.n_qubits} qubits, "
            f"got {x.shape[-1]}"
        )
    return x


def q_forward(params: QuantumModelParams, x: np.ndarray) -> float | np.ndarray:
    """Readout score; accepts a single vector or a batch of rows."""
    x = _check_features(params, x)
    scores = _scores_and_backward(params.to_vector()[None], amplitude_embed(np.atleast_2d(x)))[0][0]
    return float(scores[0]) if x.ndim == 1 else scores


def q_predict(params: QuantumModelParams, x: np.ndarray) -> np.ndarray:
    """Sign of the readout score with ties at zero mapped to +1."""
    return decide(np.atleast_1d(q_forward(params, x)))


def q_loss(params: QuantumModelParams, x: np.ndarray, y: np.ndarray) -> float:
    scores = q_forward(params, x)
    return float(np.mean((scores - y) ** 2))


def q_gradient(params: QuantumModelParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of mean((score - y)^2) over all 7n parameters, flat vector.

    The readout part is analytic; the angle part, from the adjoint sweep,
    equals averaging the parameter-shift gradient over the batch with
    upstream weights 2*(score - y)*readout / batch.
    """
    x = _check_features(params, x)
    return mse_loss_and_gradient(_scores_and_backward, params.to_vector()[None],
                                 amplitude_embed(x)[None], np.asarray(y)[None])[1][0]


def train_quantum(
    data: SupervisedSplit,
    config: OptimizerConfig,
    seeds: Sequence[int],
    schedules: np.ndarray,
) -> list[TrainingResult]:
    """Adam-train one hybrid classifier per rep, all reps at once; contract
    mirrors train_mlp.  The train and test rows are embedded once, here."""
    n_features = data.train_x.shape[1]
    if n_features < 2 or n_features & (n_features - 1):
        raise DataError(f"feature count {n_features} is not a power of two")
    n_qubits = int(math.log2(n_features))
    params = np.stack([init_quantum_params(n_qubits, seed).to_vector() for seed in seeds])
    embedded = SupervisedSplit(amplitude_embed(data.train_x), data.train_y,
                               amplitude_embed(data.test_x), data.test_y)
    return run_training(_scores_and_backward, params, embedded, config, schedules)
