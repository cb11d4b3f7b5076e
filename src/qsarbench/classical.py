"""Bias-free three-layer perceptron baseline (N x 2 x 1).

The hidden layer uses tanh, the output is linear, and there are no bias
terms anywhere, giving exactly 2(N+1) trainable parameters.  Labels are
encoded +/-1 and trained under mean squared error so the loss scale is
directly comparable with the quantum classifier; that loss and its chain
rule live in `training`, and the model is its score function, written once
in `_scores_and_backward` over the (R, P) rows of flat parameter vectors,
one per rep, as stacked matrix products; decisions, in training and in
`mlp_predict`, come from `training.decide`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rng import generator
from .training import (OptimizerConfig, SupervisedSplit, TrainingResult, decide,
                       mse_loss_and_gradient, run_training)

__all__ = ["MlpParams", "init_mlp_params", "mlp_forward", "mlp_predict",
           "mlp_loss", "mlp_gradient", "train_mlp"]

HIDDEN_UNITS = 2


@dataclass(frozen=True)
class MlpParams:
    w_hidden: np.ndarray  # (2, N)
    w_out: np.ndarray     # (2,)

    def __post_init__(self):
        if self.w_hidden.shape != (HIDDEN_UNITS, self.n_features):
            raise DataError(f"hidden weights must be (2, N), got {self.w_hidden.shape}")
        if self.w_out.shape != (HIDDEN_UNITS,):
            raise DataError(f"output weights must be (2,), got {self.w_out.shape}")

    @property
    def n_features(self) -> int:
        return self.w_hidden.shape[1]

    @property
    def n_parameters(self) -> int:
        return self.w_hidden.size + self.w_out.size

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.w_hidden.ravel(), self.w_out])

    @classmethod
    def from_vector(cls, n_features: int, vec: np.ndarray) -> "MlpParams":
        vec = np.asarray(vec, dtype=np.float64)
        split = HIDDEN_UNITS * n_features
        return cls(
            w_hidden=vec[:split].reshape(HIDDEN_UNITS, n_features).copy(),
            w_out=vec[split:split + HIDDEN_UNITS].copy(),
        )


def init_mlp_params(n_features: int, seed: int) -> MlpParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization."""
    rng = generator(seed)
    bound1 = 1.0 / np.sqrt(n_features)
    bound2 = 1.0 / np.sqrt(HIDDEN_UNITS)
    return MlpParams(
        w_hidden=rng.uniform(-bound1, bound1, size=(HIDDEN_UNITS, n_features)),
        w_out=rng.uniform(-bound2, bound2, size=HIDDEN_UNITS),
    )


def _scores_and_backward(params: np.ndarray, x: np.ndarray):
    """Scores w_out . tanh(w_hidden . x) for (R, P) rows of to_vector()
    parameters, and the map from d(loss)/d(scores) to the (R, P) gradient.

    Rows x (R, B, N) are each rep's own; rows x (T, N) are shared by every
    rep and are scored forward-only, with no backward.
    """
    n_features = x.shape[-1]
    split = HIDDEN_UNITS * n_features
    w_hidden = params[:, :split].reshape(-1, HIDDEN_UNITS, n_features)
    w_out = params[:, split:, None]                             # (R, 2, 1)
    hidden = np.tanh(x @ w_hidden.swapaxes(1, 2))               # (R, B, 2)
    scores = (hidden @ w_out)[..., 0]                           # (R, B)
    if x.ndim == 2:
        return scores, None

    def backward(d_scores: np.ndarray) -> np.ndarray:
        g_out = (hidden.swapaxes(1, 2) @ d_scores[..., None])[..., 0]           # (R, 2)
        d_hidden = d_scores[..., None] * w_out.swapaxes(1, 2) * (1.0 - hidden ** 2)
        g_hidden = d_hidden.swapaxes(1, 2) @ x                                  # (R, 2, N)
        return np.concatenate([g_hidden.reshape(len(params), -1), g_out], axis=1)

    return scores, backward


def _check_features(params: MlpParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.n_features:
        raise DataError(f"expected {params.n_features} features, got {x.shape[-1]}")
    return x


def mlp_forward(params: MlpParams, x: np.ndarray) -> float | np.ndarray:
    """Score w_out . tanh(w_hidden . x); accepts one vector or a batch of rows."""
    x = _check_features(params, x)
    scores = _scores_and_backward(params.to_vector()[None], np.atleast_2d(x))[0][0]
    return float(scores[0]) if x.ndim == 1 else scores


def mlp_predict(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Sign of the score with ties at zero mapped to +1."""
    return decide(np.atleast_1d(mlp_forward(params, x)))


def mlp_loss(params: MlpParams, x: np.ndarray, y: np.ndarray) -> float:
    scores = mlp_forward(params, x)
    return float(np.mean((scores - y) ** 2))


def mlp_gradient(params: MlpParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact gradient of mean((score - y)^2), flattened like to_vector()."""
    x = _check_features(params, x)
    return mse_loss_and_gradient(_scores_and_backward, params.to_vector()[None], x[None],
                                 np.asarray(y)[None])[1][0]


def train_mlp(
    data: SupervisedSplit,
    config: OptimizerConfig,
    seeds: Sequence[int],
    schedules: np.ndarray,
) -> list[TrainingResult]:
    """Adam-train one perceptron per rep, all reps at once; rep r's init comes
    from `seeds[r]` and its batches from `schedules[r]`."""
    params = np.stack([init_mlp_params(data.train_x.shape[1], seed).to_vector() for seed in seeds])
    return run_training(_scores_and_backward, params, data, config, schedules)
