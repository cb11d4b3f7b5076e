"""Bias-free three-layer perceptron baseline (N x 2 x 1).

The hidden layer uses tanh, the output is linear, and there are no bias
terms anywhere, giving exactly 2(N+1) trainable parameters.  Labels are
encoded +/-1 and trained under mean squared error so the loss scale is
directly comparable with the quantum classifier; that loss and its chain
rule live in `training`.  The model is its flat float64 parameter vector:
the (2, N) hidden weights row by row, then the 2 output weights, a layout
written only in `_split_vector`.  Its score function, `_scores_and_backward`,
takes the (R, P) rows of such vectors, one per rep, as stacked matrix
products; decisions, in training and in `mlp_predict`, come from
`training.decide`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DataError
from .rng import generator
from .training import (OptimizerConfig, SupervisedSplit, TrainingResult, decide,
                       mse_loss_and_gradient, run_training)

__all__ = ["init_mlp_params", "mlp_forward", "mlp_predict", "mlp_loss", "mlp_gradient",
           "train_mlp"]

HIDDEN_UNITS = 2


def _split_vector(vec: np.ndarray, n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the (..., 2, N) hidden weights and the (..., 2) output weights
    in flat vectors along the last axis."""
    split = HIDDEN_UNITS * n_features
    if vec.shape[-1] != split + HIDDEN_UNITS:
        raise DataError(f"{vec.shape[-1]} parameters are not a perceptron on {n_features} "
                        f"features, which has {split + HIDDEN_UNITS}")
    return vec[..., :split].reshape(vec.shape[:-1] + (HIDDEN_UNITS, n_features)), vec[..., split:]


def init_mlp_params(n_features: int, seed: int) -> np.ndarray:
    """The perceptron: its flat 2(N+1) parameter vector, laid out as
    `_split_vector` writes.  Each weight is uniform(-1/sqrt(fan_in),
    +1/sqrt(fan_in)); the hidden weights are drawn first, then the output
    weights."""
    rng = generator(seed)
    vec = np.empty(HIDDEN_UNITS * (n_features + 1))
    w_hidden, w_out = _split_vector(vec, n_features)
    bound1 = 1.0 / np.sqrt(n_features)
    bound2 = 1.0 / np.sqrt(HIDDEN_UNITS)
    w_hidden[...] = rng.uniform(-bound1, bound1, size=w_hidden.shape)
    w_out[...] = rng.uniform(-bound2, bound2, size=w_out.shape)
    return vec


def _scores_and_backward(params: np.ndarray, x: np.ndarray):
    """Scores w_out . tanh(w_hidden . x) for (R, P) rows of flat parameter
    vectors, and the map from d(loss)/d(scores) to the (R, P) gradient.

    Rows x (R, B, N) are each rep's own; rows x (T, N) are shared by every
    rep and are scored forward-only, with no backward.  Raises DataError
    unless P is 2(N+1).
    """
    n_features = x.shape[-1]
    w_hidden, w_out = _split_vector(params, n_features)        # (R, 2, N), (R, 2)
    w_out = w_out[..., None]                                    # (R, 2, 1)
    hidden = np.tanh(x @ w_hidden.swapaxes(1, 2))               # (R, B, 2)
    scores = (hidden @ w_out)[..., 0]                           # (R, B)
    if x.ndim == 2:
        return scores, None

    def backward(d_scores: np.ndarray) -> np.ndarray:
        grad = np.empty_like(params)
        g_hidden, g_out = _split_vector(grad, n_features)
        np.matmul(hidden.swapaxes(1, 2), d_scores[..., None], out=g_out[..., None])
        d_hidden = d_scores[..., None] * w_out.swapaxes(1, 2) * (1.0 - hidden ** 2)
        np.matmul(d_hidden.swapaxes(1, 2), x, out=g_hidden)
        return grad

    return scores, backward


def mlp_forward(params: np.ndarray, x: np.ndarray) -> float | np.ndarray:
    """Score w_out . tanh(w_hidden . x); accepts one vector or a batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    scores = _scores_and_backward(np.asarray(params, dtype=np.float64)[None],
                                  np.atleast_2d(x))[0][0]
    return float(scores[0]) if x.ndim == 1 else scores


def mlp_predict(params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sign of the score with ties at zero mapped to +1."""
    return decide(np.atleast_1d(mlp_forward(params, x)))


def mlp_loss(params: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    scores = mlp_forward(params, x)
    return float(np.mean((scores - y) ** 2))


def mlp_gradient(params: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact gradient of mean((score - y)^2), a flat vector like `params`."""
    return mse_loss_and_gradient(_scores_and_backward, np.asarray(params, dtype=np.float64)[None],
                                 np.asarray(x, dtype=np.float64)[None], np.asarray(y)[None])[1][0]


def train_mlp(
    data: SupervisedSplit,
    config: OptimizerConfig,
    seeds: Sequence[int],
    schedules: np.ndarray,
) -> list[TrainingResult]:
    """Adam-train one perceptron per rep, all reps at once; rep r's init comes
    from `seeds[r]` and its batches from `schedules[r]`."""
    params = np.stack([init_mlp_params(data.train_x.shape[1], seed) for seed in seeds])
    return run_training(_scores_and_backward, params, data, config, schedules)
