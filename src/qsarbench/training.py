"""Shared training loop: MSE loss, Adam, seeded batch schedules, epoch bookkeeping.

Both classifiers train through `run_training` so they share one loss and its
chain rule, consume identical batch schedules, track the same per-epoch
trace, and report the best test accuracy over the run.  A model supplies
`scores_and_backward(vec, x) -> (scores, backward)` over its flat parameter
vector, where `backward` maps d(loss)/d(scores) to the flat gradient.  A
schedule is a pure function of its seed, and its digest is recorded so the
harness can assert that paired trainers really saw the same batches.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptyBatch, NonFiniteTraining, NoPositives
from .metrics import accuracy, recall
from .rng import generator

__all__ = [
    "OptimizerConfig",
    "SupervisedSplit",
    "TrainingResult",
    "AdamState",
    "adam_step",
    "batch_schedule",
    "schedule_digest",
    "mse_loss_and_gradient",
    "run_training",
]

ScoresAndBackward = Callable[[np.ndarray, np.ndarray],
                             tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]]


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    epochs: int = 100

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class SupervisedSplit:
    """Feature/label arrays for one train/test partition; labels are +/-1."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def __post_init__(self):
        for name in ("train", "test"):
            x = getattr(self, f"{name}_x")
            y = getattr(self, f"{name}_y")
            if x.shape[0] != y.shape[0]:
                raise ValueError(f"{name} features and labels disagree on row count")
        values = set(np.unique(self.train_y)) | set(np.unique(self.test_y))
        if not values <= {-1, 1}:
            raise ValueError(f"labels must be +/-1, got {sorted(values)}")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(m=np.zeros(dim), v=np.zeros(dim))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray,
              config: OptimizerConfig) -> np.ndarray:
    state.t += 1
    state.m = config.beta1 * state.m + (1.0 - config.beta1) * grad
    state.v = config.beta2 * state.v + (1.0 - config.beta2) * grad * grad
    m_hat = state.m / (1.0 - config.beta1 ** state.t)
    v_hat = state.v / (1.0 - config.beta2 ** state.t)
    return params - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)


def batch_schedule(n_rows: int, epochs: int, batch_size: int, seed: int) -> list[list[np.ndarray]]:
    """Per-epoch shuffled batches of row indices; the last batch may be short."""
    if n_rows < 1:
        raise EmptyBatch("cannot schedule batches over zero rows")
    rng = generator(seed)
    schedule = []
    for _ in range(epochs):
        perm = rng.permutation(n_rows)
        schedule.append([perm[i:i + batch_size] for i in range(0, n_rows, batch_size)])
    return schedule


def schedule_digest(schedule: list[list[np.ndarray]]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for epoch in schedule:
        for batch in epoch:
            h.update(np.asarray(batch, dtype=np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()


def mse_loss_and_gradient(scores_and_backward: ScoresAndBackward, vec: np.ndarray,
                          x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """mean((score - y)^2) over the batch rows, and its gradient in `vec`."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise EmptyBatch("gradient needs a non-empty batch of rows")
    scores, backward = scores_and_backward(vec, x)
    residual = scores - y
    loss = float(np.mean(residual ** 2))
    return loss, backward(2.0 * residual / x.shape[0])


@dataclass
class TrainingResult:
    params: np.ndarray
    train_loss: np.ndarray       # per-epoch mean of batch losses
    test_accuracy: np.ndarray    # per-epoch
    best_test_accuracy: float
    best_epoch: int
    test_recall_at_best: float | None
    final_train_loss: float
    schedule_digest: str


def run_training(
    scores_and_backward: ScoresAndBackward,
    predict: Callable[[np.ndarray, np.ndarray], np.ndarray],
    params0: np.ndarray,
    data: SupervisedSplit,
    config: OptimizerConfig,
    schedule: list[list[np.ndarray]],
) -> TrainingResult:
    """Adam-train a model on the MSE of its scores, given its score function and predict.

    Raises NonFiniteTraining at the end of the first epoch whose mean loss
    or parameter vector is not finite.
    """
    if len(schedule) != config.epochs:
        raise ValueError("schedule length must equal the epoch count")

    params = np.array(params0, dtype=np.float64)
    adam = AdamState.zeros(params.size)
    losses = np.empty(config.epochs)
    accuracies = np.empty(config.epochs)
    recalls: list[float | None] = []

    for epoch, batches in enumerate(schedule):
        epoch_losses = []
        for batch in batches:
            loss, grad = mse_loss_and_gradient(scores_and_backward, params,
                                               data.train_x[batch], data.train_y[batch])
            epoch_losses.append(loss)
            params = adam_step(adam, params, grad, config)
        losses[epoch] = mean_loss = float(np.mean(epoch_losses))
        if not (np.isfinite(mean_loss) and np.isfinite(params).all()):
            raise NonFiniteTraining(
                f"epoch {epoch}: mean train loss {mean_loss}, "
                f"{np.count_nonzero(~np.isfinite(params))} of {params.size} parameters non-finite"
            )

        pred = predict(params, data.test_x)
        accuracies[epoch] = accuracy(pred, data.test_y)
        try:
            recalls.append(recall(pred, data.test_y))
        except NoPositives:
            recalls.append(None)

    best_epoch = int(np.argmax(accuracies))
    return TrainingResult(
        params=params,
        train_loss=losses,
        test_accuracy=accuracies,
        best_test_accuracy=float(accuracies[best_epoch]),
        best_epoch=best_epoch,
        test_recall_at_best=recalls[best_epoch],
        final_train_loss=float(losses[-1]),
        schedule_digest=schedule_digest(schedule),
    )
