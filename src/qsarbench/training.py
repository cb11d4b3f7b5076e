"""Shared training loop: MSE loss, Adam, seeded batch schedules, epoch bookkeeping.

Both classifiers train through `run_training` so they share one loss and its
chain rule, consume identical batch schedules, track the same per-epoch
trace, and report the best test accuracy over the run.  The reps of a cell
train together along a leading rep axis R: the parameters are an (R, P)
array, one flat vector per rep, and each step is one gather, one forward and
backward pass and one Adam update for every rep.  A model supplies only
`scores_and_backward(params, x)` over those parameter rows.  Given per-rep
rows x (R, B, F) it returns the (R, B) scores and `backward`, which maps
d(loss)/d(scores) to the (R, P) gradient; given rows that every rep shares,
x (T, F), it returns the (R, T) scores forward-only, with no backward.
Every decision, per epoch here and in the models' predict functions, is
`decide(scores)`; an epoch's (R, T) test decisions are counted for all reps
at once, one array reduction over the rows for each rep's hits and caught
positives.  A batch schedule is a read-only (epochs, train rows)
array holding one shuffled row order per epoch, a pure function of its
seed; `run_training` takes the R reps' schedules stacked, (R, epochs, rows),
and cuts each order into batches of `OptimizerConfig.batch_size` rows, the
one place the batch size and the Adam settings are written.  Each rep's
arithmetic is the arithmetic of training it alone, so a rep's result does
not depend on which reps train beside it.  The schedule's digest is recorded
so the harness can assert that paired trainers really saw the same batches.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, InvariantViolation
from .rng import generator

__all__ = [
    "OptimizerConfig",
    "SupervisedSplit",
    "TrainingResult",
    "adam_step",
    "batch_schedule",
    "schedule_digest",
    "mse_loss_and_gradient",
    "decide",
    "run_training",
]

ScoresAndBackward = Callable[[np.ndarray, np.ndarray],
                             tuple[np.ndarray, Callable[[np.ndarray], np.ndarray] | None]]


def _integer(name: str, value) -> int:
    """`value` as a Python int; numpy integers pass, bools, floats and strings do not."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value):
    """`value` unchanged if it is a finite real number; bools and strings are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


@dataclass(frozen=True, kw_only=True)
class OptimizerConfig:
    """Adam and batching settings; every bad value raises ConfigError at construction."""

    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    epochs: int = 100

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = _integer(name, getattr(self, name))
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)
        for name in ("learning_rate", "beta1", "beta2", "epsilon"):
            _real(name, getattr(self, name))
        if self.learning_rate <= 0 or self.epsilon <= 0:
            raise ConfigError(
                f"learning_rate and epsilon must be > 0, got {self.learning_rate}, {self.epsilon}"
            )
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError(f"beta1 and beta2 must lie in [0, 1), got {self.beta1}, {self.beta2}")


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
        # plain comparisons: np.unique imports numpy.ma (about 1.6 MiB)
        if any(((y != -1) & (y != 1)).any() for y in (self.train_y, self.test_y)):
            values = set(self.train_y.flat) | set(self.test_y.flat)
            raise ValueError(f"labels must be +/-1, got {sorted(values)}")


def adam_step(params: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
              config: OptimizerConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adam's t-th update (t counts from 1) of params with first and second
    moments m and v: the new parameters and moments.  Elementwise, so (R, P)
    parameters update every rep at once."""
    m = config.beta1 * m + (1.0 - config.beta1) * grad
    v = config.beta2 * v + (1.0 - config.beta2) * grad * grad
    m_hat = m / (1.0 - config.beta1 ** t)
    v_hat = v / (1.0 - config.beta2 ** t)
    return params - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon), m, v


def batch_schedule(n_rows: int, epochs: int, seed: int) -> np.ndarray:
    """Each epoch's shuffled row order: a read-only int64 (epochs, n_rows) array."""
    if n_rows < 1:
        raise InvariantViolation("cannot schedule batches over zero rows")
    rng = generator(seed)
    schedule = np.empty((epochs, n_rows), dtype=np.int64)
    for order in schedule:
        order[:] = rng.permutation(n_rows)
    schedule.setflags(write=False)
    return schedule


def schedule_digest(schedule: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for order in np.asarray(schedule, dtype=np.int64):
        h.update(order.tobytes())
        h.update(b"|")
    return h.hexdigest()


def mse_loss_and_gradient(scores_and_backward: ScoresAndBackward, params: np.ndarray,
                          x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each rep's mean((score - y)^2) over its batch rows, and its gradient in
    that rep's parameters: (R, P) parameters, (R, B, F) rows and (R, B)
    labels give (R,) losses and the (R, P) gradient."""
    if x.ndim != 3 or x.shape[1] == 0:
        raise InvariantViolation("gradient needs a non-empty batch of rows for each rep")
    scores, backward = scores_and_backward(params, x)
    residual = scores - y
    losses = np.mean(residual ** 2, axis=1)
    return losses, backward(2.0 * residual / x.shape[1])


def decide(scores: np.ndarray) -> np.ndarray:
    """The +/-1 decision for each score: its sign, with a score of zero deciding +1."""
    return np.where(scores >= 0.0, 1, -1)


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
    params0: np.ndarray,
    data: SupervisedSplit,
    config: OptimizerConfig,
    schedules: np.ndarray,
) -> list[TrainingResult]:
    """Adam-train R reps of a model on the MSE of their scores; each epoch
    decides the test rows.  Returns one result per rep, in order.

    `params0` holds one initial parameter row per rep, (R, P), and
    `schedules` one batch schedule per rep, (R, epochs, train rows).
    Raises DataError before the first step unless the schedules have that
    shape, InvariantViolation before it if there are no test rows, and
    InvariantViolation at the end of the first epoch in which a rep's mean
    loss or parameter vector is not finite; the error's `rep` attribute is
    that rep's index.  An epoch's accuracy is each rep's matching decisions
    over the test rows; the recall at the best epoch is its caught positives
    over the positives, None if the test rows hold none.
    """
    params = np.array(params0, dtype=np.float64)
    schedules = np.asarray(schedules)
    reps = len(params)
    expected = (reps, config.epochs, data.train_x.shape[0])
    if params.ndim != 2 or schedules.shape != expected:
        raise DataError(f"schedules {schedules.shape} are not (reps, epochs, train rows) "
                        f"{expected} for parameters {params.shape}")
    if not len(data.test_y):
        raise InvariantViolation("accuracy over zero test rows is undefined")

    m, v, t = np.zeros(params.shape), np.zeros(params.shape), 0
    starts = range(0, expected[2], config.batch_size)
    step_losses = np.empty((reps, len(starts)))
    losses = np.empty((reps, config.epochs))
    hits = np.empty((reps, config.epochs), dtype=np.int64)
    caught = np.empty((reps, config.epochs), dtype=np.int64)
    positive = data.test_y == 1
    positives = np.count_nonzero(positive)

    for epoch in range(config.epochs):
        for step, start in enumerate(starts):
            batch = schedules[:, epoch, start:start + config.batch_size]
            step_losses[:, step], grad = mse_loss_and_gradient(
                scores_and_backward, params, data.train_x[batch], data.train_y[batch])
            t += 1
            params, m, v = adam_step(params, grad, m, v, t, config)
        # each row sums pairwise, as the rep's 1-D step losses do when it trains alone
        losses[:, epoch] = step_losses.mean(axis=1)
        finite = np.isfinite(losses[:, epoch]) & np.isfinite(params).all(axis=1)
        if not finite.all():
            rep = int(np.argmin(finite))
            error = InvariantViolation(
                f"epoch {epoch}: mean train loss {losses[rep, epoch]}, "
                f"{np.count_nonzero(~np.isfinite(params[rep]))} of {params.shape[1]} "
                f"parameters non-finite in rep {rep}"
            )
            error.rep = rep
            raise error

        correct = decide(scores_and_backward(params, data.test_x)[0]) == data.test_y
        hits[:, epoch] = np.count_nonzero(correct, axis=1)
        caught[:, epoch] = np.count_nonzero(correct & positive, axis=1)

    accuracies = hits / len(data.test_y)
    results = []
    for rep in range(reps):
        best_epoch = int(np.argmax(accuracies[rep]))
        results.append(TrainingResult(
            params=params[rep].copy(),
            train_loss=losses[rep],
            test_accuracy=accuracies[rep],
            best_test_accuracy=float(accuracies[rep, best_epoch]),
            best_epoch=best_epoch,
            test_recall_at_best=float(caught[rep, best_epoch] / positives) if positives else None,
            final_train_loss=float(losses[rep, -1]),
            schedule_digest=schedule_digest(schedules[rep]),
        ))
    return results
