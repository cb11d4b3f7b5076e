import numpy as np
import pytest

import qsarbench.classical
from qsarbench.classical import MlpParams, mlp_predict, train_mlp
from qsarbench.errors import ConfigError, DataError, InvariantViolation
from qsarbench.metrics import accuracy
from qsarbench.quantum import QuantumModelParams, q_predict, train_quantum
from qsarbench.training import (OptimizerConfig, SupervisedSplit, batch_schedule, run_training,
                                schedule_digest)


def toy_split():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    y = np.array([1, -1, 1, -1])
    return SupervisedSplit(x, y, x.copy(), y.copy())


@pytest.mark.parametrize("bad_score, bad_grad", [
    (float("nan"), 0.0),      # non-finite score, so non-finite loss
    (float("inf"), 0.0),
    (1.0, float("nan")),      # non-finite gradient, so non-finite parameters
])
def test_non_finite_epoch_raises_at_its_end(bad_score, bad_grad):
    epochs = 3
    schedule = batch_schedule(4, epochs, seed=0)   # two steps per epoch
    steps = []

    def scores_and_backward(params, xb):
        if xb.shape[0] != 2:                          # each epoch's call on the 4 test rows
            return xb @ params, None
        steps.append(len(steps))
        bad = len(steps) == 3                         # first step of epoch 1
        scores = np.full(xb.shape[0], bad_score if bad else 0.0)
        return scores, lambda d_scores: np.full_like(params, bad_grad if bad else 0.1)

    with pytest.raises(InvariantViolation, match="epoch 1: mean train loss"):
        run_training(scores_and_backward, np.zeros(2), toy_split(),
                     OptimizerConfig(epochs=epochs, batch_size=2), schedule)
    assert len(steps) == 4          # checked once per epoch, not per step


@pytest.mark.parametrize("name, value", [
    ("learning_rate", 0.0), ("learning_rate", -0.01), ("learning_rate", "0.01"),
    ("learning_rate", float("nan")), ("learning_rate", True),
    ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", None),
    ("epsilon", 0.0), ("epsilon", "1e-8"), ("epsilon", float("inf")),
    ("epochs", 0), ("epochs", True), ("epochs", 2.0), ("epochs", "3"),
    ("batch_size", 0), ("batch_size", False), ("batch_size", 8.5),
])
def test_bad_optimizer_setting_rejected_before_training(name, value, monkeypatch):
    entered = []
    monkeypatch.setattr(qsarbench.classical, "run_training", lambda *args: entered.append(args))
    with pytest.raises(ConfigError, match=name):
        qsarbench.classical.train_mlp(toy_split(), OptimizerConfig(**{name: value}), 0,
                                      batch_schedule(4, 1, seed=0))
    assert not entered


def test_optimizer_counts_become_python_ints():
    config = OptimizerConfig(epochs=np.int64(3), batch_size=np.int32(2), learning_rate=1)
    assert type(config.epochs) is int and type(config.batch_size) is int
    assert type(config.learning_rate) is int


def index_split(rows):
    """Each row's only feature is its own index, so a batch names its rows."""
    x = np.arange(rows, dtype=np.float64)[:, None]
    y = np.where(np.arange(rows) % 2 == 0, 1, -1)
    return SupervisedSplit(x, y, x.copy(), y.copy())


def recording_model(batches):
    def scores_and_backward(params, xb):
        batches.append(xb[:, 0].astype(int))
        return np.zeros(xb.shape[0]), lambda d_scores: np.zeros_like(params)

    return scores_and_backward


@pytest.mark.parametrize("rows, epochs", [(4, 2), (9, 2), (6, 3)])
def test_schedule_of_another_shape_rejected_before_the_first_step(rows, epochs):
    batches = []
    with pytest.raises(DataError, match=rf"\({epochs}, {rows}\).*\(2, 6\)"):
        run_training(recording_model(batches), np.zeros(1), index_split(6),
                     OptimizerConfig(epochs=2), batch_schedule(rows, epochs, seed=0))
    assert not batches


def test_epoch_order_cut_into_batches_of_the_configured_size():
    schedule = batch_schedule(5, 3, seed=4)
    batches = []
    run_training(recording_model(batches), np.zeros(1), index_split(5),
                 OptimizerConfig(epochs=3, batch_size=2), schedule)
    # each epoch: its batches, then one call on all test rows to decide them
    assert [len(batch) for batch in batches] == [2, 2, 1, 5] * 3
    for epoch, order in enumerate(schedule):
        np.testing.assert_array_equal(np.concatenate(batches[4 * epoch:4 * epoch + 3]), order)
        np.testing.assert_array_equal(batches[4 * epoch + 3], np.arange(5))


def test_schedule_is_read_only_epoch_orders_with_a_stable_digest():
    schedule = batch_schedule(5, 3, seed=0)
    assert schedule.dtype == np.int64 and schedule.shape == (3, 5)
    for order in schedule:
        assert sorted(order) == list(range(5))
    with pytest.raises(ValueError):
        schedule[0, 0] = 1
    # the digest of the same orders cut into batches, as reports have recorded it
    assert schedule_digest(schedule) == "4a9ba18d72950a1525e7ea9dadfc6751"


@pytest.mark.parametrize("train, params_type, predict, width", [
    (train_mlp, MlpParams, mlp_predict, 4),
    (train_quantum, QuantumModelParams, q_predict, 2),
])
def test_epoch_decisions_are_the_public_predict(train, params_type, predict, width):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(24, 4))
    y = np.where(rng.random(24) < 0.5, 1, -1)
    data = SupervisedSplit(x[:16], y[:16], x[16:], y[16:])
    result = train(data, OptimizerConfig(epochs=3, batch_size=4), 0, batch_schedule(16, 3, seed=0))
    params = params_type.from_vector(width, result.params)
    assert result.test_accuracy[-1] == accuracy(predict(params, data.test_x), data.test_y)
