import re

import numpy as np
import pytest

import qsarbench.classical
from qsarbench import quantum
from qsarbench.classical import mlp_predict, train_mlp
from qsarbench.errors import ConfigError, DataError, InvariantViolation
from qsarbench.harness import _CellTask, _run_cell
from qsarbench.metrics import accuracy
from qsarbench.quantum import QuantumModelParams, init_quantum_params, q_predict, train_quantum
from qsarbench.simulator import amplitude_embed
from qsarbench.training import (OptimizerConfig, SupervisedSplit, batch_schedule,
                                run_training, schedule_digest)


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
        if xb.ndim == 2:                              # each epoch's call on the 4 shared test rows
            return params @ xb.T, None
        steps.append(len(steps))
        bad = len(steps) == 3                         # first step of epoch 1
        scores = np.full(xb.shape[:2], bad_score if bad else 0.0)
        return scores, lambda d_scores: np.full_like(params, bad_grad if bad else 0.1)

    with pytest.raises(InvariantViolation, match="epoch 1: mean train loss"):
        run_training(scores_and_backward, np.zeros((1, 2)), toy_split(),
                     OptimizerConfig(epochs=epochs, batch_size=2), [schedule])
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
        qsarbench.classical.train_mlp(toy_split(), OptimizerConfig(**{name: value}), [0],
                                      [batch_schedule(4, 1, seed=0)])
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
    """Records each call's rows: a step's (reps, B) rows, or the (T,) rows every rep shares."""
    def scores_and_backward(params, xb):
        batches.append(xb[..., 0].astype(int))
        scores = np.zeros((len(params), xb.shape[-2]))
        return scores, (None if xb.ndim == 2 else lambda d_scores: np.zeros_like(params))

    return scores_and_backward


@pytest.mark.parametrize("rows, epochs", [(4, 2), (9, 2), (6, 3)])
def test_schedule_of_another_shape_rejected_before_the_first_step(rows, epochs):
    batches = []
    with pytest.raises(DataError, match=rf"\(1, {epochs}, {rows}\).*\(1, 2, 6\)"):
        run_training(recording_model(batches), np.zeros((1, 1)), index_split(6),
                     OptimizerConfig(epochs=2), [batch_schedule(rows, epochs, seed=0)])
    assert not batches


def test_epoch_order_cut_into_batches_of_the_configured_size():
    schedules = np.stack([batch_schedule(5, 3, seed=4), batch_schedule(5, 3, seed=5)])
    batches = []
    run_training(recording_model(batches), np.zeros((2, 1)), index_split(5),
                 OptimizerConfig(epochs=3, batch_size=2), schedules)
    # each epoch: every rep's batches, then one call on all test rows to decide them
    assert [batch.shape for batch in batches] == [(2, 2), (2, 2), (2, 1), (5,)] * 3
    for epoch in range(3):
        np.testing.assert_array_equal(np.concatenate(batches[4 * epoch:4 * epoch + 3], axis=1),
                                      schedules[:, epoch])
        np.testing.assert_array_equal(batches[4 * epoch + 3], np.arange(5))


def test_labels_other_than_plus_minus_one_are_named_as_np_unique_names_them():
    x = np.zeros((4, 2))
    for train_y, test_y in (([1, -1, 0, 1], [1, 2, 2, -1]), ([1.0, -1.0, 0.5, 1.0], [-1, 1, 1, -1])):
        train_y, test_y = np.array(train_y), np.array(test_y)
        values = set(np.unique(train_y)) | set(np.unique(test_y))
        expected = f"labels must be +/-1, got {sorted(values)}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            SupervisedSplit(x, train_y, x, test_y)
    SupervisedSplit(x, np.array([1, -1, -1, 1]), x, np.array([-1.0, 1.0, 1.0, 1.0]))


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
    pytest.param(train_mlp, None, mlp_predict, 4, id="train_mlp-mlp_predict-4"),  # its vector
    (train_quantum, QuantumModelParams, q_predict, 2),
])
def test_epoch_decisions_are_the_public_predict(train, params_type, predict, width):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(24, 4))
    y = np.where(rng.random(24) < 0.5, 1, -1)
    data = SupervisedSplit(x[:16], y[:16], x[16:], y[16:])
    [result] = train(data, OptimizerConfig(epochs=3, batch_size=4), [0],
                     [batch_schedule(16, 3, seed=0)])
    params = result.params if params_type is None else params_type.from_vector(width, result.params)
    assert result.test_accuracy[-1] == accuracy(predict(params, data.test_x), data.test_y)


def random_split(n, rows=60, test_rows=15, seed=16):
    rng = np.random.default_rng([n, seed])
    x = rng.normal(size=(rows, 1 << n))
    y = np.where(rng.random(rows) < 0.5, 1, -1)
    cut = rows - test_rows
    return SupervisedSplit(x[:cut], y[:cut], x[cut:], y[cut:])


@pytest.mark.parametrize("train", [train_mlp, train_quantum])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_reps_trained_together_equal_each_rep_trained_alone(train, n):
    data = random_split(n)
    config = OptimizerConfig(epochs=3, batch_size=8)    # a short last batch each epoch
    seeds = [3, 17, 29]
    schedules = [batch_schedule(45, 3, seed=seed) for seed in (5, 6, 7)]
    together = train(data, config, seeds, np.stack(schedules))
    assert len(together) == 3
    for seed, schedule, result in zip(seeds, schedules, together):
        [alone] = train(data, config, [seed], [schedule])
        np.testing.assert_array_equal(result.params, alone.params)
        np.testing.assert_array_equal(result.train_loss, alone.train_loss)
        np.testing.assert_array_equal(result.test_accuracy, alone.test_accuracy)
        assert (result.best_epoch, result.best_test_accuracy, result.test_recall_at_best,
                result.final_train_loss, result.schedule_digest) == (
            alone.best_epoch, alone.best_test_accuracy, alone.test_recall_at_best,
            alone.final_train_loss, alone.schedule_digest)
        assert result.schedule_digest == schedule_digest(schedule)


def test_test_rows_scored_in_chunks_match_one_chunk(monkeypatch):
    n, reps = 3, 2
    data = random_split(n, rows=100, test_rows=40)
    amps = amplitude_embed(data.test_x)
    params = np.stack([init_quantum_params(n, seed).to_vector() for seed in (1, 2)])
    whole = quantum._scores_and_backward(params, amps)[0]
    config = OptimizerConfig(epochs=3, batch_size=8)
    schedules = [batch_schedule(60, 3, seed=seed) for seed in (5, 6)]
    trained = train_quantum(data, config, [1, 2], schedules)

    chunks = []
    run_factors = quantum.run_factors

    def counted(rows, factors):
        chunks.append(len(rows))
        return run_factors(rows, factors)

    monkeypatch.setattr(quantum, "run_factors", counted)
    monkeypatch.setattr(quantum, "SCORE_CHUNK_BYTES", 7 * reps * amps.shape[-1] * amps.itemsize)
    chunked = quantum._scores_and_backward(params, amps)[0]
    assert chunks == [7, 7, 7, 7, 7, 5]
    np.testing.assert_array_equal(chunked, whole)
    for result, alone in zip(train_quantum(data, config, [1, 2], schedules), trained):
        np.testing.assert_array_equal(result.test_accuracy, alone.test_accuracy)
        assert result.test_recall_at_best == alone.test_recall_at_best


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1, 2])
def test_shared_scores_bit_equal_to_one_chunk(monkeypatch, reps, extra):
    # T = one chunk's rows + extra; a one-row tail is multiplied as a batch
    # (a lone row would take BLAS's matrix-vector path and change the last
    # bits), at a one-block (n = 3) and a two-block (n = 8) layer
    for n in (3, 8):
        per_chunk = quantum.SCORE_CHUNK_BYTES // (reps * (1 << n) * 16)
        amps = amplitude_embed(np.random.default_rng([reps, extra + 1, n]).normal(
            size=(per_chunk + extra, 1 << n)))
        angles, readout = quantum._split_vector(
            np.stack([init_quantum_params(n, seed).to_vector() for seed in range(reps)]), n)

        chunks = []
        run_factors = quantum.run_factors

        def counted(rows, factors):
            chunks.append(len(rows))
            return run_factors(rows, factors)

        monkeypatch.setattr(quantum, "run_factors", counted)
        chunked = quantum._shared_scores(amps, angles, readout)
        assert chunks == ([per_chunk, extra] if extra > 0 else [per_chunk + extra])
        monkeypatch.setattr(quantum, "SCORE_CHUNK_BYTES", 1 << 40)
        np.testing.assert_array_equal(chunked, quantum._shared_scores(amps, angles, readout))
        monkeypatch.undo()


def test_non_finite_rep_names_its_rep_seed(monkeypatch):
    exact = quantum._scores_and_backward

    def nan_in_rep_one(params, x):
        scores, backward = exact(params, x)
        if x.ndim == 3:                  # a training step of every rep
            scores = scores.copy()
            scores[1] = np.nan
        return scores, backward

    monkeypatch.setattr(quantum, "_scores_and_backward", nan_in_rep_one)
    task = _CellTask(n=2, x=2.0, split_index=0, split_seed=9, rep_seeds=(101, 202, 303),
                     data=random_split(2), optimizer=OptimizerConfig(epochs=2, batch_size=8))
    with pytest.raises(InvariantViolation) as raised:
        _run_cell(task)
    message = str(raised.value)
    assert message.startswith("split_index=0 n=2 x=2.0 rep_seed=202 model=quantum: "
                              "epoch 0: mean train loss nan"), message
    assert "101" not in message and "303" not in message
