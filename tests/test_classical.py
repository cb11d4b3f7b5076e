import math

import numpy as np
import pytest

from qsarbench.classical import (
    MlpParams,
    init_mlp_params,
    mlp_forward,
    mlp_gradient,
    mlp_loss,
    mlp_predict,
    train_mlp,
)
from qsarbench.errors import DimensionMismatch, EmptyBatch
from qsarbench.training import OptimizerConfig, SupervisedSplit, batch_schedule


def naive_forward(params: MlpParams, x: np.ndarray) -> float:
    """Independent two-loop evaluation of the same network."""
    hidden = []
    for h in range(2):
        total = 0.0
        for j in range(params.n_features):
            total += params.w_hidden[h, j] * x[j]
        hidden.append(math.tanh(total))
    return sum(params.w_out[h] * hidden[h] for h in range(2))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 256])
def test_parameter_count_is_2_n_plus_1(n):
    params = init_mlp_params(n, seed=1)
    assert params.n_parameters == 2 * (n + 1)


def test_zero_weights_score_zero_predicts_positive():
    params = MlpParams(w_hidden=np.zeros((2, 3)), w_out=np.zeros(2))
    assert mlp_forward(params, np.ones(3)) == 0.0
    assert mlp_predict(params, np.ones((1, 3))).tolist() == [1]


def test_odd_symmetry_cancellation():
    params = MlpParams(w_hidden=np.array([[1.0], [-1.0]]), w_out=np.array([1.0, 1.0]))
    assert mlp_forward(params, np.array([5.0])) == pytest.approx(0.0, abs=1e-15)


def test_forward_matches_naive_two_loop_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        params = MlpParams(
            w_hidden=rng.normal(size=(2, n)), w_out=rng.normal(size=2)
        )
        x = rng.normal(size=n)
        assert mlp_forward(params, x) == pytest.approx(naive_forward(params, x), abs=1e-12)


def test_forward_dimension_mismatch():
    params = init_mlp_params(4, seed=0)
    with pytest.raises(DimensionMismatch):
        mlp_forward(params, np.ones(5))


def test_gradient_zero_at_exact_fit(rng):
    params = init_mlp_params(3, seed=2)
    x = rng.normal(size=(6, 3))
    y = np.asarray(mlp_forward(params, x))  # residual is exactly zero
    grad = mlp_gradient(params, x, y)
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)


def finite_difference(loss, vec, h):
    grad = np.zeros_like(vec)
    for j in range(vec.size):
        step = np.zeros_like(vec)
        step[j] = h
        grad[j] = (loss(vec + step) - loss(vec - step)) / (2 * h)
    return grad


def test_gradient_matches_finite_differences(rng):
    failures = 0
    for trial in range(120):
        n = int(rng.integers(1, 6))
        params = init_mlp_params(n, seed=trial)
        x = rng.normal(size=(int(rng.integers(1, 9)), n))
        y = rng.choice([-1.0, 1.0], size=x.shape[0])
        grad = mlp_gradient(params, x, y)

        def loss(vec):
            return mlp_loss(MlpParams.from_vector(n, vec), x, y)

        fd = finite_difference(loss, params.to_vector(), 1e-5)
        scale = max(np.linalg.norm(fd), 1e-12)
        if np.linalg.norm(grad - fd) / scale > 1e-6:
            failures += 1
    assert failures == 0


def test_gradient_duplication_invariance(rng):
    params = init_mlp_params(3, seed=5)
    x = rng.normal(size=(4, 3))
    y = rng.choice([-1.0, 1.0], size=4)
    grad_once = mlp_gradient(params, x, y)
    grad_twice = mlp_gradient(params, np.vstack([x, x]), np.concatenate([y, y]))
    np.testing.assert_allclose(grad_once, grad_twice, atol=1e-14)


def test_empty_batch_rejected():
    params = init_mlp_params(2, seed=0)
    with pytest.raises(EmptyBatch):
        mlp_gradient(params, np.empty((0, 2)), np.empty(0))


def test_full_batch_descent_non_increasing(rng):
    params = init_mlp_params(3, seed=9)
    x = rng.normal(size=(16, 3))
    y = rng.choice([-1.0, 1.0], size=16)
    vec = params.to_vector()
    losses = []
    for _ in range(50):
        p = MlpParams.from_vector(3, vec)
        losses.append(mlp_loss(p, x, y))
        vec = vec - 1e-3 * mlp_gradient(p, x, y)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_prediction_invariant_under_positive_output_scaling(rng):
    params = init_mlp_params(4, seed=3)
    x = rng.normal(size=(20, 4))
    base = mlp_predict(params, x)
    scaled = MlpParams(w_hidden=params.w_hidden, w_out=3.7 * params.w_out)
    np.testing.assert_array_equal(mlp_predict(scaled, x), base)


def separable_toy_data():
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([1, -1])
    return SupervisedSplit(x, y, x.copy(), y.copy())


def test_training_converges_on_separable_points():
    result = train_mlp(separable_toy_data(), OptimizerConfig(epochs=100, batch_size=2), seed=4,
                       schedule=batch_schedule(2, 100, 2, seed=4))
    assert result.train_loss[-1] < 0.01
    assert np.all(np.diff(result.train_loss)[:10] < 0)  # early descent
    assert result.best_test_accuracy == 1.0


def test_training_is_deterministic():
    data = separable_toy_data()
    config = OptimizerConfig(epochs=20, batch_size=2)
    schedule = batch_schedule(2, 20, 2, seed=11)
    a = train_mlp(data, config, seed=11, schedule=schedule)
    b = train_mlp(data, config, seed=11, schedule=schedule)
    np.testing.assert_array_equal(a.train_loss, b.train_loss)
    np.testing.assert_array_equal(a.test_accuracy, b.test_accuracy)
    np.testing.assert_array_equal(a.params, b.params)
    assert a.schedule_digest == b.schedule_digest


def test_zero_epochs_rejected():
    with pytest.raises(ValueError):
        OptimizerConfig(epochs=0)


def test_explicit_schedule_is_used():
    data = separable_toy_data()
    config = OptimizerConfig(epochs=5, batch_size=1)
    schedule = batch_schedule(2, 5, 1, seed=999)
    result = train_mlp(data, config, seed=1, schedule=schedule)
    from qsarbench.training import schedule_digest
    assert result.schedule_digest == schedule_digest(schedule)


def test_training_rebuilds_params_once_per_epoch(monkeypatch):
    # steps work on the flat vector; only the per-epoch prediction builds MlpParams
    calls = []
    from_vector = MlpParams.from_vector.__func__

    def counted(cls, n_features, vec):
        calls.append(None)
        return from_vector(cls, n_features, vec)

    monkeypatch.setattr(MlpParams, "from_vector", classmethod(counted))
    config = OptimizerConfig(epochs=5, batch_size=1)
    train_mlp(separable_toy_data(), config, seed=1, schedule=batch_schedule(2, 5, 1, seed=1))
    assert len(calls) == config.epochs
