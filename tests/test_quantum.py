import math

import numpy as np
import pytest

from qsarbench.errors import DimensionMismatch, EmptyBatch
from qsarbench.quantum import (
    QuantumModelParams,
    init_quantum_params,
    q_forward,
    q_gradient,
    q_loss,
    q_predict,
    train_quantum,
)
from qsarbench.simulator import AnsatzParams, parameter_shift_gradient
from qsarbench.training import OptimizerConfig, SupervisedSplit, batch_schedule

from test_simulator import dense_ansatz


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_parameter_count_is_7n(n):
    params = init_quantum_params(n, seed=0)
    assert params.n_parameters == 7 * n
    roundtrip = QuantumModelParams.from_vector(n, params.to_vector())
    np.testing.assert_array_equal(roundtrip.ansatz.angles, params.ansatz.angles)
    np.testing.assert_array_equal(roundtrip.readout, params.readout)
    for layers in (3, n):  # the layer count follows from the vector length
        deep = init_quantum_params(n, seed=0, layers=layers)
        roundtrip = QuantumModelParams.from_vector(n, deep.to_vector())
        assert roundtrip.ansatz.layers == layers
        np.testing.assert_array_equal(roundtrip.ansatz.angles, deep.ansatz.angles)
        np.testing.assert_array_equal(roundtrip.readout, deep.readout)


def test_wrong_readout_size_rejected():
    with pytest.raises(DimensionMismatch):
        QuantumModelParams(AnsatzParams(np.zeros((2, 3, 3))), np.zeros(2))


def test_zero_readout_scores_zero_predicts_positive(rng):
    params = QuantumModelParams(
        AnsatzParams(rng.uniform(0, 2 * math.pi, size=(2, 2, 3))), np.zeros(2)
    )
    x = rng.normal(size=(5, 4))
    np.testing.assert_array_equal(q_forward(params, x), 0.0)
    np.testing.assert_array_equal(q_predict(params, x), 1)


def test_zero_angles_on_first_basis_vector():
    # |0..0> is untouched by the CNOT ring, so every <Z> is +1
    params = QuantumModelParams(
        AnsatzParams(np.zeros((2, 3, 3))), np.array([0.2, -0.5, 1.25])
    )
    x = np.zeros(8)
    x[0] = 1.0
    assert q_forward(params, x) == pytest.approx(0.2 - 0.5 + 1.25, abs=1e-12)


def test_forward_matches_dense_composition_oracle(rng):
    for _ in range(10):
        params = init_quantum_params(2, seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=4)
        state = x / np.linalg.norm(x)
        final = dense_ansatz(2, params.ansatz.angles) @ state.astype(np.complex128)
        probs = np.abs(final) ** 2
        z = [
            sum(p * (1 if not (b >> (1 - q)) & 1 else -1) for b, p in enumerate(probs))
            for q in range(2)
        ]
        expected = float(np.dot(z, params.readout))
        assert q_forward(params, x) == pytest.approx(expected, abs=1e-12)


def test_forward_feature_count_check(rng):
    params = init_quantum_params(2, seed=1)
    with pytest.raises(DimensionMismatch):
        q_forward(params, np.ones(8))


def test_gradient_zero_at_exact_fit(rng):
    params = init_quantum_params(2, seed=3)
    x = rng.normal(size=(6, 4))
    y = np.asarray(q_forward(params, x))
    grad = q_gradient(params, x, y)
    np.testing.assert_allclose(grad, 0.0, atol=1e-14)


def test_gradient_matches_finite_differences(rng):
    for trial in range(25):
        n = int(rng.integers(1, 4))
        params = init_quantum_params(n, seed=trial)
        x = rng.normal(size=(int(rng.integers(1, 7)), 1 << n))
        y = rng.choice([-1.0, 1.0], size=x.shape[0])
        grad = q_gradient(params, x, y)

        def loss(vec):
            return q_loss(QuantumModelParams.from_vector(n, vec), x, y)

        h = 1e-6
        vec = params.to_vector()
        fd = np.zeros_like(vec)
        for j in range(vec.size):
            step = np.zeros_like(vec)
            step[j] = h
            fd[j] = (loss(vec + step) - loss(vec - step)) / (2 * h)
        scale = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(grad - fd) / scale < 1e-6


def test_gradient_equals_per_sample_parameter_shift(rng):
    """The adjoint-computed angle gradient must reproduce the parameter-shift
    composition stated by the contract: upstream = 2(score - y) w / batch."""
    from qsarbench.simulator import embed_array, run_ansatz_array, z_expectations_array

    # the widths the trainer runs; layers = n differentiates every ring offset
    for n, layers in [(n, 2) for n in (1, 2, 3, 4, 8)] + [(n, n) for n in (3, 4, 8)]:
        params = init_quantum_params(n, seed=n, layers=layers)
        batch = 5
        x = rng.normal(size=(batch, 1 << n))
        y = rng.choice([-1.0, 1.0], size=batch)
        grad = q_gradient(params, x, y)

        amps, _ = embed_array(x)
        z = z_expectations_array(run_ansatz_array(amps, n, params.ansatz.angles), n)
        residual = z @ params.readout - y
        g_readout = 2 / batch * (z.T @ residual)
        g_angles = np.zeros_like(params.ansatz.angles)
        for i in range(batch):
            upstream = 2 / batch * residual[i] * params.readout
            g_angles += parameter_shift_gradient(x[i], params.ansatz, upstream)
        reference = np.concatenate([g_angles.ravel(), g_readout])
        np.testing.assert_allclose(grad, reference, atol=1e-12)


def test_parameter_shift_is_linear_in_upstream(rng):
    # scaling the readout scales each angle's upstream weight linearly when
    # the residual is held fixed
    params = init_quantum_params(2, seed=9)
    x = rng.normal(size=4)
    upstream = rng.normal(size=2)
    base = parameter_shift_gradient(x, params.ansatz, upstream)
    scaled = parameter_shift_gradient(x, params.ansatz, 3.5 * upstream)
    np.testing.assert_allclose(scaled, 3.5 * base, atol=1e-12)


def test_empty_batch_rejected():
    params = init_quantum_params(2, seed=0)
    with pytest.raises(EmptyBatch):
        q_gradient(params, np.empty((0, 4)), np.empty(0))


def test_score_invariant_under_positive_input_scaling(rng):
    params = init_quantum_params(3, seed=5)
    x = rng.normal(size=8)
    base = q_forward(params, x)
    for scale in (2.0, 0.25, 1024.0):  # powers of two scale exactly in floats
        assert q_forward(params, scale * x) == base
    assert q_forward(params, 3.1 * x) == pytest.approx(base, abs=1e-12)


def test_score_bounded_by_l1_norm_of_readout(rng):
    for _ in range(20):
        params = init_quantum_params(3, seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=8)
        assert abs(q_forward(params, x)) <= np.abs(params.readout).sum() + 1e-12


def one_hot_toy_split():
    x = np.eye(4)
    y = np.array([1, 1, -1, -1])  # sign of <Z_0> across the four basis states
    return SupervisedSplit(x, y, x.copy(), y.copy())


def test_training_solves_one_hot_task():
    result = train_quantum(one_hot_toy_split(), OptimizerConfig(epochs=100, batch_size=4), seed=8,
                           schedule=batch_schedule(4, 100, 4, seed=8))
    assert result.best_test_accuracy == 1.0


def test_training_deterministic():
    data = one_hot_toy_split()
    config = OptimizerConfig(epochs=15, batch_size=2)
    schedule = batch_schedule(4, 15, 2, seed=21)
    a = train_quantum(data, config, seed=21, schedule=schedule)
    b = train_quantum(data, config, seed=21, schedule=schedule)
    np.testing.assert_array_equal(a.train_loss, b.train_loss)
    np.testing.assert_array_equal(a.test_accuracy, b.test_accuracy)
    np.testing.assert_array_equal(a.params, b.params)


def test_non_power_of_two_features_rejected():
    x = np.ones((4, 3))
    y = np.array([1, -1, 1, -1])
    data = SupervisedSplit(x, y, x.copy(), y.copy())
    with pytest.raises(DimensionMismatch):
        train_quantum(data, OptimizerConfig(epochs=1), seed=0,
                      schedule=batch_schedule(4, 1, 32, seed=0))


def test_zero_epochs_rejected():
    with pytest.raises(ValueError):
        OptimizerConfig(epochs=0)


def test_training_rebuilds_params_once_per_epoch(monkeypatch):
    # steps work on the flat vector; only the per-epoch prediction builds the params
    calls = []
    from_vector = QuantumModelParams.from_vector.__func__

    def counted(cls, n_qubits, vec):
        calls.append(None)
        return from_vector(cls, n_qubits, vec)

    monkeypatch.setattr(QuantumModelParams, "from_vector", classmethod(counted))
    config = OptimizerConfig(epochs=5, batch_size=2)
    train_quantum(one_hot_toy_split(), config, seed=3, schedule=batch_schedule(4, 5, 2, seed=3))
    assert len(calls) == config.epochs
