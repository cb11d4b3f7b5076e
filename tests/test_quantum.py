import math

import numpy as np
import pytest

from qsarbench import quantum, simulator
from qsarbench.errors import ConfigError, DataError, InvariantViolation
from qsarbench.quantum import (
    QuantumModelParams,
    init_quantum_params,
    q_forward,
    q_gradient,
    q_loss,
    q_predict,
    train_quantum,
)
from qsarbench.simulator import (amplitude_embed, parameter_shift_gradient, run_ansatz,
                                 z_expectations)
from qsarbench.training import (OptimizerConfig, SupervisedSplit, batch_schedule,
                                mse_loss_and_gradient)

from test_simulator import dense_ansatz


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_parameter_count_is_7n(n, rng):
    params = init_quantum_params(n, seed=0)
    assert params.to_vector().size == 7 * n
    roundtrip = QuantumModelParams.from_vector(n, params.to_vector())
    np.testing.assert_array_equal(roundtrip.ansatz, params.ansatz)
    np.testing.assert_array_equal(roundtrip.readout, params.readout)
    for layers in (3, n):  # the layer count follows from the vector length
        deep = QuantumModelParams(rng.uniform(0.0, 2 * math.pi, size=(layers, n, 3)),
                                  params.readout)
        roundtrip = QuantumModelParams.from_vector(n, deep.to_vector())
        assert roundtrip.ansatz.shape[0] == layers
        np.testing.assert_array_equal(roundtrip.ansatz, deep.ansatz)
        np.testing.assert_array_equal(roundtrip.readout, deep.readout)


def test_wrong_readout_size_rejected():
    with pytest.raises(DataError, match=r"readout shape \(2,\) does not match 3 qubits"):
        QuantumModelParams(np.zeros((2, 3, 3)), np.zeros(2))


def test_zero_readout_scores_zero_predicts_positive(rng):
    params = QuantumModelParams(rng.uniform(0, 2 * math.pi, size=(2, 2, 3)), np.zeros(2))
    x = rng.normal(size=(5, 4))
    np.testing.assert_array_equal(q_forward(params, x), 0.0)
    np.testing.assert_array_equal(q_predict(params, x), 1)


def test_zero_angles_on_first_basis_vector():
    # |0..0> is untouched by the CNOT ring, so every <Z> is +1
    params = QuantumModelParams(np.zeros((2, 3, 3)), np.array([0.2, -0.5, 1.25]))
    x = np.zeros(8)
    x[0] = 1.0
    assert q_forward(params, x) == pytest.approx(0.2 - 0.5 + 1.25, abs=1e-12)


def test_forward_matches_dense_composition_oracle(rng):
    for _ in range(10):
        params = init_quantum_params(2, seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=4)
        state = x / np.linalg.norm(x)
        final = dense_ansatz(2, params.ansatz) @ state.astype(np.complex128)
        probs = np.abs(final) ** 2
        z = [
            sum(p * (1 if not (b >> (1 - q)) & 1 else -1) for b, p in enumerate(probs))
            for q in range(2)
        ]
        expected = float(np.dot(z, params.readout))
        assert q_forward(params, x) == pytest.approx(expected, abs=1e-12)


def test_forward_feature_count_check(rng):
    params = init_quantum_params(2, seed=1)
    with pytest.raises(DataError, match="expected 4 features for 2 qubits, got 8"):
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
    # the widths the trainer runs; layers = n differentiates every ring offset
    for n, layers in [(n, 2) for n in (1, 2, 3, 4, 8)] + [(n, n) for n in (3, 4, 8)]:
        params = QuantumModelParams(rng.uniform(0.0, 2 * math.pi, size=(layers, n, 3)),
                                    rng.uniform(-1.0, 1.0, size=n))
        batch = 5
        x = rng.normal(size=(batch, 1 << n))
        y = rng.choice([-1.0, 1.0], size=batch)
        grad = q_gradient(params, x, y)

        z = z_expectations(run_ansatz(amplitude_embed(x), params.ansatz))
        residual = z @ params.readout - y
        g_readout = 2 / batch * (z.T @ residual)
        g_angles = np.zeros_like(params.ansatz)
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
    with pytest.raises(InvariantViolation, match="non-empty batch"):
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


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_last_layer_gamma_angles_never_change_a_score(rng, n):
    # The last layer's RZ(gamma) only rephases basis states, its CNOT ring only
    # permutes them, and <Z> reads squared magnitudes: n of the 7n parameters
    # drop out of every score, and their gradient is zero.  A first-layer
    # gamma still moves the scores.
    params = init_quantum_params(n, seed=n)
    x = rng.normal(size=(16, 1 << n))
    base = q_forward(params, x)
    for _ in range(5):
        ansatz = params.ansatz.copy()
        ansatz[-1, :, 2] += rng.uniform(-3.0, 3.0, size=n)
        shifted = q_forward(QuantumModelParams(ansatz, params.readout), x)
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)
    gradient = q_gradient(params, x, np.sign(rng.normal(size=16)))
    np.testing.assert_allclose(gradient[:6 * n].reshape(2, n, 3)[-1, :, 2], 0.0, atol=1e-12)
    ansatz = params.ansatz.copy()
    ansatz[0, :, 2] += 0.3
    shifted = q_forward(QuantumModelParams(ansatz, params.readout), x)
    assert np.max(np.abs(shifted - base)) > 1e-3


def one_hot_toy_split():
    x = np.eye(4)
    y = np.array([1, 1, -1, -1])  # sign of <Z_0> across the four basis states
    return SupervisedSplit(x, y, x.copy(), y.copy())


def test_training_solves_one_hot_task():
    [result] = train_quantum(one_hot_toy_split(), OptimizerConfig(epochs=100, batch_size=4),
                             seeds=[8], schedules=[batch_schedule(4, 100, seed=8)])
    assert result.best_test_accuracy == 1.0


def test_training_deterministic():
    data = one_hot_toy_split()
    config = OptimizerConfig(epochs=15, batch_size=2)
    schedule = batch_schedule(4, 15, seed=21)
    [a] = train_quantum(data, config, seeds=[21], schedules=[schedule])
    [b] = train_quantum(data, config, seeds=[21], schedules=[schedule])
    np.testing.assert_array_equal(a.train_loss, b.train_loss)
    np.testing.assert_array_equal(a.test_accuracy, b.test_accuracy)
    np.testing.assert_array_equal(a.params, b.params)


def test_non_power_of_two_features_rejected():
    x = np.ones((4, 3))
    y = np.array([1, -1, 1, -1])
    data = SupervisedSplit(x, y, x.copy(), y.copy())
    with pytest.raises(DataError, match="feature count 3 is not a power of two"):
        train_quantum(data, OptimizerConfig(epochs=1), seeds=[0],
                      schedules=[batch_schedule(4, 1, seed=0)])


def test_zero_epochs_rejected():
    with pytest.raises(ConfigError):
        OptimizerConfig(epochs=0)


def test_training_never_calls_from_vector(monkeypatch):
    # steps and the per-epoch decisions both work on the flat vector
    calls = []
    from_vector = QuantumModelParams.from_vector.__func__

    def counted(cls, n_qubits, vec):
        calls.append(None)
        return from_vector(cls, n_qubits, vec)

    monkeypatch.setattr(QuantumModelParams, "from_vector", classmethod(counted))
    config = OptimizerConfig(epochs=5, batch_size=2)
    train_quantum(one_hot_toy_split(), config, seeds=[3], schedules=[batch_schedule(4, 5, seed=3)])
    assert not calls


@pytest.mark.parametrize("n", [1, 2, 8])
def test_training_step_builds_rotations_once(monkeypatch, n):
    # the adjoint sweep reuses the forward sweep's layer factors
    calls = {"rot_matrix": 0, "layer_factors": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(simulator, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(simulator, name, counted)
    params = init_quantum_params(n, seed=5)
    x = np.random.default_rng(5).normal(size=(6, 1 << n))
    y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    mse_loss_and_gradient(quantum._scores_and_backward, params.to_vector()[None],
                          amplitude_embed(x)[None], y[None])
    assert calls == {"rot_matrix": 1, "layer_factors": 1}


@pytest.mark.parametrize("n", [2, 8])
def test_shared_scoring_builds_factors_once(monkeypatch, n):
    # every chunk of the shared rows runs on one build of the layer factors
    calls = []
    layer_factors = simulator.layer_factors

    def counted(u):
        calls.append(None)
        return layer_factors(u)

    monkeypatch.setattr(simulator, "layer_factors", counted)
    monkeypatch.setattr(quantum, "SCORE_CHUNK_BYTES", 12 * 3 * (1 << n) * 16)
    angles, readout = quantum._split_vector(
        np.stack([init_quantum_params(n, seed).to_vector() for seed in range(3)]), n)
    amps = amplitude_embed(np.random.default_rng(n).normal(size=(50, 1 << n)))
    scores = quantum._shared_scores(amps, angles, readout)
    assert scores.shape == (3, 50) and len(calls) == 1
