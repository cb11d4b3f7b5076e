"""One cell of the protocol against a reference trainer written apart from the package.

The reference trains each rep of each model on its own, row by row.  The
perceptron's gradient is central differences of `naive_forward`; the
circuit's is the parameter-shift rule on the dense unitaries of
`dense_ansatz`.  Adam is written out from Kingma & Ba, "Adam: A Method for
Stochastic Optimization" (ICLR 2015), Algorithm 1, and the best epoch is the
first epoch of highest test accuracy.  Only the batch schedules and the
initial vectors come from the package, derived as `harness._run_cell`
derives them.  Everything `_run_cell` reports must match exactly, except the
final parameters and train loss, which carry the finite differences' error.
"""

import math

import numpy as np
import pytest

from qsarbench import harness
from qsarbench.classical import init_mlp_params
from qsarbench.harness import _CellTask, _run_cell
from qsarbench.quantum import init_quantum_params
from qsarbench.rng import derive_seed
from qsarbench.training import OptimizerConfig, SupervisedSplit, batch_schedule, schedule_digest

from test_classical import finite_difference, naive_forward
from test_simulator import dense_ansatz

REP_SEEDS = (11, 12, 13)
OPTIMIZER = OptimizerConfig(learning_rate=0.05, batch_size=8, epochs=6)
# Adam divides each gradient by its running scale, so an angle whose exact
# gradient is zero (the last layer's RZ before the CNOT ring and the Z
# readout) moves by rounding noise alone, differently in the two trainers:
# about 4e-9 after this cell's 36 steps, against at most 1e-10 elsewhere.
TOLERANCE = 1e-8


def separable_split(n: int, rows: int = 48, test_rows: int = 24) -> SupervisedSplit:
    """2^n features, labelled by the side of a fixed hyperplane through the origin."""
    rng = np.random.default_rng([n, 15])
    x = rng.normal(size=(rows + test_rows, 1 << n))
    y = np.where(x @ rng.normal(size=1 << n) >= 0, 1, -1)
    return SupervisedSplit(x[:rows], y[:rows], x[rows:], y[rows:])


def mlp_scores(vec: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.array([naive_forward(vec, row) for row in x])


def mlp_loss_and_gradient(vec, x, y):
    def loss(v):
        return float(np.mean((mlp_scores(v, x) - y) ** 2))

    return loss(vec), finite_difference(loss, vec, 1e-5)


def circuit_z(unitary: np.ndarray, row: np.ndarray) -> np.ndarray:
    """<Z_q> of each qubit after `unitary` on one row's amplitudes; qubit 0 is
    the most significant bit of a basis index."""
    n = row.size.bit_length() - 1
    bits = (np.arange(row.size)[:, None] >> (n - 1 - np.arange(n))) & 1
    return np.abs(unitary @ (row / np.linalg.norm(row))) ** 2 @ (1 - 2 * bits)


def quantum_parts(vec: np.ndarray, n: int):
    """The (layers, n, 3) angles and the n readout weights of a flat vector."""
    return vec[:-n].reshape(-1, n, 3), vec[-n:]


def quantum_scores(vec: np.ndarray, x: np.ndarray) -> np.ndarray:
    n = x.shape[1].bit_length() - 1
    angles, readout = quantum_parts(vec, n)
    unitary = dense_ansatz(n, angles)
    return np.array([circuit_z(unitary, row) @ readout for row in x])


def quantum_loss_and_gradient(vec, x, y):
    """Batch MSE and its gradient: the readout part analytic, each angle's part
    by the parameter-shift rule, one row at a time."""
    n = x.shape[1].bit_length() - 1
    angles, readout = quantum_parts(vec, n)
    unitary = dense_ansatz(n, angles)
    shifted = []   # each angle's (+pi/2, -pi/2) unitaries
    for k in range(angles.size):
        step = np.zeros(angles.size)
        step[k] = math.pi / 2
        shifted.append([dense_ansatz(n, angles + sign * step.reshape(angles.shape))
                        for sign in (1, -1)])
    grad_angles = np.zeros(angles.size)
    grad_readout = np.zeros(n)
    losses = []
    for row, label in zip(x, y):
        z = circuit_z(unitary, row)
        weight = 2.0 * (z @ readout - label) / len(x)
        losses.append((z @ readout - label) ** 2)
        grad_readout += weight * z
        for k, (plus, minus) in enumerate(shifted):
            grad_angles[k] += weight * readout @ (circuit_z(plus, row) - circuit_z(minus, row)) / 2
    return float(np.mean(losses)), np.concatenate([grad_angles, grad_readout])


def reference_train(loss_and_gradient, scores, vec, data, schedule, config):
    """One rep under Adam (Kingma & Ba, Algorithm 1), one batch at a time."""
    alpha, beta1, beta2, eps = (config.learning_rate, config.beta1, config.beta2,
                                config.epsilon)
    theta = np.array(vec, dtype=np.float64)
    m = np.zeros_like(theta)   # 1st moment vector
    v = np.zeros_like(theta)   # 2nd moment vector
    t = 0
    epoch_losses, accuracies, recalls = [], [], []
    for order in schedule:
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            rows = order[start:start + config.batch_size]
            loss, g = loss_and_gradient(theta, data.train_x[rows], data.train_y[rows])
            batch_losses.append(loss)
            t = t + 1
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g ** 2
            m_hat = m / (1 - beta1 ** t)
            v_hat = v / (1 - beta2 ** t)
            theta = theta - alpha * m_hat / (np.sqrt(v_hat) + eps)
        epoch_losses.append(np.mean(batch_losses))
        decisions = np.where(scores(theta, data.test_x) >= 0, 1, -1)
        accuracies.append(np.mean(decisions == data.test_y))
        positives = data.test_y == 1
        recalls.append(np.mean(decisions[positives] == 1) if positives.any() else None)
    best = accuracies.index(max(accuracies))
    return {"params": theta, "test_accuracy": accuracies, "best_epoch": best,
            "best_test_accuracy": accuracies[best], "test_recall_at_best": recalls[best],
            "final_train_loss": epoch_losses[-1], "schedule_digest": schedule_digest(schedule)}


@pytest.mark.parametrize("n", [2, 3])
def test_cell_matches_the_reference_trainer(n, monkeypatch):
    data = separable_split(n)
    trained = {}
    for model, name in (("classical", "train_mlp"), ("quantum", "train_quantum")):
        def recording(*args, train=getattr(harness, name), model=model):
            trained[model] = train(*args)
            return trained[model]

        monkeypatch.setattr(harness, name, recording)
    task = _CellTask(n=n, x=float(n), split_index=0, split_seed=7, rep_seeds=REP_SEEDS,
                     data=data, optimizer=OPTIMIZER)
    trials = {(t.model, t.rep_index): t for t in _run_cell(task)}

    models = {
        "classical": (mlp_loss_and_gradient, mlp_scores, harness._STREAM_MLP_INIT,
                      lambda seed: init_mlp_params(1 << n, seed)),
        "quantum": (quantum_loss_and_gradient, quantum_scores, harness._STREAM_QUANTUM_INIT,
                    lambda seed: init_quantum_params(n, seed).to_vector()),
    }
    worst = dict.fromkeys(models, 0.0)
    for model, (loss_and_gradient, scores, stream, init) in models.items():
        for rep, rep_seed in enumerate(REP_SEEDS):
            schedule = batch_schedule(len(data.train_x), OPTIMIZER.epochs,
                                      derive_seed(rep_seed, harness._STREAM_SCHEDULE))
            expected = reference_train(loss_and_gradient, scores,
                                       init(derive_seed(rep_seed, stream)), data, schedule,
                                       OPTIMIZER)
            result, trial = trained[model][rep], trials[model, rep]
            assert result.test_accuracy.tolist() == expected["test_accuracy"], (model, rep)
            for name in ("best_epoch", "best_test_accuracy", "test_recall_at_best",
                         "schedule_digest"):
                assert getattr(trial, name) == expected[name], (model, rep, name)
            errors = (np.max(np.abs(result.params - expected["params"])),
                      abs(trial.final_train_loss - expected["final_train_loss"]))
            assert max(errors) <= TOLERANCE, (model, rep, errors)
            worst[model] = max(worst[model], *errors)
    print(f"n={n}: largest difference from the reference: "
          + ", ".join(f"{model} {error:.1e}" for model, error in worst.items()))

    # the cell is one that tells these checks apart: some rep's test accuracy
    # changes from epoch to epoch, and some rep reaches its best more than once
    curves = [result.test_accuracy for results in trained.values() for result in results]
    assert any(len(set(curve)) > 1 for curve in curves)
    assert any(np.count_nonzero(curve == curve.max()) > 1 for curve in curves)
