import numpy as np
import pytest

from qsarbench.errors import InvariantViolation, NonFiniteTraining
from qsarbench.training import OptimizerConfig, SupervisedSplit, batch_schedule, run_training


def toy_split():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    y = np.array([1, -1, 1, -1])
    return SupervisedSplit(x, y, x.copy(), y.copy())


@pytest.mark.parametrize("bad_loss, bad_grad", [
    (float("nan"), 0.0),      # non-finite loss
    (float("inf"), 0.0),
    (1.0, float("nan")),      # non-finite gradient, so non-finite parameters
])
def test_non_finite_epoch_raises_at_its_end(bad_loss, bad_grad):
    epochs = 3
    schedule = batch_schedule(4, epochs, 2, seed=0)   # two steps per epoch
    steps = []

    def loss_and_grad(params, xb, yb):
        steps.append(len(steps))
        if len(steps) == 3:                           # first step of epoch 1
            return bad_loss, np.full_like(params, bad_grad)
        return 1.0, np.full_like(params, 0.1)

    def predict(params, xs):
        return np.where(xs @ params >= 0.0, 1, -1)

    with pytest.raises(NonFiniteTraining, match="epoch 1:") as caught:
        run_training(loss_and_grad, predict, np.zeros(2), toy_split(),
                     OptimizerConfig(epochs=epochs, batch_size=2), schedule)
    assert len(steps) == 4          # checked once per epoch, not per step
    assert isinstance(caught.value, InvariantViolation)
