"""Classification metrics over +/-1 label sequences."""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation

__all__ = ["accuracy", "recall"]


def accuracy(pred, truth) -> float:
    """Fraction of exact matches between prediction and truth."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise InvariantViolation(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise InvariantViolation("accuracy of an empty sequence is undefined")
    return float(np.mean(pred == truth))


def recall(pred, truth) -> float | None:
    """True-positive rate with the positive class encoded as +1; None without positives."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise InvariantViolation(f"length mismatch: {pred.shape} vs {truth.shape}")
    positives = truth == 1
    if not positives.any():
        return None
    tp = np.sum(positives & (pred == 1))
    return float(tp / positives.sum())
