"""Accuracy and group fairness metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray

RESULT_COLUMNS = (
    "seed",
    "scheme",
    "lambda_s",
    "lambda_f",
    "acc",
    "dp",
    "eo",
    "fairness_obj",
    "n_eval",
    "wall_time_ms",
    "fingerprint",
)


@dataclass
class MetricsReport:
    accuracy: float
    dp: float
    eo: float
    fairness_obj: float
    n_eval: int
    seed: int
    config_fingerprint: str
    scheme: str = ""
    lambda_s: float = 0.0
    lambda_f: float = 0.0
    wall_time_ms: float = 0.0

    def row(self):
        return [
            self.seed,
            self.scheme,
            repr(self.lambda_s),
            repr(self.lambda_f),
            repr(self.accuracy),
            repr(self.dp),
            repr(self.eo),
            repr(self.fairness_obj),
            self.n_eval,
            repr(self.wall_time_ms),
            self.config_fingerprint,
        ]


def predict_labels(logits: Array) -> Array:
    """Argmax per row; ties break toward the lower class index."""
    return np.argmax(logits, axis=1)


def accuracy(y_hat, y, mask=None) -> float:
    """Correct fraction over masked nodes, or over all nodes without a mask."""
    y_hat, y = np.asarray(y_hat), np.asarray(y)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        y_hat, y = y_hat[mask], y[mask]
    if y.size == 0:
        raise ValueError("accuracy over an empty mask")
    return float(np.mean(y_hat == y))


def demographic_parity(y_hat, s, mask=None) -> float:
    """Absolute positive-prediction rate gap between sensitive groups,
    over masked nodes, or over all nodes without a mask."""
    y_hat, s = np.asarray(y_hat), np.asarray(s)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        y_hat, s = y_hat[mask], s[mask]
    pos = s == 1
    neg = s == -1
    if not pos.any() or not neg.any():
        raise ValueError("demographic parity undefined: a group is empty")
    return float(abs(np.mean(y_hat[neg] == 1) - np.mean(y_hat[pos] == 1)))


def equal_opportunity(y_hat, y, s, mask) -> float:
    """Absolute true-positive rate gap between sensitive groups."""
    y_hat, y = np.asarray(y_hat), np.asarray(y)
    s, mask = np.asarray(s), np.asarray(mask, dtype=bool)
    pos = mask & (s == 1) & (y == 1)
    neg = mask & (s == -1) & (y == 1)
    if not pos.any() or not neg.any():
        raise ValueError("equal opportunity undefined: a group has no positives")
    return float(abs(np.mean(y_hat[neg] == 1) - np.mean(y_hat[pos] == 1)))
