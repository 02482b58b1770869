"""Accuracy and group fairness metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


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
        """The field values of a results row, in ``RESULT_COLUMNS`` order.

        ``csv`` writes a float as its ``repr``, so every float reads back exactly.
        """
        return [getattr(self, name) for _, name, _ in _RESULT_FIELDS]

    @classmethod
    def from_row(cls, row) -> "MetricsReport":
        """The report of a results row: a mapping from each of ``RESULT_COLUMNS`` to its text."""
        return cls(**{name: parse(row[column]) for column, name, parse in _RESULT_FIELDS})


# (CSV column, MetricsReport field, parser) of each results column, in file order
_RESULT_FIELDS = (
    ("seed", "seed", int),
    ("scheme", "scheme", str),
    ("lambda_s", "lambda_s", float),
    ("lambda_f", "lambda_f", float),
    ("acc", "accuracy", float),
    ("dp", "dp", float),
    ("eo", "eo", float),
    ("fairness_obj", "fairness_obj", float),
    ("n_eval", "n_eval", int),
    ("wall_time_ms", "wall_time_ms", float),
    ("fingerprint", "config_fingerprint", str),
)
RESULT_COLUMNS = tuple(column for column, _, _ in _RESULT_FIELDS)


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


def _two_class(values, name):
    """One ValueError line unless every entry of the array ``values`` is 0 or 1."""
    outside = (values != 0) & (values != 1)
    if outside.any():
        raise ValueError(f"{name} {values[outside][0]} is not 0 or 1: fairprop is two-class")


def demographic_parity(y_hat, s, mask=None) -> float:
    """Absolute positive-prediction rate gap between sensitive groups,
    over masked nodes, or over all nodes without a mask; a prediction other
    than 0 or 1 is refused."""
    y_hat, s = np.asarray(y_hat), np.asarray(s)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        y_hat, s = y_hat[mask], s[mask]
    _two_class(y_hat, "prediction")
    pos = s == 1
    neg = s == -1
    if not pos.any() or not neg.any():
        raise ValueError("demographic parity undefined: a group is empty")
    return float(abs(np.mean(y_hat[neg] == 1) - np.mean(y_hat[pos] == 1)))


def equal_opportunity(y_hat, y, s, mask) -> float:
    """Absolute true-positive rate gap between sensitive groups, over masked
    nodes; a masked prediction or label other than 0 or 1 is refused."""
    y_hat, y = np.asarray(y_hat), np.asarray(y)
    s, mask = np.asarray(s), np.asarray(mask, dtype=bool)
    _two_class(y_hat[mask], "prediction")
    _two_class(y[mask], "label")
    pos = mask & (s == 1) & (y == 1)
    neg = mask & (s == -1) & (y == 1)
    if not pos.any() or not neg.any():
        raise ValueError("equal opportunity undefined: a group has no positives")
    return float(abs(np.mean(y_hat[neg] == 1) - np.mean(y_hat[pos] == 1)))
