"""The training loss and its gradient: masked cross entropy over two logit columns.

fairprop differentiates by hand. Each stage of a scheme's forward pass
returns its value and a single-use pullback, from the cotangent of its output
to the gradient it feeds back: the MLP (``fairprop.nn.mlp_forward``, ``gcn``'s
aggregation included) to the gradient of its flat parameter vector, the
debiasing stack (``fairprop.debias.stack``) and ``ppnp_exact``'s product by
its constant kernel (``fairprop.train``) to the cotangent of their input. A
scheme's forward composes them, and the loss here hands the composed
pullback its first cotangent, the gradient of the loss in the logits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

Array = np.ndarray


class RowLabels(NamedTuple):
    """The rows a masked cross entropy averages over, ascending, and their labels.

    ``RowLabels.of`` computes and checks them once, for a loop that scores the
    same rows at every step.
    """

    rows: Array
    labels: Array

    @classmethod
    def of(cls, labels, mask) -> "RowLabels":
        """The masked rows of ``labels``; an empty mask or a label other than
        0 or 1 on a masked row raises one ValueError line."""
        rows = np.flatnonzero(np.asarray(mask, dtype=bool))
        if rows.size == 0:
            raise ValueError("cross entropy over an empty mask")
        lab = np.asarray(labels)[rows]
        if lab.min() < 0 or lab.max() > 1:
            raise ValueError("labels out of range on masked nodes")
        return cls(rows, lab)


def cross_entropy_with_logits(logits: Array, rows: RowLabels) -> tuple[float, Array]:
    """Mean negative log softmax over the rows ``rows`` of two logit columns,
    row-max stabilized: (loss, its gradient in the logits).

    Only those rows enter the softmax, and the gradient, a new array shaped
    like ``logits``, is zero on every other row. fairprop is two-class, so
    the row max is ``np.maximum`` of the two columns and the row sum of
    exponentials ``e0 + e1``: the values a reduction along each row
    computes, bit for bit, without its overhead.
    """
    if logits.shape[1] != 2:
        raise ValueError(f"cross entropy over {logits.shape[1]} logit columns: fairprop is two-class")
    idx, lab = rows
    z = logits[idx]
    z -= np.maximum(z[:, 0], z[:, 1])[:, None]
    e = np.exp(z)
    z -= np.log(e[:, 0] + e[:, 1])[:, None]  # log softmax
    picked = np.arange(idx.size), lab
    loss = float(-z[picked].mean())
    np.exp(z, out=z)  # the softmax
    z[picked] -= 1.0
    z *= 1.0 / idx.size
    grad = np.zeros_like(logits)
    grad[idx] = z
    return loss, grad
