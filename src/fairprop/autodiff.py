"""Minimal reverse-mode differentiation over dense 2-D matrices.

Define-by-run: every operation appends one record to the active Tape, and
``Tape.backward`` replays the records in reverse, accumulating gradients in
64-bit. It frees each record and its output's gradient once they are used,
so it returns the gradients of the leaves only, keyed by node id: a tape is
replayed once. This module holds the tape and the loss
(``cross_entropy_with_logits``, over the masked rows of two logit columns
only). Other modules add fused records of their own through
``Tape._result``: the whole MLP (``fairprop.nn.mlp_forward``, ``gcn``'s
aggregation included), the whole debiasing stack (``fairprop.debias.stack``)
and ``ppnp_exact``'s product by its constant kernel (``fairprop.train``).

A backward function owns the cotangent it is handed: nothing else holds it,
so the function may write into it (the MLP applies its ReLU masks in place)
and may return it as a contribution. Each contribution it returns is handed
on the same way, so it returns only arrays nothing else holds: no forward
value and no array returned twice.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

Array = np.ndarray


class Tensor:
    """Dense matrix participating in a recorded computation."""

    __slots__ = ("data", "tape", "node_id", "requires_grad")

    def __init__(self, data: Array, tape: "Tape", node_id: int, requires_grad: bool):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"tensors are 2-D, got shape {data.shape}")
        self.data = data
        self.tape = tape
        self.node_id = node_id
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape


class Tape:
    """Ordered record of primitive applications for one forward pass."""

    def __init__(self):
        self._records = []  # (output, inputs, backward_fn)
        self._next_id = 0

    def leaf(self, data, requires_grad: bool = False) -> Tensor:
        t = Tensor(data, self, self._next_id, requires_grad)
        self._next_id += 1
        return t

    def _result(self, data: Array, inputs, backward_fn) -> Tensor:
        requires = any(t.requires_grad for t in inputs)
        out = Tensor(data, self, self._next_id, requires)
        self._next_id += 1
        if requires:
            self._records.append((out, inputs, backward_fn))
        return out

    def release(self):
        """Drop the records; the tape can no longer be replayed.

        This breaks the tape <-> tensor reference cycle, so the tape is freed
        without the cyclic garbage collector. ``backward`` calls it; a
        forward-only pass calls it once it is done with the tape.
        """
        records, self._records = self._records, None
        return records

    def backward(self, loss: Tensor) -> dict:
        """Gradients of a scalar loss for every requires_grad leaf, by node_id.

        A tape is single-use: replaying releases it. Each record is dropped,
        and its output's gradient popped, as soon as the record is replayed,
        so intermediate gradients do not outlive their use. A record's output
        is dropped before its backward function runs, so the output's values
        are freed then unless a caller or a later record still holds them.
        """
        if loss.shape != (1, 1):
            raise ValueError(f"loss must be 1x1, got {loss.shape}")
        if loss.tape is not self:
            raise ValueError("loss belongs to a different tape")
        if self._records is None:
            raise RuntimeError("tape already replayed; record a new one")
        grads: dict[int, Array] = {loss.node_id: np.ones((1, 1))}
        records = self.release()
        while records:
            record = records.pop()
            node_id, backward_fn = record[0].node_id, record[2]
            del record
            if node_id in grads:  # else no gradient reaches this record
                _accumulate(grads, backward_fn(grads.pop(node_id)))
        return grads


def _accumulate(grads: dict, contribs):
    """Add each (tensor, cotangent) contribution into ``grads``; the first is kept as is."""
    for tensor, contrib in contribs:
        if tensor.requires_grad:
            acc = grads.get(tensor.node_id)
            grads[tensor.node_id] = contrib if acc is None else acc + contrib


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


def cross_entropy_with_logits(logits: Tensor, labels, mask=None) -> Tensor:
    """Mean negative log softmax over masked rows of two logit columns, row-max stabilized.

    ``labels`` has one label per row and ``mask`` is a boolean row mask; or
    ``labels`` is a ``RowLabels`` and ``mask`` is left out. Only the masked
    rows enter the softmax, and the gradient is zero on every other row.
    fairprop is two-class, so the row max is ``np.maximum`` of the two
    columns and the row sum of exponentials ``e0 + e1``: the values a
    reduction along each row computes, bit for bit, without its overhead.
    """
    if logits.shape[1] != 2:
        raise ValueError(f"cross entropy over {logits.shape[1]} logit columns: fairprop is two-class")
    if not isinstance(labels, RowLabels):
        labels = RowLabels.of(labels, mask)
    idx, lab = labels

    z = logits.data[idx]
    z -= np.maximum(z[:, 0], z[:, 1])[:, None]
    e = np.exp(z)
    z -= np.log(e[:, 0] + e[:, 1])[:, None]  # log softmax
    loss = -z[np.arange(idx.size), lab].mean()

    def backward(g):
        dz = np.exp(z)
        dz[np.arange(idx.size), lab] -= 1.0
        dz *= g[0, 0] / idx.size
        grad = np.zeros_like(logits.data)
        grad[idx] = dz
        return [(logits, grad)]

    return logits.tape._result(np.array([[loss]]), (logits,), backward)
