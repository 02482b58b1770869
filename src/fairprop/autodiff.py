"""Minimal reverse-mode differentiation over dense 2-D matrices.

Define-by-run: every primitive appends one record to the active Tape, and
``Tape.backward`` replays the records in reverse, accumulating gradients in
64-bit. It frees each record and its output's gradient once they are used,
so it returns the gradients of the leaves only, keyed by node id: a tape is
replayed once. The five primitives are the ones training records: ``dense``
(one record for ``relu(x @ W + b)``, the bias optionally scaled per row),
``matmul``, ``spmm_const``, ``relu`` and ``cross_entropy_with_logits`` (over
the masked rows only).
``matmul`` and ``dense`` compute no gradient for an operand that requires
none. Other modules add fused records of their own through ``Tape._result``
(the whole debiasing stack, ``fairprop.debias.stack``).

A backward function owns the cotangent it is handed: nothing else holds it,
so the function may write into it (``dense`` and ``relu`` apply their masks
in place) and may return it as a contribution. Each contribution it returns
is handed on the same way, so it returns only arrays nothing else holds: no
forward value and no array returned twice.
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


def _check(a: Tensor, b: Tensor):
    if a.tape is not b.tape:
        raise ValueError("operands belong to different tapes")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check(a, b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch {a.shape} @ {b.shape}")

    def backward(g):
        grads = []
        if a.requires_grad:
            grads.append((a, g @ b.data.T))
        if b.requires_grad:
            grads.append((b, a.data.T @ g))
        return grads

    return a.tape._result(a.data @ b.data, (a, b), backward)


def dense(x: Tensor, w: Tensor, b: Tensor, relu: bool, row_scale: Array | None = None) -> Tensor:
    """One record for ``x @ w + b``, with a ReLU after it when ``relu`` is set.

    ``b`` is a 1 x d row bias. The bias add and the ReLU mask are applied in
    place, so the record keeps one n x d output; the values, signed zeros
    included, equal those of ``x @ w``, then ``+ b``, then ``relu``. A
    constant ``row_scale`` of shape (n,) scales the bias of row i by
    ``row_scale[i]``: ``x @ w + row_scale b``, so that ``A (x w + 1 b)`` is
    ``(A x) w + (A 1) b`` with ``A x`` computed once.
    """
    _check(x, w)
    _check(x, b)
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ValueError(f"dense shape mismatch {x.shape} @ {w.shape} + {b.shape}")
    if row_scale is not None and row_scale.shape != (x.shape[0],):
        raise ValueError(f"dense row scale of shape {row_scale.shape} for {x.shape[0]} rows")
    h = x.data @ w.data
    h += b.data if row_scale is None else row_scale[:, None] * b.data
    mask = None
    if relu:
        mask = h > 0.0
        h *= mask

    def backward(g):
        if mask is not None:
            g *= mask
        db = g.sum(axis=0, keepdims=True) if row_scale is None else (row_scale @ g)[None, :]
        grads = [(w, x.data.T @ g), (b, db)]
        if x.requires_grad:
            grads.append((x, g @ w.data.T))
        return grads

    return x.tape._result(h, (x, w, b), backward)


def spmm_const(graph, x: Tensor) -> Tensor:
    """Multiply by a constant symmetric sparse matrix (normalized adjacency)."""
    adj = graph.adjacency
    if x.shape[0] != adj.shape[1]:
        raise ValueError(f"spmm shape mismatch {adj.shape} @ {x.shape}")

    def backward(g):
        # adjacency is symmetric, so A^T g == A g
        return [(x, adj @ g)]

    return x.tape._result(adj @ x.data, (x,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def backward(g):
        g *= mask
        return [(a, g)]

    return a.tape._result(a.data * mask, (a,), backward)


class RowLabels(NamedTuple):
    """The rows a masked cross entropy averages over, ascending, and their labels.

    ``RowLabels.of`` computes and checks them once, for a loop that scores the
    same rows at every step.
    """

    rows: Array
    labels: Array

    @classmethod
    def of(cls, labels, mask, num_classes: int) -> "RowLabels":
        """The masked rows of ``labels``; an empty mask or a label outside
        ``range(num_classes)`` on a masked row raises one ValueError line."""
        rows = np.flatnonzero(np.asarray(mask, dtype=bool))
        if rows.size == 0:
            raise ValueError("cross entropy over an empty mask")
        lab = np.asarray(labels)[rows]
        if lab.min() < 0 or lab.max() >= num_classes:
            raise ValueError("labels out of range on masked nodes")
        return cls(rows, lab)


def cross_entropy_with_logits(logits: Tensor, labels, mask=None) -> Tensor:
    """Mean negative log softmax over masked rows, row-max stabilized.

    ``labels`` has one label per row and ``mask`` is a boolean row mask; or
    ``labels`` is a ``RowLabels`` and ``mask`` is left out. Only the masked
    rows enter the softmax, and the gradient is zero on every other row.
    """
    if not isinstance(labels, RowLabels):
        labels = RowLabels.of(labels, mask, logits.shape[1])
    idx, lab = labels

    z = logits.data[idx]
    z -= z.max(axis=1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))  # log softmax
    loss = -z[np.arange(idx.size), lab].mean()

    def backward(g):
        dz = np.exp(z)
        dz[np.arange(idx.size), lab] -= 1.0
        dz *= g[0, 0] / idx.size
        grad = np.zeros_like(logits.data)
        grad[idx] = dz
        return [(logits, grad)]

    return logits.tape._result(np.array([[loss]]), (logits,), backward)
