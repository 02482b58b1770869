"""Minimal reverse-mode differentiation over dense 2-D matrices.

Define-by-run: every primitive appends one record to the active Tape, and
``Tape.backward`` replays the records in reverse, accumulating gradients in
64-bit, then drops them: a tape is replayed once. The primitive set is
intentionally small; the only broadcasting is the row-bias add and the
row-sum broadcast. Other modules add fused primitives of their own through
``Tape._result`` (the debiasing layer in ``fairprop.debias``).
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


class Tensor:
    """Dense matrix participating in a recorded computation."""

    __slots__ = ("data", "tape", "node_id", "requires_grad", "grad")

    def __init__(self, data: Array, tape: "Tape", node_id: int, requires_grad: bool):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"tensors are 2-D, got shape {data.shape}")
        self.data = data
        self.tape = tape
        self.node_id = node_id
        self.requires_grad = requires_grad
        self.grad = None

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

    def backward(self, loss: Tensor) -> dict:
        """Gradients of a scalar loss for every requires_grad tensor.

        Returns a dict keyed by node_id; also sets ``.grad`` on leaves. A tape
        is single-use: replaying drops its records, which also breaks the
        tape <-> tensor reference cycle so the tape is freed without the
        cyclic garbage collector.
        """
        if loss.shape != (1, 1):
            raise ValueError(f"loss must be 1x1, got {loss.shape}")
        if loss.tape is not self:
            raise ValueError("loss belongs to a different tape")
        if self._records is None:
            raise RuntimeError("tape already replayed; record a new one")
        records, self._records = self._records, None
        grads: dict[int, Array] = {loss.node_id: np.ones((1, 1))}
        for out, inputs, backward_fn in reversed(records):
            g = grads.get(out.node_id)
            if g is None:
                continue
            for tensor, contrib in backward_fn(g):
                if not tensor.requires_grad:
                    continue
                acc = grads.get(tensor.node_id)
                grads[tensor.node_id] = contrib if acc is None else acc + contrib
        for out, inputs, _ in records:
            for t in inputs:
                if t.requires_grad and t.node_id in grads:
                    t.grad = grads[t.node_id]
        return grads


def _check(a: Tensor, b: Tensor):
    if a.tape is not b.tape:
        raise ValueError("operands belong to different tapes")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check(a, b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch {a.shape} @ {b.shape}")

    def backward(g):
        return [(a, g @ b.data.T), (b, a.data.T @ g)]

    return a.tape._result(a.data @ b.data, (a, b), backward)


def spmm_const(graph, x: Tensor) -> Tensor:
    """Multiply by a constant symmetric sparse matrix (normalized adjacency)."""
    adj = graph.adjacency
    if x.shape[0] != adj.shape[1]:
        raise ValueError(f"spmm shape mismatch {adj.shape} @ {x.shape}")

    def backward(g):
        # adjacency is symmetric, so A^T g == A g
        return [(x, adj @ g)]

    return x.tape._result(adj @ x.data, (x,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be 1 x d for a row-broadcast bias."""
    _check(a, b)
    if a.shape == b.shape:
        def backward(g):
            return [(a, g), (b, g)]
    elif b.shape == (1, a.shape[1]):
        def backward(g):
            return [(a, g), (b, g.sum(axis=0, keepdims=True))]
    else:
        raise ValueError(f"add shape mismatch {a.shape} + {b.shape}")
    return a.tape._result(a.data + b.data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        return [(a, c * g)]

    return a.tape._result(c * a.data, (a,), backward)


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    _check(a, b)
    if a.shape != b.shape:
        raise ValueError(f"elementwise_mul shape mismatch {a.shape} * {b.shape}")

    def backward(g):
        return [(a, g * b.data), (b, g * a.data)]

    return a.tape._result(a.data * b.data, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def backward(g):
        return [(a, g * mask)]

    return a.tape._result(a.data * mask, (a,), backward)


def row_softmax(a: Tensor) -> Tensor:
    """Softmax over the column dimension of each row."""
    if np.isnan(a.data).any():
        raise ValueError("NaN input to row_softmax")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        gy = g * y
        return [(a, gy - gy.sum(axis=1, keepdims=True) * y)]

    return a.tape._result(y, (a,), backward)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip entrywise; gradient passes through inside [lo, hi] inclusive."""
    mask = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        return [(a, g * mask)]

    return a.tape._result(np.clip(a.data, lo, hi), (a,), backward)


def row_sum_broadcast(a: Tensor) -> Tensor:
    """Sum each row over columns, broadcast back to the input shape."""
    d = a.shape[1]
    sums = a.data.sum(axis=1, keepdims=True)

    def backward(g):
        return [(a, np.broadcast_to(g.sum(axis=1, keepdims=True), a.shape).copy())]

    return a.tape._result(np.broadcast_to(sums, a.shape).copy(), (a,), backward)


def total_sum(a: Tensor) -> Tensor:
    """Sum all entries into a 1x1 scalar."""

    def backward(g):
        return [(a, np.full(a.shape, g[0, 0]))]

    return a.tape._result(np.array([[a.data.sum()]]), (a,), backward)


def cross_entropy_with_logits(logits: Tensor, labels, mask) -> Tensor:
    """Mean negative log softmax over masked nodes, row-max stabilized."""
    labels = np.asarray(labels)
    mask = np.asarray(mask, dtype=bool)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ValueError("cross entropy over an empty mask")
    d = logits.shape[1]
    lab = labels[idx]
    if lab.min() < 0 or lab.max() >= d:
        raise ValueError("labels out of range on masked nodes")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_probs = z - logsumexp
    loss = -log_probs[idx, lab].mean()
    probs = np.exp(log_probs)

    def backward(g):
        grad = np.zeros_like(logits.data)
        grad[idx] = probs[idx]
        grad[idx, lab] -= 1.0
        grad[idx] *= g[0, 0] / idx.size
        return [(logits, grad)]

    return logits.tape._result(np.array([[loss]]), (logits,), backward)
