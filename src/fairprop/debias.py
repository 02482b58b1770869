"""Propagation with an explicit primal-dual debiasing step.

Each layer runs one predictor-corrector iteration: aggregate with a skip
connection, take a gradient step on the node features against the group
probability gap, update the dual perturbation direction, and project it
back into the l-infinity ball of radius lambda_fair.

The numpy functions (``fairness_grad``, ``prox_dual``, ``fairness_objective``)
state the pieces of the update on plain arrays. Training runs the layer on the
tape as two hand-differentiated records (``layer_step``): the dual update
``u_next`` from (F, u, X_trans) and the primal step ``F_next`` from
(F, u_next, X_trans). Both share one softmax of F and one aggregation, and both
compute with the same private core as ``fairness_grad``. The direct-subgradient
baseline (``ml1_forward``) records only the primal step, with the constant dual
lambda_fair * sign(p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graph import IncidentVector, SparseGraph
from .nn import Mlp, mlp_forward

Array = np.ndarray


@dataclass(frozen=True)
class DebiasParams:
    """Smoothness/fairness weights, layer count, and derived step sizes."""

    lambda_smooth: float = 1.0
    lambda_fair: float = 10.0
    num_layers: int = 2

    def __post_init__(self):
        if self.lambda_smooth < 0 or self.lambda_fair < 0:
            raise ValueError("weights must be nonnegative")
        if self.num_layers < 0:
            raise ValueError("layer count must be nonnegative")

    @property
    def gamma(self) -> float:
        """Primal step size 1 / (1 + lambda_smooth)."""
        return 1.0 / (1.0 + self.lambda_smooth)

    @property
    def beta(self) -> float:
        """Dual step size 1 / (2 * gamma) = (1 + lambda_smooth) / 2."""
        return (1.0 + self.lambda_smooth) / 2.0


def _row_sum(M: Array) -> Array:
    """Row sums repeated in every column: ``M @ ones((d, d))``, the shape of M.

    At n x 2, numpy's reduction along ``axis=1`` and the broadcast of an n x 1
    column against an n x 2 matrix each cost several times this product.
    """
    d = M.shape[1]
    return M @ np.ones((d, d))


def _row_max(M: Array) -> Array:
    """Row maxima as an n x 1 column, taken one column at a time."""
    out = M[:, :1].copy()
    for j in range(1, M.shape[1]):
        np.maximum(out, M[:, j : j + 1], out=out)
    return out


def row_softmax(F: Array) -> Array:
    """Plain numpy softmax over the column dimension of each row."""
    e = np.exp(F - _row_max(F))
    return e / _row_sum(e)


def _fair_grad(S: Array, dcol: Array, u: Array, log=lambda buf: buf) -> Array:
    """T - rowsum(T) * S with T = (delta^T u) * S, for S = softmax(F)."""
    t = log(log(dcol * u) * S)
    return log(t - log(_row_sum(t)) * S)


def _fair_grad_vjp(S: Array, dcol: Array, u: Array, h: Array):
    """Gradients (dF, du) of <h, _fair_grad(softmax(F), dcol, u)>.

    With q = S * (h - rowsum(h * S)), the softmax Jacobian applied to h:
    dF = delta * (q * (u - rowsum(S * u)) - S * rowsum(q * u)) and
    du = delta^T q.
    """
    hs = h * S
    q = hs - _row_sum(hs) * S
    qu = q * u
    dF = dcol * (qu - q * _row_sum(S * u) - S * _row_sum(qu))
    return dF, dcol.T @ q


def fairness_grad(F: Array, u: Array, delta: IncidentVector, alloc_log=None) -> Array:
    """Gradient of <delta . softmax(F), u> with respect to F.

    Closed form: T - rowsum(T) * softmax(F) with T = (delta^T u) * softmax(F).
    Every intermediate is n x d; ``alloc_log`` (a list, if given) collects the
    shape of each allocated buffer.
    """
    F = np.asarray(F, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64).reshape(1, -1)
    if F.shape[1] != u.shape[1]:
        raise ValueError(f"shape mismatch: F {F.shape}, u {u.shape}")
    if F.shape[0] != delta.values.shape[0]:
        raise ValueError("row count mismatch with incident vector")

    def log(buf):
        if alloc_log is not None:
            alloc_log.append(buf.shape)
        return buf

    return _fair_grad(log(row_softmax(F)), delta.values[:, None], u, log)


def prox_dual(u_bar: Array, lambda_fair: float) -> Array:
    """Entrywise projection into the l-infinity ball of radius lambda_fair."""
    if lambda_fair < 0:
        raise ValueError("radius must be nonnegative")
    u_bar = np.asarray(u_bar, dtype=np.float64)
    return np.sign(u_bar) * np.minimum(np.abs(u_bar), lambda_fair)


def fairness_objective(F: Array, delta: IncidentVector, lambda_fair: float):
    """lambda_fair * ||delta . softmax(F)||_1 and the raw gap vector p."""
    F = np.asarray(F, dtype=np.float64)
    p = delta.values @ row_softmax(F)
    return lambda_fair * float(np.abs(p).sum()), p


# ---------------------------------------------------------------------------
# Tape-recorded versions used during training
# ---------------------------------------------------------------------------


def _primal_step(F, u, X_trans, g, dcol, gamma, S, agg) -> ad.Tensor:
    """Tape record of agg - gamma * fairness_grad(F, u), from (F, u, X_trans).

    ``S = softmax(F)`` and ``agg = gamma X + (1 - gamma) A F`` come from the
    caller, which shares them with the layer's other record.
    """
    out = agg - gamma * _fair_grad(S, dcol, u.data)
    if np.isnan(out).any():
        raise FloatingPointError("NaN produced in debiasing layer")

    def backward(gout):
        dF, du = _fair_grad_vjp(S, dcol, u.data, -gamma * gout)
        # the normalized adjacency is symmetric, so A^T = A
        return [(F, g.adjacency @ ((1.0 - gamma) * gout) + dF), (u, du), (X_trans, gamma * gout)]

    return F.tape._result(out, (F, u, X_trans), backward)


def _aggregate(F: ad.Tensor, X_trans: ad.Tensor, g: SparseGraph, gamma: float):
    """softmax(F) and gamma X + (1 - gamma) A F, computed once per layer."""
    return row_softmax(F.data), gamma * X_trans.data + (1.0 - gamma) * (g.adjacency @ F.data)


def layer_step(
    F: ad.Tensor,
    u: ad.Tensor,
    X_trans: ad.Tensor,
    g: SparseGraph,
    delta: IncidentVector,
    hp: DebiasParams,
):
    """One aggregation + debiasing layer on the tape; returns (F_next, u_next).

    Two records share one softmax and one aggregation: ``u_next`` from
    (F, u, X_trans), the dual ascent and l-infinity prox, then ``F_next`` from
    (F, u_next, X_trans), the primal step. Both gradients are hand-derived.
    """
    gamma, beta, lam = hp.gamma, hp.beta, hp.lambda_fair
    dcol = delta.values[:, None]
    S, agg = _aggregate(F, X_trans, g, gamma)
    S_bar = row_softmax(agg - gamma * _fair_grad(S, dcol, u.data))
    u_bar = u.data + beta * (delta.values @ S_bar)
    inside = np.abs(u_bar) <= lam  # where the prox passes the gradient through

    def dual_backward(gu):
        gu_bar = gu * inside
        if not gu_bar.any():  # every entry clamped: nothing flows back
            return []
        # p_bar = delta^T softmax(f_bar), so its pullback to f_bar is the
        # fairness gradient at f_bar with dual beta * gu_bar
        gf_bar = _fair_grad(S_bar, dcol, beta * gu_bar)
        dF, du = _fair_grad_vjp(S, dcol, u.data, -gamma * gf_bar)
        return [
            (F, g.adjacency @ ((1.0 - gamma) * gf_bar) + dF),
            (u, gu_bar + du),
            (X_trans, gamma * gf_bar),
        ]

    u_next = F.tape._result(prox_dual(u_bar, lam), (F, u, X_trans), dual_backward)
    return _primal_step(F, u_next, X_trans, g, dcol, gamma, S, agg), u_next


def forward(
    mlp: Mlp,
    tape: ad.Tape,
    x: ad.Tensor,
    g: SparseGraph,
    delta: IncidentVector,
    hp: DebiasParams,
):
    """Transform features, then apply ``num_layers`` debiasing layers.

    Returns (logits tensor, MLP parameter tensors). The dual variable starts
    at zero and is threaded through the layers within this forward pass only.
    """
    x_trans, params = mlp_forward(mlp, tape, x)
    F = x_trans
    u = tape.leaf(np.zeros((1, mlp.config.out_dim)))
    for _ in range(hp.num_layers):
        F, u = layer_step(F, u, x_trans, g, delta, hp)
    return F, params


def ml1_forward(
    mlp: Mlp,
    tape: ad.Tape,
    x: ad.Tensor,
    g: SparseGraph,
    delta: IncidentVector,
    hp: DebiasParams,
):
    """MLP transform followed by ``num_layers`` direct-subgradient steps.

    Each step is the primal step with the constant dual lambda_fair * sign(p).
    """
    x_trans, params = mlp_forward(mlp, tape, x)
    F = x_trans
    dcol = delta.values[:, None]
    for _ in range(hp.num_layers):
        S, agg = _aggregate(F, x_trans, g, hp.gamma)
        u_eff = tape.leaf(hp.lambda_fair * np.sign(delta.values @ S).reshape(1, -1))
        F = _primal_step(F, u_eff, x_trans, g, dcol, hp.gamma, S, agg)
    return F, params
