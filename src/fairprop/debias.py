"""Propagation with an explicit primal-dual debiasing step.

Each layer runs one predictor-corrector iteration: aggregate with a skip
connection, take a gradient step on the node features against the group
probability gap, update the dual perturbation direction, and project it
back into the l-infinity ball of radius lambda_fair.

The numpy functions (``fairness_grad``, ``prox_dual``, ``fairness_objective``)
state the pieces of the update on plain arrays, and ``steps`` is the one rule
for a layer's step sizes. ``fairness_grad`` and ``row_softmax`` run
class-major (C x n) on a transpose. Training runs the whole stack of
layers as one hand-differentiated stage (``stack``), which returns its
output and a pullback: the unrolled primal-dual solver differentiated as one
unit. It starts from the transformed features X_trans with the dual at
u = 0, so layer 1's dual update takes no fairness gradient, and every scheme
that propagates this way calls it directly on X_trans.

fairprop is two-class. A softmax does not change when the same number is
added to both of a node's logits, and the fairness gradient sums to 0 over
each node's two classes. So the stack propagates the one contrast
z = (F_0 - F_1) / sqrt(2) in place of the two class rows F, and returns F_L
centred per node. With t = tanh(z / sqrt(2)) the softmax is
((1 + t) / 2, (1 - t) / 2), and a layer runs in closed form
(``_binary_sweep``): its fairness term is the row
w = (sqrt(2) / 4) delta (1 - t^2) times the dual's difference u_0 - u_1, the
group gap is two dot products, and the dual update and prox run on two
floats.

The reverse sweep adds the primal and dual cotangents on each aggregation
before one sparse product, so a layer costs two sparse matrix-vector
products per epoch, one forward and one backward. At lambda_fair = 0 the
dual is 0 and a layer is the aggregation alone (teleport propagation), so
the sweep skips the fairness term, forward and backward. The
direct-subgradient baseline (``ml1=True``) runs the same sweep with the
constant dual lambda_fair * sign(p) in place of the dual update, and the
``appnp`` baseline runs it at lambda_fair = 0 with teleport alpha.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import IncidentVector, SparseGraph

Array = np.ndarray


def steps(lambda_s: float) -> tuple[float, float]:
    """The primal and dual step sizes (gamma, beta) of a layer at smoothness weight lambda_s.

    gamma = 1 / (1 + lambda_s), and beta = 1 / (2 * gamma) = (1 + lambda_s) / 2.
    """
    return 1.0 / (1.0 + lambda_s), (1.0 + lambda_s) / 2.0


def _softmax(F: Array) -> Array:
    """Softmax of each column of a class-major C x n matrix."""
    e = F - F.max(axis=0)
    np.exp(e, out=e)
    e /= e.sum(axis=0)
    return e


def row_softmax(F: Array) -> Array:
    """Plain numpy softmax over the column dimension of each row."""
    return _softmax(np.asarray(F, dtype=np.float64).T).T


def _centered(S: Array, u: Array) -> Array:
    """u - <S_i, u> for every node i, class-major (C x n)."""
    return u - u.T @ S


def _fair_grad(S: Array, Sd: Array, u: Array) -> Array:
    """delta_i * S_i * (u - <S_i, u>) for S = softmax(F) and Sd = S * delta, class-major.

    This is the gradient of <delta . softmax(F), u> in F, for the length-n
    incident vector delta and a C x 1 dual u.
    """
    grad = _centered(S, u)
    grad *= Sd
    return grad


def fairness_grad(F: Array, u: Array, delta: IncidentVector) -> Array:
    """Gradient of <delta . softmax(F), u> with respect to F.

    Closed form: delta_i * S_i * (u - <S_i, u>) with S = softmax(F), computed
    class-major on the transpose of F. Every intermediate holds at most n x d
    values.
    """
    F = np.asarray(F, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64).reshape(-1, 1)
    if F.shape[1] != u.shape[0]:
        raise ValueError(f"shape mismatch: F {F.shape}, u {u.T.shape}")
    if F.shape[0] != delta.values.shape[0]:
        raise ValueError("row count mismatch with incident vector")

    S = _softmax(F.T)
    return _fair_grad(S, S * delta.values, u).T


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
# The layer stack and its pullback
# ---------------------------------------------------------------------------


_SQRT2 = np.sqrt(2.0)
# B^T for the unit contrast B = (1, -1) / sqrt(2) of the two classes: z = B^T F
_BT = np.array([[1.0 / _SQRT2, -1.0 / _SQRT2]])


def stack(
    X_trans: Array,
    g: SparseGraph,
    delta: IncidentVector,
    n_layers: int,
    gamma: float,
    beta: float,
    lam: float,
    ml1: bool = False,
):
    """``n_layers`` layers from the n x 2 logits X_trans: (F_L, pullback).

    The first layer's state is X_trans and the dual starts at u = 0. Each
    layer aggregates, ``agg = gamma X + (1 - gamma) A F``, and then takes the
    dual ascent (step beta) and the prox onto the l-infinity ball of radius
    lam from u to u_next, and the primal step
    ``agg - gamma * fairness_grad(F, u_next)``. With ``ml1`` the stack is the
    direct-subgradient baseline: the primal step uses the constant dual
    lam * sign(p) instead. The step sizes are plain numbers: the ``fair`` and
    ``ml1`` schemes take them from ``steps``, and ``appnp`` passes its
    teleport alpha as gamma at lam = 0. ``pullback``, single-use, maps F_L's
    cotangent to X_trans's; at ``n_layers == 0`` F_L is X_trans and the
    pullback the identity.

    ``_binary_sweep`` runs the layers on the contrast z = B^T F of the two
    class rows, for B^T = ``_BT``, and the stack returns B z_L: F_L centred
    per node, which every softmax of it, and so the loss, the argmax and the
    group gap, reads as F_L. The products with B on the way out take
    ``np.dot``, not ``@``: their inner dimension is 1, where ``matmul`` takes
    a loop about 4x slower (n = 2000). The module docstring gives the closed
    form and the lam = 0 path.
    """
    if n_layers == 0:
        return X_trans, lambda gout: gout
    z, z_pullback = _binary_sweep(
        (_BT @ X_trans.T)[0], g.adjacency, delta.values, n_layers, gamma, beta, lam, ml1
    )
    # one check suffices: every node has a positively weighted self-loop in A,
    # and the softmax, the group gap and the prox all carry a NaN on to later layers
    if np.isnan(z).any():
        raise FloatingPointError("NaN produced in propagation layer")

    def pullback(gout):
        return np.dot(z_pullback((_BT @ gout.T)[0])[:, None], _BT)  # B gX, as n x 2

    return np.dot(z[:, None], _BT), pullback  # B z, as n x 2


def _binary_softmax(z: Array) -> Array:
    """t = tanh(z / sqrt(2)) for the two-class contrast z = (F_0 - F_1) / sqrt(2).

    softmax(F) is ((1 + t) / 2, (1 - t) / 2).
    """
    t = z / _SQRT2
    np.tanh(t, out=t)
    return t


def _binary_gap(t: Array, d: Array):
    """The group gap p = (s . delta, (1 - s) . delta) of s = (1 + t) / 2.

    Both entries are summed, as ``S @ delta`` does, rather than taking
    p_1 = -p_0: delta sums to 0 only up to rounding.
    """
    s = t * 0.5
    s += 0.5
    p0 = s @ d
    np.subtract(1.0, s, out=s)
    return p0, s @ d


def _binary_sweep(z, A, d, n_layers, gamma, beta, lam, ml1):
    """The layers in closed form on the contrast z = (F_0 - F_1) / sqrt(2).

    With t = tanh(z / sqrt(2)), softmax(F)_0 = s = (1 + t) / 2 and
    B^T fairness_grad(F, u) = w (u_0 - u_1) for the row
    w = (sqrt(2) / 4) delta (1 - t^2), computed once per layer and applied
    to both duals. The group gap is (s . delta, (1 - s) . delta), and the
    dual update and the prox run on two floats as ``prox_dual`` does. The
    reverse sweep pulls w's cotangent through dw/dz = -sqrt(2) t w. It
    keeps w, t w and the dual's difference u_0 - u_1 of every layer and,
    with a dual update, tanh(z_bar / sqrt(2)) and the clamp flags. At
    lam = 0 both duals are 0, and a layer is its aggregation alone, forward
    and backward. Returns z_L and its pullback, from z_L's cotangent to z's.
    """
    fair = lam > 0
    teleport = gamma * z
    cd = (_SQRT2 / 4.0) * d
    u0 = u1 = 0.0
    # dus[k] is u_0 - u_1 of layer k's input dual
    ws, tws, dus, t_bars, insides = [], [], [0.0], [], []
    for k in range(n_layers):
        agg = A @ z
        agg *= 1.0 - gamma
        agg += teleport
        if fair:
            t = _binary_softmax(z)
            del z  # the layer's state is not read again
            w = t * t
            np.subtract(1.0, w, out=w)
            w *= cd
            if ml1:
                p0, p1 = _binary_gap(t, d)
                u0, u1 = lam * np.sign(p0), lam * np.sign(p1)
            else:
                z_bar = agg
                if k > 0:  # layer 1's dual is 0, and so is its fairness term
                    z_bar = w * (-gamma * dus[-1])
                    z_bar += agg
                t_bar = _binary_softmax(z_bar)
                p0, p1 = _binary_gap(t_bar, d)
                u0, u1 = u0 + beta * p0, u1 + beta * p1
                # where the prox passes the gradient through
                insides.append((abs(u0) <= lam, abs(u1) <= lam))
                t_bars.append(t_bar)
                u0, u1 = (math.copysign(min(abs(x), lam), x) for x in (u0, u1))  # prox_dual
            du = u0 - u1
            agg -= (gamma * du) * w
            t *= w
            ws.append(w)
            tws.append(t)
            dus.append(du)
        z = agg

    def pullback(gz):
        gu0 = gu1 = 0.0  # cotangent of a layer's output dual
        gX = None
        for k in reversed(range(n_layers)):
            g_agg = gz
            if fair:
                # the primal step subtracts gamma (u_0 - u_1) w: w's cotangent
                # -gamma (u_0 - u_1) gz goes to z as gamma sqrt(2) (u_0 - u_1) t w gz
                w, tw, du = ws.pop(), tws.pop(), dus.pop()
                h = (gamma * _SQRT2 * du) * gz
                if not ml1:
                    a = gamma * (w @ gz)
                    inside0, inside1 = insides.pop()
                    gu0, gu1 = (gu0 - a) * inside0, (gu1 + a) * inside1  # through the prox
                    t_bar = t_bars.pop()
                    # with equal entries the gap's cotangent reads s_bar + (1 - s_bar):
                    # nothing flows back
                    if gu0 != gu1:
                        # z_bar's cotangent through p_bar = (s_bar . delta, (1 - s_bar) . delta):
                        # beta (gu_0 - gu_1) (sqrt(2) / 4) delta (1 - t_bar^2)
                        g_bar = np.multiply(t_bar, t_bar, out=t_bar)
                        np.subtract(1.0, g_bar, out=g_bar)
                        g_bar *= cd
                        g_bar *= beta * (gu0 - gu1)
                        if k > 0:  # layer 1's z_bar is agg: no dual term, no earlier dual
                            h += (gamma * _SQRT2 * dus[-1]) * g_bar
                            b = gamma * (w @ g_bar)
                            gu0, gu1 = gu0 - b, gu1 + b
                        g_bar += gz
                        g_agg = g_bar
                    del t_bar
                h *= tw
                del w, tw
            # the normalized adjacency is symmetric, so A^T = A
            gz = A @ ((1.0 - gamma) * g_agg)
            if fair:
                gz += h
            if k == 0:  # layer 1's state is z: its cotangent joins before layer 1's own term
                gX = gz if gX is None else np.add(gX, gz, out=gX)
            gX = gamma * g_agg if gX is None else np.add(gX, gamma * g_agg, out=gX)
        return gX

    return z, pullback
