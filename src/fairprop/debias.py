"""Propagation with an explicit primal-dual debiasing step.

Each layer runs one predictor-corrector iteration: aggregate with a skip
connection, take a gradient step on the node features against the group
probability gap, update the dual perturbation direction, and project it
back into the l-infinity ball of radius lambda_fair.

The numpy functions (``fairness_grad``, ``prox_dual``, ``fairness_objective``)
state the pieces of the update on plain arrays, and ``steps`` is the one rule
for a layer's step sizes. Training records the whole stack of layers as one
hand-differentiated tape record (``stack``), the unrolled primal-dual solver
differentiated as one unit. It starts from the transformed features X_trans
with the dual at u = 0, so layer 1's dual update takes no fairness gradient,
and every scheme that propagates this way calls it directly on X_trans.

A softmax does not change when the same number is added to all of a node's
logits, and the fairness gradient sums to 0 over each node's classes. So the
stack propagates the C - 1 contrasts Z = B^T F of a fixed orthonormal
C x (C - 1) basis B orthogonal to the all-ones vector (the Helmert basis,
``_basis``) in place of the C class rows F, and returns B Z_L, the logits
centred per node. The aggregation, the teleport term and every sparse
product run on the C - 1 contrast rows. In the general sweep
(``_contrast_sweep``) the softmaxes, the fairness gradients and the dual
update read the C class rows B Z, and their results go back through B^T;
the reverse sweep does the same with the cotangents.

At two classes there is one contrast, z = (F_0 - F_1) / sqrt(2), and with
t = tanh(z / sqrt(2)) the softmax is ((1 + t) / 2, (1 - t) / 2). There a
lambda_fair > 0 layer runs in closed form (``_binary_sweep``): its fairness
term is the row w = (sqrt(2) / 4) delta (1 - t^2) times the dual's difference
u_0 - u_1, the group gap is two dot products, and the dual update and prox
run on two floats. ``stack`` picks this sweep from the class count of its
input alone; C >= 3 and lambda_fair = 0 take the general one.

It runs class-major: states are (C - 1) x n or C x n, so per-node sums over
the classes run along axis 0 and the duals are C x 1 columns;
``fairness_grad`` and ``row_softmax`` call the same class-major core on a
transpose. The reverse sweep adds the primal and dual cotangents on each
aggregation before one sparse product, so a layer costs two sparse products
per epoch, one forward and one backward; each is C - 1 matrix-vector
products, one per contiguous contrast row. At lambda_fair = 0 the dual is 0
and a layer is the aggregation alone (teleport propagation), so the sweep
skips the softmaxes, the dual update and the fairness gradients. The
direct-subgradient baseline (``ml1=True``) runs the same sweeps with the
constant dual lambda_fair * sign(p) in place of the dual update, and the
``appnp`` baseline runs the general one at lambda_fair = 0 with teleport
alpha.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
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


def _softmax_vjp(S: Array, h: Array) -> Array:
    """S * (h - <h, S>): the pullback of h through S = softmax(F), class-major."""
    out = h * S
    np.subtract(h, out.sum(axis=0), out=out)
    out *= S
    return out


def _fair_grad_vjp(S: Array, delta: Array, terms) -> Array:
    """F-cotangent of sum_k <h_k, _fair_grad(S, S * delta, u_k)> over terms sharing S.

    Each term is (u_k, q_k) with q_k = _softmax_vjp(S, h_k); the u_k-cotangent,
    q_k delta^T, is left to the caller, and the q_k are overwritten. With
    P = sum_k q_k * (u_k - <S, u_k>), the F-cotangent is
    delta * (P - S * colsum(P)): the columns of q_k sum to zero, so <q_k, u_k>
    is the column sum of q_k * (u_k - <S, u_k>).
    """
    (u, P), *rest = terms
    P *= _centered(S, u)
    for u, q in rest:
        q *= _centered(S, u)
        P += q
    P -= S * P.sum(axis=0)
    P *= delta
    return P


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
# The layer stack on the tape
# ---------------------------------------------------------------------------


def _spmv(A, G: Array, out: Array | None = None) -> Array:
    """A @ G[r] for every row r of the row-major (C-order) state G.

    One matrix-vector product per row: ``A @ G.T`` would make scipy copy the
    transpose and run its slower multivector kernel. With ``out`` given, the
    products are added into it in place.
    """
    if out is None:
        out = np.empty_like(G)
        for r, row in enumerate(G):
            out[r] = A @ row
    else:
        for r, row in enumerate(G):
            out[r] += A @ row
    return out


def _basis(C: int) -> Array:
    """The Helmert basis: C x (C - 1), orthonormal columns orthogonal to the all-ones vector.

    Column j - 1 contrasts classes 0..j-1 with class j. ``B @ B.T`` centres
    each column of a C x n matrix, so B^T F keeps all that a softmax of F reads.
    """
    B = np.zeros((C, C - 1))
    for j in range(1, C):
        B[:j, j - 1] = 1.0 / np.sqrt(j * (j + 1.0))
        B[j, j - 1] = -j / np.sqrt(j * (j + 1.0))
    return B


def stack(
    X_trans: ad.Tensor,
    g: SparseGraph,
    delta: IncidentVector,
    n_layers: int,
    gamma: float,
    beta: float,
    lam: float,
    ml1: bool = False,
) -> ad.Tensor:
    """``n_layers`` layers from X_trans as one tape record.

    The first layer's state is X_trans and the dual starts at u = 0. Each
    layer aggregates, ``agg = gamma X + (1 - gamma) A F``, and then takes the
    dual ascent (step beta) and the prox onto the l-infinity ball of radius
    lam from u to u_next, and the primal step
    ``agg - gamma * fairness_grad(F, u_next)``. With ``ml1`` the stack is the
    direct-subgradient baseline: the primal step uses the constant dual
    lam * sign(p) instead. The step sizes are plain numbers: the ``fair`` and
    ``ml1`` schemes take them from ``steps``, and ``appnp`` passes its
    teleport alpha as gamma at lam = 0.

    It propagates the C - 1 contrasts Z = B^T F of the Helmert basis B
    (``_basis``), not the C class rows F, and returns B Z_L: F_L centred per
    node, which every softmax of it, and so the loss, the argmax and the
    group gap, reads as F_L. Every sparse product is C - 1 matrix-vector
    passes. The products with B on the way out take ``np.dot``, not ``@``:
    at C = 2 their inner dimension is 1, where ``matmul`` takes a loop about
    4x slower (n = 2000).

    The class count of X_trans picks the sweep: at two classes with lam > 0,
    ``_binary_sweep`` runs the layers in closed form on the one contrast;
    otherwise ``_contrast_sweep`` runs them on C - 1 contrast rows. Each
    keeps what its hand-written reverse sweep reads and drops each layer's
    as the sweep passes it. The module docstring gives the layout, the
    sparse products and the lam = 0 path.
    """
    if n_layers == 0:
        return X_trans
    Bt = np.ascontiguousarray(_basis(X_trans.shape[1]).T)
    sweep = _binary_sweep if lam > 0 and X_trans.shape[1] == 2 else _contrast_sweep
    Z, pullback = sweep(
        Bt @ X_trans.data.T, g.adjacency, delta.values, n_layers, gamma, beta, lam, ml1
    )
    # one check suffices: every node has a positively weighted self-loop in A,
    # and the softmax, the group gap and the prox all carry a NaN on to later layers
    if np.isnan(Z).any():
        raise FloatingPointError("NaN produced in propagation layer")

    def backward(gout):
        return [(X_trans, np.dot(pullback(Bt @ gout.T).T, Bt))]  # B gX, as n x C

    return X_trans.tape._result(np.dot(Z.T, Bt), (X_trans,), backward)  # B Z, as n x C


def _contrast_sweep(Z, A, d, n_layers, gamma, beta, lam, ml1):
    """The layers on the C - 1 contrast rows Z, at any C.

    The softmaxes, the fairness gradients and the dual update read the C
    class rows B Z and go back through B^T, one product with B each (a
    broadcast product per contrast row is 5-7x slower at C = 3 and 4,
    n = 2000); the dual is a C x 1 column. It keeps softmax(F), the dual
    and, with a dual update, softmax(f_bar) and the clamp mask of every
    layer. Returns Z_L and its pullback, from Z_L's cotangent to Z's.
    """
    B = _basis(len(Z) + 1)
    Bt = np.ascontiguousarray(B.T)
    teleport = gamma * Z
    u = None if ml1 else np.zeros((B.shape[0], 1))
    duals, Ss, S_bars, insides = [u], [], [], []
    for k in range(n_layers):
        agg = _spmv(A, Z)
        agg *= 1.0 - gamma
        agg += teleport
        if lam > 0:  # else the dual, and with it the fairness gradient, is 0
            S = _softmax(np.dot(B, Z))
            del Z  # the layer's state is not read again
            Sd = S * d
            if ml1:
                u = lam * np.sign(S @ d)[:, None]
            else:
                f_bar = np.dot(B, agg)
                if k > 0:  # layer 1's dual is 0, and so is its fairness gradient
                    f_bar -= _fair_grad(S, Sd, gamma * u)
                S_bar = _softmax(f_bar)
                u_bar = u + beta * (S_bar @ d)[:, None]
                insides.append(np.abs(u_bar) <= lam)  # where the prox passes the gradient through
                S_bars.append(S_bar)
                u = prox_dual(u_bar, lam)
            # the fairness gradient sums to 0 over each node's classes: B B^T keeps it
            agg -= Bt @ _fair_grad(S, Sd, gamma * u)
            Ss.append(S)
            duals.append(u)
        Z = agg

    def pullback(gZ):
        gu = np.zeros((B.shape[0], 1))  # cotangent of a layer's output dual
        gX = None
        for k in reversed(range(n_layers)):
            g_agg, gZ_fair = gZ, None
            if lam > 0:
                # each layer's saved values are dropped as the sweep passes it;
                # the primal step subtracts gamma * _fair_grad: -gamma goes on the duals
                S = Ss.pop()
                q = _softmax_vjp(S, np.dot(B, gZ))
                terms = [(-gamma * duals.pop(), q)]
                if not ml1:
                    S_bar = S_bars.pop()
                    gu = (gu - gamma * (q @ d)[:, None]) * insides.pop()  # through the prox
                    if gu.any():  # else every entry is clamped: nothing flows back
                        # p_bar = S_bar delta^T, so its pullback to f_bar is the
                        # fairness gradient at f_bar with dual beta * gu
                        gf_bar = _fair_grad(S_bar, S_bar * d, beta * gu)
                        if k > 0:  # layer 1's f_bar is agg: no dual term, no earlier dual
                            q_bar = _softmax_vjp(S, gf_bar)
                            terms.append((-gamma * duals[k], q_bar))
                            gu = gu - gamma * (q_bar @ d)[:, None]
                        g_agg = Bt @ gf_bar
                        g_agg += gZ
                    del S_bar
                gZ_fair = Bt @ _fair_grad_vjp(S, d, terms)
                del S
            # the normalized adjacency is symmetric, so A^T = A
            gZ = _spmv(A, (1.0 - gamma) * g_agg, gZ_fair)
            if k == 0:  # layer 1's state is Z: its cotangent joins before layer 1's own term
                gX = gZ if gX is None else np.add(gX, gZ, out=gX)
            gX = gamma * g_agg if gX is None else np.add(gX, gamma * g_agg, out=gX)
        return gX

    return Z, pullback


_SQRT2 = np.sqrt(2.0)


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


def _binary_sweep(Z, A, d, n_layers, gamma, beta, lam, ml1):
    """The layers at C = 2 and lam > 0, in closed form on the contrast z = (F_0 - F_1) / sqrt(2).

    With t = tanh(z / sqrt(2)), softmax(F)_0 = s = (1 + t) / 2 and
    B^T fairness_grad(F, u) = w (u_0 - u_1) for the row
    w = (sqrt(2) / 4) delta (1 - t^2), computed once per layer and applied
    to both duals. The group gap is (s . delta, (1 - s) . delta), and the
    dual update and the prox run on two floats as ``prox_dual`` does. The
    reverse sweep pulls w's cotangent through dw/dz = -sqrt(2) t w. It
    keeps w, t w and the dual's difference u_0 - u_1 of every layer and,
    with a dual update, tanh(z_bar / sqrt(2)) and the clamp flags. Returns
    Z_L and its pullback, as ``_contrast_sweep`` does.
    """
    z = Z[0]
    teleport = gamma * z
    cd = (_SQRT2 / 4.0) * d
    u0 = u1 = 0.0
    # dus[k] is u_0 - u_1 of layer k's input dual
    ws, tws, dus, t_bars, insides = [], [], [0.0], [], []
    for k in range(n_layers):
        agg = A @ z
        agg *= 1.0 - gamma
        agg += teleport
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

    def pullback(gZ):
        gz = gZ[0]
        del gZ  # freed once gz moves on
        gu0 = gu1 = 0.0  # cotangent of a layer's output dual
        gX = None
        for k in reversed(range(n_layers)):
            # the primal step subtracts gamma (u_0 - u_1) w: w's cotangent
            # -gamma (u_0 - u_1) gz goes to z as gamma sqrt(2) (u_0 - u_1) t w gz
            w, tw, du = ws.pop(), tws.pop(), dus.pop()
            h = (gamma * _SQRT2 * du) * gz
            g_agg = gz
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
            gz += h
            if k == 0:  # layer 1's state is z: its cotangent joins before layer 1's own term
                gX = gz if gX is None else np.add(gX, gz, out=gX)
            gX = gamma * g_agg if gX is None else np.add(gX, gamma * g_agg, out=gX)
        return gX[None]

    return z[None], pullback
