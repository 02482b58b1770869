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
and every scheme that propagates this way calls it directly on X_trans. It
runs class-major: node states are C x n, so per-node sums over the C classes
run along axis 0 and the duals are C x 1 columns; ``fairness_grad`` and
``row_softmax`` call the same class-major core on a transpose. Its reverse
sweep adds the primal and dual cotangents on each aggregation before one
sparse product, so a layer costs two sparse products per epoch, one forward
and one backward; each is C matrix-vector products, one per contiguous class
row. At lambda_fair = 0 the dual is 0 and a layer is the aggregation alone
(teleport propagation), so the sweeps skip the softmaxes, the dual update and
the fairness gradients. The direct-subgradient baseline (``ml1=True``) runs
the same sweep with the constant dual lambda_fair * sign(p) in place of the
dual update, and the ``appnp`` baseline runs it at lambda_fair = 0 with
teleport alpha.
"""

from __future__ import annotations

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


def _fair_grad(S: Array, Sd: Array, u: Array, log=lambda buf: buf) -> Array:
    """delta_i * S_i * (u - <S_i, u>) for S = softmax(F) and Sd = S * delta, class-major.

    This is the gradient of <delta . softmax(F), u> in F, for the length-n
    incident vector delta and a C x 1 dual u.
    """
    grad = log(_centered(S, u))
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


def fairness_grad(F: Array, u: Array, delta: IncidentVector, alloc_log=None) -> Array:
    """Gradient of <delta . softmax(F), u> with respect to F.

    Closed form: delta_i * S_i * (u - <S_i, u>) with S = softmax(F), computed
    class-major on the transpose of F. Every intermediate holds at most n x d
    values; ``alloc_log`` (a list, if given) collects the shape of each
    allocated buffer.
    """
    F = np.asarray(F, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64).reshape(-1, 1)
    if F.shape[1] != u.shape[0]:
        raise ValueError(f"shape mismatch: F {F.shape}, u {u.T.shape}")
    if F.shape[0] != delta.values.shape[0]:
        raise ValueError("row count mismatch with incident vector")

    def log(buf):
        if alloc_log is not None:
            alloc_log.append(buf.shape)
        return buf

    S = log(_softmax(F.T))
    return _fair_grad(S, log(S * delta.values), u, log).T


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
    """A @ G[c] for every class row c of the C-contiguous C x n state G.

    One matrix-vector product per class: ``A @ G.T`` would make scipy copy the
    transpose and run its slower multivector kernel. With ``out`` given, the
    products are added into it in place.
    """
    if out is None:
        out = np.empty_like(G)
        for c, row in enumerate(G):
            out[c] = A @ row
    else:
        for c, row in enumerate(G):
            out[c] += A @ row
    return out


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
    lam * sign(p) instead. Returns F_L. The step sizes are plain numbers: the
    ``fair`` and ``ml1`` schemes take them from ``steps``, and ``appnp``
    passes its teleport alpha as gamma at lam = 0.

    For the hand-written reverse sweep it keeps softmax(F) and, with a dual,
    softmax(f_bar) and the clamp mask of every layer. The module docstring
    gives the class-major layout, the sparse products and the lam = 0 path.
    """
    if n_layers == 0:
        return X_trans
    A, d = g.adjacency, delta.values
    F = np.ascontiguousarray(X_trans.data.T)
    teleport = gamma * F
    u = None if ml1 else np.zeros((F.shape[0], 1))
    duals, Ss, S_bars, insides = [u], [], [], []
    for k in range(n_layers):
        agg = _spmv(A, F)
        agg *= 1.0 - gamma
        agg += teleport
        if lam > 0:  # else the dual, and with it the fairness gradient, is 0
            S = _softmax(F)
            del F  # the layer's state is not read again
            Sd = S * d
            if ml1:
                u = lam * np.sign(S @ d)[:, None]
            else:
                # layer 1's dual is 0, and so is its fairness gradient
                S_bar = _softmax(agg if k == 0 else agg - _fair_grad(S, Sd, gamma * u))
                u_bar = u + beta * (S_bar @ d)[:, None]
                insides.append(np.abs(u_bar) <= lam)  # where the prox passes the gradient through
                S_bars.append(S_bar)
                u = prox_dual(u_bar, lam)
            agg -= _fair_grad(S, Sd, gamma * u)
            Ss.append(S)
            duals.append(u)
        F = agg
    # one check suffices: every node has a positively weighted self-loop in A,
    # and the softmax, S @ d and prox_dual all carry a NaN on to later layers
    if np.isnan(F).any():
        raise FloatingPointError("NaN produced in propagation layer")

    def backward(gout):
        gF = np.ascontiguousarray(gout.T)  # cotangent of a layer's output F
        del gout
        gu = np.zeros((gF.shape[0], 1))  # and of its output dual
        gX = None
        for k in reversed(range(n_layers)):
            g_agg, gF_fair = gF, None
            if lam > 0:
                # the primal step subtracts gamma * _fair_grad: -gamma goes on the duals
                S = Ss[k]
                q = _softmax_vjp(S, gF)
                terms = [(-gamma * duals[k + 1], q)]
                if not ml1:
                    gu = (gu - gamma * (q @ d)[:, None]) * insides[k]  # through the prox
                    if gu.any():  # else every entry is clamped: nothing flows back
                        # p_bar = S_bar delta^T, so its pullback to f_bar is the
                        # fairness gradient at f_bar with dual beta * gu
                        S_bar = S_bars[k]
                        gf_bar = _fair_grad(S_bar, S_bar * d, beta * gu)
                        if k > 0:  # layer 1's f_bar is agg: no dual term, no earlier dual
                            q_bar = _softmax_vjp(S, gf_bar)
                            terms.append((-gamma * duals[k], q_bar))
                            gu = gu - gamma * (q_bar @ d)[:, None]
                        gf_bar += gF
                        g_agg = gf_bar
                gF_fair = _fair_grad_vjp(S, d, terms)
            # the normalized adjacency is symmetric, so A^T = A
            gF = _spmv(A, (1.0 - gamma) * g_agg, gF_fair)
            if k == 0:  # layer 1's state is X: its cotangent joins before layer 1's own term
                gX = gF if gX is None else np.add(gX, gF, out=gX)
            gX = gamma * g_agg if gX is None else np.add(gX, gamma * g_agg, out=gX)
        return [(X_trans, np.ascontiguousarray(gX.T))]

    return X_trans.tape._result(np.ascontiguousarray(F.T), (X_trans,), backward)
