from dataclasses import replace

import numpy as np
import pytest

from fairprop import train
from fairprop.data import Dataset
from fairprop.debias import fairness_grad, fairness_objective, prox_dual, steps
from fairprop.graph import build_graph
from fairprop.autodiff import RowLabels, cross_entropy_with_logits
from fairprop.metrics import accuracy, predict_labels
from fairprop.nn import AdamState, MlpConfig, _affine, _affine_grads, adam_step, init_weights
from fairprop.train import RunConfig


def random_graph(rng, n_max=30, p=0.3):
    """Random undirected graph with at least one edge."""
    n = int(rng.integers(2, n_max + 1))
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    if not edges:
        edges = [(0, 1)]
    return build_graph(n, edges)


def dense_normalized_adjacency(n, edges):
    """Independent dense-matrix construction of D^{-1/2} (A + I) D^{-1/2}."""
    A = np.zeros((n, n))
    for i, j in edges:
        A[i, j] = 1.0
        A[j, i] = 1.0
    A_hat = A + np.eye(n)
    d_inv_sqrt = 1.0 / np.sqrt(A_hat.sum(axis=1))
    return d_inv_sqrt[:, None] * A_hat * d_inv_sqrt[None, :]


def edge_energy(g, F):
    """Oracle: the edge form of the smoothness energy, one edge at a time.

    sum over (i, j) in E of ||F_i/sqrt(d_i+1) - F_j/sqrt(d_j+1)||^2, which
    equals ``smoothness_energy``'s trace form tr(F^T (I - A_norm) F).
    """
    degrees = np.bincount(g.edges.ravel(), minlength=g.n)
    scaled = np.asarray(F, dtype=np.float64) / np.sqrt(degrees + 1.0)[:, None]
    total = 0.0
    for i, j in g.edges:
        diff = scaled[i] - scaled[j]
        total += float(diff @ diff)
    return total


def finite_diff(f, x, step=1e-5):
    """Central finite differences of scalar-valued f at x, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        g[idx] = (f(xp) - f(xm)) / (2.0 * step)
    return g


def assert_close_rel(actual, expected, rtol, afloor=1e-9):
    """Relative comparison with an absolute floor for near-zero entries."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    diff = np.abs(actual - expected)
    tol = np.maximum(afloor, rtol * np.abs(expected))
    worst = (diff - tol).max()
    assert worst <= 0.0, (
        f"worst excess {worst:.3e}; max abs diff {diff.max():.3e}, rtol {rtol}"
    )


def centred(F):
    """Each row of F less its mean: the logits a softmax reads, as ``debias.stack`` returns them."""
    F = np.asarray(F, dtype=np.float64)
    return F - F.mean(axis=1, keepdims=True)


def matmul(a, b):
    """a @ b and its pullback, g -> (the cotangent of a, that of b).

    With a constant kernel ``a``, ``a.T @ g`` is the cotangent
    ``ppnp_exact``'s forward pass pulls back itself; tests compare the two
    bit for bit.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    return a @ b, lambda g: (g @ b.T, a.T @ g)


def add_row_bias(a, b):
    """a + b for a row bias b of shape (d,), and its pullback, g -> (da, db).

    ``matmul`` -> ``add_row_bias`` -> ``relu`` is the three-step chain that
    one layer of ``nn.mlp_forward`` fuses; tests compare the two bit for bit.
    """
    return a + b, lambda g: (g, g.sum(axis=0))


def relu(a):
    """max(a, 0) and its pullback, which masks the cotangent."""
    mask = a > 0.0
    return a * mask, lambda g: g * mask


def spmm_const(adjacency, x):
    """A @ x for a constant symmetric sparse A and its pullback: A^T g is A g."""
    return adjacency @ x, lambda g: adjacency @ g


def dense(x, w, b, relu, row_scale=None, standardize=None):
    """One MLP layer, ``x @ w + b`` on ``nn._affine``, ReLU'd if ``relu`` is
    set, and its pullback, g -> (dx, dw, db).

    ``row_scale`` and ``standardize`` are those of ``nn._affine``. The bias
    add and the ReLU mask are applied in place.
    """
    h, w_in = _affine(x, w, b, row_scale, standardize)
    mask = None
    if relu:
        mask = h > 0.0
        h *= mask

    def pullback(g):
        if mask is not None:
            g = g * mask
        dw, db = np.empty(w.shape), np.empty(b.shape)
        _affine_grads(g, x, w_in, dw, db, row_scale, standardize)
        return g @ w_in.T, dw, db

    return h, pullback


def per_layer_mlp(mlp, x, standardize=None, adjacency=None, row_scale=None):
    """Oracle: ``nn.mlp_forward`` as one pullback per operation, chained by hand.

    One ``dense`` step per layer, the first one standardized or row-scaled.
    With an ``adjacency`` (``gcn``) every later layer is ``dense`` without
    its ReLU, then ``spmm_const``, then ``relu``. Returns (output,
    pullback), the pullback from the output's cotangent to each layer's dw
    and db raveled and joined in layer order: ``mlp_forward``'s values and
    flat gradient equal this chain's bit for bit.
    """
    h, pullbacks = x, []  # each layer's pullbacks, in forward order
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        first = (row_scale, standardize) if i == 0 else ()
        aggregated = i > 0 and adjacency is not None
        h, back = dense(h, w, b, i != last and not aggregated, *first)
        pullbacks.append([back])
        if aggregated:
            h, spmm_back = spmm_const(adjacency, h)
            pullbacks[-1].append(spmm_back)
            if i != last:
                h, relu_back = relu(h)
                pullbacks[-1].append(relu_back)

    def pullback(g):
        grads = []
        for layer in reversed(pullbacks):
            for back in reversed(layer[1:]):
                g = back(g)
            g, dw, db = layer[0](g)
            grads = [dw.ravel(), db] + grads
        return np.concatenate(grads)

    return h, pullback


def weighted_sum(out, w):
    """sum(out * w) for a constant array w, and its gradient in ``out``, w itself.

    Gradient checks reduce an op's output to a scalar with it, as the loss
    (``autodiff.cross_entropy_with_logits``) does: (value, gradient).
    """
    w = np.asarray(w, dtype=np.float64)
    return float(np.sum(out * w)), w


def forward(mlp, x, g, delta, cfg, scheme="fair"):
    """``scheme``'s forward pass under ``cfg``'s ``lambda_s``, ``lambda_f``
    and ``num_layers``, through ``train.prepare``.

    ``appnp`` takes the primal step of ``lambda_s`` as its teleport alpha and
    ``num_layers`` as its step count. Returns (logits, pullback to the
    gradient of ``mlp.theta``).
    """
    gamma, _ = steps(cfg.lambda_s)
    cfg = replace(cfg, scheme=scheme, alpha=gamma, prop_k=cfg.num_layers, standardize=False)
    labels = np.zeros(g.n, dtype=np.int64)
    dataset = Dataset(graph=g, features=x, sensitive=np.sign(delta.values), labels=labels)
    _, scheme_forward = train.prepare(cfg, dataset, None)
    return scheme_forward(mlp, x)


def ml1_forward(mlp, x, g, delta, cfg):
    """The ``ml1`` scheme's forward pass; see ``forward``."""
    return forward(mlp, x, g, delta, cfg, scheme="ml1")


def appnp_forward(mlp, x, g, delta, cfg):
    """The ``appnp`` scheme's forward pass; see ``forward``."""
    return forward(mlp, x, g, delta, cfg, scheme="appnp")


def loss_gradient(fwd, mlp, x, labels, mask, *args):
    """The masked cross entropy of ``fwd(mlp, x, *args)``'s logits: (logits, loss, gradient of mlp.theta)."""
    logits, pullback = fwd(mlp, x, *args)
    loss, dlogits = cross_entropy_with_logits(logits, RowLabels.of(labels, mask))
    return logits, loss, pullback(dlogits)


def appnp_step(g, F, X_trans, alpha):
    """Oracle: one teleport-propagation step (1 - alpha) * A_norm F + alpha * X_trans."""
    F = np.asarray(F, dtype=np.float64)
    X_trans = np.asarray(X_trans, dtype=np.float64)
    if F.shape != X_trans.shape:
        raise ValueError(f"shape mismatch {F.shape} vs {X_trans.shape}")
    return alpha * X_trans + (1.0 - alpha) * (g.adjacency @ F)


def ml1_step(F, X_trans, g, delta, cfg):
    """Oracle: one direct subgradient step on the combined objective (no dual variable).

    Uses ``cfg.lambda_f`` * sign(p) in place of the dual variable; sign is
    treated as constant.
    """
    F = np.asarray(F, dtype=np.float64)
    X_trans = np.asarray(X_trans, dtype=np.float64)
    if F.shape != X_trans.shape:
        raise ValueError("shape mismatch")
    gamma, _ = steps(cfg.lambda_s)
    agg = gamma * X_trans + (1.0 - gamma) * (g.adjacency @ F)
    _, p = fairness_objective(F, delta, cfg.lambda_f)
    u_eff = cfg.lambda_f * np.sign(p).reshape(1, -1)
    return agg - gamma * fairness_grad(F, u_eff, delta)


def _ref_softmax(F):
    e = np.exp(F - F.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _ref_fair_grad(S, dcol, u):
    t = (dcol * u) * S
    return t - t.sum(axis=1, keepdims=True) * S


def _ref_fair_grad_vjp(S, dcol, u, h):
    hs = h * S
    q = hs - hs.sum(axis=1, keepdims=True) * S
    qu = q * u
    dF = dcol * (qu - q * (S * u).sum(axis=1, keepdims=True) - S * qu.sum(axis=1, keepdims=True))
    return dF, dcol.T @ q


def _ref_primal_step(F, u, X_trans, g, dcol, gamma, S, agg):
    """The primal step from (F, u, X_trans) and its pullback, gF -> (dF, du, dX)."""

    def pullback(gout):
        dF, du = _ref_fair_grad_vjp(S, dcol, u, -gamma * gout)
        return g.adjacency @ ((1.0 - gamma) * gout) + dF, du, gamma * gout

    return agg - gamma * _ref_fair_grad(S, dcol, u), pullback


def reference_layer(F, u, X_trans, g, delta, cfg, ml1=False):
    """Reference: one layer as two n x C steps; returns (F_next, u_next, pullback).

    This is the layer ``debias.stack`` replaced: ``u_next`` from (F, u,
    X_trans), the dual ascent and prox, then ``F_next`` from (F, u_next,
    X_trans), the primal step, each pulling back through the aggregation on
    its own, at the steps of ``cfg.lambda_s`` and the radius
    ``cfg.lambda_f``. With ``ml1`` the dual is the constant
    lambda_f * sign(p) and u is passed through. ``pullback(gF, gu)`` takes
    the cotangents of F_next and u_next and returns those of F, u and
    X_trans.
    """
    (gamma, beta), lam = steps(cfg.lambda_s), cfg.lambda_f
    dcol = delta.values[:, None]
    S = _ref_softmax(F)
    agg = gamma * X_trans + (1.0 - gamma) * (g.adjacency @ F)
    if ml1:
        u_eff = lam * np.sign(delta.values @ S).reshape(1, -1)
        F_next, primal_back = _ref_primal_step(F, u_eff, X_trans, g, dcol, gamma, S, agg)

        def ml1_pullback(gF, gu):
            dF, _, dX = primal_back(gF)  # the constant dual takes no gradient
            return dF, gu, dX

        return F_next, u, ml1_pullback
    S_bar = _ref_softmax(agg - gamma * _ref_fair_grad(S, dcol, u))
    u_bar = u + beta * (delta.values @ S_bar)
    inside = np.abs(u_bar) <= lam
    u_next = prox_dual(u_bar, lam)
    F_next, primal_back = _ref_primal_step(F, u_next, X_trans, g, dcol, gamma, S, agg)

    def pullback(gF, gu):
        dF, du_next, dX = primal_back(gF)
        gu_bar = (gu + du_next) * inside
        gf_bar = _ref_fair_grad(S_bar, dcol, beta * gu_bar)
        dF_bar, du = _ref_fair_grad_vjp(S, dcol, u, -gamma * gf_bar)
        return (
            dF + g.adjacency @ ((1.0 - gamma) * gf_bar) + dF_bar,
            gu_bar + du,
            dX + gamma * gf_bar,
        )

    return F_next, u_next, pullback


def reference_stack(X_trans, g, delta, cfg, ml1=False):
    """Reference: ``cfg.num_layers`` ``reference_layer`` steps from X_trans and
    the dual u = 0, chained by hand: (F_L, pullback from F_L's cotangent to X_trans's)."""
    F, u, pullbacks = X_trans, np.zeros((1, X_trans.shape[1])), []
    for _ in range(cfg.num_layers):
        F, u, back = reference_layer(F, u, X_trans, g, delta, cfg, ml1)
        pullbacks.append(back)

    def pullback(gF):
        gu, gX = np.zeros_like(u), np.zeros_like(X_trans)
        for back in reversed(pullbacks):
            gF, gu, dX = back(gF, gu)
            gX += dX
        return gX + gF  # layer 1's state is X_trans

    return F, pullback


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def full_mask_cross_entropy(logits, labels, mask):
    """Reference: masked cross entropy from a softmax over every row.

    Returns (loss, gradient with respect to the logits), computed as
    ``autodiff.cross_entropy_with_logits`` did before it took the softmax
    over the masked rows only.
    """
    labels = np.asarray(labels)
    idx = np.flatnonzero(np.asarray(mask, dtype=bool))
    lab = labels[idx]
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -log_probs[idx, lab].mean()
    probs = np.exp(log_probs)
    grad = np.zeros_like(logits)
    grad[idx] = probs[idx]
    grad[idx, lab] -= 1.0
    grad[idx] *= 1.0 / idx.size
    return loss, grad


def adam_per_array(params, grads, state):
    """Reference: one Adam step array by array, with ``state`` a dict holding
    lr, beta1, beta2, eps, weight_decay, t and the per-array moments m and v."""
    if "m" not in state:
        state["m"] = [np.zeros_like(p) for p in params]
        state["v"] = [np.zeros_like(p) for p in params]
    state["t"] += 1
    t, b1, b2 = state["t"], state["beta1"], state["beta2"]
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        g = g + state["weight_decay"] * p
        state["m"][i] = b1 * state["m"][i] + (1.0 - b1) * g
        state["v"][i] = b2 * state["v"][i] + (1.0 - b2) * g * g
        m_hat = state["m"][i] / (1.0 - b1**t)
        v_hat = state["v"][i] / (1.0 - b2**t)
        out.append(p - state["lr"] * m_hat / (np.sqrt(v_hat) + state["eps"]))
    return out


def gcn_oracle(g, mlp, X):
    """Oracle: the ``gcn`` logits as A (H W + b) in every layer, ReLU between layers."""
    h = np.asarray(X, dtype=np.float64)
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = g.adjacency @ (h @ w + b)
        if i != last:
            h = np.maximum(h, 0.0)
    return h


def stepping_train_one(cfg, dataset, masks, seed):
    """Reference: ``train.train_one``'s loop with an Adam step after every
    epoch, the last included: (best model, report, trace).

    Each epoch scores the weights before its step and snapshots them, so
    the last step's weights are never read, and ``train_one``, which skips
    that step, returns the same bytes; the report's ``wall_time_ms`` is left 0.
    """
    features, forward = train.prepare(cfg, dataset, masks)
    mlp = init_weights(MlpConfig(in_dim=features.shape[1], hidden=list(cfg.hidden)), seed)
    state = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    rows = RowLabels.of(dataset.labels, masks.train)
    trace, best_val = train.TrainTrace(), -1.0
    for epoch in range(cfg.epochs):
        logits, pullback = forward(mlp, features)
        loss, dlogits = cross_entropy_with_logits(logits, rows)
        val_acc = accuracy(predict_labels(logits[masks.val]), dataset.labels[masks.val])
        trace.train_loss.append(loss)
        trace.val_accuracy.append(val_acc)
        if cfg.selection == "last" or val_acc > best_val:
            best_val, best, best_logits, trace.best_epoch = val_acc, mlp.copy(), logits, epoch
        adam_step(mlp.theta, pullback(dlogits), state)
    return best, train._report(cfg, best_logits, dataset, masks.test, seed), trace
