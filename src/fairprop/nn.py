"""Feature-transformation MLP, Adam optimizer, and JSON checkpoints.

On the tape the whole MLP is one record (``mlp_forward``), on the affine map
``_affine``, which this module alone knows: its first layer standardizes the
input features as it reads them, or scales its bias per row. It computes no
gradient for the constant input features. With a graph's adjacency it is
``gcn``, aggregating after every later layer's affine map. Its hidden
activations are its own, so its backward reuses each one's buffer for that
layer's cotangent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad

if TYPE_CHECKING:
    from .train import RunConfig

Array = np.ndarray


@dataclass
class MlpConfig:
    in_dim: int
    hidden: list = field(default_factory=lambda: [64])
    out_dim: int = 2

    def layer_dims(self):
        dims = [self.in_dim] + list(self.hidden) + [self.out_dim]
        return list(zip(dims[:-1], dims[1:]))


class Mlp:
    """Fully connected network: ReLU between layers, none after the last."""

    def __init__(self, config: MlpConfig, weights, biases, seed=None):
        for (w, b), (fan_in, fan_out) in zip(zip(weights, biases), config.layer_dims()):
            if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
                raise ValueError("layer shapes inconsistent with config")
        self.config = config
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.seed = seed

    def parameters(self):
        params = []
        for w, b in zip(self.weights, self.biases):
            params += [w, b]
        return params

    def set_parameters(self, params):
        it = iter(params)
        for i in range(len(self.weights)):
            self.weights[i] = np.asarray(next(it), dtype=np.float64)
            self.biases[i] = np.asarray(next(it), dtype=np.float64)

    def copy(self) -> "Mlp":
        return Mlp(
            self.config,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            seed=self.seed,
        )


def init_weights(config: MlpConfig, seed: int) -> Mlp:
    """Glorot-uniform weights and zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in config.layer_dims():
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(config, weights, biases, seed=seed)


def mlp_forward(mlp: Mlp, tape: ad.Tape, x: ad.Tensor, standardize=None, adjacency=None, row_scale=None):
    """Run the MLP on the tape as one record.

    ``standardize``, a per-column ``(shift, scale)`` of the input, is applied
    inside the first layer (``_affine``): the MLP reads ``(x - shift) /
    scale`` and no standardized copy of ``x`` is made. A constant symmetric
    ``adjacency`` A makes it ``gcn``: every layer after the first multiplies
    its affine map by A before its ReLU, and the backward multiplies that
    layer's cotangent by A (A is its own transpose). ``row_scale`` scales the
    first layer's bias per row (``_affine``), which ``gcn`` sets to A·1 to
    read A X once per run. Returns (output tensor, list of parameter leaf
    tensors in the order of ``mlp.parameters()``).

    The record keeps each hidden layer's activation, ReLU applied in place,
    and no mask: after the ReLU, ``h > 0`` holds exactly where the
    pre-activation was > 0, NaN included. The backward writes each hidden
    layer's cotangent into that layer's activation once the layer above has
    taken its weight gradient from it, so it allocates no n x hidden array.
    Values and gradients equal those of the tests' per-layer oracle
    (``dense``, ``spmm_const`` and ``relu`` in ``tests/conftest.py``, one
    record each) bit for bit.
    """
    if x.shape[1] != mlp.config.in_dim:
        raise ValueError(
            f"expected input dim {mlp.config.in_dim}, got {x.shape[1]}"
        )
    layers = [
        (tape.leaf(w, requires_grad=True), tape.leaf(b.reshape(1, -1), requires_grad=True))
        for w, b in zip(mlp.weights, mlp.biases)
    ]
    last = len(layers) - 1
    first = {"row_scale": row_scale, "standardize": standardize}  # the first layer's constants
    inputs, w_ins = [x.data], []  # each layer's input: the features, then each hidden activation
    for i, (w, b) in enumerate(layers):
        out, w_in = _affine(inputs[i], w.data, b.data, **(first if i == 0 else {}))
        if i > 0 and adjacency is not None:
            out = adjacency @ out
        w_ins.append(w_in)
        if i != last:
            out *= out > 0.0  # ReLU
            inputs.append(out)

    def backward(g):
        grads = []
        for i in reversed(range(last + 1)):
            h = inputs.pop()
            if i > 0 and adjacency is not None:
                g = adjacency @ g
            dw, db = _affine_grads(g, h, w_ins[i], **(first if i == 0 else {}))
            grads += zip(layers[i], (dw, db))
            if i > 0:  # h is hidden: its buffer takes its cotangent, masked by its ReLU
                mask = h > 0.0
                np.matmul(g, w_ins[i].T, out=h)
                h *= mask
                g = h
            elif x.requires_grad:
                grads.append((x, g @ w_ins[0].T))
        return grads

    params = [t for layer in layers for t in layer]
    return tape._result(out, (x, *params), backward), params


def _affine(
    x: Array,
    w: Array,
    b: Array,
    row_scale: Array | None = None,
    standardize: tuple[Array, Array] | None = None,
) -> tuple[Array, Array]:
    """``x @ w + b`` on arrays, the bias added in place: (output, the weights x was multiplied by).

    The affine map of every MLP layer. A constant ``row_scale`` of shape (n,)
    scales the bias of row i by ``row_scale[i]``: ``x @ w + row_scale b``, so
    that ``A (x w + 1 b)`` is ``(A x) w + (A 1) b`` with ``A x`` computed
    once.

    A constant ``standardize = (shift, scale)``, each of shape (d_in,), makes
    the map ``((x - shift) / scale) @ w + b`` without an n x d_in temporary:
    it computes ``x @ (w / scale) + (b - (shift / scale) @ w)``, and
    ``_affine_grads`` takes ``dw = (x^T g - shift (1^T g)) / scale``, reading
    ``x`` as is. Both cancel ``shift`` against ``x``, so their relative error
    against standardizing first grows like ``|shift| / scale`` times the
    float64 eps. It does not combine with ``row_scale``.
    """
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ValueError(f"MLP layer shape mismatch {x.shape} @ {w.shape} + {b.shape}")
    if row_scale is not None and row_scale.shape != (x.shape[0],):
        raise ValueError(f"MLP row scale of shape {row_scale.shape} for {x.shape[0]} rows")
    w_in, b_in = w, b
    if standardize is not None:
        shift, scale = standardize
        if shift.shape != (x.shape[1],) or scale.shape != (x.shape[1],):
            raise ValueError(
                f"MLP standardization of shapes {shift.shape}, {scale.shape} for {x.shape[1]} columns"
            )
        if row_scale is not None:
            raise ValueError("the MLP takes a row scale or a standardization, not both")
        w_in = w / scale[:, None]
        b_in = b - (shift / scale) @ w
    h = x @ w_in
    h += b_in if row_scale is None else row_scale[:, None] * b_in
    return h, w_in


def _affine_grads(
    g: Array,
    x: Array,
    w_in: Array,
    row_scale: Array | None = None,
    standardize: tuple[Array, Array] | None = None,
) -> tuple[Array, Array]:
    """The weight and bias gradients (dw, db) of ``_affine`` at output cotangent ``g``.

    ``w_in`` is the weights ``_affine`` returned; the input's cotangent is
    ``g @ w_in.T``, left to the caller.
    """
    db = g.sum(axis=0, keepdims=True) if row_scale is None else (row_scale @ g)[None, :]
    dw = x.T @ g
    if standardize is not None:
        shift, scale = standardize
        dw -= np.outer(shift, db)
        dw /= scale[:, None]
    return dw, db


# Adam's moment decay rates and the guard added to its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float = 0.001
    weight_decay: float = 0.0
    t: int = 0
    m: Array | None = None  # first moments of all parameters, one flat vector
    v: Array | None = None  # second moments, likewise


def adam_step(params, grads, state: AdamState):
    """One bias-corrected Adam update; weight decay coupled into the gradient.

    The parameters are updated as one flat vector, in the elementwise order
    of a per-array update, so the results equal it bit for bit. Mutates
    ``state`` and returns the updated parameters, views of one new vector.
    """
    if len(params) != len(grads):
        raise ValueError("params and grads length mismatch")
    if any(p.shape != g.shape for p, g in zip(params, grads)):
        raise ValueError("parameter/gradient shape mismatch")
    p = np.concatenate([q.ravel() for q in params])
    g = np.concatenate([q.ravel() for q in grads])
    if state.m is None:
        state.m = np.zeros_like(p)
        state.v = np.zeros_like(p)
    elif state.m.shape != p.shape:
        raise ValueError("parameter/gradient shape mismatch")
    state.t += 1
    t = state.t
    g += state.weight_decay * p
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * g * g
    step = state.m / (1.0 - ADAM_BETA1**t)
    step *= state.lr
    denom = state.v / (1.0 - ADAM_BETA2**t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    p -= step
    out, start = [], 0
    for q in params:
        out.append(p[start : start + q.size].reshape(q.shape))
        start += q.size
    return out


def save_checkpoint(path, mlp: Mlp, run: RunConfig):
    """Write the model as a single JSON document, bound to the config that trained it.

    The binding is the config's fingerprint; its scheme is stored beside it
    so that a refusal can name it.
    """
    doc = {
        "config": {
            "in_dim": mlp.config.in_dim,
            "hidden": list(mlp.config.hidden),
            "out_dim": mlp.config.out_dim,
        },
        "layers": [
            {"w": w.tolist(), "b": b.tolist()}
            for w, b in zip(mlp.weights, mlp.biases)
        ],
        "seed": mlp.seed,
        "scheme": run.scheme,
        "fingerprint": run.fingerprint(),
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_checkpoint(path, run: RunConfig) -> Mlp:
    """Read a checkpoint trained under ``run``'s config.

    A checkpoint saved under another fingerprint raises one ValueError line.
    The fingerprint hashes the scheme too, so it is the only field compared.
    """
    with open(path) as f:
        doc = json.load(f)
    if doc.get("fingerprint") != run.fingerprint():
        raise ValueError(
            f"checkpoint {path} was trained under scheme {doc.get('scheme')!r}, "
            f"fingerprint {doc.get('fingerprint')!r}, not the config's scheme "
            f"{run.scheme!r}, fingerprint {run.fingerprint()!r}"
        )
    config = MlpConfig(
        in_dim=doc["config"]["in_dim"],
        hidden=list(doc["config"]["hidden"]),
        out_dim=doc["config"]["out_dim"],
    )
    weights = [np.asarray(layer["w"], dtype=np.float64) for layer in doc["layers"]]
    biases = [np.asarray(layer["b"], dtype=np.float64) for layer in doc["layers"]]
    return Mlp(config, weights, biases, seed=doc.get("seed"))
