"""Feature-transformation MLP, Adam optimizer, and JSON checkpoints.

The whole MLP is one stage (``mlp_forward``), which returns its output and
a pullback, on the affine map ``_affine``, which this module alone knows:
its first layer standardizes the input features as it reads them, or scales
its bias per row. It computes no gradient for the constant input features.
With a graph's adjacency it is ``gcn``, aggregating after every later
layer's affine map. Its hidden activations are its own, so its pullback
reuses each one's buffer for that layer's cotangent.

The parameters are one flat vector, ``Mlp.theta``: the pullback writes every
layer's gradients into one flat vector shaped like it, and Adam updates
``theta`` and its moments in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .data import is_integer, read_json

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
    """Fully connected network: ReLU between layers, none after the last.

    Its parameters are one float64 vector, ``theta``: each layer's weights,
    then its bias, in layer order. ``weights`` and ``biases`` are tuples of
    views of ``theta``, so an update of ``theta`` in place updates them.
    ``seed``, the one its weights were drawn with, is what ``eval`` splits by.
    """

    def __init__(self, config: MlpConfig, weights, biases, seed: int):
        dims = [(int(i), int(o)) for i, o in config.layer_dims()]
        got = ([np.shape(w) for w in weights], [np.shape(b) for b in biases])
        if got != (dims, [(o,) for _, o in dims]):
            raise ValueError(f"weight shapes {got[0]} and bias shapes {got[1]} do not match the layers {dims}")
        theta = np.concatenate([np.ravel(a) for layer in zip(weights, biases) for a in layer], dtype=np.float64)
        self._bind(config, theta, seed)

    def _bind(self, config, theta, seed):
        self.config, self.theta, self.seed = config, theta, seed
        self.weights, self.biases = zip(*_layer_views(theta, config.layer_dims()))

    def copy(self) -> "Mlp":
        new = object.__new__(Mlp)
        new._bind(self.config, self.theta.copy(), self.seed)
        return new


def _layer_views(flat: Array, dims) -> list:
    """Each layer's (weights, bias) as views of the flat vector ``flat``, in layer order."""
    views, start = [], 0
    for fan_in, fan_out in dims:
        end = start + fan_in * fan_out
        views.append((flat[start:end].reshape(fan_in, fan_out), flat[end : end + fan_out]))
        start = end + fan_out
    return views


def init_weights(config: MlpConfig, seed: int) -> Mlp:
    """Glorot-uniform weights and zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in config.layer_dims():
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(config, weights, biases, seed=seed)


def mlp_forward(mlp: Mlp, x: Array, standardize=None, adjacency=None, row_scale=None):
    """The MLP on the n x in_dim features ``x``: (output, pullback).

    ``standardize``, a per-column ``(shift, scale)`` of the input, is applied
    inside the first layer (``_affine``): the MLP reads ``(x - shift) /
    scale`` and no standardized copy of ``x`` is made. A constant symmetric
    ``adjacency`` A makes it ``gcn``: every layer after the first multiplies
    its affine map by A before its ReLU, and the pullback multiplies that
    layer's cotangent by A (A is its own transpose). ``row_scale`` scales the
    first layer's bias per row (``_affine``), which ``gcn`` sets to A·1 to
    read A X once per run. ``pullback(g)`` takes the output's cotangent and
    returns the gradient of ``mlp.theta``, one new array laid out as
    ``theta``, each layer's dw and db written into views of it. The features
    are constant: no gradient is computed for them, and nothing writes into
    them.

    The forward keeps each hidden layer's activation, ReLU applied in place,
    and no mask: after the ReLU, ``h > 0`` holds exactly where the
    pre-activation was > 0, NaN included. The pullback is single-use: it
    writes each hidden layer's cotangent into that layer's activation once
    the layer above has taken its weight gradient from it, so it allocates
    no n x hidden array, and drops each activation as it passes it. It reads
    the weights, views of ``theta``, so ``theta`` is updated only after it
    has run. Values and gradients equal those of the tests' per-layer chain
    (``dense``, ``spmm_const`` and ``relu`` in ``tests/conftest.py``, one
    pullback each) bit for bit.
    """
    if x.shape[1] != mlp.config.in_dim:
        raise ValueError(f"expected input dim {mlp.config.in_dim}, got {x.shape[1]}")
    last = len(mlp.weights) - 1
    first = {"row_scale": row_scale, "standardize": standardize}  # the first layer's constants
    inputs, w_ins = [x], []  # each layer's input: the features, then each hidden activation
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out, w_in = _affine(inputs[i], w, b, **(first if i == 0 else {}))
        if i > 0 and adjacency is not None:
            out = adjacency @ out
        w_ins.append(w_in)
        if i != last:
            out *= out > 0.0  # ReLU
            inputs.append(out)

    def pullback(g):
        dtheta = np.empty_like(mlp.theta)
        views = _layer_views(dtheta, mlp.config.layer_dims())
        for i in reversed(range(last + 1)):
            h = inputs.pop()
            if i > 0 and adjacency is not None:
                g = adjacency @ g
            _affine_grads(g, h, w_ins[i], *views[i], **(first if i == 0 else {}))
            if i > 0:  # h is hidden: its buffer takes its cotangent, masked by its ReLU
                mask = h > 0.0
                np.matmul(g, w_ins[i].T, out=h)
                h *= mask
                g = h
        return dtheta

    return out, pullback


def _affine(
    x: Array,
    w: Array,
    b: Array,
    row_scale: Array | None = None,
    standardize: tuple[Array, Array] | None = None,
) -> tuple[Array, Array]:
    """``x @ w + b`` on arrays, the bias added in place: (output, the weights x was multiplied by).

    The affine map of every MLP layer; ``b`` has shape (d_out,). A constant
    ``row_scale`` of shape (n,) scales the bias of row i by ``row_scale[i]``:
    ``x @ w + row_scale b``, so that ``A (x w + 1 b)`` is ``(A x) w + (A 1)
    b`` with ``A x`` computed once.

    A constant ``standardize = (shift, scale)``, each of shape (d_in,), makes
    the map ``((x - shift) / scale) @ w + b`` without an n x d_in temporary:
    it computes ``x @ (w / scale) + (b - (shift / scale) @ w)``, and
    ``_affine_grads`` takes ``dw = (x^T g - shift (1^T g)) / scale``, reading
    ``x`` as is. Both cancel ``shift`` against ``x``, so their relative error
    against standardizing first grows like ``|shift| / scale`` times the
    float64 eps. It does not combine with ``row_scale``.
    """
    if x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
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
    g: Array, x: Array, w_in: Array, dw: Array, db: Array,
    row_scale: Array | None = None, standardize: tuple[Array, Array] | None = None,
) -> None:
    """Write the weight and bias gradients of ``_affine`` at output cotangent ``g`` into ``dw`` and ``db``.

    ``w_in`` is the weights ``_affine`` returned; the input's cotangent is
    ``g @ w_in.T``, left to the caller.
    """
    if row_scale is None:
        g.sum(axis=0, out=db)
    else:
        np.matmul(row_scale, g, out=db)
    np.matmul(x.T, g, out=dw)
    if standardize is not None:
        shift, scale = standardize
        dw -= np.outer(shift, db)
        dw /= scale[:, None]


# Adam's moment decay rates and the guard added to its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float = 0.001
    weight_decay: float = 0.0
    t: int = 0
    m: Array | None = None  # first moments of all parameters, one flat vector
    v: Array | None = None  # second moments, likewise


def adam_step(theta: Array, grad: Array, state: AdamState) -> None:
    """One bias-corrected Adam update of ``theta``, in place; weight decay coupled into the gradient.

    ``theta`` is the MLP's flat parameter vector and ``grad`` its gradient,
    of the same shape; the moments ``state.m`` and ``state.v`` are flat too
    and are updated in place. Element by element it is a per-array update,
    bit for bit. Mutates ``state``; ``grad`` is left as it is.
    """
    if theta.shape != grad.shape or (state.m is not None and state.m.shape != theta.shape):
        raise ValueError("parameter/gradient shape mismatch")
    if state.m is None:
        state.m, state.v = np.zeros_like(theta), np.zeros_like(theta)
    state.t += 1
    t = state.t
    g = state.weight_decay * theta
    g += grad
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
    theta -= step


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
        f.write(json.dumps(doc))  # the C encoder; json.dump streams through the Python one


def load_checkpoint(path, run: RunConfig) -> Mlp:
    """Read a checkpoint trained under ``run``'s config.

    A checkpoint saved under another fingerprint raises one ValueError line.
    The fingerprint hashes the scheme too, so it is the only field compared.
    A damaged file raises one line that names the path and the field, or
    says that the file is not a JSON object; so do layers of another count
    or shape than its config's, and a missing ``seed``, which ``eval`` splits by.
    """

    def fail(message):
        return ValueError(f"checkpoint {path}: {message}")

    def field(doc, key, name):
        if key not in doc:
            raise fail(f"field {name!r} is missing")
        return doc[key]

    doc = read_json(path, "checkpoint")
    if not isinstance(doc, dict):
        raise fail("not a JSON object")
    if doc.get("fingerprint") != run.fingerprint():
        raise ValueError(
            f"checkpoint {path} was trained under scheme {doc.get('scheme')!r}, "
            f"fingerprint {doc.get('fingerprint')!r}, not the config's scheme "
            f"{run.scheme!r}, fingerprint {run.fingerprint()!r}"
        )
    config, layers, seed = (field(doc, key, key) for key in ("config", "layers", "seed"))
    if not isinstance(config, dict):
        raise fail(f"field 'config' is not an object: {config!r}")
    dims = {key: field(config, key, f"config.{key}") for key in ("in_dim", "hidden", "out_dim")}
    for name, value in (("config.in_dim", dims["in_dim"]), ("config.out_dim", dims["out_dim"]), ("seed", seed)):
        if not is_integer(value):
            raise fail(f"field {name!r} is not an integer: {value!r}")
    if not isinstance(dims["hidden"], list) or not all(map(is_integer, dims["hidden"])):
        raise fail(f"field 'config.hidden' is not a list of integers: {dims['hidden']!r}")
    if not isinstance(layers, list) or not all(isinstance(layer, dict) for layer in layers):
        raise fail("field 'layers' is not a list of objects")
    arrays = {"w": [], "b": []}
    for i, layer in enumerate(layers):
        for key, kept in arrays.items():
            name = f"layers[{i}].{key}"
            value = field(layer, key, name)
            try:
                array = np.asarray(value)
            except ValueError:  # a ragged list
                array = None
            if array is None or array.dtype.kind not in "iuf":
                raise fail(f"field {name!r} is not an array of numbers")
            kept.append(np.asarray(array, dtype=np.float64))
    try:
        return Mlp(MlpConfig(**dims), arrays["w"], arrays["b"], seed=seed)
    except ValueError as exc:
        raise fail(exc) from None
