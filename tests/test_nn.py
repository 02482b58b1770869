import numpy as np
import pytest

import json

from conftest import adam_per_array, assert_close_rel, finite_diff, loss_gradient, per_layer_mlp, weighted_sum
from fairprop import autodiff as ad
from fairprop import nn
from fairprop.nn import (
    AdamState,
    Mlp,
    MlpConfig,
    _layer_views,
    adam_step,
    init_weights,
    load_checkpoint,
    mlp_forward,
    save_checkpoint,
)
from fairprop.train import RunConfig


def loop_mlp_oracle(mlp, X):
    """Straight-loop reimplementation of the forward pass."""
    h = X
    last = len(mlp.weights) - 1
    for li, (W, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out = np.zeros((h.shape[0], W.shape[1]))
        for i in range(h.shape[0]):
            for j in range(W.shape[1]):
                acc = b[j]
                for k in range(h.shape[1]):
                    acc += h[i, k] * W[k, j]
                out[i, j] = acc
        if li != last:
            out = np.maximum(out, 0.0)
        h = out
    return h


class TestMlpForward:
    def test_zero_weights_zero_output(self, rng):
        cfg = MlpConfig(in_dim=3, hidden=[4], out_dim=2)
        mlp = init_weights(cfg, 0)
        for w in mlp.weights:
            w[...] = 0.0
        assert not mlp.theta.any()
        out, _ = mlp_forward(mlp, rng.standard_normal((5, 3)))
        np.testing.assert_array_equal(out, np.zeros((5, 2)))

    def test_identity_single_layer(self, rng):
        cfg = MlpConfig(in_dim=3, hidden=[], out_dim=3)
        mlp = Mlp(cfg, [np.eye(3)], [np.zeros(3)])
        X = rng.standard_normal((4, 3))
        out, _ = mlp_forward(mlp, X)
        np.testing.assert_array_equal(out, X)

    def test_matches_loop_oracle(self, rng):
        cfg = MlpConfig(in_dim=4, hidden=[5], out_dim=3)
        mlp = init_weights(cfg, 7)
        X = rng.standard_normal((6, 4))
        out, _ = mlp_forward(mlp, X)
        np.testing.assert_allclose(out, loop_mlp_oracle(mlp, X), atol=1e-12)

    def test_dimension_mismatch(self, rng):
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 0)
        with pytest.raises(ValueError):
            mlp_forward(mlp, rng.standard_normal((5, 2)))

    def test_loss_gradient_matches_finite_differences(self, rng):
        cfg = MlpConfig(in_dim=4, hidden=[5], out_dim=2)
        mlp = init_weights(cfg, 3)
        X = rng.standard_normal((6, 4))
        labels = rng.integers(0, 2, size=6)
        mask = np.ones(6, dtype=bool)

        _, _, grad = loss_gradient(mlp_forward, mlp, X, labels, mask)

        def f(theta_value):
            probe = mlp.copy()
            probe.theta[:] = theta_value
            return loss_gradient(mlp_forward, probe, X, labels, mask)[1]

        fd = finite_diff(f, mlp.theta)
        assert_close_rel(grad, fd, rtol=1e-4, afloor=1e-7)


class TestMlpRecord:
    """The MLP as one stage, against one pullback per layer (``conftest.per_layer_mlp``)."""

    @pytest.mark.parametrize("hidden", [[], [6], [5, 7, 4]])
    @pytest.mark.parametrize("read_only", [False, True])
    @pytest.mark.parametrize("standardized", [False, True])
    def test_bitwise_equal_to_one_dense_record_per_layer(self, rng, hidden, read_only, standardized):
        # with read_only the features are read-only, as load_dataset's are:
        # the pullback writes into its own activations and never into them
        X = rng.standard_normal((30, 4))
        X[:4] = 0.0  # with zero biases, exact +0.0 and -0.0 pre-activations
        X.setflags(write=not read_only)
        mlp = init_weights(MlpConfig(in_dim=4, hidden=hidden, out_dim=3), 5)
        for b in mlp.biases[1:]:
            b[::2] = rng.standard_normal(b[::2].shape)
        stats = (rng.standard_normal(4), rng.uniform(0.5, 2.0, size=4)) if standardized else None
        weights = rng.standard_normal((30, 3))

        def run(forward):
            # the output and the flat parameter gradient (the oracle's
            # per-parameter gradients joined)
            out, pullback = forward(mlp, X, stats)
            return out.tobytes(), pullback(weighted_sum(out, weights)[1]).tobytes()

        assert run(mlp_forward) == run(per_layer_mlp)

    def test_one_record(self, rng, monkeypatch):
        # one stage for every layer: each layer's affine map is taken once
        # forward, and its gradients once in the one pullback
        calls = []
        for name in ("_affine", "_affine_grads"):
            fn = getattr(nn, name)
            monkeypatch.setattr(nn, name, lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
        mlp = init_weights(MlpConfig(in_dim=4, hidden=[5, 6], out_dim=3), 0)
        out, pullback = mlp_forward(mlp, rng.standard_normal((7, 4)))
        assert calls == ["_affine"] * 3
        pullback(np.ones(out.shape))
        assert calls == ["_affine"] * 3 + ["_affine_grads"] * 3

    def test_one_parameter_leaf(self, rng):
        # the pullback's one gradient is theta's, one new flat vector whose
        # layer views are each layer's dw and db
        mlp = init_weights(MlpConfig(in_dim=4, hidden=[5, 6], out_dim=2), 0)
        out, pullback = mlp_forward(mlp, rng.standard_normal((7, 4)))
        grad = pullback(np.ones(out.shape))
        assert grad.shape == mlp.theta.shape and grad.dtype == np.float64
        assert not np.shares_memory(grad, mlp.theta)
        views = _layer_views(grad, mlp.config.layer_dims())
        assert [(dw.shape, db.shape) for dw, db in views] == [(w.shape, b.shape) for w, b in zip(mlp.weights, mlp.biases)]

    def test_a_nan_pre_activation_stays_out_of_the_relu_mask(self, rng):
        # after the ReLU, h > 0 exactly where the pre-activation was > 0:
        # a NaN pre-activation gives a NaN activation, and neither passes
        X = rng.standard_normal((6, 3))
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 1)
        mlp.biases[0][1] = np.nan  # hidden unit 1 is NaN on every row
        weights = rng.standard_normal((6, 2))
        results = []
        for forward in (mlp_forward, per_layer_mlp):
            out, pullback = forward(mlp, X, None)
            results.append((out, pullback(weighted_sum(out, weights)[1])))
        (out, grad), (ref_out, ref_grad) = results
        ((dw0, _), _) = _layer_views(grad, mlp.config.layer_dims())
        assert np.all(dw0[:, 1] == 0.0), "the NaN unit passed a gradient back"
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(grad, ref_grad)

    def test_in_place_masks_change_no_held_array(self, rng):
        # the pullback writes each hidden cotangent into its activation and
        # masks it in place: no input, output, cotangent or constant the
        # caller holds changes
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[5], out_dim=4), 0)
        x = rng.standard_normal((8, 3))
        out, pullback = mlp_forward(mlp, x)
        gy = rng.standard_normal((8, 4))
        held = [x, mlp.theta, out, gy]
        copies = [array.copy() for array in held]
        grad = pullback(gy)
        for array, copy in zip(held, copies):
            assert np.array_equal(array, copy)
        # the out-of-place chain rule, operation for operation
        (w0, b0), (w1, _) = zip(mlp.weights, mlp.biases)
        (dw0, _), (dw1, _) = _layer_views(grad, mlp.config.layer_dims())
        h = x @ w0 + b0
        h *= h > 0.0
        gh = (gy @ w1.T) * (h > 0.0)
        assert np.array_equal(dw1, h.T @ gy)
        assert np.array_equal(dw0, x.T @ gh)


class TestInitWeights:
    def test_deterministic_per_seed(self):
        cfg = MlpConfig(in_dim=5, hidden=[4], out_dim=2)
        a, b = init_weights(cfg, 11), init_weights(cfg, 11)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_glorot_bounds(self):
        cfg = MlpConfig(in_dim=7, hidden=[9], out_dim=3)
        mlp = init_weights(cfg, 2)
        for w, (fan_in, fan_out) in zip(mlp.weights, cfg.layer_dims()):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= limit)
        for b in mlp.biases:
            assert np.array_equal(b, np.zeros_like(b))

    def test_seeds_differ(self):
        cfg = MlpConfig(in_dim=5, hidden=[4], out_dim=2)
        a, b = init_weights(cfg, 1), init_weights(cfg, 2)
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))


class TestCrossEntropy:
    def test_uniform_row(self):
        loss, _ = ad.cross_entropy_with_logits(np.array([[0.0, 0.0]]), ad.RowLabels.of([0], [True]))
        assert loss == pytest.approx(np.log(2.0))

    def test_large_logits_stable(self):
        loss, _ = ad.cross_entropy_with_logits(np.array([[1000.0, 0.0]]), ad.RowLabels.of([1], [True]))
        assert np.isfinite(loss) and loss > 100.0

    def test_batch_mean_vs_per_row_oracle(self, rng):
        logits = rng.standard_normal((2, 2))
        labels = [1, 0]

        def row_loss(z, lab):
            z = z - z.max()
            return float(-(z[lab] - np.log(np.exp(z).sum())))

        expected = 0.5 * (row_loss(logits[0], 1) + row_loss(logits[1], 0))
        loss, _ = ad.cross_entropy_with_logits(logits, ad.RowLabels.of(labels, [True, True]))
        assert abs(loss - expected) <= 1e-12

    def test_row_shift_invariance(self, rng):
        logits = rng.standard_normal((5, 2))
        labels = rng.integers(0, 2, size=5)
        mask = np.ones(5, dtype=bool)
        rows = ad.RowLabels.of(labels, mask)
        a, _ = ad.cross_entropy_with_logits(logits, rows)
        b, _ = ad.cross_entropy_with_logits(logits + 7.3, rows)
        assert abs(a - b) <= 1e-9

    def test_node_permutation_equivariance(self, rng):
        logits = rng.standard_normal((6, 2))
        labels = rng.integers(0, 2, size=6)
        mask = rng.random(6) < 0.5
        mask[0] = True
        perm = rng.permutation(6)
        a, _ = ad.cross_entropy_with_logits(logits, ad.RowLabels.of(labels, mask))
        b, _ = ad.cross_entropy_with_logits(logits[perm], ad.RowLabels.of(labels[perm], mask[perm]))
        assert abs(a - b) <= 1e-12

    def test_empty_mask(self, rng):
        with pytest.raises(ValueError):
            ad.cross_entropy_with_logits(rng.standard_normal((3, 2)), ad.RowLabels.of([0, 1, 0], [False] * 3))


def adam_scalar_oracle(w0, lr, steps):
    """Hand-rolled scalar Adam trace for f(w) = w^2."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = v = 0.0
    w = w0
    trace = []
    for t in range(1, steps + 1):
        g = 2.0 * w
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
        trace.append(w)
    return trace


class TestAdam:
    def test_zero_gradient_no_change(self, rng):
        p = rng.standard_normal((3, 2))
        theta = p.copy()
        adam_step(theta, np.zeros_like(p), AdamState(lr=0.01, weight_decay=0.0))
        np.testing.assert_array_equal(theta, p)

    def test_first_step_bounded_by_lr(self, rng):
        p = rng.standard_normal((4, 3))
        g = rng.standard_normal((4, 3)) * 10.0
        theta = p.copy()
        adam_step(theta, g, AdamState(lr=0.05, weight_decay=0.0))
        assert np.all(np.abs(theta - p) <= 0.05 * (1.0 + 1e-7))

    def test_scalar_trace_matches_oracle(self):
        state = AdamState(lr=0.1, weight_decay=0.0)
        w = np.array([[1.0]])
        got = []
        for _ in range(3):
            adam_step(w, 2.0 * w, state)
            got.append(w[0, 0])
        expected = adam_scalar_oracle(1.0, 0.1, 3)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_shape_mismatch(self, rng):
        state = AdamState()
        with pytest.raises(ValueError):
            adam_step(np.zeros((2, 2)), np.zeros((3, 2)), state)

    def test_fused_step_equals_a_per_array_step(self, rng):
        # one in-place update of theta, the parameters joined into one flat
        # vector, bit for bit the per-array update
        mlp = init_weights(MlpConfig(in_dim=5, hidden=[7, 3], out_dim=2), 0)
        mlp.theta[:] = rng.standard_normal(mlp.theta.shape)
        ref = [a.copy() for layer in zip(mlp.weights, mlp.biases) for a in layer]
        state = AdamState(lr=0.03, weight_decay=1e-3)
        ref_state = dict(lr=0.03, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=1e-3, t=0)
        for step in range(50):
            grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-3, 3) for p in ref]
            adam_step(mlp.theta, np.concatenate([g.ravel() for g in grads]), state)
            ref = adam_per_array(ref, grads, ref_state)
            assert mlp.theta.tobytes() == np.concatenate([r.ravel() for r in ref]).tobytes(), f"step {step}"
        for p, r in zip((a for layer in zip(mlp.weights, mlp.biases) for a in layer), ref):
            assert p.shape == r.shape and p.tobytes() == r.tobytes()

    def test_updates_theta_and_its_moments_in_place(self, rng):
        # the weight views follow theta; the gradient is left as it is
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 0)
        theta, first_weights = mlp.theta, mlp.weights[0]
        grad = rng.standard_normal(theta.shape)
        kept = grad.copy()
        state = AdamState(lr=0.1)
        adam_step(theta, grad, state)
        m, v = state.m, state.v
        adam_step(theta, grad, state)
        assert mlp.theta is theta and state.m is m and state.v is v
        assert np.shares_memory(mlp.weights[0], theta) and mlp.weights[0] is first_weights
        assert not np.array_equal(first_weights, init_weights(mlp.config, 0).weights[0])
        np.testing.assert_array_equal(grad, kept)

    def test_moment_size_mismatch(self, rng):
        state = AdamState()
        adam_step(np.zeros((2, 2)), np.ones((2, 2)), state)
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step(np.zeros((2, 3)), np.ones((2, 3)), state)

    def test_identical_trajectories(self, rng):
        g_seq = [rng.standard_normal((2, 2)) for _ in range(5)]

        def run():
            state = AdamState(lr=0.01, weight_decay=1e-5)
            p = np.ones((2, 2))
            for g in g_seq:
                adam_step(p, g, state)
            return p

        assert np.array_equal(run(), run())


class TestCheckpoint:
    def test_round_trip_reproduces_forward(self, rng, tmp_path):
        cfg = MlpConfig(in_dim=4, hidden=[6], out_dim=2)
        mlp = init_weights(cfg, 5)
        path = tmp_path / "model.json"
        run = RunConfig(hidden=[6])
        save_checkpoint(path, mlp, run)
        loaded = load_checkpoint(path, run)
        X = rng.standard_normal((7, 4))
        a, _ = mlp_forward(mlp, X)
        b, _ = mlp_forward(loaded, X)
        np.testing.assert_allclose(a, b, atol=1e-15)
        assert loaded.seed == 5

    def test_other_config_is_refused(self, tmp_path):
        mlp = init_weights(MlpConfig(in_dim=4, hidden=[6], out_dim=2), 5)
        path = tmp_path / "model.json"
        save_checkpoint(path, mlp, RunConfig(hidden=[6]))
        other = RunConfig(hidden=[6], lambda_f=7.0)
        expected = f"not the config's scheme 'fair', fingerprint '{other.fingerprint()}'"
        with pytest.raises(ValueError, match=expected):
            load_checkpoint(path, other)

    def test_written_bytes_are_those_of_json_dump(self, tmp_path):
        mlp = init_weights(MlpConfig(in_dim=4, hidden=[6, 3], out_dim=2), 5)
        mlp.theta[::3] *= 1e-7  # floats of every magnitude repr'd
        run = RunConfig(hidden=[6, 3])
        path = tmp_path / "model.json"
        save_checkpoint(path, mlp, run)
        doc = {
            "config": {"in_dim": 4, "hidden": [6, 3], "out_dim": 2},
            "layers": [{"w": w.tolist(), "b": b.tolist()} for w, b in zip(mlp.weights, mlp.biases)],
            "seed": 5,
            "scheme": "fair",
            "fingerprint": run.fingerprint(),
        }
        with open(tmp_path / "dumped.json", "w") as f:
            json.dump(doc, f)
        assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()

    @pytest.mark.parametrize("edit", ["drop", "add", "reshape"])
    def test_layers_unlike_the_config_name_the_path(self, tmp_path, edit):
        # a missing layer used to fail inside numpy's matmul at eval
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 0)
        run = RunConfig(hidden=[4])
        path = tmp_path / "model.json"
        save_checkpoint(path, mlp, run)
        doc = json.loads(path.read_text())
        if edit == "drop":
            del doc["layers"][1]
        elif edit == "add":
            doc["layers"].append({"w": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.0]})
        else:
            doc["layers"][1]["w"] = doc["layers"][1]["w"][:3]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"^checkpoint {path}: weight shapes .* do not match the layers"):
            load_checkpoint(path, run)


    @pytest.mark.parametrize(
        "damage, line",
        [
            ("no layers", "field 'layers' is missing"),
            ("no config", "field 'config' is missing"),
            ("string weight", "field 'layers[0].w' is not an array of numbers"),
            ("integer hidden", "field 'config.hidden' is not a list of integers: 64"),
            ("a list", "not a JSON object"),
            ("cut at 100 bytes", "not a JSON object ("),
        ],
    )
    def test_a_damaged_file_is_one_line_naming_the_field(self, tmp_path, damage, line):
        # each failed with a bare KeyError, TypeError or a numpy or json
        # message naming neither the file nor the field: 'layers', 'config',
        # could not convert string to float: 'x', 'int' object is not
        # iterable, 'list' object has no attribute 'get', Expecting ','
        # delimiter: line 1 column 100 (char 99)
        run = RunConfig(hidden=[4])
        path = tmp_path / "model.json"
        save_checkpoint(path, init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 0), run)
        text = path.read_text()
        doc = json.loads(text)
        if damage == "no layers":
            del doc["layers"]
        elif damage == "no config":
            del doc["config"]
        elif damage == "string weight":
            doc["layers"][0]["w"][0][0] = "x"
        elif damage == "integer hidden":
            doc["config"]["hidden"] = 64
        elif damage == "a list":
            doc = [doc]
        path.write_text(text[:100] if damage == "cut at 100 bytes" else json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path, run)
        message = str(exc.value)
        assert message.startswith(f"checkpoint {path}: {line}") and "\n" not in message


class TestMlp:
    def test_weights_and_biases_are_views_of_theta(self):
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 0)
        assert mlp.theta.shape == (3 * 4 + 4 + 4 * 2 + 2,) and mlp.theta.dtype == np.float64
        joined_layers = np.concatenate([a.ravel() for layer in zip(mlp.weights, mlp.biases) for a in layer])
        np.testing.assert_array_equal(mlp.theta, joined_layers)
        mlp.theta[:] = np.arange(mlp.theta.size)
        assert mlp.weights[1][0, 1] == 3 * 4 + 4 + 1 and mlp.biases[1][1] == mlp.theta.size - 1

    def test_copy_is_one_new_vector(self):
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 7)
        copy = mlp.copy()
        np.testing.assert_array_equal(copy.theta, mlp.theta)
        assert not np.shares_memory(copy.theta, mlp.theta) and copy.seed == 7
        copy.theta += 1.0
        assert np.shares_memory(copy.weights[0], copy.theta)
        assert not np.shares_memory(copy.weights[0], mlp.theta)

    @pytest.mark.parametrize("keep", [slice(0, 1), slice(0, 3)])
    def test_layer_count_unlike_the_config_is_refused(self, rng, keep):
        # a list one layer short built a model 4 wide where its config says 2
        cfg = MlpConfig(3, [4], 2)
        w = [rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal((2, 2))]
        b = [np.zeros(4), np.zeros(2), np.zeros(2)]
        with pytest.raises(ValueError, match=r"^weight shapes .* do not match the layers \[\(3, 4\), \(4, 2\)\]$"):
            Mlp(cfg, w[keep], b[keep])

    @pytest.mark.parametrize("which", ["weights", "biases"])
    def test_layer_shape_unlike_the_config_is_refused(self, rng, which):
        cfg = MlpConfig(3, [4], 2)
        layers = {"weights": [np.zeros((3, 4)), np.zeros((4, 2))], "biases": [np.zeros(4), np.zeros(2)]}
        layers[which][1] = layers[which][1][:1]
        with pytest.raises(ValueError, match="^weight shapes .* do not match the layers"):
            Mlp(cfg, layers["weights"], layers["biases"])
