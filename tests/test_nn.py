import numpy as np
import pytest

from conftest import adam_per_array, assert_close_rel, finite_diff, per_layer_mlp, weighted_sum
from fairprop import autodiff as ad
from fairprop.nn import (
    AdamState,
    Mlp,
    MlpConfig,
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
        mlp.weights = [np.zeros_like(w) for w in mlp.weights]
        tape = ad.Tape()
        out, _ = mlp_forward(mlp, tape, tape.leaf(rng.standard_normal((5, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((5, 2)))

    def test_identity_single_layer(self, rng):
        cfg = MlpConfig(in_dim=3, hidden=[], out_dim=3)
        mlp = Mlp(cfg, [np.eye(3)], [np.zeros(3)])
        X = rng.standard_normal((4, 3))
        tape = ad.Tape()
        out, _ = mlp_forward(mlp, tape, tape.leaf(X))
        np.testing.assert_array_equal(out.data, X)

    def test_matches_loop_oracle(self, rng):
        cfg = MlpConfig(in_dim=4, hidden=[5], out_dim=3)
        mlp = init_weights(cfg, 7)
        X = rng.standard_normal((6, 4))
        tape = ad.Tape()
        out, _ = mlp_forward(mlp, tape, tape.leaf(X))
        np.testing.assert_allclose(out.data, loop_mlp_oracle(mlp, X), atol=1e-12)

    def test_dimension_mismatch(self, rng):
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 0)
        tape = ad.Tape()
        with pytest.raises(ValueError):
            mlp_forward(mlp, tape, tape.leaf(rng.standard_normal((5, 2))))

    def test_loss_gradient_matches_finite_differences(self, rng):
        cfg = MlpConfig(in_dim=4, hidden=[5], out_dim=3)
        mlp = init_weights(cfg, 3)
        X = rng.standard_normal((6, 4))
        labels = rng.integers(0, 3, size=6)
        mask = np.ones(6, dtype=bool)

        tape = ad.Tape()
        logits, param_tensors = mlp_forward(mlp, tape, tape.leaf(X))
        grads = tape.backward(ad.cross_entropy_with_logits(logits, labels, mask))

        params = mlp.parameters()
        for pi, pt in enumerate(param_tensors):

            def f(pv):
                probe = mlp.copy()
                new = [p.copy() for p in params]
                new[pi] = pv.reshape(params[pi].shape)
                probe.set_parameters(new)
                t2 = ad.Tape()
                lg, _ = mlp_forward(probe, t2, t2.leaf(X))
                return float(ad.cross_entropy_with_logits(lg, labels, mask).data[0, 0])

            fd = finite_diff(f, params[pi].reshape(pt.shape) * 1.0)
            assert_close_rel(grads[pt.node_id], fd, rtol=1e-4, afloor=1e-7)


class TestMlpRecord:
    """The MLP as one tape record, against one record per layer (``conftest.per_layer_mlp``)."""

    @pytest.mark.parametrize("hidden", [[], [6], [5, 7, 4]])
    @pytest.mark.parametrize("x_grad", [False, True])
    @pytest.mark.parametrize("standardized", [False, True])
    def test_bitwise_equal_to_one_dense_record_per_layer(self, rng, hidden, x_grad, standardized):
        X = rng.standard_normal((30, 4))
        X[:4] = 0.0  # with zero biases, exact +0.0 and -0.0 pre-activations
        mlp = init_weights(MlpConfig(in_dim=4, hidden=hidden, out_dim=3), 5)
        for b in mlp.biases[1:]:
            b[::2] = rng.standard_normal(b[::2].shape)
        stats = (rng.standard_normal(4), rng.uniform(0.5, 2.0, size=4)) if standardized else None
        weights = rng.standard_normal((30, 3))

        def run(forward):
            tape = ad.Tape()
            x = tape.leaf(X, requires_grad=x_grad)
            out, params = forward(mlp, tape, x, stats)
            grads = tape.backward(weighted_sum(out, weights))
            keys = [x, *params] if x_grad else params
            assert set(grads) == {t.node_id for t in keys}
            return out.data.tobytes(), [grads[t.node_id].tobytes() for t in keys]

        assert run(mlp_forward) == run(per_layer_mlp)

    def test_one_record(self, rng):
        mlp = init_weights(MlpConfig(in_dim=4, hidden=[5, 6], out_dim=3), 0)
        tape = ad.Tape()
        mlp_forward(mlp, tape, tape.leaf(rng.standard_normal((7, 4))))
        assert len(tape._records) == 1

    def test_a_nan_pre_activation_stays_out_of_the_relu_mask(self, rng):
        # after the ReLU, h > 0 exactly where the pre-activation was > 0:
        # a NaN pre-activation gives a NaN activation, and neither passes
        X = rng.standard_normal((6, 3))
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 1)
        mlp.biases[0][1] = np.nan  # hidden unit 1 is NaN on every row
        weights = rng.standard_normal((6, 2))
        results = []
        for forward in (mlp_forward, per_layer_mlp):
            tape = ad.Tape()
            out, params = forward(mlp, tape, tape.leaf(X), None)
            grads = tape.backward(weighted_sum(out, weights))
            results.append((out.data, [grads[t.node_id] for t in params]))
        (out, grads), (ref_out, ref_grads) = results
        assert np.all(grads[0][:, 1] == 0.0), "the NaN unit passed a gradient back"
        np.testing.assert_array_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_array_equal(g, ref)


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
        tape = ad.Tape()
        loss = ad.cross_entropy_with_logits(tape.leaf([[0.0, 0.0]]), [0], [True])
        assert loss.data[0, 0] == pytest.approx(np.log(2.0))

    def test_large_logits_stable(self):
        tape = ad.Tape()
        loss = ad.cross_entropy_with_logits(tape.leaf([[1000.0, 0.0]]), [1], [True])
        assert np.isfinite(loss.data[0, 0]) and loss.data[0, 0] > 100.0

    def test_batch_mean_vs_per_row_oracle(self, rng):
        logits = rng.standard_normal((2, 3))
        labels = [1, 2]

        def row_loss(z, lab):
            z = z - z.max()
            return float(-(z[lab] - np.log(np.exp(z).sum())))

        expected = 0.5 * (row_loss(logits[0], 1) + row_loss(logits[1], 2))
        tape = ad.Tape()
        loss = ad.cross_entropy_with_logits(tape.leaf(logits), labels, [True, True])
        assert abs(loss.data[0, 0] - expected) <= 1e-12

    def test_row_shift_invariance(self, rng):
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, size=5)
        mask = np.ones(5, dtype=bool)
        tape = ad.Tape()
        a = ad.cross_entropy_with_logits(tape.leaf(logits), labels, mask).data[0, 0]
        b = ad.cross_entropy_with_logits(tape.leaf(logits + 7.3), labels, mask).data[0, 0]
        assert abs(a - b) <= 1e-9

    def test_node_permutation_equivariance(self, rng):
        logits = rng.standard_normal((6, 3))
        labels = rng.integers(0, 3, size=6)
        mask = rng.random(6) < 0.5
        mask[0] = True
        perm = rng.permutation(6)
        tape = ad.Tape()
        a = ad.cross_entropy_with_logits(tape.leaf(logits), labels, mask).data[0, 0]
        b = ad.cross_entropy_with_logits(tape.leaf(logits[perm]), labels[perm], mask[perm])
        b = b.data[0, 0]
        assert abs(a - b) <= 1e-12

    def test_empty_mask(self, rng):
        tape = ad.Tape()
        with pytest.raises(ValueError):
            ad.cross_entropy_with_logits(
                tape.leaf(rng.standard_normal((3, 2))), [0, 1, 0], [False] * 3
            )


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
        state = AdamState(lr=0.01, weight_decay=0.0)
        (out,) = adam_step([p.copy()], [np.zeros_like(p)], state)
        np.testing.assert_array_equal(out, p)

    def test_first_step_bounded_by_lr(self, rng):
        p = rng.standard_normal((4, 3))
        g = rng.standard_normal((4, 3)) * 10.0
        state = AdamState(lr=0.05, weight_decay=0.0)
        (out,) = adam_step([p.copy()], [g], state)
        assert np.all(np.abs(out - p) <= 0.05 * (1.0 + 1e-7))

    def test_scalar_trace_matches_oracle(self):
        state = AdamState(lr=0.1, weight_decay=0.0)
        w = np.array([[1.0]])
        got = []
        for _ in range(3):
            (w,) = adam_step([w], [2.0 * w], state)
            got.append(w[0, 0])
        expected = adam_scalar_oracle(1.0, 0.1, 3)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_shape_mismatch(self, rng):
        state = AdamState()
        with pytest.raises(ValueError):
            adam_step([np.zeros((2, 2))], [np.zeros((3, 2))], state)

    def test_fused_step_equals_a_per_array_step(self, rng):
        # one update over all parameters as a flat vector, bit for bit the
        # per-array update
        shapes = [(5, 7), (7,), (7, 1), (1,), (3, 4), (4,)]
        params = [rng.standard_normal(shape) for shape in shapes]
        ref = [p.copy() for p in params]
        state = AdamState(lr=0.03, weight_decay=1e-3)
        ref_state = dict(lr=0.03, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=1e-3, t=0)
        for step in range(50):
            grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3) for shape in shapes]
            params = adam_step(params, grads, state)
            ref = adam_per_array(ref, grads, ref_state)
            for p, r in zip(params, ref):
                assert p.shape == r.shape and p.tobytes() == r.tobytes(), f"step {step}"

    def test_moment_size_mismatch(self, rng):
        state = AdamState()
        adam_step([np.zeros((2, 2))], [np.ones((2, 2))], state)
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step([np.zeros((2, 3))], [np.ones((2, 3))], state)

    def test_identical_trajectories(self, rng):
        g_seq = [rng.standard_normal((2, 2)) for _ in range(5)]

        def run():
            state = AdamState(lr=0.01, weight_decay=1e-5)
            p = np.ones((2, 2))
            for g in g_seq:
                (p,) = adam_step([p], [g], state)
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
        t1, t2 = ad.Tape(), ad.Tape()
        a, _ = mlp_forward(mlp, t1, t1.leaf(X))
        b, _ = mlp_forward(loaded, t2, t2.leaf(X))
        np.testing.assert_allclose(a.data, b.data, atol=1e-15)
        assert loaded.seed == 5

    def test_other_config_is_refused(self, tmp_path):
        mlp = init_weights(MlpConfig(in_dim=4, hidden=[6], out_dim=2), 5)
        path = tmp_path / "model.json"
        save_checkpoint(path, mlp, RunConfig(hidden=[6]))
        other = RunConfig(hidden=[6], lambda_f=7.0)
        expected = f"not the config's scheme 'fair', fingerprint '{other.fingerprint()}'"
        with pytest.raises(ValueError, match=expected):
            load_checkpoint(path, other)
