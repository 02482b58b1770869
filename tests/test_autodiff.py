import gc
import weakref

import numpy as np
import pytest

from conftest import (
    add_row_bias,
    assert_close_rel,
    finite_diff,
    forward,
    full_mask_cross_entropy,
    random_graph,
    weighted_sum,
)
from fairprop import autodiff as ad
from fairprop import train
from fairprop.data import SynthConfig, make_splits, synth_generate
from fairprop.debias import row_softmax
from fairprop.graph import incident_vector
from fairprop.nn import MlpConfig, adam_step, init_weights


def check_backward(op, rng, n_shapes=50, **kwargs):
    """Backward rule vs central finite differences on random shapes."""
    for _ in range(n_shapes):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 5)))
        x_data = rng.standard_normal(shape)
        tape = ad.Tape()
        x = tape.leaf(x_data, requires_grad=True)
        out = op(tape, x, **kwargs)
        w_data = rng.standard_normal(out.shape)
        grads = tape.backward(weighted_sum(out, w_data))

        def f(xv):
            t2 = ad.Tape()
            o = op(t2, t2.leaf(xv), **kwargs)
            return float(np.sum(o.data * w_data))

        assert_close_rel(grads[x.node_id], finite_diff(f, x_data), rtol=1e-6, afloor=1e-9)


class TestPrimitiveBackward:
    def test_relu(self, rng):
        check_backward(lambda t, x: ad.relu(x), rng)

    def test_matmul_both_sides(self, rng):
        for _ in range(50):
            n, k, d = (int(rng.integers(1, 5)) for _ in range(3))
            a_data = rng.standard_normal((n, k))
            b_data = rng.standard_normal((k, d))
            w_data = rng.standard_normal((n, d))
            tape = ad.Tape()
            a = tape.leaf(a_data, requires_grad=True)
            b = tape.leaf(b_data, requires_grad=True)
            grads = tape.backward(weighted_sum(ad.matmul(a, b), w_data))

            def fa(av):
                return float(np.sum((av @ b_data) * w_data))

            def fb(bv):
                return float(np.sum((a_data @ bv) * w_data))

            # matmul is linear, so a large step has no truncation error and
            # keeps the oracle's roundoff below the 1e-6 tolerance
            assert_close_rel(grads[a.node_id], finite_diff(fa, a_data, step=1e-2), rtol=1e-6)
            assert_close_rel(grads[b.node_id], finite_diff(fb, b_data, step=1e-2), rtol=1e-6)

    def test_add_row_broadcast(self, rng):
        # the row-bias add lives in ``dense``: the bias gradient sums over rows
        for _ in range(50):
            n, k, d = (int(rng.integers(1, 6)) for _ in range(3))
            g_data = rng.standard_normal((n, d))
            tape = ad.Tape()
            x = tape.leaf(rng.standard_normal((n, k)))
            w = tape.leaf(rng.standard_normal((k, d)), requires_grad=True)
            b = tape.leaf(rng.standard_normal((1, d)), requires_grad=True)
            grads = tape.backward(weighted_sum(ad.dense(x, w, b, relu=False), g_data))
            np.testing.assert_allclose(grads[b.node_id], g_data.sum(axis=0, keepdims=True))

    def test_spmm_const(self, rng):
        for _ in range(20):
            g = random_graph(rng, n_max=8)
            x_data = rng.standard_normal((g.n, 3))
            w_data = rng.standard_normal((g.n, 3))
            tape = ad.Tape()
            x = tape.leaf(x_data, requires_grad=True)
            grads = tape.backward(weighted_sum(ad.spmm_const(g, x), w_data))

            def f(xv):
                return float(np.sum((g.dense_adjacency() @ xv) * w_data))

            assert_close_rel(grads[x.node_id], finite_diff(f, x_data, step=1e-2), rtol=1e-6)

    def test_cross_entropy_backward(self, rng):
        for _ in range(20):
            n, d = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            logits_data = rng.standard_normal((n, d))
            labels = rng.integers(0, d, size=n)
            mask = rng.random(n) < 0.7
            if not mask.any():
                mask[0] = True
            tape = ad.Tape()
            logits = tape.leaf(logits_data, requires_grad=True)
            grads = tape.backward(ad.cross_entropy_with_logits(logits, labels, mask))

            def f(lv):
                t2 = ad.Tape()
                return float(
                    ad.cross_entropy_with_logits(t2.leaf(lv), labels, mask).data[0, 0]
                )

            assert_close_rel(grads[logits.node_id], finite_diff(f, logits_data), rtol=1e-5)


class TestCrossEntropyRows:
    @pytest.mark.parametrize("checked_once", [False, True])
    def test_bitwise_equal_to_a_softmax_over_every_row(self, rng, checked_once):
        # only the masked rows enter the softmax; the loss and the gradient
        # are those of the softmax over all rows, bit for bit
        for _ in range(30):
            n, d = int(rng.integers(1, 40)), int(rng.integers(2, 5))
            logits_data = 3.0 * rng.standard_normal((n, d))
            labels = rng.integers(0, d, size=n)
            mask = rng.random(n) < 0.5
            mask[rng.integers(n)] = True
            tape = ad.Tape()
            logits = tape.leaf(logits_data, requires_grad=True)
            if checked_once:
                loss = ad.cross_entropy_with_logits(logits, ad.RowLabels.of(labels, mask, d))
            else:
                loss = ad.cross_entropy_with_logits(logits, labels, mask)
            grads = tape.backward(loss)
            ref_loss, ref_grad = full_mask_cross_entropy(logits_data, labels, mask)
            assert loss.data[0, 0].tobytes() == ref_loss.tobytes()
            assert grads[logits.node_id].tobytes() == ref_grad.tobytes()

    def test_row_labels_keep_the_errors(self):
        with pytest.raises(ValueError, match="cross entropy over an empty mask"):
            ad.RowLabels.of([0, 1], [False, False], 2)
        with pytest.raises(ValueError, match="labels out of range on masked nodes"):
            ad.RowLabels.of([0, 2], [True, True], 2)


class TestDense:
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("x_grad", [False, True])
    def test_backward_matches_finite_differences(self, rng, relu, x_grad):
        for _ in range(30):
            n, k, d = (int(rng.integers(1, 5)) for _ in range(3))
            data = [rng.standard_normal(shape) for shape in ((n, k), (k, d), (1, d))]
            g_data = rng.standard_normal((n, d))
            tape = ad.Tape()
            leaves = [tape.leaf(v, requires_grad=grad) for v, grad in zip(data, (x_grad, True, True))]
            grads = tape.backward(weighted_sum(ad.dense(*leaves, relu), g_data))
            assert set(grads) == {t.node_id for t in leaves if t.requires_grad}

            def loss_at(i):
                def f(v):
                    t2 = ad.Tape()
                    args = [t2.leaf(v if j == i else data[j]) for j in range(3)]
                    return float(np.sum(ad.dense(*args, relu).data * g_data))

                return f

            for i, t in enumerate(leaves):
                if t.requires_grad:
                    fd = finite_diff(loss_at(i), data[i])
                    assert_close_rel(grads[t.node_id], fd, rtol=1e-6, afloor=1e-9)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("x_grad", [False, True])
    def test_bitwise_equal_to_matmul_add_relu(self, rng, relu, x_grad):
        x_data = rng.standard_normal((40, 5))
        x_data[:3] = 0.0  # with a zero bias entry, an exact +0.0 pre-activation
        w_data = rng.standard_normal((5, 6))
        b_data = rng.standard_normal((1, 6))
        b_data[0, :2] = 0.0
        g_data = rng.standard_normal((40, 6))

        def run(layer):
            tape = ad.Tape()
            x = tape.leaf(x_data, requires_grad=x_grad)
            w = tape.leaf(w_data, requires_grad=True)
            b = tape.leaf(b_data, requires_grad=True)
            out = layer(x, w, b)
            grads = tape.backward(weighted_sum(out, g_data))
            assert set(grads) <= {x.node_id, w.node_id, b.node_id}
            return out.data.tobytes(), [
                None if t.node_id not in grads else grads[t.node_id].tobytes() for t in (x, w, b)
            ]

        def chain(x, w, b):
            h = add_row_bias(ad.matmul(x, w), b)
            return ad.relu(h) if relu else h

        out, grads = run(lambda x, w, b: ad.dense(x, w, b, relu))
        ref_out, ref_grads = run(chain)
        assert out == ref_out
        assert grads == ref_grads
        assert (grads[0] is None) == (not x_grad)
        if relu:
            ref = np.frombuffer(ref_out).reshape(40, 6)
            signs = np.signbit(ref[ref == 0.0])
            assert signs.any() and not signs.all(), "both signed zeros are covered"

    @pytest.mark.parametrize("relu", [False, True])
    def test_row_scaled_bias_matches_finite_differences(self, rng, relu):
        # gcn's first layer: x @ w + r b with a constant per-row scale r
        for _ in range(30):
            n, k, d = (int(rng.integers(1, 5)) for _ in range(3))
            data = [rng.standard_normal(shape) for shape in ((n, k), (k, d), (1, d))]
            r = rng.uniform(0.2, 1.5, size=n)
            g_data = rng.standard_normal((n, d))
            tape = ad.Tape()
            leaves = [tape.leaf(v, requires_grad=True) for v in data]
            out = ad.dense(*leaves, relu, row_scale=r)
            np.testing.assert_allclose(
                out.data, np.maximum(data[0] @ data[1] + r[:, None] * data[2], 0.0 if relu else -np.inf)
            )
            grads = tape.backward(weighted_sum(out, g_data))

            def loss_at(i):
                def f(v):
                    t2 = ad.Tape()
                    args = [t2.leaf(v if j == i else data[j]) for j in range(3)]
                    return float(np.sum(ad.dense(*args, relu, row_scale=r).data * g_data))

                return f

            for i, t in enumerate(leaves):
                fd = finite_diff(loss_at(i), data[i])
                assert_close_rel(grads[t.node_id], fd, rtol=1e-6, afloor=1e-9)

    def test_row_scale_of_another_length_is_refused(self, rng):
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((4, 3)))
        w = tape.leaf(rng.standard_normal((3, 2)), requires_grad=True)
        b = tape.leaf(rng.standard_normal((1, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="row scale of shape"):
            ad.dense(x, w, b, relu=False, row_scale=np.ones(3))

    def test_constant_input_gets_no_gradient(self, rng):
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((4, 3)))
        w = tape.leaf(rng.standard_normal((3, 2)), requires_grad=True)
        b = tape.leaf(rng.standard_normal((1, 2)), requires_grad=True)
        out = ad.dense(x, w, b, relu=True)
        ((_, _, backward_fn),) = tape._records
        assert [t.node_id for t, _ in backward_fn(np.ones(out.shape))] == [w.node_id, b.node_id]

    def test_shape_mismatch(self, rng):
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((4, 3)))
        w = tape.leaf(rng.standard_normal((3, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="dense shape mismatch"):
            ad.dense(x, w, tape.leaf(np.zeros((2, 2))), relu=False)
        with pytest.raises(ValueError, match="dense shape mismatch"):
            ad.dense(x, tape.leaf(np.zeros((2, 2))), tape.leaf(np.zeros((1, 2))), relu=False)


class TestSoftmaxValues:
    """The softmax the debiasing layer computes in plain numpy."""

    def test_symmetric_row(self):
        np.testing.assert_allclose(row_softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_log3_row(self):
        out = row_softmax(np.array([[np.log(3.0), 0.0]]))
        np.testing.assert_allclose(out, [[0.75, 0.25]], atol=1e-15)

    def test_rows_sum_to_one(self, rng):
        out = row_softmax(rng.standard_normal((7, 4)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestBackwardPass:
    def test_sum_gives_ones(self, rng):
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((3, 4)), requires_grad=True)
        grads = tape.backward(weighted_sum(x, np.ones((3, 4))))
        np.testing.assert_array_equal(grads[x.node_id], np.ones((3, 4)))

    def test_zero_scaled_loss_gives_zero(self, rng):
        # x scaled by a constant zero matrix still gets its (zero) gradient
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((3, 4)), requires_grad=True)
        zero = tape.leaf(np.zeros((4, 4)))
        grads = tape.backward(weighted_sum(ad.matmul(x, zero), np.ones((3, 4))))
        np.testing.assert_array_equal(grads[x.node_id], np.zeros((3, 4)))

    def test_gradient_accumulation_square(self, rng):
        # x enters one record twice: <w, x @ x> has gradient w x^T + x^T w
        x_data = rng.standard_normal((3, 3))
        w_data = rng.standard_normal((3, 3))
        tape = ad.Tape()
        x = tape.leaf(x_data, requires_grad=True)
        grads = tape.backward(weighted_sum(ad.matmul(x, x), w_data))
        np.testing.assert_allclose(grads[x.node_id], w_data @ x_data.T + x_data.T @ w_data)

    def test_returns_leaf_gradients_only(self, rng):
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((4, 3)), requires_grad=True)
        w = tape.leaf(rng.standard_normal((3, 3)), requires_grad=True)
        b = tape.leaf(rng.standard_normal((1, 3)), requires_grad=True)
        # three intermediate records, and w enters two of them
        h = ad.dense(ad.relu(ad.matmul(x, w)), w, b, relu=True)
        grads = tape.backward(ad.cross_entropy_with_logits(h, [0, 1, 2, 0], [True] * 4))
        assert set(grads) == {x.node_id, w.node_id, b.node_id}

    def test_constant_matmul_operand_gets_no_gradient(self, rng):
        tape = ad.Tape()
        kernel = tape.leaf(rng.standard_normal((4, 4)))  # constant, as in ppnp_exact
        x = tape.leaf(rng.standard_normal((4, 3)), requires_grad=True)
        out = ad.matmul(kernel, x)
        ((_, _, backward_fn),) = tape._records
        assert [t.node_id for t, _ in backward_fn(np.ones(out.shape))] == [x.node_id]
        grads = tape.backward(weighted_sum(out, np.ones(out.shape)))
        assert set(grads) == {x.node_id}

    def test_non_scalar_loss_rejected(self, rng):
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            tape.backward(ad.relu(x))

    def test_bitwise_deterministic_rerun(self, rng):
        x_data = rng.standard_normal((4, 3))
        w_data = rng.standard_normal((3, 2))

        def run():
            tape = ad.Tape()
            x = tape.leaf(x_data, requires_grad=True)
            w = tape.leaf(w_data, requires_grad=True)
            h = ad.relu(ad.matmul(x, w))
            grads = tape.backward(ad.cross_entropy_with_logits(h, [0, 1, 1, 0], [True] * 4))
            return grads[x.node_id], grads[w.node_id]

        gx1, gw1 = run()
        gx2, gw2 = run()
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


class TestTapeLifetime:
    @staticmethod
    def _backpropagated_tape(rng):
        """Weak reference to the tape of one forward + backward through the debiasing stack."""
        g = random_graph(rng, n_max=8)
        s = np.where(np.arange(g.n) % 2 == 0, 1, -1)
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 0)
        cfg = train.RunConfig(lambda_s=1.0, lambda_f=2.0, num_layers=3)
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((g.n, 3)))
        logits, _ = forward(mlp, tape, x, g, incident_vector(s), cfg)
        loss = ad.cross_entropy_with_logits(logits, rng.integers(0, 2, size=g.n), np.ones(g.n, dtype=bool))
        tape.backward(loss)
        return weakref.ref(tape)

    def test_freed_without_cyclic_gc(self, rng):
        gc.disable()
        try:
            ref = self._backpropagated_tape(rng)
            assert ref() is None, "a replayed tape is kept alive by a reference cycle"
        finally:
            gc.enable()

    def test_evaluate_frees_its_tape_without_cyclic_gc(self, monkeypatch):
        refs = []

        class WatchedTape(ad.Tape):
            def __init__(self):
                super().__init__()
                refs.append(weakref.ref(self))

        cfg = train.RunConfig(dataset={}, num_layers=2, hidden=[4], epochs=1, seeds=[0])
        dataset = synth_generate(SynthConfig(n=50, mean_degree=4.0, feat_dim=6, seed=0))
        masks = make_splits(dataset, cfg.split_fractions, 0)
        mlp = init_weights(MlpConfig(in_dim=6, hidden=[4], out_dim=2), 0)
        monkeypatch.setattr(ad, "Tape", WatchedTape)
        gc.disable()
        try:
            train.evaluate(cfg, mlp, dataset, masks)
            assert len(refs) == 1
            assert refs[0]() is None, "an evaluation tape is kept alive by a reference cycle"
        finally:
            gc.enable()

    def test_training_frees_each_tape_within_its_epoch(self, monkeypatch):
        # the selected epoch's logits are kept as an array: a kept tensor
        # would keep its tape alive through the later epochs
        refs, alive = [], []

        class WatchedTape(ad.Tape):
            def __init__(self):
                super().__init__()
                refs.append(weakref.ref(self))

        def watched_adam_step(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return adam_step(*args)

        cfg = train.RunConfig(dataset={}, hidden=[4], epochs=4, seeds=[0])
        dataset = synth_generate(SynthConfig(n=50, mean_degree=4.0, feat_dim=6, seed=0))
        masks = make_splits(dataset, cfg.split_fractions, 0)
        monkeypatch.setattr(ad, "Tape", WatchedTape)
        monkeypatch.setattr(train, "adam_step", watched_adam_step)
        gc.disable()
        try:
            _, _, trace = train.train_one(cfg, dataset, masks, 0)
            assert trace.best_epoch < cfg.epochs - 1
            assert alive == [1] * cfg.epochs, "an earlier epoch's tape is alive"
            assert all(ref() is None for ref in refs), "a training tape outlives train_one"
        finally:
            gc.enable()

    def test_output_freed_before_its_backward_runs(self, rng):
        # the tape drops a record's output before the record's backward
        # allocates its input's cotangent, so the two are not held at once
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((6, 3)))
        w = tape.leaf(rng.standard_normal((3, 4)), requires_grad=True)
        b = tape.leaf(rng.standard_normal((1, 4)), requires_grad=True)
        h = ad.dense(x, w, b, relu=True)
        logits = ad.matmul(h, tape.leaf(rng.standard_normal((4, 2)), requires_grad=True))
        loss = ad.cross_entropy_with_logits(logits, rng.integers(0, 2, size=6), np.ones(6, dtype=bool))
        index = next(i for i, record in enumerate(tape._records) if record[0] is h)
        out, inputs, backward_fn = tape._records[index]
        values, alive = weakref.ref(h.data), []

        def watched(g):
            alive.append(values() is not None)
            return backward_fn(g)

        tape._records[index] = (out, inputs, watched)
        del h, out, inputs
        tape.backward(loss)
        assert alive == [False], "a record's output is alive while its backward runs"

    def test_in_place_masks_change_no_held_array(self, rng):
        # each backward owns the cotangent it is handed and masks it in
        # place: no input, output or constant the caller holds changes
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((8, 3)), requires_grad=True)
        params = [
            tape.leaf(rng.standard_normal(shape), requires_grad=True)
            for shape in ((3, 5), (1, 5), (5, 4), (1, 4))
        ]
        h = ad.dense(x, params[0], params[1], relu=True)
        y = ad.relu(ad.dense(h, params[2], params[3], relu=True))
        weights = rng.standard_normal((8, 4))
        held = [x.data, *(p.data for p in params), h.data, y.data, weights]
        copies = [array.copy() for array in held]
        grads = tape.backward(weighted_sum(y, weights))
        for array, copy in zip(held, copies):
            assert np.array_equal(array, copy)
        # the out-of-place chain rule, operation for operation
        gy = weights * (y.data > 0.0) * (y.data > 0.0)
        gh = (gy @ params[2].data.T) * (h.data > 0.0)
        assert np.array_equal(grads[params[2].node_id], h.data.T @ gy)
        assert np.array_equal(grads[params[0].node_id], x.data.T @ gh)
        assert np.array_equal(grads[x.node_id], gh @ params[0].data.T)

    def test_single_use(self, rng):
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((2, 2)), requires_grad=True)
        loss = weighted_sum(x, np.ones((2, 2)))
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="already replayed"):
            tape.backward(loss)
