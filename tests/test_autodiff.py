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
    joined,
    matmul,
    random_graph,
    relu,
    spmm_const,
    weighted_sum,
)
from fairprop import autodiff as ad
from fairprop import train
from fairprop.data import SynthConfig, make_splits, synth_generate
from fairprop.debias import row_softmax
from fairprop.graph import incident_vector
from fairprop.nn import Mlp, MlpConfig, _affine, _layer_views, adam_step, init_weights, mlp_forward


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
    """The tape's own records, and the tests' per-layer oracle records (``conftest``)."""

    def test_relu(self, rng):
        check_backward(lambda t, x: relu(x), rng)

    def test_matmul_both_sides(self, rng):
        for _ in range(50):
            n, k, d = (int(rng.integers(1, 5)) for _ in range(3))
            a_data = rng.standard_normal((n, k))
            b_data = rng.standard_normal((k, d))
            w_data = rng.standard_normal((n, d))
            tape = ad.Tape()
            a = tape.leaf(a_data, requires_grad=True)
            b = tape.leaf(b_data, requires_grad=True)
            grads = tape.backward(weighted_sum(matmul(a, b), w_data))

            def fa(av):
                return float(np.sum((av @ b_data) * w_data))

            def fb(bv):
                return float(np.sum((a_data @ bv) * w_data))

            # matmul is linear, so a large step has no truncation error and
            # keeps the oracle's roundoff below the 1e-6 tolerance
            assert_close_rel(grads[a.node_id], finite_diff(fa, a_data, step=1e-2), rtol=1e-6)
            assert_close_rel(grads[b.node_id], finite_diff(fb, b_data, step=1e-2), rtol=1e-6)

    def test_add_row_broadcast(self, rng):
        # the bias gradient sums over rows
        for _ in range(50):
            n, d = (int(rng.integers(1, 6)) for _ in range(2))
            g_data = rng.standard_normal((n, d))
            tape = ad.Tape()
            a = tape.leaf(rng.standard_normal((n, d)), requires_grad=True)
            b = tape.leaf(rng.standard_normal((1, d)), requires_grad=True)
            grads = tape.backward(weighted_sum(add_row_bias(a, b), g_data))
            np.testing.assert_array_equal(grads[a.node_id], g_data)
            np.testing.assert_allclose(grads[b.node_id], g_data.sum(axis=0, keepdims=True))

    def test_spmm_const(self, rng):
        for _ in range(20):
            g = random_graph(rng, n_max=8)
            x_data = rng.standard_normal((g.n, 3))
            w_data = rng.standard_normal((g.n, 3))
            tape = ad.Tape()
            x = tape.leaf(x_data, requires_grad=True)
            grads = tape.backward(weighted_sum(spmm_const(g.adjacency, x), w_data))

            def f(xv):
                return float(np.sum((g.dense_adjacency() @ xv) * w_data))

            assert_close_rel(grads[x.node_id], finite_diff(f, x_data, step=1e-2), rtol=1e-6)

    def test_cross_entropy_backward(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            logits_data = rng.standard_normal((n, 2))
            labels = rng.integers(0, 2, size=n)
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
            n = int(rng.integers(1, 40))
            logits_data = 3.0 * rng.standard_normal((n, 2))
            labels = rng.integers(0, 2, size=n)
            mask = rng.random(n) < 0.5
            mask[rng.integers(n)] = True
            tape = ad.Tape()
            logits = tape.leaf(logits_data, requires_grad=True)
            if checked_once:
                loss = ad.cross_entropy_with_logits(logits, ad.RowLabels.of(labels, mask))
            else:
                loss = ad.cross_entropy_with_logits(logits, labels, mask)
            grads = tape.backward(loss)
            ref_loss, ref_grad = full_mask_cross_entropy(logits_data, labels, mask)
            assert loss.data[0, 0].tobytes() == ref_loss.tobytes()
            assert grads[logits.node_id].tobytes() == ref_grad.tobytes()

    def test_extreme_and_tied_rows_bitwise_equal_to_a_softmax_over_every_row(self, rng):
        # the two-column row max and sum of exponentials are the row
        # reductions' values: at logits of +-1000, at ties and at signed zeros
        logits_data = np.array(
            [
                [1000.0, -1000.0],
                [-1000.0, 1000.0],
                [1000.0, 1000.0],
                [-1000.0, -1000.0],
                [0.0, -0.0],
                [-0.0, 0.0],
                [2.5, 2.5],
                [1000.0, 0.0],
                [-3.0, 1000.0],
            ]
        )
        logits_data = np.concatenate([logits_data, rng.standard_normal((7, 2))])
        n = logits_data.shape[0]
        for labels in (np.zeros(n, dtype=np.int64), np.arange(n) % 2, rng.integers(0, 2, size=n)):
            for mask in (np.ones(n, dtype=bool), rng.random(n) < 0.5):
                mask[0] = True
                tape = ad.Tape()
                logits = tape.leaf(logits_data, requires_grad=True)
                loss = ad.cross_entropy_with_logits(logits, labels, mask)
                grads = tape.backward(loss)
                ref_loss, ref_grad = full_mask_cross_entropy(logits_data, labels, mask)
                assert loss.data[0, 0].tobytes() == ref_loss.tobytes()
                assert grads[logits.node_id].tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("columns", [1, 3])
    def test_other_than_two_logit_columns_is_refused(self, columns):
        tape = ad.Tape()
        with pytest.raises(ValueError, match=rf"^cross entropy over {columns} logit columns: fairprop is two-class$"):
            ad.cross_entropy_with_logits(tape.leaf(np.zeros((3, columns))), [0, 0, 0], [True] * 3)

    def test_row_labels_keep_the_errors(self):
        with pytest.raises(ValueError, match="cross entropy over an empty mask"):
            ad.RowLabels.of([0, 1], [False, False])
        with pytest.raises(ValueError, match="labels out of range on masked nodes"):
            ad.RowLabels.of([0, 2], [True, True])


def mlp_layers(rng, k, d, with_relu):
    """Random weights and biases of an MLP from width k to width d: one layer,
    or with ``with_relu`` two layers around a ReLU (hidden width d)."""
    widths = [k, d, d] if with_relu else [k, d]
    return [rng.standard_normal(shape) for a, b in zip(widths, widths[1:]) for shape in ((a, b), (b,))]


def run_mlp(x_data, params, x_grad=False, **constants):
    """``mlp_forward`` of the weights and biases ``params`` on a new tape: (tape, output, leaves).

    The leaves are the input's, then the parameter vector's.
    """
    dims = [params[0].shape[0]] + [w.shape[1] for w in params[::2]]
    mlp = Mlp(MlpConfig(dims[0], dims[1:-1], dims[-1]), params[::2], params[1::2])
    tape = ad.Tape()
    x = tape.leaf(x_data, requires_grad=x_grad)
    out, theta = mlp_forward(mlp, tape, x, **constants)
    return tape, out, [x, theta]


def check_mlp_backward(rng, with_relu, x_grad=True, reference=None, constants=None):
    """``mlp_forward``'s gradients against central finite differences on random shapes.

    ``constants`` maps (n, k) to ``mlp_forward``'s keyword constants, and
    ``reference`` maps (x, params, constants) to the expected output.
    """
    for _ in range(30):
        n, k, d = (int(rng.integers(1, 5)) for _ in range(3))
        data = [rng.standard_normal((n, k)), *mlp_layers(rng, k, d, with_relu)]
        kwargs = {} if constants is None else constants(n, k)
        g_data = rng.standard_normal((n, d))
        tape, out, leaves = run_mlp(data[0], data[1:], x_grad, **kwargs)
        if reference is not None:
            np.testing.assert_allclose(out.data, reference(data[0], data[1:], **kwargs))
        grads = tape.backward(weighted_sum(out, g_data))
        assert set(grads) == {t.node_id for t in leaves if t.requires_grad}

        def loss_at(i):
            def f(v):
                args = [v if j == i else a for j, a in enumerate(data)]
                return float(np.sum(run_mlp(args[0], args[1:], **kwargs)[1].data * g_data))

            return f

        fds = [finite_diff(loss_at(i), a) for i, a in enumerate(data)]
        x, theta = leaves
        if x.requires_grad:
            assert_close_rel(grads[x.node_id], fds[0], rtol=1e-6, afloor=1e-9)
        flat = np.concatenate([fd.ravel() for fd in fds[1:]])  # laid out as theta
        assert_close_rel(grads[theta.node_id][0], flat, rtol=1e-6, afloor=1e-9)


def numpy_mlp(x, params, row_scale=None, standardize=None):
    """The MLP in plain numpy, standardizing or row-scaling in the first layer."""
    if standardize is not None:
        x = (x - standardize[0]) / standardize[1]
    h = x @ params[0] + (params[1] if row_scale is None else row_scale[:, None] * params[1])
    for w, b in zip(params[2::2], params[3::2]):
        h = np.maximum(h, 0.0) @ w + b
    return h


class TestDense:
    """The MLP layer's affine map and ReLU (``nn._affine``) through the MLP record.

    With ``with_relu`` the record is two layers around a ReLU, else one layer.
    """

    @pytest.mark.parametrize("with_relu", [False, True])
    @pytest.mark.parametrize("x_grad", [False, True])
    def test_backward_matches_finite_differences(self, rng, with_relu, x_grad):
        check_mlp_backward(rng, with_relu, x_grad, reference=numpy_mlp)

    @pytest.mark.parametrize("with_relu", [False, True])
    @pytest.mark.parametrize("x_grad", [False, True])
    def test_bitwise_equal_to_matmul_add_relu(self, rng, with_relu, x_grad):
        x_data = rng.standard_normal((40, 5))
        x_data[:3] = 0.0  # with a zero bias entry, an exact 0.0 pre-activation
        params = mlp_layers(rng, 5, 6, with_relu)
        params[1][:2] = 0.0
        assert ((x_data @ params[0] + params[1]) == 0.0).any()
        g_data = rng.standard_normal((40, 6))

        def chain(tape, x):
            h, leaves = x, [x]
            last = len(params) // 2 - 1
            for i, (w, b) in enumerate(zip(params[::2], params[1::2])):
                leaves += [tape.leaf(w, requires_grad=True), tape.leaf(b.reshape(1, -1), requires_grad=True)]
                h = add_row_bias(matmul(h, leaves[-2]), leaves[-1])
                if i != last:
                    h = relu(h)
            return h, leaves

        def replay(tape, out, leaves):
            # the output, the input's gradient or None, and the flat parameter gradient
            grads = tape.backward(weighted_sum(out, g_data))
            assert set(grads) <= {t.node_id for t in leaves}
            x_grad = grads[leaves[0].node_id].tobytes() if leaves[0].node_id in grads else None
            return out.data.tobytes(), x_grad, joined(grads, leaves[1:]).tobytes()

        out, x_bytes, theta_bytes = replay(*run_mlp(x_data, params, x_grad))
        ref_tape = ad.Tape()
        ref = replay(ref_tape, *chain(ref_tape, ref_tape.leaf(x_data, requires_grad=x_grad)))
        assert (out, x_bytes, theta_bytes) == ref
        assert (x_bytes is None) == (not x_grad)

    @pytest.mark.parametrize("with_relu", [False, True])
    def test_row_scaled_bias_matches_finite_differences(self, rng, with_relu):
        # gcn's first layer: x @ w + r b with a constant per-row scale r
        check_mlp_backward(
            rng,
            with_relu,
            reference=numpy_mlp,
            constants=lambda n, k: {"row_scale": rng.uniform(0.2, 1.5, size=n)},
        )

    @pytest.mark.parametrize("with_relu", [False, True])
    def test_standardized_input_matches_finite_differences(self, rng, with_relu):
        # ((x - shift) / scale) @ w + b, standardized inside the record
        check_mlp_backward(
            rng,
            with_relu,
            reference=numpy_mlp,
            constants=lambda n, k: {"standardize": (rng.standard_normal(k), rng.uniform(0.5, 2.0, size=k))},
        )

    def test_standardization_of_another_width_or_with_a_row_scale_is_refused(self, rng):
        x, params = rng.standard_normal((4, 3)), mlp_layers(rng, 3, 2, False)
        with pytest.raises(ValueError, match="^MLP standardization of shapes"):
            run_mlp(x, params, standardize=(np.zeros(2), np.ones(3)))
        with pytest.raises(ValueError, match="^the MLP takes a row scale or a standardization, not both$"):
            run_mlp(x, params, row_scale=np.ones(4), standardize=(np.zeros(3), np.ones(3)))

    def test_row_scale_of_another_length_is_refused(self, rng):
        with pytest.raises(ValueError, match=r"^MLP row scale of shape \(3,\) for 4 rows$"):
            run_mlp(rng.standard_normal((4, 3)), mlp_layers(rng, 3, 2, False), row_scale=np.ones(3))

    def test_constant_input_gets_no_gradient(self, rng):
        tape, out, (x, theta) = run_mlp(rng.standard_normal((4, 3)), mlp_layers(rng, 3, 2, False))
        ((_, _, backward_fn),) = tape._records
        assert [t.node_id for t, _ in backward_fn(np.ones(out.shape))] == [theta.node_id]

    def test_shape_mismatch(self, rng):
        # a layer's weights are views of theta and cannot be swapped for
        # another array; the affine map checks the shapes it is handed
        x = rng.standard_normal((4, 3))
        for w, b in ((np.zeros((3, 2)), np.zeros(3)), (np.zeros((2, 2)), np.zeros(2))):
            with pytest.raises(ValueError, match="^MLP layer shape mismatch"):
                _affine(x, w, b)
        params = mlp_layers(rng, 3, 2, True)
        mlp = Mlp(MlpConfig(3, [2], 2), params[::2], params[1::2])
        with pytest.raises(TypeError):
            mlp.weights[1] = np.zeros((3, 2))


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
        grads = tape.backward(weighted_sum(matmul(x, zero), np.ones((3, 4))))
        np.testing.assert_array_equal(grads[x.node_id], np.zeros((3, 4)))

    def test_gradient_accumulation_square(self, rng):
        # x enters one record twice: <w, x @ x> has gradient w x^T + x^T w
        x_data = rng.standard_normal((3, 3))
        w_data = rng.standard_normal((3, 3))
        tape = ad.Tape()
        x = tape.leaf(x_data, requires_grad=True)
        grads = tape.backward(weighted_sum(matmul(x, x), w_data))
        np.testing.assert_allclose(grads[x.node_id], w_data @ x_data.T + x_data.T @ w_data)

    def test_returns_leaf_gradients_only(self, rng):
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((4, 2)), requires_grad=True)
        w = tape.leaf(rng.standard_normal((2, 2)), requires_grad=True)
        b = tape.leaf(rng.standard_normal((1, 2)), requires_grad=True)
        # five intermediate records, and w enters two of them
        h = relu(add_row_bias(matmul(relu(matmul(x, w)), w), b))
        grads = tape.backward(ad.cross_entropy_with_logits(h, [0, 1, 1, 0], [True] * 4))
        assert set(grads) == {x.node_id, w.node_id, b.node_id}

    def test_constant_matmul_operand_gets_no_gradient(self, rng):
        tape = ad.Tape()
        kernel = tape.leaf(rng.standard_normal((4, 4)))  # constant, as in ppnp_exact
        x = tape.leaf(rng.standard_normal((4, 3)), requires_grad=True)
        out = matmul(kernel, x)
        ((_, _, backward_fn),) = tape._records
        assert [t.node_id for t, _ in backward_fn(np.ones(out.shape))] == [x.node_id]
        grads = tape.backward(weighted_sum(out, np.ones(out.shape)))
        assert set(grads) == {x.node_id}

    def test_non_scalar_loss_rejected(self, rng):
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            tape.backward(matmul(x, x))

    def test_bitwise_deterministic_rerun(self, rng):
        x_data = rng.standard_normal((4, 3))
        w_data = rng.standard_normal((3, 2))

        def run():
            tape = ad.Tape()
            x = tape.leaf(x_data, requires_grad=True)
            w = tape.leaf(w_data, requires_grad=True)
            h = relu(matmul(x, w))
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
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[5], out_dim=4), 0)
        tape = ad.Tape()
        h, _ = mlp_forward(mlp, tape, tape.leaf(rng.standard_normal((6, 3))))
        logits = matmul(h, tape.leaf(rng.standard_normal((4, 2)), requires_grad=True))
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
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[5], out_dim=4), 0)
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((8, 3)), requires_grad=True)
        out, theta = mlp_forward(mlp, tape, x)
        y = relu(out)
        weights = rng.standard_normal((8, 4))
        held = [x.data, theta.data, out.data, y.data, weights]
        copies = [array.copy() for array in held]
        grads = tape.backward(weighted_sum(y, weights))
        for array, copy in zip(held, copies):
            assert np.array_equal(array, copy)
        # the out-of-place chain rule, operation for operation
        (w0, b0), (w1, _) = zip(mlp.weights, mlp.biases)
        (dw0, _), (dw1, _) = _layer_views(grads[theta.node_id][0], mlp.config.layer_dims())
        h = x.data @ w0 + b0
        h *= h > 0.0
        gy = weights * (y.data > 0.0)
        gh = (gy @ w1.T) * (h > 0.0)
        assert np.array_equal(dw1, h.T @ gy)
        assert np.array_equal(dw0, x.data.T @ gh)
        assert np.array_equal(grads[x.node_id], gh @ w0.T)

    def test_single_use(self, rng):
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((2, 2)), requires_grad=True)
        loss = weighted_sum(x, np.ones((2, 2)))
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="already replayed"):
            tape.backward(loss)
