import gc
import weakref

import numpy as np
import pytest

from conftest import (
    add_row_bias,
    assert_close_rel,
    finite_diff,
    full_mask_cross_entropy,
    matmul,
    random_graph,
    relu,
    spmm_const,
    weighted_sum,
)
from fairprop import autodiff as ad
from fairprop import nn, train
from fairprop.data import SynthConfig, make_splits, synth_generate
from fairprop.debias import row_softmax
from fairprop.nn import Mlp, MlpConfig, _affine, init_weights, mlp_forward


def check_backward(op, rng, n_shapes=50):
    """An op's pullback vs central finite differences on random shapes."""
    for _ in range(n_shapes):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 5)))
        x_data = rng.standard_normal(shape)
        out, pullback = op(x_data)
        w_data = rng.standard_normal(out.shape)
        _, dout = weighted_sum(out, w_data)

        def f(xv):
            return weighted_sum(op(xv)[0], w_data)[0]

        assert_close_rel(pullback(dout), finite_diff(f, x_data), rtol=1e-6, afloor=1e-9)


class TestPrimitiveBackward:
    """The loss's gradient, and the tests' per-operation oracles (``conftest``)."""

    def test_relu(self, rng):
        check_backward(relu, rng)

    def test_matmul_both_sides(self, rng):
        for _ in range(50):
            n, k, d = (int(rng.integers(1, 5)) for _ in range(3))
            a_data = rng.standard_normal((n, k))
            b_data = rng.standard_normal((k, d))
            w_data = rng.standard_normal((n, d))
            out, pullback = matmul(a_data, b_data)
            grad_a, grad_b = pullback(weighted_sum(out, w_data)[1])

            def fa(av):
                return float(np.sum((av @ b_data) * w_data))

            def fb(bv):
                return float(np.sum((a_data @ bv) * w_data))

            # matmul is linear, so a large step has no truncation error and
            # keeps the oracle's roundoff below the 1e-6 tolerance
            assert_close_rel(grad_a, finite_diff(fa, a_data, step=1e-2), rtol=1e-6)
            assert_close_rel(grad_b, finite_diff(fb, b_data, step=1e-2), rtol=1e-6)

    def test_add_row_broadcast(self, rng):
        # the bias gradient sums over rows
        for _ in range(50):
            n, d = (int(rng.integers(1, 6)) for _ in range(2))
            g_data = rng.standard_normal((n, d))
            out, pullback = add_row_bias(rng.standard_normal((n, d)), rng.standard_normal(d))
            grad_a, grad_b = pullback(weighted_sum(out, g_data)[1])
            np.testing.assert_array_equal(grad_a, g_data)
            np.testing.assert_allclose(grad_b, g_data.sum(axis=0))

    def test_spmm_const(self, rng):
        for _ in range(20):
            g = random_graph(rng, n_max=8)
            x_data = rng.standard_normal((g.n, 3))
            w_data = rng.standard_normal((g.n, 3))
            out, pullback = spmm_const(g.adjacency, x_data)

            def f(xv):
                return float(np.sum((g.dense_adjacency() @ xv) * w_data))

            assert_close_rel(pullback(weighted_sum(out, w_data)[1]), finite_diff(f, x_data, step=1e-2), rtol=1e-6)

    def test_cross_entropy_backward(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            logits_data = rng.standard_normal((n, 2))
            labels = rng.integers(0, 2, size=n)
            mask = rng.random(n) < 0.7
            if not mask.any():
                mask[0] = True
            rows = ad.RowLabels.of(labels, mask)
            _, grad = ad.cross_entropy_with_logits(logits_data, rows)

            def f(lv):
                return ad.cross_entropy_with_logits(lv, rows)[0]

            assert_close_rel(grad, finite_diff(f, logits_data), rtol=1e-5)


class TestCrossEntropyRows:
    @pytest.mark.parametrize("checked_once", [False, True])
    def test_bitwise_equal_to_a_softmax_over_every_row(self, rng, checked_once):
        # only the masked rows enter the softmax; the loss and the gradient
        # are those of the softmax over all rows, bit for bit. Checked once,
        # the same RowLabels scores the logits twice, as every epoch of a
        # run does, and reads the same loss and gradient
        for _ in range(30):
            n = int(rng.integers(1, 40))
            logits_data = 3.0 * rng.standard_normal((n, 2))
            held = logits_data.copy()
            labels = rng.integers(0, 2, size=n)
            mask = rng.random(n) < 0.5
            mask[rng.integers(n)] = True
            rows = ad.RowLabels.of(labels, mask)
            loss, grad = ad.cross_entropy_with_logits(logits_data, rows)
            if checked_once:
                again = ad.cross_entropy_with_logits(logits_data, rows)
                assert (again[0], again[1].tobytes()) == (loss, grad.tobytes())
            ref_loss, ref_grad = full_mask_cross_entropy(logits_data, labels, mask)
            assert np.float64(loss).tobytes() == ref_loss.tobytes()
            assert grad.tobytes() == ref_grad.tobytes()
            assert logits_data.tobytes() == held.tobytes()

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
                loss, grad = ad.cross_entropy_with_logits(logits_data, ad.RowLabels.of(labels, mask))
                ref_loss, ref_grad = full_mask_cross_entropy(logits_data, labels, mask)
                assert np.float64(loss).tobytes() == ref_loss.tobytes()
                assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("columns", [1, 3])
    def test_other_than_two_logit_columns_is_refused(self, columns):
        rows = ad.RowLabels.of([0, 0, 0], [True] * 3)
        with pytest.raises(ValueError, match=rf"^cross entropy over {columns} logit columns: fairprop is two-class$"):
            ad.cross_entropy_with_logits(np.zeros((3, columns)), rows)

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


def run_mlp(x_data, params, **constants):
    """``mlp_forward`` of the weights and biases ``params``: (output, pullback)."""
    dims = [params[0].shape[0]] + [w.shape[1] for w in params[::2]]
    mlp = Mlp(MlpConfig(dims[0], dims[1:-1], dims[-1]), params[::2], params[1::2])
    return mlp_forward(mlp, x_data, **constants)


def frozen(x, read_only):
    """``x``, made read-only if ``read_only`` is set, as ``load_dataset``'s features are.

    A pullback that wrote into the features would then raise.
    """
    if read_only:
        x.setflags(write=False)
    return x


def check_mlp_backward(rng, with_relu, read_only=False, reference=None, constants=None):
    """``mlp_forward``'s gradient against central finite differences on random shapes.

    ``constants`` maps (n, k) to ``mlp_forward``'s keyword constants, and
    ``reference`` maps (x, params, constants) to the expected output.
    """
    for _ in range(30):
        n, k, d = (int(rng.integers(1, 5)) for _ in range(3))
        data = [frozen(rng.standard_normal((n, k)), read_only), *mlp_layers(rng, k, d, with_relu)]
        kwargs = {} if constants is None else constants(n, k)
        g_data = rng.standard_normal((n, d))
        out, pullback = run_mlp(data[0], data[1:], **kwargs)
        if reference is not None:
            np.testing.assert_allclose(out, reference(data[0], data[1:], **kwargs))
        grad = pullback(weighted_sum(out, g_data)[1])

        def loss_at(i):
            def f(v):
                args = [v if j == i else a for j, a in enumerate(data)]
                return weighted_sum(run_mlp(args[0], args[1:], **kwargs)[0], g_data)[0]

            return f

        flat = np.concatenate([finite_diff(loss_at(i), a).ravel() for i, a in enumerate(data) if i > 0])
        assert_close_rel(grad, flat, rtol=1e-6, afloor=1e-9)  # laid out as theta


def numpy_mlp(x, params, row_scale=None, standardize=None):
    """The MLP in plain numpy, standardizing or row-scaling in the first layer."""
    if standardize is not None:
        x = (x - standardize[0]) / standardize[1]
    h = x @ params[0] + (params[1] if row_scale is None else row_scale[:, None] * params[1])
    for w, b in zip(params[2::2], params[3::2]):
        h = np.maximum(h, 0.0) @ w + b
    return h


class TestDense:
    """The MLP layer's affine map and ReLU (``nn._affine``) through ``mlp_forward``.

    With ``with_relu`` the MLP is two layers around a ReLU, else one layer.
    With ``read_only`` its features are read-only.
    """

    @pytest.mark.parametrize("with_relu", [False, True])
    @pytest.mark.parametrize("read_only", [False, True])
    def test_backward_matches_finite_differences(self, rng, with_relu, read_only):
        check_mlp_backward(rng, with_relu, read_only, reference=numpy_mlp)

    @pytest.mark.parametrize("with_relu", [False, True])
    @pytest.mark.parametrize("read_only", [False, True])
    def test_bitwise_equal_to_matmul_add_relu(self, rng, with_relu, read_only):
        x_data = rng.standard_normal((40, 5))
        x_data[:3] = 0.0  # with a zero bias entry, an exact 0.0 pre-activation
        frozen(x_data, read_only)
        params = mlp_layers(rng, 5, 6, with_relu)
        params[1][:2] = 0.0
        assert ((x_data @ params[0] + params[1]) == 0.0).any()
        g_data = rng.standard_normal((40, 6))

        # the chain matmul -> add_row_bias -> relu per layer, pulled back by hand
        h, pullbacks = x_data, []
        last = len(params) // 2 - 1
        for i, (w, b) in enumerate(zip(params[::2], params[1::2])):
            h, mm_back = matmul(h, w)
            h, bias_back = add_row_bias(h, b)
            relu_back = None
            if i != last:
                h, relu_back = relu(h)
            pullbacks.append((mm_back, bias_back, relu_back))
        g, grads = g_data, []
        for mm_back, bias_back, relu_back in reversed(pullbacks):
            if relu_back is not None:
                g = relu_back(g)
            g, db = bias_back(g)
            g, dw = mm_back(g)
            grads = [dw.ravel(), db] + grads

        out, pullback = run_mlp(x_data, params)
        assert out.tobytes() == h.tobytes()
        assert pullback(g_data).tobytes() == np.concatenate(grads).tobytes()

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
        # the pullback returns the gradient of theta alone, a new array laid out as it
        params = mlp_layers(rng, 3, 2, False)
        mlp = Mlp(MlpConfig(3, [], 2), params[::2], params[1::2])
        out, pullback = mlp_forward(mlp, rng.standard_normal((4, 3)))
        grad = pullback(np.ones(out.shape))
        assert isinstance(grad, np.ndarray) and grad.shape == mlp.theta.shape
        assert not np.shares_memory(grad, mlp.theta)

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


class TestPullbackLifetime:
    """A pullback is single-use and frees what it kept as it runs."""

    @staticmethod
    def _watch_affine(monkeypatch):
        """Weak references to each output of ``nn._affine``: every hidden
        activation of ``mlp_forward`` is one, ReLU'd in place."""
        refs, affine = [], nn._affine

        def watched(*args, **kwargs):
            h, w_in = affine(*args, **kwargs)
            refs.append(weakref.ref(h))
            return h, w_in

        monkeypatch.setattr(nn, "_affine", watched)
        return refs

    def test_mlp_pullback_frees_its_hidden_activations(self, rng, monkeypatch):
        refs = self._watch_affine(monkeypatch)
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[5, 4], out_dim=2), 0)
        out, pullback = mlp_forward(mlp, rng.standard_normal((6, 3)))
        hidden = refs[:-1]  # the last layer's map is the output
        gc.disable()
        try:
            assert len(hidden) == 2 and all(ref() is not None for ref in hidden)
            pullback(np.ones(out.shape))
            assert all(ref() is None for ref in hidden), "a hidden activation outlives the pullback's run"
        finally:
            gc.enable()

    @pytest.mark.parametrize("scheme", ["mlp", "fair", "ppnp_exact"])
    def test_train_one_drops_each_pullback(self, monkeypatch, scheme):
        # the selected epoch's logits are kept, and nothing of its pass with them
        activations, pullbacks, alive = self._watch_affine(monkeypatch), [], []
        forward = train.mlp_forward

        def watched(*args, **kwargs):
            # with one hidden layer every other affine map is a hidden
            # activation; the others are the MLP's outputs, which the mlp
            # scheme keeps as its logits
            alive.append(sum(ref() is not None for ref in activations[::2] + pullbacks))
            out, pullback = forward(*args, **kwargs)
            pullbacks.append(weakref.ref(pullback))
            return out, pullback

        cfg = train.RunConfig(dataset={}, scheme=scheme, hidden=[4], epochs=4, seeds=[0])
        dataset = synth_generate(SynthConfig(n=50, mean_degree=4.0, feat_dim=6, seed=0))
        masks = make_splits(dataset, cfg.split_fractions, 0)
        monkeypatch.setattr(train, "mlp_forward", watched)
        gc.disable()
        try:
            _, _, trace = train.train_one(cfg, dataset, masks, 0)
            assert trace.best_epoch < cfg.epochs - 1
            assert alive == [0] * cfg.epochs, "an earlier epoch's pullback or activation is alive"
            assert all(ref() is None for ref in pullbacks), "a pullback outlives train_one"
        finally:
            gc.enable()
