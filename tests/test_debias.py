import numpy as np
import pytest

from conftest import (
    appnp_forward,
    appnp_step,
    assert_close_rel,
    centred,
    finite_diff,
    forward,
    ml1_forward,
    ml1_step,
    loss_gradient,
    random_graph,
    reference_stack,
    weighted_sum,
)
from fairprop import autodiff as ad
from fairprop import debias, train
from fairprop.debias import (
    fairness_grad,
    fairness_objective,
    prox_dual,
    row_softmax,
    stack,
    steps,
)
from fairprop.graph import build_graph, incident_vector
from fairprop.nn import MlpConfig, init_weights, mlp_forward
from fairprop.train import RunConfig


def random_incident(rng, n):
    s = rng.choice([-1, 1], size=n)
    if np.all(s == s[0]):
        s[0] = -s[0]
    return incident_vector(s)


# ---------------------------------------------------------------------------
# Straight-line oracle: explicit loops, no shared code with the library
# ---------------------------------------------------------------------------


def oracle_softmax(F):
    n, d = F.shape
    out = np.zeros((n, d))
    for i in range(n):
        mx = max(F[i])
        expo = [np.exp(F[i, j] - mx) for j in range(d)]
        z = sum(expo)
        for j in range(d):
            out[i, j] = expo[j] / z
    return out


def oracle_fair_grad(F, u, delta_vals):
    # elementwise: delta_i * S_ij * u_j - delta_i * S_ij * sum_k S_ik u_k
    n, d = F.shape
    S = oracle_softmax(F)
    out = np.zeros((n, d))
    for i in range(n):
        dot = sum(S[i, k] * u[k] for k in range(d))
        for j in range(d):
            out[i, j] = delta_vals[i] * S[i, j] * u[j] - delta_vals[i] * S[i, j] * dot
    return out


def oracle_layer(F, u, Xt, A_dense, delta_vals, lam_s, lam_f):
    n, d = F.shape
    gamma = 1.0 / (1.0 + lam_s)
    beta = (1.0 + lam_s) / 2.0
    agg = np.zeros((n, d))
    for i in range(n):
        for j in range(d):
            acc = 0.0
            for k in range(n):
                acc += A_dense[i, k] * F[k, j]
            agg[i, j] = gamma * Xt[i, j] + (1.0 - gamma) * acc
    f_bar = agg - gamma * oracle_fair_grad(F, u, delta_vals)
    S_bar = oracle_softmax(f_bar)
    u_bar = np.zeros(d)
    for j in range(d):
        u_bar[j] = u[j] + beta * sum(delta_vals[i] * S_bar[i, j] for i in range(n))
    u_next = np.zeros(d)
    for j in range(d):
        u_next[j] = np.sign(u_bar[j]) * min(abs(u_bar[j]), lam_f)
    f_next = agg - gamma * oracle_fair_grad(F, u_next, delta_vals)
    return f_next, u_next


class TestParams:
    def test_step_sizes_exact(self):
        gamma, beta = steps(1.0)
        assert gamma == 0.5
        assert beta == 1.0
        gamma, beta = steps(3.0)
        assert gamma == 1.0 / 4.0
        assert beta == 2.0
        assert 0.0 < gamma <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(lambda_s=-1.0)
        with pytest.raises(ValueError):
            RunConfig(lambda_f=-0.1)


class TestFairnessGrad:
    def test_zero_dual_gives_zero(self, rng):
        delta = random_incident(rng, 6)
        out = fairness_grad(rng.standard_normal((6, 3)), np.zeros(3), delta)
        np.testing.assert_array_equal(out, np.zeros((6, 3)))

    def test_single_class_degenerate(self, rng):
        delta = random_incident(rng, 5)
        out = fairness_grad(rng.standard_normal((5, 1)), np.array([2.0]), delta)
        np.testing.assert_allclose(out, np.zeros((5, 1)), atol=1e-15)

    def test_hand_value(self):
        delta = incident_vector([1, -1])
        out = fairness_grad(np.zeros((2, 2)), np.array([1.0, 0.0]), delta)
        np.testing.assert_allclose(out, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 21))
            d = int(rng.integers(2, 6))
            delta = random_incident(rng, n)
            F = rng.standard_normal((n, d))
            u = rng.standard_normal(d)

            def f(Fv):
                p = delta.values @ row_softmax(Fv)
                return float(p @ u)

            assert_close_rel(
                fairness_grad(F, u, delta), finite_diff(f, F), rtol=1e-6, afloor=1e-9
            )

    def test_matches_elementwise_formula(self, rng):
        for _ in range(20):
            n, d = int(rng.integers(2, 8)), int(rng.integers(2, 5))
            delta = random_incident(rng, n)
            F = rng.standard_normal((n, d))
            u = rng.standard_normal(d)
            np.testing.assert_allclose(
                fairness_grad(F, u, delta),
                oracle_fair_grad(F, u, delta.values),
                atol=1e-12,
            )

    def test_shape_mismatch(self, rng):
        delta = random_incident(rng, 4)
        with pytest.raises(ValueError):
            fairness_grad(np.zeros((4, 3)), np.zeros(2), delta)


class TestProxDual:
    def test_clamp_example(self):
        np.testing.assert_allclose(
            prox_dual(np.array([0.5, -2.0]), 1.0), [0.5, -1.0]
        )

    def test_zero_radius(self, rng):
        np.testing.assert_array_equal(
            prox_dual(rng.standard_normal(5), 0.0), np.zeros(5)
        )

    def test_idempotent(self, rng):
        for _ in range(100):
            u = rng.standard_normal(4) * 3.0
            once = prox_dual(u, 1.3)
            np.testing.assert_array_equal(prox_dual(once, 1.3), once)

    def test_grid_argmin(self, rng):
        lam = 0.7
        grid = np.arange(-lam, lam + 1e-12, 1e-3)
        for _ in range(10):
            u = rng.standard_normal(2) * 2.0
            best = np.array(
                [grid[np.argmin((grid - u[0]) ** 2)], grid[np.argmin((grid - u[1]) ** 2)]]
            )
            np.testing.assert_allclose(prox_dual(u, lam), best, atol=1e-3)


def stack_args(cfg):
    """The layer count, step sizes and radius ``stack`` takes, as the ``fair`` scheme passes them."""
    return (cfg.num_layers, *steps(cfg.lambda_s), cfg.lambda_f)


def run_stack(Xt, g, delta, cfg):
    """The F_L array of ``stack``."""
    return stack(Xt, g, delta, *stack_args(cfg))[0]


class TestLayerStep:
    def test_zero_fair_weight_is_appnp(self, rng):
        g = random_graph(rng, n_max=10)
        delta = random_incident(rng, g.n)
        Xt = rng.standard_normal((g.n, 2))
        for layers in (1, 2, 3):
            cfg = RunConfig(lambda_s=2.0, lambda_f=0.0, num_layers=layers)
            F = run_stack(Xt, g, delta, cfg)
            ref = Xt
            for _ in range(layers):
                ref = appnp_step(g, ref, Xt, steps(cfg.lambda_s)[0])
            # every dual is exactly zero, so no fairness term is added; the
            # stack propagates contrasts, so only rounding separates the two
            np.testing.assert_allclose(centred(F), centred(ref), rtol=0, atol=1e-12)

    def test_two_layer_trace_matches_oracle(self, rng):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        delta = incident_vector([1, 1, -1, -1])
        Xt = rng.standard_normal((4, 2))
        A = g.dense_adjacency()
        F_ref, u_ref = Xt.copy(), np.zeros(2)
        for layers in (1, 2, 3):
            # layer k's output depends on its dual, so matching F at every
            # depth matches the dual trace too
            F_ref, u_ref = oracle_layer(F_ref, u_ref, Xt, A, delta.values, 1.0, 0.4)
            cfg = RunConfig(lambda_s=1.0, lambda_f=0.4, num_layers=layers)
            F = run_stack(Xt, g, delta, cfg)
            np.testing.assert_allclose(centred(F), centred(F_ref), atol=1e-12)

    def test_dual_bounded_every_layer(self, rng):
        g = random_graph(rng, n_max=12)
        delta = random_incident(rng, g.n)
        Xt = rng.standard_normal((g.n, 2))
        A = g.dense_adjacency()
        F_ref, u_ref = Xt, np.zeros(2)
        for layers in range(1, 6):
            F_ref, u_ref = oracle_layer(F_ref, u_ref, Xt, A, delta.values, 0.5, 0.3)
            assert np.abs(u_ref).max() <= 0.3
            # the stack runs the same dual trace
            cfg = RunConfig(lambda_s=0.5, lambda_f=0.3, num_layers=layers)
            F = run_stack(Xt, g, delta, cfg)
            np.testing.assert_allclose(centred(F), centred(F_ref), atol=1e-12)


class TestLayerGradients:
    """The hand-written reverse sweep of the stack against central finite differences."""

    @staticmethod
    def _check(cfg, rng, Xt, ml1=False):
        """Gradient of a fixed weighting of the stack's output in X_trans."""
        g, delta = TestLayerGradients._graph()
        w_F = rng.standard_normal(Xt.shape)

        F, pullback = stack(Xt, g, delta, *stack_args(cfg), ml1)
        grad = pullback(weighted_sum(F, w_F)[1])

        def f(v):
            return weighted_sum(stack(v, g, delta, *stack_args(cfg), ml1)[0], w_F)[0]

        assert_close_rel(grad, finite_diff(f, Xt.copy()), rtol=1e-6, afloor=1e-9)

    @staticmethod
    def _graph():
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3)])
        return g, incident_vector([1, 1, -1, 1, -1, -1])

    def test_dual_partly_clamped(self, rng):
        # at two classes both entries of a dual are on the ball or neither is:
        # from u = 0, layer 1's dual is inside it and layer 2's the first on it
        g, delta = self._graph()
        Xt = rng.standard_normal((6, 2))
        A = g.dense_adjacency()
        F, u = Xt, np.zeros(2)
        radii = []
        for _ in range(2):
            F, u = oracle_layer(F, u, Xt, A, delta.values, 1.5, 1.0)
            radii.append(np.abs(u).max())
        assert radii[0] < 1.0 and radii[1] == 1.0
        for layers in (1, 2, 3):
            cfg = RunConfig(lambda_s=1.5, lambda_f=1.0, num_layers=layers)
            self._check(cfg, rng, Xt)

    def test_zero_fair_weight(self, rng):
        Xt = rng.standard_normal((6, 2))
        for layers in (1, 2, 3):
            cfg = RunConfig(lambda_s=0.5, lambda_f=0.0, num_layers=layers)
            self._check(cfg, rng, Xt)

    def test_ml1_step(self, rng):
        g, delta = self._graph()
        Xt = rng.standard_normal((6, 2))
        for layers in (1, 2, 3):
            cfg = RunConfig(lambda_s=2.0, lambda_f=0.7, num_layers=layers)
            F = Xt
            for _ in range(layers):  # sign(p) stays put under the probe steps
                assert np.abs(delta.values @ row_softmax(F)).min() > 1e-3
                F = ml1_step(F, Xt, g, delta, cfg)
            self._check(cfg, rng, Xt, ml1=True)


class TestStackMatchesTwoRecordLayer:
    """The stack's gradients against the layer it replaced, two steps per layer."""

    @pytest.mark.parametrize("ml1", [False, True])
    def test_gradients_match(self, rng, ml1):
        for layers in (1, 2, 3):
            g = random_graph(rng, n_max=12)
            delta = random_incident(rng, g.n)
            cfg = RunConfig(lambda_s=1.5, lambda_f=0.3, num_layers=layers)
            Xt = rng.standard_normal((g.n, 2))
            # centred per node, the weighting reads the stack's output and the
            # reference's alike: the two differ by a per-node constant
            w = centred(rng.standard_normal(Xt.shape))

            F1, pullback1 = stack(Xt, g, delta, *stack_args(cfg), ml1)
            F2, pullback2 = reference_stack(Xt, g, delta, cfg, ml1)

            assert_close_rel(F1, centred(F2), rtol=1e-12, afloor=1e-15)
            assert_close_rel(pullback1(w), pullback2(w), rtol=1e-12, afloor=1e-15)


class TestContrastStack:
    """The stack propagates the one logit contrast of two classes; the C-row
    two-step layer is the reference. ``train`` refuses any other class count."""

    @pytest.mark.parametrize("ml1", [False, True])
    @pytest.mark.parametrize("lambda_f", [0.0, 0.5, 30.0])
    @pytest.mark.parametrize("classes", [2])
    def test_matches_class_rows(self, rng, classes, lambda_f, ml1):
        g = random_graph(rng, n_max=30)
        delta = random_incident(rng, g.n)
        cfg = RunConfig(lambda_s=1.5, lambda_f=lambda_f, num_layers=8)
        Xt = rng.standard_normal((g.n, classes))
        labels = rng.integers(0, classes, size=g.n)
        mask = rng.random(g.n) < 0.6
        mask[0] = True

        rows = ad.RowLabels.of(labels, mask)
        F1, pullback1 = stack(Xt, g, delta, *stack_args(cfg), ml1)
        grad1 = pullback1(ad.cross_entropy_with_logits(F1, rows)[1])
        F2, pullback2 = reference_stack(Xt, g, delta, cfg, ml1)
        grad2 = pullback2(ad.cross_entropy_with_logits(F2, rows)[1])

        assert_close_rel(row_softmax(F1), row_softmax(F2), rtol=1e-12, afloor=1e-15)
        assert_close_rel(grad1, grad2, rtol=1e-12, afloor=1e-15)
        row_sums = np.abs(F1.sum(axis=1))
        assert np.all(row_sums <= 1e-12 * np.abs(F1).sum(axis=1))


class TestBinarySweep:
    """The stack runs every layer in closed form on the one logit contrast;
    the C-row two-step layer (``conftest.reference_layer``) is the reference."""

    @staticmethod
    def _setup():
        # the groups' features are shifted apart, so the lambda_f = 0.5 dual
        # starts inside the ball and is clamped by layer 4
        rng = np.random.default_rng(2)
        g = build_graph(16, [(i, (i + 1) % 16) for i in range(16)] + [(0, 8), (3, 11), (5, 13)])
        s = np.where(rng.random(16) < 0.4, 1, -1)
        s[:2] = [1, -1]
        Xt = rng.standard_normal((16, 2)) + 0.3 * s[:, None] * [1.0, -1.0]
        return g, incident_vector(s), Xt, rng.standard_normal((16, 2))

    def test_clamped_dual_fixture(self):
        g, delta, Xt, _ = self._setup()
        A = g.dense_adjacency()
        F, u = Xt, np.zeros(2)
        radii = []
        for _ in range(4):
            F, u = oracle_layer(F, u, Xt, A, delta.values, 1.5, 0.5)
            radii.append(np.abs(u).max())
        assert radii[0] < 0.5 and radii[-1] == 0.5

    @pytest.mark.parametrize(
        "lambda_f, ml1",
        [(0.0, False), (0.0, True), (0.5, False), (30.0, False), (1e5, False), (30.0, True)],
    )
    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    def test_matches_contrast_sweep(self, layers, lambda_f, ml1):
        g, delta, Xt, w = self._setup()
        # centred per node, the weighting reads the stack's output and the
        # reference's alike: the two differ by a per-node constant
        w = centred(w)
        cfg = RunConfig(lambda_s=1.5, lambda_f=lambda_f, num_layers=layers)

        F, pullback = stack(Xt, g, delta, *stack_args(cfg), ml1)
        grad = pullback(w)
        F_ref, ref_pullback = reference_stack(Xt, g, delta, cfg, ml1)
        grad_ref = ref_pullback(w)

        F_ref = centred(F_ref)
        assert_close_rel(F, F_ref, rtol=1e-12, afloor=1e-12 * np.abs(F_ref).max())
        assert_close_rel(grad, grad_ref, rtol=1e-12, afloor=1e-12 * np.abs(grad_ref).max())

    @pytest.mark.parametrize("ml1", [False, True])
    def test_zero_layers_return_the_input(self, ml1):
        g, delta, Xt, w = self._setup()
        F, pullback = stack(Xt, g, delta, 0, *steps(1.5), 30.0, ml1)
        assert F is Xt and pullback(w) is w


class TestTapeSize:
    """One stage for the whole stack: a silent un-fusing fails here."""

    @staticmethod
    def _stages(fwd, layers, rng, monkeypatch):
        """The stages one forward pass of ``fwd`` runs, in order."""
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        delta = incident_vector([1, -1, 1, -1, 1])
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 0)
        X = rng.standard_normal((5, 3))
        cfg = RunConfig(lambda_s=1.0, lambda_f=2.0, num_layers=layers)
        calls, mlp_forward_, stack_ = [], train.mlp_forward, debias.stack
        monkeypatch.setattr(train, "mlp_forward", lambda *a, **k: calls.append("mlp") or mlp_forward_(*a, **k))
        monkeypatch.setattr(debias, "stack", lambda *a, **k: calls.append("stack") or stack_(*a, **k))
        fwd(mlp, X, g, delta, cfg)
        return calls

    @pytest.mark.parametrize("layers", [1, 4])
    def test_fair_records_one_for_the_stack(self, rng, layers, monkeypatch):
        assert self._stages(forward, layers, rng, monkeypatch) == ["mlp", "stack"]

    @pytest.mark.parametrize("layers", [1, 4])
    def test_ml1_records_one_for_the_stack(self, rng, layers, monkeypatch):
        assert self._stages(ml1_forward, layers, rng, monkeypatch) == ["mlp", "stack"]


class TestNanGuard:
    @pytest.mark.parametrize("fwd", [forward, ml1_forward, appnp_forward])
    def test_nan_input_raises(self, rng, fwd):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        delta = incident_vector([1, -1, 1, -1])
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 0)
        X = rng.standard_normal((4, 3))
        X[2, 1] = np.nan
        cfg = RunConfig(lambda_s=1.0, lambda_f=2.0, num_layers=2)
        with pytest.raises(FloatingPointError, match="NaN produced in propagation layer"):
            fwd(mlp, X, g, delta, cfg)

    @pytest.mark.parametrize("lambda_f", [0.0, 2.0])
    @pytest.mark.parametrize("fwd", [forward, ml1_forward, appnp_forward])
    def test_nan_at_middle_node_reaches_last_layer(self, rng, fwd, lambda_f):
        # the stack checks F_L only, so a NaN must survive all three layers
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        delta = incident_vector([1, -1, 1, -1, 1])
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 0)
        X = rng.standard_normal((5, 3))
        X[2, 0] = np.nan
        cfg = RunConfig(lambda_s=1.0, lambda_f=lambda_f, num_layers=3)
        with pytest.raises(FloatingPointError, match="NaN produced in propagation layer"):
            fwd(mlp, X, g, delta, cfg)


class TestForward:
    def _setup(self, rng, n=8, d=4, hidden=5, d_out=2):
        g = random_graph(rng, n_max=n)
        while g.n < 3:
            g = random_graph(rng, n_max=n)
        delta = random_incident(rng, g.n)
        mlp = init_weights(MlpConfig(in_dim=d, hidden=[hidden], out_dim=d_out), 0)
        X = rng.standard_normal((g.n, d))
        return g, delta, mlp, X

    def test_zero_layers_returns_transform(self, rng):
        g, delta, mlp, X = self._setup(rng)
        cfg = RunConfig(lambda_s=1.0, lambda_f=2.0, num_layers=0)
        out, _ = forward(mlp, X, g, delta, cfg)
        ref, _ = mlp_forward(mlp, X)
        np.testing.assert_array_equal(out, ref)

    def test_zero_fair_weight_equals_appnp_trajectory(self, rng):
        for _ in range(20):
            g, delta, mlp, X = self._setup(rng)
            cfg = RunConfig(lambda_s=1.5, lambda_f=0.0, num_layers=3)
            out, _ = forward(mlp, X, g, delta, cfg)
            xt, _ = mlp_forward(mlp, X)
            F = xt
            for _ in range(3):
                F = appnp_step(g, F, xt, steps(cfg.lambda_s)[0])
            np.testing.assert_allclose(centred(out), centred(F), rtol=0, atol=1e-12)

    def test_zero_fair_weight_gradients_equal_appnp(self, rng):
        # the reverse sweep adds the cotangents of X_trans in the order the
        # teleport-propagation pullback does, so the logits and weight gradients
        # of both debiasing schemes are bitwise equal to it
        for layers in (1, 2, 3):
            for _ in range(10):
                g, delta, mlp, X = self._setup(rng, n=20)
                labels = rng.integers(0, 2, size=g.n)
                mask = rng.random(g.n) < 0.5
                mask[0] = True
                cfg = RunConfig(lambda_s=1.5, lambda_f=0.0, num_layers=layers)
                outs = []
                for fwd in (appnp_forward, forward, ml1_forward):
                    logits, _, grad = loss_gradient(fwd, mlp, X, labels, mask, g, delta, cfg)
                    outs.append([logits, grad])
                for out in outs[1:]:
                    for a, b in zip(out, outs[0]):
                        assert np.array_equal(a, b)

    def test_end_to_end_gradient_matches_finite_differences(self, rng):
        g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 4)])
        delta = incident_vector([1, 1, 1, 1, -1, -1, -1, -1])
        mlp = init_weights(MlpConfig(in_dim=4, hidden=[5], out_dim=2), 1)
        X = rng.standard_normal((8, 4))
        labels = rng.integers(0, 2, size=8)
        mask = np.ones(8, dtype=bool)
        cfg = RunConfig(lambda_s=1.0, lambda_f=0.5, num_layers=2)

        _, _, grad = loss_gradient(forward, mlp, X, labels, mask, g, delta, cfg)

        def f(theta_value):
            probe = mlp.copy()
            probe.theta[:] = theta_value
            return loss_gradient(forward, probe, X, labels, mask, g, delta, cfg)[1]

        fd = finite_diff(f, mlp.theta)
        assert_close_rel(grad, fd, rtol=1e-4, afloor=1e-7)


class TestFairnessObjective:
    def test_hand_value(self):
        # logits whose row softmax is [[0.8, 0.2], [0.4, 0.6]]
        F = np.log(np.array([[0.8, 0.2], [0.4, 0.6]]))
        delta = incident_vector([1, -1])
        value, p = fairness_objective(F, delta, 1.0)
        np.testing.assert_allclose(p, [0.4, -0.4], atol=1e-12)
        assert value == pytest.approx(0.8, abs=1e-12)

    def test_identical_distributions_give_zero(self):
        F = np.array([[1.0, -1.0], [1.0, -1.0]])
        delta = incident_vector([1, -1])
        value, _ = fairness_objective(F, delta, 3.0)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_bounds(self, rng):
        for _ in range(20):
            n, d = int(rng.integers(2, 10)), int(rng.integers(2, 5))
            delta = random_incident(rng, n)
            value, p = fairness_objective(rng.standard_normal((n, d)) * 5, delta, 2.0)
            assert np.all(np.abs(p) <= 1.0 + 1e-12)
            assert value <= 2.0 * 2.0 + 1e-12


class TestMl1Step:
    def test_zero_fair_weight_is_appnp(self, rng):
        g = random_graph(rng, n_max=10)
        delta = random_incident(rng, g.n)
        cfg = RunConfig(lambda_s=1.0, lambda_f=0.0, num_layers=1)
        F = rng.standard_normal((g.n, 2))
        Xt = rng.standard_normal((g.n, 2))
        np.testing.assert_allclose(
            ml1_step(F, Xt, g, delta, cfg), appnp_step(g, F, Xt, steps(cfg.lambda_s)[0]), atol=1e-15
        )

    def test_symmetric_probabilities_pure_aggregation(self):
        # p = 0 exactly, so sign(0) = 0 and only aggregation remains
        g = build_graph(2, [(0, 1)])
        delta = incident_vector([1, -1])
        cfg = RunConfig(lambda_s=1.0, lambda_f=5.0, num_layers=1)
        F = np.array([[0.3, -0.3], [0.3, -0.3]])
        Xt = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            ml1_step(F, Xt, g, delta, cfg), appnp_step(g, F, Xt, steps(cfg.lambda_s)[0]), atol=1e-15
        )

    def test_matches_straight_line_oracle(self, rng):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        delta = incident_vector([1, -1, 1, -1])
        cfg = RunConfig(lambda_s=2.0, lambda_f=0.7, num_layers=1)
        F = rng.standard_normal((4, 2))
        Xt = rng.standard_normal((4, 2))

        A = g.dense_adjacency()
        gamma = 1.0 / (1.0 + 2.0)
        agg = np.zeros((4, 2))
        for i in range(4):
            for j in range(2):
                acc = sum(A[i, k] * F[k, j] for k in range(4))
                agg[i, j] = gamma * Xt[i, j] + (1.0 - gamma) * acc
        S = oracle_softmax(F)
        p = np.array(
            [sum(delta.values[i] * S[i, j] for i in range(4)) for j in range(2)]
        )
        u_eff = 0.7 * np.sign(p)
        expected = agg - gamma * oracle_fair_grad(F, u_eff, delta.values)
        np.testing.assert_allclose(ml1_step(F, Xt, g, delta, cfg), expected, atol=1e-12)


    def test_tape_forward_matches_numpy_step(self, rng):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        delta = incident_vector([1, -1, 1, -1, -1])
        cfg = RunConfig(lambda_s=1.0, lambda_f=0.6, num_layers=3)
        mlp = init_weights(MlpConfig(in_dim=4, hidden=[6], out_dim=2), 2)
        X = rng.standard_normal((5, 4))
        out, _ = ml1_forward(mlp, X, g, delta, cfg)
        xt = mlp_forward(mlp, X)[0]
        F = xt
        for _ in range(3):
            F = ml1_step(F, xt, g, delta, cfg)
        np.testing.assert_allclose(centred(out), centred(F), atol=1e-12)


class TestSingleStepDebiasEffect:
    def test_report_objective_reduction(self, rng, capsys):
        # empirical observation, not a guarantee: a debias pass starting from
        # u = 0 tends not to increase the group probability gap of the same
        # number of plain aggregation steps
        for layers in (1, 2, 3):
            improved = total = 0
            for trial in range(20):
                g = random_graph(rng, n_max=12)
                delta = random_incident(rng, g.n)
                cfg = RunConfig(lambda_s=4.0, lambda_f=0.05, num_layers=layers)
                Xt = rng.standard_normal((g.n, 2))
                F = run_stack(Xt, g, delta, cfg)
                agg = Xt
                for _ in range(layers):
                    agg = appnp_step(g, agg, Xt, steps(cfg.lambda_s)[0])
                before, p = fairness_objective(agg, delta, 1.0)
                after, _ = fairness_objective(F, delta, 1.0)
                if np.abs(p).max() == 0.0:
                    continue
                total += 1
                if after <= before + 1e-9:
                    improved += 1
            print(f"\n{layers}-layer debias reduced the gap in {improved}/{total} instances")
            assert total > 0
