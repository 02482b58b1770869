import numpy as np
import pytest

from conftest import (
    appnp_step,
    assert_close_rel,
    finite_diff,
    ml1_step,
    random_graph,
    reference_layer,
    weighted_sum,
)
from fairprop import autodiff as ad
from fairprop import train
from fairprop.debias import (
    DebiasParams,
    fairness_grad,
    fairness_objective,
    forward,
    ml1_forward,
    prox_dual,
    row_softmax,
    stack,
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
        hp = DebiasParams(lambda_smooth=1.0, lambda_fair=1.0, num_layers=2)
        assert hp.gamma == 0.5
        assert hp.beta == 1.0
        hp = DebiasParams(lambda_smooth=3.0)
        assert hp.gamma == 1.0 / 4.0
        assert hp.beta == 2.0
        assert 0.0 < hp.gamma <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DebiasParams(lambda_smooth=-1.0)
        with pytest.raises(ValueError):
            DebiasParams(lambda_fair=-0.1)


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


def steps(hp):
    """The layer count and step sizes ``stack`` takes, as ``forward`` passes them."""
    return hp.num_layers, hp.gamma, hp.beta, hp.lambda_fair


def run_stack(F0, u0, Xt, g, delta, hp):
    """The F_L array of ``stack`` on fresh leaves."""
    tape = ad.Tape()
    return stack(tape.leaf(F0), tape.leaf(u0), tape.leaf(Xt), g, delta, *steps(hp)).data


class TestLayerStep:
    def test_zero_fair_weight_is_appnp(self, rng):
        g = random_graph(rng, n_max=10)
        delta = random_incident(rng, g.n)
        Xt = rng.standard_normal((g.n, 3))
        F0 = rng.standard_normal((g.n, 3))
        for layers in (1, 2, 3):
            hp = DebiasParams(lambda_smooth=2.0, lambda_fair=0.0, num_layers=layers)
            F = run_stack(F0, np.zeros((1, 3)), Xt, g, delta, hp)
            ref = F0
            for _ in range(layers):
                ref = appnp_step(g, ref, Xt, hp.gamma)
            # bitwise: every dual is exactly zero, so no fairness term is added
            assert np.array_equal(F, ref)

    def test_two_layer_trace_matches_oracle(self, rng):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        delta = incident_vector([1, 1, -1, -1])
        Xt = rng.standard_normal((4, 3))
        A = g.dense_adjacency()
        F_ref, u_ref = Xt.copy(), np.zeros(3)
        for layers in (1, 2, 3):
            # layer k's output depends on its dual, so matching F at every
            # depth matches the dual trace too
            F_ref, u_ref = oracle_layer(F_ref, u_ref, Xt, A, delta.values, 1.0, 0.4)
            hp = DebiasParams(lambda_smooth=1.0, lambda_fair=0.4, num_layers=layers)
            F = run_stack(Xt, np.zeros((1, 3)), Xt, g, delta, hp)
            np.testing.assert_allclose(F, F_ref, atol=1e-12)

    def test_dual_bounded_every_layer(self, rng):
        g = random_graph(rng, n_max=12)
        delta = random_incident(rng, g.n)
        F0, Xt = rng.standard_normal((g.n, 3)), rng.standard_normal((g.n, 3))
        A = g.dense_adjacency()
        F_ref, u_ref = F0, np.zeros(3)
        for layers in range(1, 6):
            F_ref, u_ref = oracle_layer(F_ref, u_ref, Xt, A, delta.values, 0.5, 0.3)
            assert np.abs(u_ref).max() <= 0.3
            # the stack runs the same dual trace
            hp = DebiasParams(lambda_smooth=0.5, lambda_fair=0.3, num_layers=layers)
            F = run_stack(F0, np.zeros((1, 3)), Xt, g, delta, hp)
            np.testing.assert_allclose(F, F_ref, atol=1e-12)


class TestLayerGradients:
    """The hand-written reverse sweep of the stack against central finite differences."""

    @staticmethod
    def _check(hp, rng, F0, u0, Xt, ml1=False):
        """Gradient of a fixed weighting of the stack's output in F0, u0 and X_trans."""
        g, delta = TestLayerGradients._graph()
        w_F = rng.standard_normal(F0.shape)

        def scalar(F, u, X):
            return weighted_sum(stack(F, None if ml1 else u, X, g, delta, *steps(hp)), w_F)

        tape = ad.Tape()
        leaves = [tape.leaf(a, requires_grad=True) for a in (F0, u0, Xt)]
        grads = tape.backward(scalar(*leaves))
        for k, leaf in enumerate(leaves):

            def f(v):
                t2 = ad.Tape()
                args = [t2.leaf(a) for a in (F0, u0, Xt)]
                args[k] = t2.leaf(v)
                return float(scalar(*args).data[0, 0])

            grad = grads.get(leaf.node_id, np.zeros(leaf.shape))
            assert_close_rel(grad, finite_diff(f, leaf.data.copy()), rtol=1e-6, afloor=1e-9)

    @staticmethod
    def _graph():
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3)])
        return g, incident_vector([1, 1, -1, 1, -1, -1])

    def test_dual_partly_clamped(self, rng):
        g, delta = self._graph()
        F0, Xt = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        u0 = np.array([[0.1, 0.8, -0.9]])
        _, u1 = oracle_layer(F0, u0[0], Xt, g.dense_adjacency(), delta.values, 1.5, 0.5)
        on_ball = np.abs(u1) == 0.5
        assert on_ball.any() and not on_ball.all()
        for layers in (1, 2, 3):
            hp = DebiasParams(lambda_smooth=1.5, lambda_fair=0.5, num_layers=layers)
            self._check(hp, rng, F0, u0, Xt)

    def test_zero_fair_weight(self, rng):
        F0, Xt = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        u0 = np.array([[0.3, -0.2]])
        for layers in (1, 2, 3):
            hp = DebiasParams(lambda_smooth=0.5, lambda_fair=0.0, num_layers=layers)
            self._check(hp, rng, F0, u0, Xt)

    def test_ml1_step(self, rng):
        g, delta = self._graph()
        F0, Xt = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        for layers in (1, 2, 3):
            hp = DebiasParams(lambda_smooth=2.0, lambda_fair=0.7, num_layers=layers)
            F = F0
            for _ in range(layers):  # sign(p) stays put under the probe steps
                assert np.abs(delta.values @ row_softmax(F)).min() > 1e-3
                F = ml1_step(F, Xt, g, delta, hp)
            self._check(hp, rng, F0, np.zeros((1, 3)), Xt, ml1=True)


class TestStackMatchesTwoRecordLayer:
    """The stack's gradients against the layer it replaced, two records per layer."""

    @pytest.mark.parametrize("ml1", [False, True])
    def test_gradients_match(self, rng, ml1):
        for layers in (1, 2, 3):
            g = random_graph(rng, n_max=12)
            delta = random_incident(rng, g.n)
            hp = DebiasParams(lambda_smooth=1.5, lambda_fair=0.3, num_layers=layers)
            F0, Xt = rng.standard_normal((g.n, 3)), rng.standard_normal((g.n, 3))
            u0 = np.array([[0.05, 0.4, -0.2]])
            w = rng.standard_normal(F0.shape)

            t1 = ad.Tape()
            leaves1 = [t1.leaf(a, requires_grad=True) for a in (F0, u0, Xt)]
            F1 = stack(leaves1[0], None if ml1 else leaves1[1], leaves1[2], g, delta, *steps(hp))
            grads1 = t1.backward(weighted_sum(F1, w))

            t2 = ad.Tape()
            leaves2 = [t2.leaf(a, requires_grad=True) for a in (F0, u0, Xt)]
            F2, u2 = leaves2[0], leaves2[1]
            for _ in range(layers):
                F2, u2 = reference_layer(F2, u2, leaves2[2], g, delta, hp, ml1=ml1)
            grads2 = t2.backward(weighted_sum(F2, w))

            assert_close_rel(F1.data, F2.data, rtol=1e-12, afloor=1e-15)
            for a, b in zip(leaves1, leaves2):
                ref = grads2.get(b.node_id, np.zeros(b.shape))
                assert_close_rel(grads1.get(a.node_id, np.zeros(a.shape)), ref, rtol=1e-12, afloor=1e-15)


class TestTapeSize:
    """One record for the whole stack: a silent un-fusing fails here."""

    @staticmethod
    def _extra_records(fwd, layers, rng):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        delta = incident_vector([1, -1, 1, -1, 1])
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 0)
        X = rng.standard_normal((5, 3))
        hp = DebiasParams(lambda_smooth=1.0, lambda_fair=2.0, num_layers=layers)
        tape, mlp_tape = ad.Tape(), ad.Tape()
        fwd(mlp, tape, tape.leaf(X), g, delta, hp)
        mlp_forward(mlp, mlp_tape, mlp_tape.leaf(X))
        return len(tape._records) - len(mlp_tape._records)

    @pytest.mark.parametrize("layers", [1, 4])
    def test_fair_records_two_per_layer(self, rng, layers):
        assert self._extra_records(forward, layers, rng) == 1

    @pytest.mark.parametrize("layers", [1, 4])
    def test_ml1_records_one_per_layer(self, rng, layers):
        assert self._extra_records(ml1_forward, layers, rng) == 1


class TestNanGuard:
    @pytest.mark.parametrize("fwd", [forward, ml1_forward])
    def test_nan_input_raises(self, rng, fwd):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        delta = incident_vector([1, -1, 1, -1])
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 0)
        X = rng.standard_normal((4, 3))
        X[2, 1] = np.nan
        hp = DebiasParams(lambda_smooth=1.0, lambda_fair=2.0, num_layers=2)
        tape = ad.Tape()
        with pytest.raises(FloatingPointError, match="NaN produced in debiasing layer"):
            fwd(mlp, tape, tape.leaf(X), g, delta, hp)

    @pytest.mark.parametrize("lambda_f", [0.0, 2.0])
    @pytest.mark.parametrize("fwd", [forward, ml1_forward])
    def test_nan_at_middle_node_reaches_last_layer(self, rng, fwd, lambda_f):
        # the stack checks F_L only, so a NaN must survive all three layers
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        delta = incident_vector([1, -1, 1, -1, 1])
        mlp = init_weights(MlpConfig(in_dim=3, hidden=[4], out_dim=2), 0)
        X = rng.standard_normal((5, 3))
        X[2, 0] = np.nan
        hp = DebiasParams(lambda_smooth=1.0, lambda_fair=lambda_f, num_layers=3)
        tape = ad.Tape()
        with pytest.raises(FloatingPointError, match="NaN produced in debiasing layer"):
            fwd(mlp, tape, tape.leaf(X), g, delta, hp)


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
        hp = DebiasParams(lambda_smooth=1.0, lambda_fair=2.0, num_layers=0)
        tape = ad.Tape()
        x = tape.leaf(X)
        out, _ = forward(mlp, tape, x, g, delta, hp)
        t2 = ad.Tape()
        ref, _ = mlp_forward(mlp, t2, t2.leaf(X))
        np.testing.assert_array_equal(out.data, ref.data)

    def test_zero_fair_weight_equals_appnp_trajectory(self, rng):
        for _ in range(20):
            g, delta, mlp, X = self._setup(rng)
            hp = DebiasParams(lambda_smooth=1.5, lambda_fair=0.0, num_layers=3)
            tape = ad.Tape()
            out, _ = forward(mlp, tape, tape.leaf(X), g, delta, hp)
            t2 = ad.Tape()
            xt, _ = mlp_forward(mlp, t2, t2.leaf(X))
            F = xt.data
            for _ in range(3):
                F = appnp_step(g, F, xt.data, hp.gamma)
            assert np.array_equal(out.data, F)

    def test_zero_fair_weight_gradients_equal_appnp(self, rng):
        # the reverse sweep adds the cotangents of X_trans in the order the
        # teleport-propagation tape does, so the logits and weight gradients
        # of both debiasing schemes are bitwise equal to it
        for layers in (1, 2, 3):
            for _ in range(10):
                g, delta, mlp, X = self._setup(rng, n=20, d_out=3)
                labels = rng.integers(0, 3, size=g.n)
                mask = rng.random(g.n) < 0.5
                mask[0] = True
                hp = DebiasParams(lambda_smooth=1.5, lambda_fair=0.0, num_layers=layers)
                cfg = RunConfig(scheme="appnp", alpha=hp.gamma, prop_k=layers)
                outs = []
                for fwd in (
                    lambda tape, x: train._appnp(cfg, mlp, tape, x, g, delta, None),
                    lambda tape, x: forward(mlp, tape, x, g, delta, hp),
                    lambda tape, x: ml1_forward(mlp, tape, x, g, delta, hp),
                ):
                    tape = ad.Tape()
                    logits, params = fwd(tape, tape.leaf(X))
                    grad_map = tape.backward(ad.cross_entropy_with_logits(logits, labels, mask))
                    outs.append([logits.data] + [grad_map[p.node_id] for p in params])
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
        hp = DebiasParams(lambda_smooth=1.0, lambda_fair=0.5, num_layers=2)

        tape = ad.Tape()
        logits, param_tensors = forward(mlp, tape, tape.leaf(X), g, delta, hp)
        grads = tape.backward(ad.cross_entropy_with_logits(logits, labels, mask))

        params = mlp.parameters()
        for pi, pt in enumerate(param_tensors):

            def f(pv):
                probe = mlp.copy()
                new = [p.copy() for p in params]
                new[pi] = pv.reshape(params[pi].shape)
                probe.set_parameters(new)
                t2 = ad.Tape()
                lg, _ = forward(probe, t2, t2.leaf(X), g, delta, hp)
                return float(ad.cross_entropy_with_logits(lg, labels, mask).data[0, 0])

            fd = finite_diff(f, params[pi] * 1.0)
            assert_close_rel(grads[pt.node_id], fd, rtol=1e-4, afloor=1e-7)


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
        hp = DebiasParams(lambda_smooth=1.0, lambda_fair=0.0, num_layers=1)
        F = rng.standard_normal((g.n, 2))
        Xt = rng.standard_normal((g.n, 2))
        np.testing.assert_allclose(
            ml1_step(F, Xt, g, delta, hp), appnp_step(g, F, Xt, hp.gamma), atol=1e-15
        )

    def test_symmetric_probabilities_pure_aggregation(self):
        # p = 0 exactly, so sign(0) = 0 and only aggregation remains
        g = build_graph(2, [(0, 1)])
        delta = incident_vector([1, -1])
        hp = DebiasParams(lambda_smooth=1.0, lambda_fair=5.0, num_layers=1)
        F = np.array([[0.3, -0.3], [0.3, -0.3]])
        Xt = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            ml1_step(F, Xt, g, delta, hp), appnp_step(g, F, Xt, hp.gamma), atol=1e-15
        )

    def test_matches_straight_line_oracle(self, rng):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        delta = incident_vector([1, -1, 1, -1])
        hp = DebiasParams(lambda_smooth=2.0, lambda_fair=0.7, num_layers=1)
        F = rng.standard_normal((4, 3))
        Xt = rng.standard_normal((4, 3))

        A = g.dense_adjacency()
        gamma = 1.0 / (1.0 + 2.0)
        agg = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                acc = sum(A[i, k] * F[k, j] for k in range(4))
                agg[i, j] = gamma * Xt[i, j] + (1.0 - gamma) * acc
        S = oracle_softmax(F)
        p = np.array(
            [sum(delta.values[i] * S[i, j] for i in range(4)) for j in range(3)]
        )
        u_eff = 0.7 * np.sign(p)
        expected = agg - gamma * oracle_fair_grad(F, u_eff, delta.values)
        np.testing.assert_allclose(ml1_step(F, Xt, g, delta, hp), expected, atol=1e-12)


    def test_tape_forward_matches_numpy_step(self, rng):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        delta = incident_vector([1, -1, 1, -1, -1])
        hp = DebiasParams(lambda_smooth=1.0, lambda_fair=0.6, num_layers=3)
        mlp = init_weights(MlpConfig(in_dim=4, hidden=[6], out_dim=3), 2)
        X = rng.standard_normal((5, 4))
        tape = ad.Tape()
        out, _ = ml1_forward(mlp, tape, tape.leaf(X), g, delta, hp)
        t2 = ad.Tape()
        xt = mlp_forward(mlp, t2, t2.leaf(X))[0].data
        F = xt
        for _ in range(3):
            F = ml1_step(F, xt, g, delta, hp)
        np.testing.assert_allclose(out.data, F, atol=1e-12)


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
                hp = DebiasParams(lambda_smooth=4.0, lambda_fair=0.05, num_layers=layers)
                Xt = rng.standard_normal((g.n, 3))
                F = run_stack(Xt, np.zeros((1, 3)), Xt, g, delta, hp)
                agg = Xt
                for _ in range(layers):
                    agg = appnp_step(g, agg, Xt, hp.gamma)
                before, p = fairness_objective(agg, delta, 1.0)
                after, _ = fairness_objective(F, delta, 1.0)
                if np.abs(p).max() == 0.0:
                    continue
                total += 1
                if after <= before + 1e-9:
                    improved += 1
            print(f"\n{layers}-layer debias reduced the gap in {improved}/{total} instances")
            assert total > 0
