import numpy as np
import pytest

from conftest import appnp_step, assert_close_rel, finite_diff, ml1_step, random_graph, weighted_sum
from fairprop import autodiff as ad
from fairprop import debias
from fairprop.debias import (
    DebiasParams,
    fairness_grad,
    fairness_objective,
    forward,
    layer_step,
    ml1_forward,
    prox_dual,
    row_softmax,
)
from fairprop.graph import build_graph, incident_vector
from fairprop.nn import MlpConfig, init_weights, mlp_forward


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


class TestLayerStep:
    def test_zero_fair_weight_is_appnp(self, rng):
        g = random_graph(rng, n_max=10)
        delta = random_incident(rng, g.n)
        hp = DebiasParams(lambda_smooth=2.0, lambda_fair=0.0, num_layers=1)
        Xt = rng.standard_normal((g.n, 3))
        F0 = rng.standard_normal((g.n, 3))
        tape = ad.Tape()
        F, u = layer_step(
            tape.leaf(F0),
            tape.leaf(np.zeros((1, 3))),
            tape.leaf(Xt),
            g,
            delta,
            hp,
        )
        assert np.array_equal(F.data, appnp_step(g, F0, Xt, hp.gamma))
        assert np.array_equal(u.data, np.zeros((1, 3)))

    def test_two_layer_trace_matches_oracle(self, rng):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        delta = incident_vector([1, 1, -1, -1])
        hp = DebiasParams(lambda_smooth=1.0, lambda_fair=0.4, num_layers=2)
        Xt = rng.standard_normal((4, 3))

        tape = ad.Tape()
        F = tape.leaf(Xt)
        u = tape.leaf(np.zeros((1, 3)))
        xt_t = tape.leaf(Xt)
        for _ in range(2):
            F, u = layer_step(F, u, xt_t, g, delta, hp)

        A = g.dense_adjacency()
        F_ref, u_ref = Xt.copy(), np.zeros(3)
        for _ in range(2):
            F_ref, u_ref = oracle_layer(
                F_ref, u_ref, Xt, A, delta.values, 1.0, 0.4
            )
        np.testing.assert_allclose(F.data, F_ref, atol=1e-12)
        np.testing.assert_allclose(u.data.ravel(), u_ref, atol=1e-12)

    def test_dual_bounded_every_layer(self, rng):
        g = random_graph(rng, n_max=12)
        delta = random_incident(rng, g.n)
        hp = DebiasParams(lambda_smooth=0.5, lambda_fair=0.3, num_layers=1)
        tape = ad.Tape()
        F = tape.leaf(rng.standard_normal((g.n, 3)))
        u = tape.leaf(np.zeros((1, 3)))
        xt = tape.leaf(rng.standard_normal((g.n, 3)))
        for _ in range(5):
            F, u = layer_step(F, u, xt, g, delta, hp)
            assert np.abs(u.data).max() <= hp.lambda_fair


class TestLayerGradients:
    """The hand-written VJPs of one layer against central finite differences."""

    @staticmethod
    def _check(step, rng, F0, u0, Xt):
        """Gradient of a fixed weighting of step's (F_next, u_next) in F, u and X_trans."""
        w_F = rng.standard_normal(F0.shape)
        w_u = rng.standard_normal(u0.shape)

        def scalar(tape, F, u, X):
            F_next, u_next = step(F, u, X)
            return ad.add(weighted_sum(F_next, w_F), weighted_sum(u_next, w_u))

        tape = ad.Tape()
        leaves = [tape.leaf(a, requires_grad=True) for a in (F0, u0, Xt)]
        grads = tape.backward(scalar(tape, *leaves))
        for k, leaf in enumerate(leaves):

            def f(v):
                t2 = ad.Tape()
                args = [t2.leaf(a) for a in (F0, u0, Xt)]
                args[k] = t2.leaf(v)
                return float(scalar(t2, *args).data[0, 0])

            grad = grads.get(leaf.node_id, np.zeros(leaf.shape))
            assert_close_rel(grad, finite_diff(f, leaf.data.copy()), rtol=1e-6, afloor=1e-9)

    @staticmethod
    def _graph():
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3)])
        return g, incident_vector([1, 1, -1, 1, -1, -1])

    def test_dual_partly_clamped(self, rng):
        g, delta = self._graph()
        hp = DebiasParams(lambda_smooth=1.5, lambda_fair=0.5, num_layers=1)
        F0, Xt = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        u0 = np.array([[0.1, 0.8, -0.9]])
        tape = ad.Tape()
        _, u = layer_step(tape.leaf(F0), tape.leaf(u0), tape.leaf(Xt), g, delta, hp)
        on_ball = np.abs(u.data) == hp.lambda_fair
        assert on_ball.any() and not on_ball.all()
        self._check(lambda F, u, X: layer_step(F, u, X, g, delta, hp), rng, F0, u0, Xt)

    def test_zero_fair_weight(self, rng):
        g, delta = self._graph()
        hp = DebiasParams(lambda_smooth=0.5, lambda_fair=0.0, num_layers=1)
        F0, Xt = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        u0 = np.array([[0.3, -0.2]])
        self._check(lambda F, u, X: layer_step(F, u, X, g, delta, hp), rng, F0, u0, Xt)

    def test_ml1_step(self, rng):
        g, delta = self._graph()
        hp = DebiasParams(lambda_smooth=2.0, lambda_fair=0.7, num_layers=1)
        F0, Xt = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        p = delta.values @ row_softmax(F0)
        assert np.abs(p).min() > 1e-3  # sign(p) stays put under the probe steps

        def step(F, u, X):
            # ml1_forward's layer: the primal step with dual lambda_fair * sign(p)
            S, agg = debias._aggregate(F, X, g, hp.gamma)
            u_eff = F.tape.leaf(hp.lambda_fair * np.sign(delta.values @ S).reshape(1, -1))
            dcol = delta.values[:, None]
            return debias._primal_step(F, u_eff, X, g, dcol, hp.gamma, S, agg), u

        self._check(step, rng, F0, np.zeros((1, 3)), Xt)


class TestTapeSize:
    """One fused primitive per layer: a silent un-fusing fails here."""

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
        assert self._extra_records(forward, layers, rng) <= 2 * layers

    @pytest.mark.parametrize("layers", [1, 4])
    def test_ml1_records_one_per_layer(self, rng, layers):
        assert self._extra_records(ml1_forward, layers, rng) <= layers


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
        # empirical observation, not a guarantee: one debias pass starting
        # from u = 0 tends not to increase the group probability gap
        improved = total = 0
        for trial in range(20):
            g = random_graph(rng, n_max=12)
            delta = random_incident(rng, g.n)
            hp = DebiasParams(lambda_smooth=4.0, lambda_fair=0.05, num_layers=1)
            Xt = rng.standard_normal((g.n, 3))
            tape = ad.Tape()
            F, u = layer_step(
                tape.leaf(Xt),
                tape.leaf(np.zeros((1, 3))),
                tape.leaf(Xt),
                g,
                delta,
                hp,
            )
            agg = appnp_step(g, Xt, Xt, hp.gamma)
            before, p = fairness_objective(agg, delta, 1.0)
            after, _ = fairness_objective(F.data, delta, 1.0)
            if np.abs(p).max() == 0.0:
                continue
            total += 1
            if after <= before + 1e-9:
                improved += 1
        print(f"\nsingle-step debias reduced the gap in {improved}/{total} instances")
        assert total > 0
