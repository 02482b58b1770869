import numpy as np
import pytest

from conftest import appnp_step, random_graph
from fairprop import train
from fairprop.data import Dataset
from fairprop.graph import build_graph, incident_vector
from fairprop.propagation import ppnp_exact


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def gcn_step(g, X):
    """One aggregation step of the ``gcn`` scheme: the normalized adjacency times X."""
    return g.adjacency @ X


class TestGcnStep:
    def test_sgc_is_repeated_gcn(self, rng):
        g = random_graph(rng)
        X = rng.standard_normal((g.n, 2))
        s = np.where(np.arange(g.n) % 2 == 0, 1, -1)
        dataset = Dataset(graph=g, features=X, sensitive=s, labels=np.zeros(g.n, dtype=np.int64))
        cfg = train.RunConfig(scheme="sgc", prop_k=2, standardize=False)
        features, _ = train.prepare(cfg, dataset, None, incident_vector(s))
        np.testing.assert_allclose(features, gcn_step(g, gcn_step(g, X)))

    def test_one_step_denoising_identity(self, rng):
        # A_norm X = X - (I - A_norm) X
        g = random_graph(rng, n_max=15)
        X = rng.standard_normal((g.n, 3))
        L = np.eye(g.n) - g.dense_adjacency()
        np.testing.assert_allclose(gcn_step(g, X), X - L @ X, atol=1e-12)

    def test_preserves_ones_on_cycle(self):
        g = cycle(6)
        ones = np.ones((6, 1))
        np.testing.assert_allclose(gcn_step(g, ones), ones, atol=1e-12)


class TestAppnpStep:
    def test_alpha_one_is_skip(self, rng):
        g = random_graph(rng)
        X = rng.standard_normal((g.n, 2))
        F = rng.standard_normal((g.n, 2))
        np.testing.assert_array_equal(appnp_step(g, F, X, 1.0), X)

    def test_hand_expansion(self):
        g = build_graph(2, [(0, 1)])
        out = appnp_step(g, [[0.0], [1.0]], [[1.0], [0.0]], 0.5)
        np.testing.assert_allclose(out, [[0.75], [0.25]])

    def test_iteration_converges_to_exact(self, rng):
        g = random_graph(rng, n_max=20)
        X = rng.standard_normal((g.n, 2))
        F = X.copy()
        for _ in range(500):
            F = appnp_step(g, F, X, 0.2)
        np.testing.assert_allclose(F, ppnp_exact(g, X, 0.2), atol=1e-8)

    def test_affine_identity(self, rng):
        g = random_graph(rng)
        X = rng.standard_normal((g.n, 2))
        F1 = rng.standard_normal((g.n, 2))
        F2 = rng.standard_normal((g.n, 2))
        a, b, alpha = 0.3, -1.2, 0.1
        lhs = appnp_step(g, a * F1 + b * F2, X, alpha)
        rhs = (
            a * appnp_step(g, F1, X, alpha)
            + b * appnp_step(g, F2, X, alpha)
            + (1.0 - a - b) * alpha * X
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_shape_mismatch(self, rng):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            appnp_step(g, np.zeros((2, 1)), np.zeros((2, 2)), 0.5)


class TestPpnpExact:
    def test_alpha_one(self, rng):
        g = random_graph(rng)
        X = rng.standard_normal((g.n, 2))
        np.testing.assert_allclose(ppnp_exact(g, X, 1.0), X, atol=1e-12)

    def test_single_node(self):
        g = build_graph(1, [])
        np.testing.assert_allclose(ppnp_exact(g, [[3.0]], 0.3), [[3.0]], atol=1e-12)

    def test_cap_enforced(self, rng):
        g = random_graph(rng)
        with pytest.raises(ValueError):
            ppnp_exact(g, np.zeros((g.n, 1)), 0.1, cap=g.n - 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_one_error(self, rng, bad):
        g = random_graph(rng)
        X = rng.standard_normal((g.n, 2))
        X[g.n // 2, 1] = bad
        with pytest.raises(ValueError, match="^ppnp_exact: ") as exc:
            ppnp_exact(g, X, 0.1)
        assert "\n" not in str(exc.value)

    def test_row_stochastic_on_cycle(self):
        g = cycle(7)
        X = np.full((7, 2), 0.5)  # rows sum to 1
        out = ppnp_exact(g, X, 0.15)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-10)
