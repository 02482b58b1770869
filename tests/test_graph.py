import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import dense_normalized_adjacency, edge_energy, random_graph
from fairprop.graph import (
    build_graph,
    edge_homophily,
    incident_vector,
    smoothness_energy,
)


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        np.testing.assert_allclose(g.dense_adjacency(), [[0.5, 0.5], [0.5, 0.5]])

    def test_isolated_node(self):
        g = build_graph(1, [])
        np.testing.assert_allclose(g.dense_adjacency(), [[1.0]])

    def test_path_graph_entry(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        dense = g.dense_adjacency()
        oracle = dense_normalized_adjacency(3, [(0, 1), (1, 2)])
        np.testing.assert_allclose(dense, oracle, atol=1e-15)
        assert dense[0, 1] == pytest.approx(1.0 / np.sqrt(6.0))

    def test_deduplicates_both_orientations(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edges.tolist() == [[0, 1]]
        assert np.bincount(g.edges.ravel(), minlength=g.n).tolist() == [1, 1, 0]

    def test_array_input_with_repeats_and_reversals(self):
        edges = np.array([[3, 1], [0, 2], [1, 3], [2, 0], [1, 3], [0, 1]])
        g = build_graph(4, edges)
        assert g.edges.dtype == np.int64 and g.edges.shape == (3, 2)
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3]]
        np.testing.assert_array_equal(
            g.dense_adjacency(), build_graph(4, [(0, 1), (0, 2), (1, 3)]).dense_adjacency()
        )
        assert not g.edges.flags.writeable

    def test_errors(self):
        with pytest.raises(ValueError, match="node count must be positive"):
            build_graph(0, [])
        with pytest.raises(ValueError, match=r"edge \(0, 2\) references a node outside \[0, 2\)"):
            build_graph(2, [(0, 1), (0, 2)])
        with pytest.raises(ValueError, match=r"edge \(-1, 0\) references a node outside"):
            build_graph(2, [(-1, 0)])
        with pytest.raises(ValueError, match=r"self-loop \(1, 1\) not allowed"):
            build_graph(2, [(0, 1), (1, 1), (0, 5)])
        with pytest.raises(ValueError, match=r"edge \(0, 5\) references"):
            build_graph(2, [(0, 1), (0, 5), (1, 1)])
        with pytest.raises(ValueError, match=r"\(m, 2\) edge list"):
            build_graph(3, [(0, 1, 2)])

    @pytest.mark.parametrize(
        "edges, dtype",
        [
            ([[0, 1.7], [1, 2]], "float64"),
            (np.array([[0.0, 1.9]]), "float64"),
            ([[True, False]], "bool"),
            ([["0", "1"]], "<U1"),
        ],
    )
    def test_non_integer_edges_are_refused(self, edges, dtype):
        # a cast would truncate each to an edge (0, 1)
        with pytest.raises(ValueError) as info:
            build_graph(3, edges)
        assert str(info.value) == f"edge list must hold integer node indices, got {dtype}"

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.int64])
    def test_integer_dtypes_build_the_same_graph(self, dtype):
        def csr(g):
            return [a.tobytes() for a in (g.adjacency.indptr, g.adjacency.indices, g.adjacency.data)]

        g = build_graph(4, np.array([[0, 1], [2, 1], [3, 0]], dtype=dtype))
        assert csr(g) == csr(build_graph(4, [(0, 1), (2, 1), (3, 0)]))

    def test_empty_edge_lists_build_an_edgeless_graph(self):
        # [] and an empty float array hold no node index to truncate
        for edges in ([], np.empty((0, 2))):
            g = build_graph(3, edges)
            assert g.num_edges == 0
            np.testing.assert_array_equal(g.dense_adjacency(), np.eye(3))

    def test_random_graphs_match_dense_oracle(self, rng):
        for _ in range(30):
            g = random_graph(rng)
            dense = g.dense_adjacency()
            oracle = dense_normalized_adjacency(g.n, g.edges)
            np.testing.assert_allclose(dense, oracle, atol=1e-12)
            np.testing.assert_allclose(dense, dense.T, atol=0)
            # rows of A + I sum to d_i + 1 before normalization
            A_hat = np.zeros((g.n, g.n))
            for i, j in g.edges:
                A_hat[i, j] = A_hat[j, i] = 1.0
            A_hat += np.eye(g.n)
            degrees = np.bincount(g.edges.ravel(), minlength=g.n)
            np.testing.assert_allclose(A_hat.sum(axis=1), degrees + 1.0)


def reference_build(n, edges):
    """The normalized adjacency built without regard to memory: int64 COO
    through scipy, every temporary kept. Returns (edges, CSR matrix)."""
    edges = np.asarray(edges, dtype=np.int64)
    keys = np.unique(edges.min(axis=1) * n + edges.max(axis=1))
    lo, hi = np.divmod(keys, n)
    inv_sqrt = 1.0 / np.sqrt(np.bincount(np.concatenate([lo, hi]), minlength=n) + 1.0)
    w = inv_sqrt[lo] * inv_sqrt[hi]
    diag = np.arange(n)
    adjacency = sp.csr_matrix(
        (
            np.concatenate([w, w, inv_sqrt * inv_sqrt]),
            (np.concatenate([lo, hi, diag]), np.concatenate([hi, lo, diag])),
        ),
        shape=(n, n),
    )
    adjacency.sum_duplicates()
    return np.column_stack([lo, hi]), adjacency


class TestBuildGraphMemory:
    def test_traced_peak_and_csr_bytes_of_a_100k_edge_build(self):
        # Each temporary is freed once used and the COO indices are int32:
        # the build peaks near 1.8 times the bytes of the arrays it returns,
        # where one that keeps its int64 temporaries peaks near 3.5 times.
        rng = np.random.default_rng(0)
        n, m = 20_000, 100_000
        a = rng.integers(n, size=m)
        edges = np.stack([a, (a + rng.integers(1, n, size=m)) % n], axis=1)
        tracemalloc.start()
        try:
            g = build_graph(n, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        built = (g.edges, g.adjacency.indptr, g.adjacency.indices, g.adjacency.data)
        returned = sum(array.nbytes for array in built)
        assert peak < 2.25 * returned, (
            f"build_graph peaked at {peak / returned:.2f} times the {returned / 2**20:.1f} MiB it returns"
        )
        ref_edges, ref = reference_build(n, edges)
        for array, expected in zip(built, (ref_edges, ref.indptr, ref.indices, ref.data)):
            assert array.dtype == expected.dtype
            assert array.tobytes() == expected.tobytes()

    def test_keeps_the_csr_alone(self):
        # A graph is its CSR: the (m, 2) edge list build_graph deduplicates
        # is freed before the CSR is built and read off the CSR when asked
        # for. Measured: 6.5 MiB kept, the CSR's bytes; 10.3 MiB when the
        # graph also held its (m, 2) edge array.
        rng = np.random.default_rng(0)
        n, m = 50_000, 250_000
        a = rng.integers(n, size=m)
        edges = np.stack([a, (a + rng.integers(1, n, size=m)) % n], axis=1)
        tracemalloc.start()
        try:
            g = build_graph(n, edges)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        csr = sum(array.nbytes for array in (g.adjacency.indptr, g.adjacency.indices, g.adjacency.data))
        assert kept <= csr + 2**20, f"build_graph kept {kept / 2**20:.1f} MiB for a {csr / 2**20:.1f} MiB CSR"


def oracle_edges(pairs):
    """The sorted (i < j) pairs of an undirected edge list, each once, one pair at a time."""
    return sorted({(min(i, j), max(i, j)) for i, j in pairs})


class TestDerivedEdges:
    """``edges``, ``num_edges`` and ``edge_homophily`` read off the CSR."""

    def test_match_the_deduplicated_input(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 40))
            # a few nodes take part in no edge
            active = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            pairs = []
            if active.size > 1:
                pairs = [tuple(rng.choice(active, size=2, replace=False).tolist()) for _ in range(3 * n)]
                pairs += pairs[: n // 2]  # repeated
                pairs += [(j, i) for i, j in pairs[: n]]  # reversed
                rng.shuffle(pairs)
            g = build_graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
            expected = oracle_edges(pairs)
            assert g.edges.dtype == np.int64 and g.edges.shape == (len(expected), 2)
            assert g.edges.tolist() == [list(e) for e in expected]
            assert not g.edges.flags.writeable
            assert g.num_edges == len(expected)
            labels = rng.integers(0, int(rng.integers(1, 4)), size=n)
            same = sum(labels[i] == labels[j] for i, j in expected)
            assert edge_homophily(g, labels) == (same / len(expected) if expected else 0.0)

    def test_homophily_compares_label_values(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert edge_homophily(g, [-1, -1, 7, 300]) == 0.25
        assert edge_homophily(g, np.array([0.5, 0.5, np.nan, np.nan])) == 0.25
        assert edge_homophily(g, ["a", "a", "b", "b"]) == 0.5


class TestIncidentVector:
    def test_singleton_groups(self):
        np.testing.assert_allclose(incident_vector([1, -1]).values, [1.0, -1.0])

    def test_group_normalization(self):
        iv = incident_vector([1, 1, -1])
        np.testing.assert_allclose(iv.values, [0.5, 0.5, -1.0])
        assert iv.group_sizes == (2, 1)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            incident_vector([1, 1, 1])

    def test_invariants_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            s = rng.choice([-1, 1], size=n)
            if np.all(s == s[0]):
                s[0] = -s[0]
            v = incident_vector(s).values
            assert abs(v.sum()) <= 1e-12
            assert abs(np.abs(v).sum() - 2.0) <= 1e-12


class TestSpmm:
    """The normalized adjacency product every propagation scheme multiplies by."""

    def test_averaging(self):
        g = build_graph(2, [(0, 1)])
        np.testing.assert_allclose(g.adjacency @ np.array([[1.0], [0.0]]), [[0.5], [0.5]])

    def test_zeros(self, rng):
        g = random_graph(rng)
        np.testing.assert_allclose(g.adjacency @ np.zeros((g.n, 3)), 0.0)

    def test_path_graph(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        out = g.adjacency @ np.array([[1.0], [0.0], [0.0]])
        np.testing.assert_allclose(out, [[0.5], [1.0 / np.sqrt(6.0)], [0.0]])

    def test_matches_dense_oracle(self, rng):
        for _ in range(20):
            g = random_graph(rng)
            X = rng.standard_normal((g.n, int(rng.integers(1, 5))))
            np.testing.assert_allclose(
                g.adjacency @ X, g.dense_adjacency() @ X, atol=1e-12
            )


class TestSmoothnessEnergy:
    def test_constant_signal_regular_graph(self):
        g = build_graph(2, [(0, 1)])
        assert smoothness_energy(g, [[1.0], [1.0]]) == pytest.approx(0.0, abs=1e-15)

    def test_two_node_value(self):
        g = build_graph(2, [(0, 1)])
        assert smoothness_energy(g, [[1.0], [0.0]]) == pytest.approx(0.5)

    def test_zero_signal(self, rng):
        g = random_graph(rng)
        assert smoothness_energy(g, np.zeros((g.n, 2))) == 0.0

    def test_trace_matches_dense_oracle(self, rng):
        for _ in range(200):
            g = random_graph(rng, n_max=15)
            F = rng.standard_normal((g.n, int(rng.integers(1, 4))))
            L = np.eye(g.n) - g.dense_adjacency()
            expected = float(np.trace(F.T @ L @ F))
            got = smoothness_energy(g, F)
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_edge_form_agrees_on_cycles(self, rng):
        for n in (3, 5, 8, 12):
            g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
            F = rng.standard_normal((n, 3))
            a = smoothness_energy(g, F)
            b = edge_energy(g, F)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_edge_form_agrees_in_general(self, rng):
        # the diagonal coefficient d_i/(d_i+1) matches in both forms, so the
        # two code paths agree on arbitrary degree sequences as well
        for _ in range(50):
            g = random_graph(rng, n_max=12)
            F = rng.standard_normal((g.n, 2))
            a = smoothness_energy(g, F)
            b = edge_energy(g, F)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


class TestEdgeHomophily:
    def test_examples(self):
        assert edge_homophily(build_graph(2, [(0, 1)]), [1, 1]) == 1.0
        assert edge_homophily(build_graph(2, [(0, 1)]), [1, 0]) == 0.0
        assert edge_homophily(build_graph(3, [(0, 1), (1, 2)]), [1, 1, 0]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            edge_homophily(build_graph(2, [(0, 1)]), [1])

    def test_no_edges(self):
        assert edge_homophily(build_graph(3, []), [0, 1, 0]) == 0.0
