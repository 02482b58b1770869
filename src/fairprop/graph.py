"""Graph representation, degree normalization, and smoothness utilities.

The graph is stored as a CSR matrix over the self-loop-augmented,
symmetrically normalized adjacency D^{-1/2} (A + I) D^{-1/2}, which is the
operator every propagation scheme in this package multiplies by.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

Array = np.ndarray


@dataclass(frozen=True)
class SparseGraph:
    """Undirected graph with precomputed normalized adjacency.

    Immutable after construction; safe to share across concurrent runs.
    """

    n: int
    edges: tuple  # sorted tuple of (i, j) pairs with i < j, deduplicated
    adjacency: sp.csr_matrix = field(repr=False)  # normalized, with self-loops
    degrees: Array = field(repr=False)  # per-node degree, self-loop excluded

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def dense_adjacency(self) -> Array:
        """Dense copy of the normalized adjacency (small graphs only)."""
        return self.adjacency.toarray()


@dataclass(frozen=True)
class IncidentVector:
    """Signed, group-normalized sensitive-attribute vector.

    Entries are +1/|group+| for nodes with attribute +1 and -1/|group-|
    otherwise, so the entries sum to zero and the l1 norm is 2.
    """

    values: Array
    group_sizes: tuple  # (count of s=+1, count of s=-1)


def build_graph(n: int, edges) -> SparseGraph:
    """Build a SparseGraph from an undirected edge list.

    Duplicate edges and reversed orientations are deduplicated. Self-loops
    are rejected in the input; the normalization adds exactly one per node.
    """
    if n <= 0:
        raise ValueError("node count must be positive")
    unique = set()
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) references a node outside [0, {n})")
        if i == j:
            raise ValueError(f"self-loop ({i}, {j}) not allowed in input edges")
        unique.add((min(i, j), max(i, j)))
    edge_tuple = tuple(sorted(unique))

    degrees = np.zeros(n, dtype=np.int64)
    for i, j in edge_tuple:
        degrees[i] += 1
        degrees[j] += 1

    # Entries of D^{-1/2} (A + I) D^{-1/2} with D the self-loop degree.
    inv_sqrt = 1.0 / np.sqrt(degrees + 1.0)
    rows, cols, vals = [], [], []
    for i, j in edge_tuple:
        w = inv_sqrt[i] * inv_sqrt[j]
        rows += [i, j]
        cols += [j, i]
        vals += [w, w]
    rows += list(range(n))
    cols += list(range(n))
    vals += list(inv_sqrt * inv_sqrt)
    adjacency = sp.csr_matrix(
        (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
    )
    adjacency.sum_duplicates()
    return SparseGraph(n=n, edges=edge_tuple, adjacency=adjacency, degrees=degrees)


def incident_vector(s) -> IncidentVector:
    """Build the group-normalized incident vector from a ±1 attribute vector."""
    s = np.asarray(s)
    if not np.all(np.isin(s, (-1, 1))):
        raise ValueError("sensitive attribute entries must be -1 or +1")
    n_pos = int(np.sum(s == 1))
    n_neg = int(np.sum(s == -1))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both sensitive groups must be nonempty")
    values = np.where(s == 1, 1.0 / n_pos, -1.0 / n_neg)
    return IncidentVector(values=values, group_sizes=(n_pos, n_neg))


def smoothness_energy(g: SparseGraph, F: Array, method: str = "trace") -> float:
    """Quadratic smoothness energy tr(F^T (I - A_norm) F).

    ``method="edges"`` evaluates the equivalent edge-centric sum
    sum_{(i,j) in E} ||F_i/sqrt(d_i+1) - F_j/sqrt(d_j+1)||^2.
    """
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[0] != g.n:
        raise ValueError(f"expected ({g.n}, d) matrix, got {F.shape}")
    if method == "trace":
        return float(np.sum(F * F) - np.sum(F * (g.adjacency @ F)))
    if method == "edges":
        scaled = F / np.sqrt(g.degrees + 1.0)[:, None]
        total = 0.0
        for i, j in g.edges:
            diff = scaled[i] - scaled[j]
            total += float(diff @ diff)
        return total
    raise ValueError(f"unknown method {method!r}")


def edge_homophily(g: SparseGraph, labels) -> float:
    """Fraction of undirected edges whose endpoints share the label value."""
    labels = np.asarray(labels)
    if labels.shape[0] != g.n:
        raise ValueError("labels must cover all nodes")
    if g.num_edges == 0:
        return 0.0
    same = sum(1 for i, j in g.edges if labels[i] == labels[j])
    return same / g.num_edges
