"""Graph representation, degree normalization, and smoothness utilities.

A graph keeps its edges as one sorted, deduplicated (m, 2) int64 array and a
CSR matrix of the self-loop-augmented, normalized adjacency D^{-1/2} (A + I)
D^{-1/2}, the operator every propagation scheme in this package multiplies by.
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
    edges: Array  # (m, 2) int64 rows (i, j) with i < j, sorted, deduplicated, read-only
    adjacency: sp.csr_matrix = field(repr=False)  # normalized, with self-loops

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
    """Build a SparseGraph from an undirected edge list of shape (m, 2).

    Duplicate edges and reversed orientations are deduplicated. Self-loops
    are rejected in the input; the normalization adds exactly one per node.
    """
    if n <= 0:
        raise ValueError("node count must be positive")
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
        raise ValueError(f"expected an (m, 2) edge list, got shape {edges.shape}")
    edges = edges.reshape(-1, 2)
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    bad = (lo < 0) | (hi >= n) | (lo == hi)
    if bad.any():
        i, j = edges[np.argmax(bad)]
        if i != j or not 0 <= i < n:
            raise ValueError(f"edge ({i}, {j}) references a node outside [0, {n})")
        raise ValueError(f"self-loop ({i}, {j}) not allowed in input edges")
    keys = np.sort(lo * n + hi)
    lo, hi = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)  # sorted, each key once
    edges = np.column_stack([lo, hi])
    edges.setflags(write=False)

    # Entries of D^{-1/2} (A + I) D^{-1/2} with D the self-loop degree.
    inv_sqrt = 1.0 / np.sqrt(np.bincount(edges.ravel(), minlength=n) + 1.0)
    w = inv_sqrt[lo] * inv_sqrt[hi]
    diag = np.arange(n)
    rows, cols = np.concatenate([lo, hi, diag]), np.concatenate([hi, lo, diag])
    vals = np.concatenate([w, w, inv_sqrt * inv_sqrt])
    adjacency = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    adjacency.sum_duplicates()
    return SparseGraph(n=n, edges=edges, adjacency=adjacency)


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


def smoothness_energy(g: SparseGraph, F: Array) -> float:
    """Quadratic smoothness energy tr(F^T (I - A_norm) F)."""
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[0] != g.n:
        raise ValueError(f"expected ({g.n}, d) matrix, got {F.shape}")
    return float(np.sum(F * F) - np.sum(F * (g.adjacency @ F)))


def edge_homophily(g: SparseGraph, labels) -> float:
    """Fraction of undirected edges whose endpoints share the label value."""
    labels = np.asarray(labels)
    if labels.shape[0] != g.n:
        raise ValueError("labels must cover all nodes")
    same = int(np.count_nonzero(labels[g.edges[:, 0]] == labels[g.edges[:, 1]]))
    return same / g.num_edges if g.num_edges else 0.0
