"""Graph representation, degree normalization, and smoothness utilities.

A graph is its node count and one CSR matrix: the self-loop-augmented,
normalized adjacency D^{-1/2} (A + I) D^{-1/2}, the operator every propagation
scheme in this package multiplies by. The edge list is read off the CSR's upper
triangle when asked for, so a graph holds its edges once.
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
    adjacency: sp.csr_matrix = field(repr=False)  # normalized, with self-loops; sorted indices

    @property
    def edges(self) -> Array:
        """A new read-only (m, 2) int64 array of rows (i, j) with i < j, sorted:
        the entries above the CSR's diagonal."""
        a = self.adjacency
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(a.indptr))
        upper = a.indices > rows
        edges = np.empty((self.num_edges, 2), dtype=np.int64)
        edges[:, 0] = rows[upper]
        edges[:, 1] = a.indices[upper]
        edges.setflags(write=False)
        return edges

    @property
    def num_edges(self) -> int:
        # each edge is stored twice and each node's self-loop once
        return (self.adjacency.nnz - self.n) // 2

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
    Each temporary is freed once used, the edge list before the CSR is
    built, and the COO indices are int32 when the node count fits, the index
    type scipy gives the CSR matrix anyway.
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
    del bad, edges
    keys = lo
    keys *= n
    keys += hi
    del lo, hi
    keys.sort()
    first = np.empty(keys.size, dtype=bool)  # each key once
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    del first
    lo, hi = np.divmod(keys, n)
    del keys

    # Entries of D^{-1/2} (A + I) D^{-1/2} with D the self-loop degree.
    degrees = np.bincount(lo, minlength=n)
    degrees += np.bincount(hi, minlength=n)
    inv_sqrt = 1.0 / np.sqrt(degrees + 1.0)
    del degrees
    w = inv_sqrt[lo] * inv_sqrt[hi]
    vals = np.concatenate([w, w, inv_sqrt * inv_sqrt])
    del w, inv_sqrt
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    diag = np.arange(n, dtype=index)
    rows = np.concatenate([lo, hi, diag], dtype=index)
    cols = np.concatenate([hi, lo, diag], dtype=index)
    del diag, lo, hi
    adjacency = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    del vals, rows, cols
    adjacency.sum_duplicates()  # also sorts each row's indices
    return SparseGraph(n=n, adjacency=adjacency)


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
    """Fraction of undirected edges whose endpoints share the label value.

    It counts the CSR entries whose row and column share a label, each edge
    twice and each self-loop once, on labels coded in the smallest integer
    type (a NaN label equals none), so no edge list is built.
    """
    labels = np.asarray(labels)
    if labels.shape[0] != g.n:
        raise ValueError("labels must cover all nodes")
    if not g.num_edges:
        return 0.0
    values, codes = np.unique(labels, return_inverse=True, equal_nan=False)
    codes = codes.astype(np.min_scalar_type(values.size - 1))
    a = g.adjacency
    equal = np.count_nonzero(codes[a.indices] == np.repeat(codes, np.diff(a.indptr)))
    return (equal - g.n) // 2 / g.num_edges
