"""Exact teleport propagation (PPNP) by a dense solve.

This is the fixed point that the ``appnp`` iteration approaches. The
iterative baselines (``gcn``, ``sgc``, ``appnp``) are tape passes in
``fairprop.train``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .graph import SparseGraph

Array = np.ndarray

PPNP_DENSE_CAP = 500


def ppnp_exact(g: SparseGraph, X_trans: Array, alpha: float, cap: int = PPNP_DENSE_CAP) -> Array:
    """Exact teleport propagation alpha (I - (1-alpha) A_norm)^{-1} X_trans.

    Dense solve; only intended as a small-n oracle.
    """
    if g.n > cap:
        raise ValueError(f"ppnp_exact limited to n <= {cap}, got n={g.n}")
    X_trans = np.asarray(X_trans, dtype=np.float64)
    if X_trans.shape[0] != g.n:
        raise ValueError("row count mismatch")
    system = np.eye(g.n) - (1.0 - alpha) * g.dense_adjacency()
    return alpha * scipy.linalg.solve(system, X_trans)
