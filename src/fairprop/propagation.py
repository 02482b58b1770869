"""Exact teleport propagation (PPNP) by a dense solve.

This is the fixed point that the ``appnp`` iteration approaches. The
iterative baselines ``gcn`` and ``sgc`` are passes of the MLP
(``fairprop.nn.mlp_forward``) in ``fairprop.train``; ``appnp`` is
``fairprop.debias.stack`` at radius 0.
"""

from __future__ import annotations

import numpy as np

from .graph import SparseGraph

Array = np.ndarray

PPNP_DENSE_CAP = 500


def ppnp_exact(g: SparseGraph, X_trans: Array, alpha: float, cap: int = PPNP_DENSE_CAP) -> Array:
    """Exact teleport propagation alpha (I - (1-alpha) A_norm)^{-1} X_trans.

    Dense solve on numpy's LAPACK; only intended as a small-n oracle.
    """
    if g.n > cap:
        raise ValueError(f"ppnp_exact limited to n <= {cap}, got n={g.n}")
    X_trans = np.asarray(X_trans, dtype=np.float64)
    if X_trans.shape[0] != g.n:
        raise ValueError("row count mismatch")
    if not np.isfinite(X_trans).all():
        raise ValueError("ppnp_exact: X_trans holds a NaN or an inf")
    system = np.eye(g.n) - (1.0 - alpha) * g.dense_adjacency()
    return alpha * np.linalg.solve(system, X_trans)
