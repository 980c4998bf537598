"""Hot numerical kernels of the dynamic-programming solve, in numpy and scipy.

A sweep is one sparse matrix-vector product over every (node, control)
pair; the warm-start rollouts advance all nodes at once.  There are no
compiled or parallel kernels, so results do not depend on the thread count.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

# There is no compiled backend; perfbench records this flag with every run.
HAVE_NUMBA = False


def sweep(v, idx, wts, g, one_minus_lh, h):
    """One Jacobi sweep of the discrete dynamic-programming operator.

    The stencils form a CSR matrix with one row per (node, control) pair,
    node-major (row ``i*nu + l``), whose ``indices`` and ``data`` are views
    of ``idx`` and ``wts``.  Each row sums its stencil in vertex order.

    Returns the updated nodal values and the per-node argmin control index
    (ties resolve to the lowest index, hence the smallest control value
    when the control list is sorted ascending).
    """
    nc, nu, s = idx.shape
    indptr = np.arange(0, nc * nu * s + 1, s, dtype=np.int32)
    op = sparse.csr_array((wts.reshape(-1), idx.reshape(-1), indptr), shape=(nc * nu, nc))
    vals = (op @ v).reshape(nc, nu)
    vals *= one_minus_lh
    vals += h * g
    argmin = np.argmin(vals, axis=1).astype(np.int32)
    return np.take_along_axis(vals, argmin[:, None], axis=1)[:, 0], argmin


def guess_structured(nodes, a_eff, b_red, cubic, controls, lam, h, n_steps, cost_cw, blow_sq):
    """Constant-control explicit-Euler cost minima for structured systems.

    Returns the per-node minimum over the controls of the discounted cost,
    the nodes where every rollout blew up (their minimum is inf), and the
    largest stage cost seen along each node's rollouts before blow-up.
    """
    disc = np.exp(-lam * h * np.arange(n_steps))
    nc = nodes.shape[0]
    best = np.full(nc, np.inf)
    gmax = np.zeros(nc)
    for u in controls:
        y = nodes.copy()
        acc = np.zeros(nc)
        alive = np.ones(nc, dtype=bool)
        for k in range(n_steps):
            g = np.einsum("ma,ma->m", y, y) + cost_cw * u * u
            np.maximum(gmax, np.where(alive, g, 0.0), out=gmax)
            acc[alive] += disc[k] * g[alive] * h
            f = y @ a_eff.T + u * b_red
            if cubic is not None:
                f -= np.einsum("iabc,ma,mb,mc->mi", cubic, y, y, y, optimize=True)
            y += h * f
            alive &= np.einsum("ma,ma->m", y, y) <= blow_sq
        acc[~alive] = np.inf
        np.minimum(best, acc, out=best)
    return best, ~np.isfinite(best), gmax


def max_abs_diff(a, b):
    """Maximum-norm distance of two equal-length vectors (NaN if either holds a NaN)."""
    return np.max(np.abs(a - b))
