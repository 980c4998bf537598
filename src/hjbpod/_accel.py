"""Hot numerical kernels of the dynamic-programming solve, in numpy.

Each kernel works on whole blocks of nodes at once.  There are no compiled
or parallel kernels, so results do not depend on the thread count.
"""

from __future__ import annotations

import numpy as np

# There is no compiled backend; perfbench records this flag with every run.
HAVE_NUMBA = False

# Nodes per gather block of a sweep; bounds the memory of the gathered
# (nodes, controls, r+1) temporaries on large grids.
_SWEEP_CHUNK = 100_000


def sweep(v, idx, wts, g, one_minus_lh, h):
    """One Jacobi sweep of the discrete dynamic-programming operator.

    Returns the updated nodal values and the per-node argmin control index
    (ties resolve to the lowest index, hence the smallest control value
    when the control list is sorted ascending).
    """
    nc = idx.shape[0]
    v_new = np.empty(nc)
    argmin = np.empty(nc, dtype=np.int32)
    for start in range(0, nc, _SWEEP_CHUNK):
        sl = slice(start, min(start + _SWEEP_CHUNK, nc))
        vals = one_minus_lh * np.einsum("ilq,ilq->il", wts[sl], v[idx[sl]]) + h * g[sl]
        argmin[sl] = np.argmin(vals, axis=1).astype(np.int32)
        v_new[sl] = np.take_along_axis(vals, argmin[sl][:, None], axis=1)[:, 0]
    return v_new, argmin


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
