"""Hot numerical kernels of the dynamic-programming solve, in numpy and scipy.

A sweep is one sparse matrix-vector product over every (node, control)
pair; the warm-start rollouts advance all live nodes at once, with the
reduced cubic taken over its unique monomials
(:func:`~hjbpod.reduced.cubic_batch`).  There are no compiled or parallel
kernels, so results do not depend on the thread count.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .reduced import cubic_batch

# There is no compiled backend; perfbench records this flag with every run.
HAVE_NUMBA = False


def sweep_operator(idx, wts):
    """The stencils as a CSR matrix with one row per (node, control) pair.

    Rows are node-major (row ``i*nu + l``) and each sums its stencil in
    vertex order; ``indices`` and ``data`` are views of ``idx`` and ``wts``.
    """
    nc, nu, s = idx.shape
    indptr = np.arange(0, nc * nu * s + 1, s, dtype=np.int32)
    return sparse.csr_array((wts.reshape(-1), idx.reshape(-1), indptr), shape=(nc * nu, nc))


def sweep_with(op, v, g, one_minus_lh, h):
    """One Jacobi sweep through the operator of :func:`sweep_operator`.

    Returns the updated nodal values and the per-node argmin control index
    (ties resolve to the lowest index, hence the smallest control value
    when the control list is sorted ascending).
    """
    vals = (op @ v).reshape(g.shape)
    vals *= one_minus_lh
    vals += h * g
    argmin = np.argmin(vals, axis=1).astype(np.int32)
    return np.take_along_axis(vals, argmin[:, None], axis=1)[:, 0], argmin


def sweep(v, idx, wts, g, one_minus_lh, h):
    """One Jacobi sweep of the discrete dynamic-programming operator,
    building the operator of :func:`sweep_operator` for this call alone."""
    return sweep_with(sweep_operator(idx, wts), v, g, one_minus_lh, h)


def rollout_minima(nodes, controls, cost, rhs, lam, h, n_steps, blow_sq):
    """Constant-control explicit-Euler cost minima over the controls.

    ``cost(y, u)`` and ``rhs(y, u)`` map a block of states to their stage
    costs and vector-field rows.  A rollout dies, and its discounted cost
    becomes inf, once its squared norm exceeds ``blow_sq``; from then on
    its row is no longer advanced, so a blown-up state never overflows.
    Returns the per-node minimum over the controls, the nodes where every
    rollout blew up, and the largest absolute stage cost seen along each
    node's rollouts before blow-up.
    """
    disc = np.exp(-lam * h * np.arange(n_steps))
    nc = nodes.shape[0]
    best = np.full(nc, np.inf)
    gmax = np.zeros(nc)
    for u in controls:
        u = float(u)
        y = nodes.copy()
        acc = np.zeros(nc)
        alive = np.ones(nc, dtype=bool)
        for k in range(n_steps):
            g = cost(y, u)
            np.maximum(gmax, np.where(alive, np.abs(g), 0.0), out=gmax)
            acc[alive] += disc[k] * g[alive] * h
            if alive.all():  # no gather and scatter until a row has died
                y += h * rhs(y, u)
            else:
                y[alive] += h * rhs(y[alive], u)
            alive &= np.einsum("ma,ma->m", y, y) <= blow_sq
        acc[~alive] = np.inf
        np.minimum(best, acc, out=best)
    return best, ~np.isfinite(best), gmax


def guess_structured(nodes, a_eff, b_red, cubic, controls, lam, h, n_steps, cost_cw, blow_sq):
    """:func:`rollout_minima` for the structured reduced dynamics.

    The vector field is ``y @ a_eff.T + u b_red``, minus the cubic when
    ``cubic`` is the monomial pair of :func:`~hjbpod.reduced.cubic_monomials`;
    the stage cost is ``|y|^2 + cost_cw u^2``.
    """

    def cost(y, u):
        return np.einsum("ma,ma->m", y, y) + cost_cw * u * u

    def rhs(y, u):
        f = y @ a_eff.T + u * b_red
        if cubic is not None:
            f -= cubic_batch(y, cubic)
        return f

    return rollout_minima(nodes, controls, cost, rhs, lam, h, n_steps, blow_sq)


def max_abs_diff(a, b):
    """Maximum-norm distance of two equal-length vectors (NaN if either holds a NaN)."""
    return np.max(np.abs(a - b))
