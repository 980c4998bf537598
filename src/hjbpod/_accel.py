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


def sweep_with(op, v, hg, one_minus_lh):
    """One Jacobi sweep through the operator of :func:`sweep_operator`.

    ``hg`` is the (nc, nu) stage cost already scaled by the step h, so the
    sweep allocates one nc*nu array, the product ``op @ v``.  Returns the
    updated nodal values and the per-node argmin control index (ties resolve
    to the lowest index, hence the smallest control value when the control
    list is sorted ascending).
    """
    vals = (op @ v).reshape(hg.shape)
    vals *= one_minus_lh
    vals += hg
    argmin = np.argmin(vals, axis=1).astype(np.int32)
    return np.take_along_axis(vals, argmin[:, None], axis=1)[:, 0], argmin


def sweep(v, idx, wts, g, one_minus_lh, h):
    """One Jacobi sweep of the discrete dynamic-programming operator,
    building the operator of :func:`sweep_operator` for this call alone."""
    return sweep_with(sweep_operator(idx, wts), v, h * g, one_minus_lh)


def rollout_minima(nodes, controls, cost, rhs, lam, h, n_steps, blow_sq):
    """Constant-control explicit-Euler cost minima over the controls.

    ``cost(y, u, sq)`` maps a block of states and their squared norms
    ``sq = |y|^2`` to their stage costs.  ``rhs(y, u)`` maps a block of
    states to their vector-field rows, in an array the rollout may
    overwrite (it scales it by h in place).  Each step computes ``sq`` once,
    for the stage cost and for the blow-up test: a rollout dies, and its
    discounted cost becomes inf, once its squared norm exceeds ``blow_sq``;
    from then on its row is no longer advanced, so a blown-up state never
    overflows.  Returns the per-node minimum over the controls, the nodes
    where every rollout blew up, and the largest absolute stage cost seen
    along each node's rollouts before blow-up.
    """
    disc = np.exp(-lam * h * np.arange(n_steps))
    nc = nodes.shape[0]
    best = np.full(nc, np.inf)
    gmax = np.zeros(nc)
    sq_nodes = np.einsum("ma,ma->m", nodes, nodes)
    for u in controls:
        u = float(u)
        y = nodes.copy()
        sq = sq_nodes.copy()
        acc = np.zeros(nc)
        alive = np.ones(nc, dtype=bool)
        for k in range(n_steps):
            g = cost(y, u, sq)
            live = slice(None) if alive.all() else alive  # views until a row has died
            gmax[live] = np.maximum(gmax[live], np.abs(g[live]))
            acc[live] += disc[k] * g[live] * h
            f = rhs(y[live], u)
            f *= h
            y[live] += f
            np.einsum("ma,ma->m", y, y, out=sq)
            alive &= sq <= blow_sq
        acc[~alive] = np.inf
        np.minimum(best, acc, out=best)
    return best, ~np.isfinite(best), gmax


def guess_structured(nodes, a_eff, b_red, cubic, controls, lam, h, n_steps, cost_cw, blow_sq):
    """:func:`rollout_minima` for the structured reduced dynamics.

    The vector field is ``y @ a_eff.T + u b_red``, minus the cubic when
    ``cubic`` is the monomial pair of :func:`~hjbpod.reduced.cubic_monomials`,
    written into one (nc, r) buffer that every step reuses; the stage cost
    is ``sq + cost_cw u^2`` with ``sq = |y|^2`` from the rollout.
    """
    buf = np.empty_like(nodes)

    def cost(y, u, sq):
        return sq + cost_cw * u * u

    def rhs(y, u):
        f = np.matmul(y, a_eff.T, out=buf[: y.shape[0]])
        f += u * b_red
        if cubic is not None:
            f -= cubic_batch(y, cubic)
        return f

    return rollout_minima(nodes, controls, cost, rhs, lam, h, n_steps, blow_sq)


def max_abs_diff(a, b):
    """Maximum-norm distance of two equal-length vectors (NaN if either holds a NaN)."""
    return np.max(np.abs(a - b))
