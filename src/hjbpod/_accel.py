"""Hot numerical kernels of the dynamic-programming solve, in numpy and scipy.

A sweep is one sparse matrix-vector product over every (control, node)
pair, through a control-major operator (row ``l*nc + i``), then
``np.argmin`` over the controls.  The warm-start rollouts advance all live
nodes at once, with the reduced cubic taken over its unique monomials
(:func:`~hjbpod.reduced.cubic_batch`).  There are no compiled or parallel
kernels here, but the results still depend on the BLAS thread count: the
POD basis they start from changes in its last bits with it (the CLI
records the thread variables with each run).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .reduced import cubic_batch

# There is no compiled backend; perfbench records this flag with every run.
HAVE_NUMBA = False


def sweep_operator(idx, wts):
    """The stencils as a CSR matrix with one row per (control, node) pair.

    ``idx`` and ``wts`` are control-major, (nu, nc, s).  Row ``l*nc + i``
    sums the stencil of node i under control l in vertex order; ``indices``
    and ``data`` are views of ``idx`` and ``wts`` when these are
    C-contiguous, and flat copies otherwise.
    """
    nu, nc, s = idx.shape
    indptr = np.arange(0, nu * nc * s + 1, s, dtype=np.int32)
    return sparse.csr_array((wts.reshape(-1), idx.reshape(-1), indptr), shape=(nu * nc, nc))


def sweep_with(op, v, hg, one_minus_lh):
    """One greedy sweep through the operator of :func:`sweep_operator`.

    ``hg`` is the (nu, nc) stage cost already scaled by the step h.  Returns
    the updated nodal values and the per-node argmin control index (int32)
    that ``np.argmin`` picks: ties go to the lowest control (hence the
    smallest control value when the control list is sorted ascending), the
    first NaN candidate wins, and a node's value has its candidate's bits.
    """
    vals = (op @ v).reshape(hg.shape)
    vals *= one_minus_lh
    vals += hg
    argmin = np.argmin(vals, axis=0).astype(np.int32)
    return vals[argmin, np.arange(vals.shape[1])], argmin


def sweep(v, idx, wts, g, one_minus_lh, h):
    """One greedy sweep of the discrete dynamic-programming operator on
    node-major (nc, nu, ·) stencils and (nc, nu) costs, building the operator
    of :func:`sweep_operator` for this call alone (no copy when the arrays
    are transposed views of control-major storage, as a cache's are)."""
    op = sweep_operator(idx.swapaxes(0, 1), wts.swapaxes(0, 1))
    return sweep_with(op, v, h * g.T, one_minus_lh)


def rollout_minima(nodes, controls, cost, rhs, lam, h, n_steps, blow_sq):
    """Constant-control explicit-Euler cost minima over the controls.

    ``cost(y, u, sq)`` maps a block of states and their squared norms
    ``sq = |y|^2`` to their stage costs, and ``rhs(y, u)`` maps a block of
    states to their vector-field rows; both return arrays the rollout may
    overwrite (it scales them in place).  Each step computes ``sq`` once,
    for the stage cost and for the blow-up test: a rollout dies, and its
    discounted cost becomes inf, once its squared norm exceeds ``blow_sq``;
    from then on its row is no longer advanced, so a blown-up state never
    overflows.  Returns the per-node minimum over the controls, the nodes
    where every rollout blew up, and the largest absolute stage cost seen
    along any rollout before blow-up.
    """
    disc = np.exp(-lam * h * np.arange(n_steps))
    nc = nodes.shape[0]
    best = np.full(nc, np.inf)
    gmax = np.float64(0.0)
    sq_nodes = np.einsum("ma,ma->m", nodes, nodes)
    for u in controls:
        u = float(u)
        y = nodes.copy()
        sq = sq_nodes.copy()
        acc = np.zeros(nc)
        alive = np.ones(nc, dtype=bool)
        for k in range(n_steps):
            g = cost(y, u, sq)
            if alive.all():
                live = slice(None)  # views until a row has died
            elif alive.any():
                live = alive
                g = g[live]
            else:
                break
            # max |g| without an |g| array; NaN propagates as in np.abs(g).max()
            gmax = np.maximum(gmax, np.maximum(g.max(), -g.min()))
            g *= disc[k]
            g *= h
            acc[live] += g
            f = rhs(y[live], u)
            f *= h
            y[live] += f
            np.einsum("ma,ma->m", y, y, out=sq)
            alive &= sq <= blow_sq
        acc[~alive] = np.inf
        np.minimum(best, acc, out=best)
    return best, ~np.isfinite(best), float(gmax)


def guess_structured(nodes, a_eff, b_red, cubic, controls, lam, h, n_steps, cost_cw, blow_sq):
    """:func:`rollout_minima` for the structured reduced dynamics.

    The vector field is ``y @ a_eff.T + u b_red``, minus the cubic when
    ``cubic`` is the monomial pair of :func:`~hjbpod.reduced.cubic_monomials`.
    It is written into one (nc, r) buffer that every step reuses: the
    product with a contiguous copy of ``a_eff.T``, then ``u b_red`` tiled
    over every row (once per control) and added as one flat pass, whose
    leading rows serve a block of live rows.  The stage cost
    ``sq + cost_cw u^2``, with ``sq = |y|^2`` from the rollout, is written
    into one (nc,) buffer.
    """
    nc = nodes.shape[0]
    buf = np.empty_like(nodes)
    gbuf = np.empty(nc)
    a_t = np.ascontiguousarray(a_eff.T)
    drift = {float(u): np.tile(float(u) * b_red, nc) for u in controls}

    def cost(y, u, sq):
        return np.add(sq, cost_cw * u * u, out=gbuf)

    def rhs(y, u):
        f = np.matmul(y, a_t, out=buf[: y.shape[0]])
        flat = f.reshape(-1)
        flat += drift[u][: flat.size]
        if cubic is not None:
            f -= cubic_batch(y, cubic)
        return f

    return rollout_minima(nodes, controls, cost, rhs, lam, h, n_steps, blow_sq)


def max_abs_diff(a, b):
    """Maximum-norm distance of two equal-length vectors (NaN if either holds a NaN)."""
    return np.max(np.abs(a - b))
