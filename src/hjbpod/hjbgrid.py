"""Uniform box lattices with implicit Kuhn simplicial structure.

Each lattice cell is split (implicitly, nothing is stored) into r!
simplices by coordinate orderings; locating the simplex containing a point
and computing its barycentric weights costs one sort of the fractional
coordinates.  Piecewise-linear interpolation over this triangulation is
exact on affine functions and monotone, with convex stencil weights.

Two kernels compute the same stencils.  :func:`stencil_batch` is the
vectorized one, for the arrival cache.  :func:`interpolate` evaluates one
point on Python floats, as the closed-loop feedback does at every rhs
call: the grid's lower corner, edge, top cell and strides are converted
once per grid (cached on the :class:`SimplexGrid`), so a call does only
the per-point work, the cell, the sort and the weighted sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, ValidationError
from .reduced import Hyperbox, clipped_arrivals

Array = np.ndarray

# Face-pushing rounds of ensure_invariant_grid before it gives up.
_INVARIANCE_ROUNDS = 30

# Default and ceiling (the sweep's CSR row pointer is int32) of the entry budget.
ENTRY_BUDGET = 200_000_000
MAX_ENTRY_BUDGET = 2**31 - 1


@dataclass(frozen=True)
class SimplexGrid:
    """Uniform lattice over a hyperbox; cells carry an implicit Kuhn split."""

    box: Hyperbox
    cells_per_axis: Array  # (r,) int
    edge: Array  # (r,)
    node_count: int
    k_r: float  # max simplex diameter = cell diagonal

    @property
    def r(self) -> int:
        return self.edge.size

    @property
    def node_shape(self) -> tuple[int, ...]:
        return tuple(int(c) + 1 for c in self.cells_per_axis)

    @cached_property
    def strides(self) -> Array:
        """Flat-index step per axis (C order); read-only, built once."""
        shape = self.node_shape
        strides = np.ones(self.r, dtype=np.int64)
        for i in range(self.r - 2, -1, -1):
            strides[i] = strides[i + 1] * shape[i + 1]
        strides.flags.writeable = False
        return strides

    @cached_property
    def _point_constants(self) -> tuple[list, list, list, list]:
        """Lower corner, edge, top cell index and strides as Python lists."""
        return (
            self.box.lower.tolist(),
            self.edge.tolist(),
            (self.cells_per_axis - 1).tolist(),
            self.strides.tolist(),
        )

    def all_nodes(self) -> Array:
        """Coordinates of every node in flat-index (C) order, shape (node_count, r)."""
        grids = np.meshgrid(*[np.arange(s) for s in self.node_shape], indexing="ij")
        idx = np.stack([g.ravel() for g in grids], axis=1).astype(float)
        return self.box.lower + idx * self.edge


def grid_from_edge(box: Hyperbox, edge: Array) -> SimplexGrid:
    """Lattice of the given cell edge over a box whose widths are whole multiples of it.

    Allocates nothing per node; :func:`check_cache_size` limits the size.  A
    cell count per axis that is not finite or not below 2**53 raises
    :class:`ValidationError`.
    """
    cells = _cell_counts(np.round(box.width / edge), "edge", edge)
    return SimplexGrid(
        box=box,
        cells_per_axis=cells,
        edge=edge,
        node_count=math.prod(int(c) + 1 for c in cells),
        k_r=float(np.sqrt(np.dot(edge, edge))),
    )


def _cell_counts(counts: Array, what: str, value) -> Array:
    """Cell counts per axis as int64, refused unless finite and below 2**53."""
    if not np.all(counts < 2**53):  # NaN compares false
        raise ValidationError(f"{what} {value} needs {counts} cells per axis (limit 2**53)")
    return counts.astype(np.int64)


def check_cache_size(grid: SimplexGrid, control_count: int, entry_budget: int) -> int:
    """Entries ``node_count * control_count * (r + 1)`` of the grid's arrival cache,
    counted exactly: the one size limit of a solve.  A ValidationError if the
    budget exceeds the int32 range or the entries exceed the budget."""
    if entry_budget > MAX_ENTRY_BUDGET:
        raise ValidationError(f"cache entry budget {entry_budget} exceeds the int32 range")
    entries = grid.node_count * int(control_count) * (grid.r + 1)
    if entries > entry_budget:
        raise ValidationError(
            f"arrival cache needs {entries} entries, exceeding budget {entry_budget}"
        )
    return entries


def build_grid(box: Hyperbox, target_diameter: float) -> SimplexGrid:
    """Choose per-axis cell counts so the cell diagonal meets the target.

    Starts from the equal-edge allocation (edge = target/sqrt(r) on every
    axis, the continuous optimum) and greedily removes cells axis by axis
    while the diagonal constraint remains satisfied, which minimizes the
    node count over axis-uniform refinements up to integer effects.  A
    cell count per axis that is not finite or not below 2**53 raises
    :class:`ValidationError`.
    """
    if target_diameter <= 0:
        raise ValidationError("target_diameter must be positive")
    width = box.width
    r = box.r
    with np.errstate(over="ignore"):
        counts = np.maximum(1, np.ceil(width * np.sqrt(r) / target_diameter))
    counts = _cell_counts(counts, "target diameter", target_diameter)

    def diag_sq(c):
        e = width / c
        return float(np.dot(e, e))

    target_sq = target_diameter * target_diameter
    if diag_sq(counts) > target_sq:  # guard against ceil landing exactly on the bound
        counts += 1
    while True:
        best_axis = -1
        for i in np.argsort(counts):
            if counts[i] <= 1:
                continue
            counts[i] -= 1
            if diag_sq(counts) <= target_sq:
                best_axis = i
                break
            counts[i] += 1
        if best_axis < 0:
            break
    return grid_from_edge(box, width / counts)


def aligned_grid(box: Hyperbox, target_diameter: float) -> SimplexGrid:
    """Like :func:`build_grid`, but faces snap outward onto the edge lattice
    through the origin.

    With the origin inside the box this places it exactly on a grid node,
    which matters for stabilization problems: the interpolated feedback at
    the target state is then a nodal value instead of a mixture of
    neighboring cells.
    """
    edge = build_grid(box, target_diameter).edge
    # adding 0.0 turns a face at -0.0 into +0.0
    lower = 0.0 + np.floor(box.lower / edge + 1e-9) * edge
    upper = 0.0 + np.ceil(box.upper / edge - 1e-9) * edge
    return grid_from_edge(Hyperbox(lower, upper), edge)


def ensure_invariant_grid(
    rs,
    box: Hyperbox,
    controls,
    target_diameter: float,
    h: float,
    entry_budget: int = ENTRY_BUDGET,
) -> SimplexGrid:
    """Aligned grid whose box the discrete dynamics provably do not leave.

    Verifies every node/control arrival point and pushes violated faces
    outward in whole-edge steps (preserving lattice alignment) until the
    check is clean.  Intended to run after :func:`reduced.grow_to_invariant`
    so only residual face-sampling slack remains to absorb.  Each round
    checks the grid with :func:`check_cache_size` before it computes an
    arrival.  A NaN or infinite arrival raises :class:`NumericalError`.
    """
    if not h > 0:
        raise ValidationError("step h must be positive")
    grid = aligned_grid(box, target_diameter)
    controls = np.asarray(list(controls), dtype=float)
    for _ in range(_INVARIANCE_ROUNDS):
        check_cache_size(grid, controls.size, entry_budget)
        _, lo_exc, hi_exc = clipped_arrivals(rs, grid.box, grid.all_nodes(), controls, h)
        if not (np.any(lo_exc > 0) or np.any(hi_exc > 0)):
            return grid

        def edge_steps(exc):
            # any positive excess expands by at least one whole edge
            steps = np.ceil(exc / grid.edge - 1e-12)
            return np.where(exc > 0, np.maximum(steps, 1), 0)

        lower = grid.box.lower - edge_steps(lo_exc) * grid.edge
        upper = grid.box.upper + edge_steps(hi_exc) * grid.edge
        grid = grid_from_edge(Hyperbox(lower, upper), grid.edge)
    raise NumericalError(
        "could not reach an invariant grid box; the dynamics keep escaping "
        "(consider clamp mode instead)"
    )


def stencil_batch(grid: SimplexGrid, points: Array) -> tuple[Array, Array]:
    """Vectorized Kuhn stencils: flat vertex indices and weights, (m, r+1) each.

    Points are expected inside the box (clamp exterior points first);
    coordinates outside it, infinite ones included, are clipped to it.
    Ties between fractional coordinates resolve deterministically by axis
    index.  This is the batch kernel of the arrival cache;
    :func:`interpolate` is its one-point counterpart.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != grid.r:
        raise ValidationError(f"points must have dimension {grid.r}")
    if np.isnan(pts).any():
        raise ValidationError("point coordinates contain NaN")
    m, r = pts.shape
    # clipping u first keeps +-inf out of the integer cast
    u = np.clip((pts - grid.box.lower) / grid.edge, 0.0, grid.cells_per_axis)
    cell = np.minimum(np.floor(u).astype(np.int64), grid.cells_per_axis - 1)
    theta = u - cell

    order = np.argsort(-theta, axis=1, kind="stable")
    theta_sorted = np.take_along_axis(theta, order, axis=1)

    weights = np.empty((m, r + 1))
    weights[:, 0] = 1.0 - theta_sorted[:, 0]
    if r > 1:
        weights[:, 1:r] = theta_sorted[:, :-1] - theta_sorted[:, 1:]
    weights[:, r] = theta_sorted[:, -1]

    strides = grid.strides
    indices = np.empty((m, r + 1), dtype=np.int64)
    indices[:, 0] = cell @ strides
    step = strides[order]  # (m, r) stride of the axis walked at each stage
    np.cumsum(step, axis=1, out=step)
    indices[:, 1:] = indices[:, 0:1] + step
    return indices, weights


def interpolate(grid: SimplexGrid, nodal: Array, point: Array) -> float:
    """Piecewise-linear interpolation of nodal values at one point.

    The Kuhn stencil of :func:`stencil_batch`, computed on Python floats
    with the same formulas, so the result equals ``np.dot`` over a
    :func:`stencil_batch` row bit for bit.  The grid's constants are built
    once per grid; each call does only the O(r log r) per-point work.
    """
    nodal = np.asarray(nodal, dtype=float)
    if nodal.shape != (grid.node_count,):
        raise ValidationError("nodal values must have one entry per grid node")
    lower, edge, top, strides = grid._point_constants
    coords = np.asarray(point, dtype=float)
    if coords.shape != (len(lower),):
        raise ValidationError(f"point must have shape ({grid.r},)")
    theta = []
    base = 0
    for p, lo, e, t, s in zip(coords.tolist(), lower, edge, top, strides):
        u = (p - lo) / e
        # u clipped to [0, t + 1], cell = min(floor(u), t) and theta = u - cell,
        # as in stencil_batch; for 0 < u < t no clip binds and u - cell is exact
        if u >= t:
            cell = t
            theta.append(min(u - t, 1.0))
        elif u > 0.0:
            cell = int(u)
            theta.append(u - cell)
        elif u <= 0.0:
            cell = 0
            theta.append(0.0)
        else:
            raise ValidationError("point coordinates contain NaN")
        base += cell * s
    # descending theta, ties by axis index: the stable argsort of -theta
    order = sorted(range(len(theta)), key=theta.__getitem__, reverse=True)
    weights = [1.0 - theta[order[0]]]
    indices = [base]
    for a, b in zip(order, order[1:]):
        weights.append(theta[a] - theta[b])
    weights.append(theta[order[-1]])
    for a in order:
        base += strides[a]
        indices.append(base)
    return float(np.dot(weights, nodal[indices]))
