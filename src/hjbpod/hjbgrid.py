"""Uniform box lattices with implicit Kuhn simplicial structure.

Each lattice cell is split (implicitly, nothing is stored) into r!
simplices by coordinate orderings; locating the simplex containing a point
and computing its barycentric weights costs one sort of the fractional
coordinates.  Piecewise-linear interpolation over this triangulation is
exact on affine functions and monotone, with convex stencil weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridBudgetError, InvalidPointError, NumericalError, ValidationError
from .reduced import Hyperbox, clipped_arrivals

Array = np.ndarray


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

    @property
    def strides(self) -> Array:
        shape = self.node_shape
        strides = np.ones(self.r, dtype=np.int64)
        for i in range(self.r - 2, -1, -1):
            strides[i] = strides[i + 1] * shape[i + 1]
        return strides

    def axis_coords(self, axis: int) -> Array:
        return self.box.lower[axis] + self.edge[axis] * np.arange(self.node_shape[axis])

    def node_coords(self, flat_index: int) -> Array:
        idx = np.array(np.unravel_index(int(flat_index), self.node_shape), dtype=float)
        return self.box.lower + idx * self.edge

    def all_nodes(self) -> Array:
        """Coordinates of every node in flat-index (C) order, shape (node_count, r)."""
        grids = np.meshgrid(*[np.arange(s) for s in self.node_shape], indexing="ij")
        idx = np.stack([g.ravel() for g in grids], axis=1).astype(float)
        return self.box.lower + idx * self.edge


@dataclass(frozen=True)
class Stencil:
    """Vertices and barycentric weights of the simplex containing a point."""

    indices: Array  # (r+1,) flat node indices
    weights: Array  # (r+1,) nonnegative, sum to 1

    def __post_init__(self):
        if np.any(self.weights < 0) or abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
            raise ValidationError("stencil weights must be a convex combination")


def grid_from_edge(box: Hyperbox, edge: Array, node_budget: int = 5_000_000) -> SimplexGrid:
    """Lattice of the given cell edge over a box whose widths are whole multiples of it.

    Raises :class:`GridBudgetError` if the lattice has more than
    ``node_budget`` nodes.
    """
    cells = np.round(box.width / edge).astype(np.int64)
    node_count = int(np.prod(cells + 1))
    if node_count > node_budget:
        raise GridBudgetError(node_count, node_budget)
    return SimplexGrid(
        box=box,
        cells_per_axis=cells,
        edge=edge,
        node_count=node_count,
        k_r=float(np.sqrt(np.dot(edge, edge))),
    )


def build_grid(
    box: Hyperbox, target_diameter: float, node_budget: int = 5_000_000
) -> SimplexGrid:
    """Choose per-axis cell counts so the cell diagonal meets the target.

    Starts from the equal-edge allocation (edge = target/sqrt(r) on every
    axis, the continuous optimum) and greedily removes cells axis by axis
    while the diagonal constraint remains satisfied, which minimizes the
    node count over axis-uniform refinements up to integer effects.
    """
    if target_diameter <= 0:
        raise ValidationError("target_diameter must be positive")
    width = box.width
    r = box.r
    counts = np.maximum(1, np.ceil(width * np.sqrt(r) / target_diameter)).astype(np.int64)

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
    return grid_from_edge(box, width / counts, node_budget)


def aligned_grid(
    box: Hyperbox,
    target_diameter: float,
    node_budget: int = 5_000_000,
    anchor: float = 0.0,
) -> SimplexGrid:
    """Like :func:`build_grid`, but faces snap outward onto the edge lattice.

    With the anchor inside the box this places it exactly on a grid node,
    which matters for stabilization problems: the interpolated feedback at
    the target state is then a nodal value instead of a mixture of
    neighboring cells.
    """
    edge = build_grid(box, target_diameter, node_budget).edge
    lower = anchor + np.floor((box.lower - anchor) / edge + 1e-9) * edge
    upper = anchor + np.ceil((box.upper - anchor) / edge - 1e-9) * edge
    return grid_from_edge(Hyperbox(lower, upper), edge, node_budget)


def ensure_invariant_grid(
    rs,
    box: Hyperbox,
    controls,
    target_diameter: float,
    h: float,
    node_budget: int = 5_000_000,
    max_rounds: int = 30,
    anchor: float = 0.0,
) -> SimplexGrid:
    """Aligned grid whose box the discrete dynamics provably do not leave.

    Verifies every node/control arrival point and pushes violated faces
    outward in whole-edge steps (preserving lattice alignment) until the
    check is clean.  Intended to run after :func:`reduced.grow_to_invariant`
    so only residual face-sampling slack remains to absorb.
    """
    if h <= 0:
        raise ValidationError("step h must be positive")
    grid = aligned_grid(box, target_diameter, node_budget, anchor)
    controls = np.asarray(list(controls), dtype=float)
    for _ in range(max_rounds):
        _, lo_exc, hi_exc = clipped_arrivals(rs, grid.box, grid.all_nodes(), controls, h)
        if not (np.any(lo_exc > 0) or np.any(hi_exc > 0)):
            return grid

        def edge_steps(exc):
            # any positive excess expands by at least one whole edge
            steps = np.ceil(exc / grid.edge - 1e-12)
            return np.where(exc > 0, np.maximum(steps, 1), 0)

        lower = grid.box.lower - edge_steps(lo_exc) * grid.edge
        upper = grid.box.upper + edge_steps(hi_exc) * grid.edge
        grid = grid_from_edge(Hyperbox(lower, upper), grid.edge, node_budget)
    raise NumericalError(
        "could not reach an invariant grid box; the dynamics keep escaping "
        "(consider clamp mode instead)"
    )


def stencil_batch(grid: SimplexGrid, points: Array) -> tuple[Array, Array]:
    """Vectorized Kuhn stencils: flat vertex indices and weights, (m, r+1) each.

    Points are expected inside the box (clamp exterior points first);
    coordinates that fall marginally outside are clipped.  Ties between
    fractional coordinates resolve deterministically by axis index.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != grid.r:
        raise InvalidPointError(f"points must have dimension {grid.r}")
    if np.isnan(pts).any():
        raise InvalidPointError("point coordinates contain NaN")
    m, r = pts.shape
    u = (pts - grid.box.lower) / grid.edge
    cell = np.clip(np.floor(u).astype(np.int64), 0, grid.cells_per_axis - 1)
    theta = np.clip(u - cell, 0.0, 1.0)

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


def interpolation_stencil(grid: SimplexGrid, point: Array) -> Stencil:
    """Kuhn simplex stencil of a single point."""
    idx, wts = stencil_batch(grid, np.asarray(point, dtype=float)[None, :])
    return Stencil(indices=idx[0], weights=wts[0])


def interpolate(grid: SimplexGrid, nodal: Array, point: Array) -> float:
    """Piecewise-linear interpolation of nodal values at a point."""
    nodal = np.asarray(nodal, dtype=float)
    if nodal.shape != (grid.node_count,):
        raise ValidationError("nodal values must have one entry per grid node")
    st = interpolation_stencil(grid, point)
    return float(np.dot(st.weights, nodal[st.indices]))


def interpolate_batch(grid: SimplexGrid, nodal: Array, points: Array) -> Array:
    """Vectorized :func:`interpolate` over stacked points."""
    idx, wts = stencil_batch(grid, points)
    return np.einsum("mq,mq->m", wts, np.asarray(nodal, dtype=float)[idx])
