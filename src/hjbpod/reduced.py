"""Reduced-order dynamics, the reduced domain box, and boundary clamping.

The reduced vector field is the coefficient projection of the full rhs
evaluated at the lifted state; the reduced cost is the full cost at the
lifted state.  The working domain is the bounding box of the projected
snapshot states, optionally inflated; arrival points that step outside it
are clamped back (componentwise, the Euclidean closest point of a box) and
the displacement statistics are recorded.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .dynamics import ControlledSystem
from .errors import NumericalError, ValidationError
from .pod import PODBasis, SnapshotSet, _check_rank, lift, project_coeffs, project_coeffs_batch

logger = logging.getLogger(__name__)

Array = np.ndarray

# Invariant-box growth: sample points per axis on each face, rounds before
# giving up, and the padding past a found root, as a share of the box width.
_FACE_POINTS = 5
_GROWTH_ROUNDS = 60
_FACE_PAD = 1e-3

# Node rows per block of clipped_arrivals, which bounds its temporaries.
_CHUNK = 200_000


@dataclass(frozen=True)
class Hyperbox:
    """Axis-aligned box in the reduced coordinate space."""

    lower: Array
    upper: Array

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValidationError("lower/upper must be 1-D arrays of equal length")
        if not np.all(lo < hi):
            raise ValidationError("box must satisfy lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def r(self) -> int:
        return self.lower.size

    @property
    def width(self) -> Array:
        return self.upper - self.lower

    def clip(self, points: Array) -> Array:
        return np.clip(points, self.lower, self.upper)


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of testing arrival points of the discrete dynamics against a box."""

    checked: int
    violations: int
    max_rel_displacement: Array  # (r,) max |clamp(a)-a| / width per coordinate

    def __post_init__(self):
        if self.checked < 0 or self.violations < 0:
            raise ValidationError("counts must be nonnegative")


def cubic_monomials(phi: Array, phi_w: Array) -> tuple[Array, Array]:
    """Reduced cubic ``C(y,y,y)_i = sum_j phi_w[i,j] (y @ phi)[j]**3`` over its unique monomials.

    Returns the index triples ``a <= b <= c`` as a (3, m) array, with
    m = r(r+1)(r+2)/6, and the (r, m) coefficient matrix whose column k is
    the k-th monomial's coefficient, times the number of orderings of its
    triple (1, 3 or 6).
    """
    r = phi.shape[0]
    triples = np.array(list(combinations_with_replacement(range(r), 3)), dtype=np.intp).T
    a, b, c = triples
    multiplicity = np.where(a == c, 1.0, np.where((a == b) | (b == c), 3.0, 6.0))
    coef = (phi_w @ (phi[a] * phi[b] * phi[c]).T) * multiplicity
    return triples, coef


def cubic_batch(Y: Array, cubic: tuple[Array, Array]) -> Array:
    """Rows ``C(y,y,y)`` for the rows y of ``Y``, from :func:`cubic_monomials` output."""
    (a, b, c), coef = cubic
    mono = Y[:, a]
    mono *= Y[:, b]
    mono *= Y[:, c]
    return mono @ coef.T


class ReducedSystem:
    """Rank-r reduction of a controlled system under a POD basis.

    Precomputes the mode matrices (and, when the full system exposes its
    algebraic structure, exact reduced-space operators) so that the vector
    field can be evaluated in batch over many reduced states without
    repeated lifting.  For the bistable cubic, ``cubic`` holds the reduced
    cubic over its unique monomials (:func:`cubic_monomials`).
    """

    def __init__(self, basis: PODBasis, full: ControlledSystem, r: int):
        self.basis = basis
        self.full = full
        self.r = _check_rank(basis, r)
        self.phi = np.ascontiguousarray(basis.modes[:r])  # (r, n)
        self.phi_w = np.ascontiguousarray(self.phi * basis.weight)  # (r, n)
        self.gram = self.phi_w @ self.phi.T

        st = full.structure
        # whether exact precomputed reduced operators are available
        self.structured = st is not None
        self.a_eff = self.cubic = self.b_red = self.cost_cw = None
        if st is not None:
            self.a_eff = self.phi_w @ st.linear @ self.phi.T
            if st.nonlinearity == "bistable_cubic":
                # rhs = L y + (y - y^3) + u B; fold the linear part of the
                # reaction into the reduced operator and expand the cubic in
                # the basis: exact because the modes span the lifted states.
                self.a_eff += self.gram
                self.cubic = cubic_monomials(self.phi, self.phi_w)
            self.b_red = self.phi_w @ st.control_gain
            self.cost_cw = st.quadratic_cost_control_weight

    # -- single-point operations (the contractual definitions) ------------

    def rhs(self, y_r: Array, u: float) -> Array:
        """Reduced vector field: coefficient projection of f at the lifted state."""
        return project_coeffs(self.basis, self.full.rhs(lift(self.basis, y_r), u), self.r)

    def cost(self, y_r: Array, u: float) -> float:
        """Reduced cost rate: full cost at the lifted state."""
        return self.full.running_cost(lift(self.basis, y_r), u)

    # -- batched operations -------------------------------------------------

    def rhs_batch(self, Yr: Array, u: float) -> Array:
        """Rows ``f_r(y, u)`` for the rows y of ``Yr``.

        With structure this is ``A_eff y + u b - C(y,y,y)``, the cubic taken
        over its unique monomials (:func:`cubic_batch`); without, the rows
        are lifted, passed as one stack through the full ``rhs`` and
        projected.  Either way the rows come in a fresh array, which the
        caller may overwrite.
        """
        Yr = np.asarray(Yr, dtype=float)
        if self.structured:
            out = Yr @ self.a_eff.T + u * self.b_red
            if self.cubic is not None:
                out -= cubic_batch(Yr, self.cubic)
            return out
        F = self.full.rhs(Yr @ self.phi, u)
        # an inf times a zero basis entry is NaN; callers report non-finite rows
        with np.errstate(invalid="ignore"):
            return F @ self.phi_w.T

    def cost_batch(self, Yr: Array, u: float) -> Array:
        Yr = np.asarray(Yr, dtype=float)
        if self.cost_cw is not None:
            return np.einsum("mi,ij,mj->m", Yr, self.gram, Yr) + self.cost_cw * u * u
        Y = Yr @ self.phi
        out = np.empty(Y.shape[0])
        for i in range(Y.shape[0]):
            out[i] = self.full.running_cost(Y[i], u)
        return out


def build_domain(
    basis: PODBasis, snap: SnapshotSet, r: int, margin: float = 0.0
) -> Hyperbox:
    """Bounding box of the projected snapshot states, inflated by ``margin``.

    Degenerate axes (all projections numerically equal) are expanded to a
    minimum width so the reduced dimension stays r.
    """
    if not margin >= 0:
        raise ValidationError("margin must be nonnegative")
    coeffs = project_coeffs_batch(basis, snap.states.reshape(-1, snap.n), r)
    lower = coeffs.min(axis=0)
    upper = coeffs.max(axis=0)
    width = upper - lower
    scale = np.maximum(1.0, np.maximum(np.abs(lower), np.abs(upper)))
    degenerate = width <= 1e-12 * scale
    if np.any(degenerate):
        logger.warning(
            "expanding %d degenerate domain axes to minimum width", int(degenerate.sum())
        )
        half = 0.5e-6 * scale[degenerate]
        center = 0.5 * (lower[degenerate] + upper[degenerate])
        lower[degenerate] = center - half
        upper[degenerate] = center + half
        width = upper - lower
    return Hyperbox(lower - margin * width, upper + margin * width)


def _face_slice(lower: Array, upper: Array, axis: int, value: float) -> Array:
    """Lattice on the face {y_k = value} of the box, other axes sampled uniformly."""
    axes = []
    for i in range(lower.size):
        if i == axis:
            axes.append(np.array([value]))
        else:
            axes.append(np.linspace(lower[i], upper[i], _FACE_POINTS))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _outermost_root(rs: ReducedSystem, pts: Array, axis: int, u: float, sign: float) -> float:
    """Outermost zero of the face-normal vector-field component along an axis.

    For points with outward flow (sign * f_axis > 0), brackets the component
    along the axis direction and bisects; returns the farthest root in the
    outward direction (face-local coordinate), or the start value if the
    flow already points inward everywhere.  A NaN or infinite component on
    the face or while bracketing raises :class:`NumericalError`.
    """

    def normal_component(pts):
        # sign * f_axis; a NaN would compare as inward flow
        f = rs.rhs_batch(pts, u)[:, axis] * sign
        if not np.isfinite(f).all():
            raise NumericalError(
                f"the reduced vector field's axis-{axis} component is NaN or inf at or beyond "
                f"the {'upper' if sign > 0 else 'lower'} face under control u={u:g}"
            )
        return f

    f = normal_component(pts)
    active = f > 0.0
    if not np.any(active):
        return float(pts[0, axis])
    pts = pts[active].copy()
    v0 = pts[0, axis]
    scale = max(1.0, abs(v0))
    step = np.full(pts.shape[0], 1e-3 * scale)
    lo = np.full(pts.shape[0], v0)
    hi = lo + sign * step
    for _ in range(60):
        pts[:, axis] = hi
        f = normal_component(pts)
        out = f > 0.0
        if not np.any(out):
            break
        lo[out] = hi[out]
        step[out] *= 2.0
        hi[out] = hi[out] + sign * step[out]
    else:
        raise NumericalError(
            f"cannot bracket an inward-pointing region along axis {axis}; "
            "the reduced dynamics admit no invariant box in this direction"
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break  # every bracket is two adjacent doubles, and no step moves it
        pts[:, axis] = mid
        f = rs.rhs_batch(pts, u)[:, axis] * sign
        out = f > 0.0
        lo[out] = mid[out]
        hi[~out] = mid[~out]
    return float(sign * np.max(sign * hi))


def grow_to_invariant(rs: ReducedSystem, box: Hyperbox, controls) -> Hyperbox:
    """Expand a box until the reduced flow points inward on every face.

    On each face the normal vector-field component is sampled on a lattice
    slice for the extreme controls and the face is pushed out to the
    outermost equilibrium found, a monotone fixed-point iteration.  The
    result makes arrival points of the discrete dynamics stay inside for
    any step size (up to lattice sampling of the faces; verify on the real
    grid and polish with :func:`clipped_arrivals` statistics if needed).
    """
    controls = np.asarray(list(controls), dtype=float)
    u_ends = np.array([controls.min(), controls.max()])
    lower = box.lower.copy()
    upper = box.upper.copy()
    for _ in range(_GROWTH_ROUNDS):
        grew = False
        for axis in range(lower.size):
            for sign in (1.0, -1.0):
                face = upper[axis] if sign > 0 else lower[axis]
                slice_pts = _face_slice(lower, upper, axis, face)
                req = face
                for u in u_ends:
                    root = _outermost_root(rs, slice_pts, axis, float(u), sign)
                    req = max(req, root) if sign > 0 else min(req, root)
                if sign * (req - face) > 0:
                    margin = _FACE_PAD * max(upper[axis] - lower[axis], 1e-12)
                    if sign > 0:
                        upper[axis] = req + margin
                    else:
                        lower[axis] = req - margin
                    grew = True
        if not grew:
            break
    else:
        raise NumericalError("invariant-box growth did not settle; dynamics too expansive")
    return Hyperbox(lower, upper)


def clipped_arrivals(
    rs: ReducedSystem,
    box: Hyperbox,
    nodes: Array,
    controls,
    h: float,
    visit=None,
) -> tuple[InvarianceReport, Array, Array]:
    """Clip the arrivals ``y + h f_r(y, u)`` of every node/control pair to the box.

    Controls are taken in order, nodes in blocks of at most ``_CHUNK`` rows;
    ``visit(l, rows, clipped)`` (if given) receives each control index, the
    slice of node rows and their clipped arrivals.  A block with a NaN or
    infinite arrival raises :class:`NumericalError`.  Returns the invariance
    report of all pairs and, per axis, the farthest an arrival fell below
    the lower face and rose above the upper face (zero where none did).
    """
    if not h > 0:
        raise ValidationError("step h must be positive")
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    width = box.width
    checked = 0
    violations = 0
    max_rel = np.zeros(box.r)
    below = np.zeros(box.r)
    above = np.zeros(box.r)
    for l, u in enumerate(controls):
        for start in range(0, nodes.shape[0], _CHUNK):
            rows = slice(start, min(start + _CHUNK, nodes.shape[0]))
            block = nodes[rows]
            arrivals = block + h * rs.rhs_batch(block, float(u))
            if not np.isfinite(arrivals).all():
                bad = np.count_nonzero(~np.isfinite(arrivals).all(axis=1))
                raise NumericalError(
                    f"{bad} of {block.shape[0]} arrival points under control u={float(u):g} "
                    "are not finite: the reduced dynamics returned NaN or inf"
                )
            clipped = box.clip(arrivals)
            shift = clipped - arrivals
            disp = np.abs(shift) / width
            checked += block.shape[0]
            violations += int(np.count_nonzero(np.any(disp > 0.0, axis=1)))
            max_rel = np.maximum(max_rel, disp.max(axis=0))
            below = np.maximum(below, shift.max(axis=0))
            above = np.maximum(above, -shift.min(axis=0))
            if visit is not None:
                visit(l, rows, clipped)
    report = InvarianceReport(checked=checked, violations=violations, max_rel_displacement=max_rel)
    return report, below, above
