"""Value iteration for the fully discrete dynamic-programming equation on a
reduced grid, feedback synthesis, and closed-loop evaluation.

The nodal fixed-point relation is

    v(i) = min_u { (1 - lam*h) * I[v](y_i + h f_r(y_i, u)) + h g_r(y_i, u) },

with I the piecewise-linear interpolation of the grid.  Arrival points,
their interpolation stencils and the stage costs are static across sweeps
and precomputed into an :class:`ArrivalCache`, which builds its sparse sweep
operator and its h-scaled costs once.  The cache is indexed node-major and
stored control-major, so that its build writes contiguously; each greedy
sweep is one sparse matrix-vector product over every (control, node) pair
followed by ``np.argmin`` over the controls (ties to the lowest control), a
contraction with factor (1 - lam*h).  :func:`value_iteration` is Howard policy
iteration: between greedy sweeps it evaluates the sweep's argmin policy
exactly, by a BiCGSTAB solve of the policy's linear system on rows of the
same operator, and it stops once the a-posteriori bound on the distance
from the fixed point, ``residual * (1 - lam*h) / (lam*h)``, is at most
``stop_tol``.  There are no compiled or parallel kernels.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from . import _accel
from .dynamics import ControlledSystem, IntegratorConfig, Trajectory, _uniform_times, integrate
from .errors import NumericalError, ValidationError
from .hjbgrid import ENTRY_BUDGET, SimplexGrid, check_cache_size, interpolate, stencil_batch
from .pod import PODBasis, _check_rank
from .reduced import InvarianceReport, ReducedSystem, clipped_arrivals

logger = logging.getLogger(__name__)

Array = np.ndarray


@dataclass(frozen=True)
class ControlSet:
    """Finite, sorted list of admissible control values."""

    values: Array

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.size == 0:
            raise ValidationError("control set must be nonempty")
        if np.any(np.diff(vals) < 0):
            raise ValidationError("control values must be sorted ascending")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ArrivalCache:
    """Per (node, control): stencil of the clamped arrival point and stage cost.

    The three per-pair arrays are indexed node-major, ``[node, control]``.
    :func:`build_arrival_cache` stores them control-major, each the
    transposed view of a C-contiguous ``(nu, nc, ...)`` array, so that a
    sweep reads every control's block of nodes contiguously; the sweep
    accepts any layout.
    """

    grid: SimplexGrid
    control_values: Array  # (nu,)
    h: float
    indices: Array  # (nc, nu, r+1) int32, stored (nu, nc, r+1)
    weights: Array  # (nc, nu, r+1), stored (nu, nc, r+1)
    stage_cost: Array  # (nc, nu), stored (nu, nc)
    invariance: InvarianceReport

    @cached_property
    def operator(self):
        """The control-major CSR sweep operator (:func:`_accel.sweep_operator`),
        built once; its ``data`` and ``indices`` are views of ``weights``
        and ``indices`` when these are stored control-major."""
        return _accel.sweep_operator(self.indices.swapaxes(0, 1), self.weights.swapaxes(0, 1))

    @cached_property
    def scaled_cost(self):
        """``h * stage_cost``, the cost term of every sweep, formed once as a
        (nu, nc) array (C-contiguous for control-major storage)."""
        return self.h * self.stage_cost.T


@dataclass(frozen=True)
class ValueFunction:
    """Converged (or flagged) nodal values of the discrete value function.

    ``iterations`` counts greedy sweeps, and ``residual_history`` and
    ``argmin_change_history`` hold one entry per greedy sweep.
    """

    grid: SimplexGrid
    values: Array
    lam: float
    h: float
    iterations: int
    final_residual: float
    converged: bool
    stop_tol: float
    residual_history: Array = field(repr=False, default=None)
    argmin_change_history: Array = field(repr=False, default=None)

    @property
    def error_bound(self) -> float:
        """Bound on ``max|values - v*|``, v* the fixed point:
        final_residual * (1 - lam h)/(lam h).  ``converged`` means it is at
        most ``stop_tol``."""
        return self.final_residual * (1.0 - self.lam * self.h) / (self.lam * self.h)


@dataclass(frozen=True)
class ControlTable:
    """Argmin control value at every grid node."""

    grid: SimplexGrid
    controls: Array  # (nc,) control values
    control_set: ControlSet

    def __post_init__(self):
        if np.shape(self.controls) != (self.grid.node_count,):
            raise ValidationError("control table must have one entry per grid node")
        if not np.all(np.isin(self.controls, self.control_set.values)):
            raise ValidationError("table entries must belong to the control set")


def build_arrival_cache(
    grid: SimplexGrid,
    rs: ReducedSystem,
    controls: ControlSet,
    h: float,
    clamp_policy: str = "clamp",
    entry_budget: int = ENTRY_BUDGET,
) -> ArrivalCache:
    """Evaluate f_r once per (node, control) and freeze stencils and costs.

    Arrival points leaving the box are clamped (policy "clamp") or cause a
    failure (policy "reject"); displacement statistics are recorded either
    way so domain-invariance violations are always visible.  A NaN or
    infinite arrival raises :class:`NumericalError` under either policy.
    A cache of more than ``entry_budget`` entries is refused
    (:func:`hjbgrid.check_cache_size`) before any arrival is computed.
    """
    if not h > 0:
        raise ValidationError("scheme step h must be positive")
    if clamp_policy not in ("clamp", "reject"):
        raise ValidationError(f"unknown clamp policy {clamp_policy!r}")
    lo, hi = rs.full.control_box
    vals = controls.values
    if vals[0] < lo - 1e-12 or vals[-1] > hi + 1e-12:
        raise ValidationError("control set exceeds the admissible control box")

    check_cache_size(grid, vals.size, entry_budget)
    nc = grid.node_count
    nu = vals.size
    nodes = grid.all_nodes()
    # control-major storage: control l's block of nodes is contiguous
    indices = np.empty((nu, nc, grid.r + 1), dtype=np.int32)
    weights = np.empty((nu, nc, grid.r + 1))
    stage_cost = np.empty((nu, nc))

    def freeze(l, rows, clipped):
        indices[l, rows], weights[l, rows] = stencil_batch(grid, clipped)
        stage_cost[l, rows] = rs.cost_batch(nodes[rows], float(vals[l]))

    report, _, _ = clipped_arrivals(rs, grid.box, nodes, vals, h, visit=freeze)
    if clamp_policy == "reject" and report.violations:
        raise NumericalError(
            f"invariance violated at {report.violations} of {nc * nu} arrival points "
            "(clamp policy 'reject')"
        )
    return ArrivalCache(
        grid=grid,
        control_values=vals.copy(),
        h=float(h),
        indices=indices.swapaxes(0, 1),
        weights=weights.swapaxes(0, 1),
        stage_cost=stage_cost.T,
        invariance=report,
    )


def sweep_once(cache: ArrivalCache, v: Array, lam: float, h: float) -> tuple[Array, Array]:
    """Apply the dynamic-programming operator once; returns (values, argmin).

    ``h`` must be the step the cache's arrivals were built for.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (cache.grid.node_count,):
        raise ValidationError("nodal vector has wrong length")
    if h != cache.h:
        raise ValidationError(f"sweep step h={h:g} differs from the arrival cache's h={cache.h:g}")
    return _accel.sweep_with(cache.operator, v, cache.scaled_cost, 1.0 - lam * h)


def value_iteration(
    cache: ArrivalCache,
    v0: Array,
    lam: float,
    h: float,
    stop_tol: float,
    max_iters: int = 100_000,
) -> tuple[ValueFunction, ControlTable]:
    """Howard policy iteration of the discrete scheme.

    Each iteration is one greedy sweep, ``T v`` and its argmin policy pi,
    whose residual ``max|T v - v|`` bounds the distance of ``T v`` from the
    fixed point by ``residual * (1 - lam h) / (lam h)``
    (:attr:`ValueFunction.error_bound`).  Once that bound is at most
    ``stop_tol``, ``T v`` and pi are returned.  Otherwise pi is evaluated:
    ``(I - (1 - lam h) W_pi) v = h g_pi`` is solved by BiCGSTAB from ``T v``,
    with ``W_pi`` the rows of the cache's sweep operator that pi selects
    (Alla, Falcone & Kalise, SISC 37, 2015).  The stop rests on the greedy
    residual alone, so an evaluation that misses its tolerance only warns.
    ``iterations`` and both histories count greedy sweeps.  Hitting
    ``max_iters`` returns a result flagged as unconverged rather than
    raising, so long parameter sweeps keep partial data.  A non-finite
    ``v0`` is refused, and a sweep whose residual is NaN (a NaN reached the
    values, and would spread to every node) raises :class:`NumericalError`.
    Argmin ties resolve to the smallest control value.
    """
    from scipy.sparse import linalg as splinalg  # not loaded at import

    if not stop_tol > 0:
        raise ValidationError("stop_tol must be positive")
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    if not 0.0 < lam * h < 1.0:
        raise ValidationError("need 0 < lam*h < 1 for a contraction")
    if h > 0.5 / lam:
        warnings.warn(f"h={h:g} exceeds the recommended range h <= 1/(2*lam)")

    v = np.asarray(v0, dtype=float).copy()
    nc = cache.grid.node_count
    if v.shape != (nc,):
        raise ValidationError("initial guess has wrong length")
    if not np.all(np.isfinite(v)):
        raise ValidationError(
            f"initial guess has {np.count_nonzero(~np.isfinite(v))} non-finite values"
        )
    beta = 1.0 - lam * h
    nodes = np.arange(nc)
    eye = sparse.eye_array(nc, format="csr")
    residuals = []
    argmin_changes = []
    prev_argmin = None
    converged = False
    for iterations in range(1, max_iters + 1):
        v_new, argmin = sweep_once(cache, v, lam, h)
        residual = float(_accel.max_abs_diff(v_new, v))
        if np.isnan(residual):
            raise NumericalError(
                f"value iteration reached NaN values at sweep {iterations} "
                f"({np.count_nonzero(np.isnan(v_new))} of {v_new.size} nodes)"
            )
        residuals.append(residual)
        if prev_argmin is None:
            argmin_changes.append(nc)
        else:
            argmin_changes.append(int(np.count_nonzero(argmin != prev_argmin)))
        prev_argmin = argmin
        v = v_new
        bound = residual * beta / (lam * h)  # as ValueFunction.error_bound computes it
        if bound <= stop_tol:
            converged = True
            break
        if iterations < max_iters:
            v, info = splinalg.bicgstab(
                eye - beta * cache.operator[argmin * nc + nodes],
                cache.scaled_cost[argmin, nodes],
                x0=v,
                rtol=1e-12,
            )
            if info:
                logger.warning(
                    "policy evaluation after sweep %d: BiCGSTAB info %d", iterations, info
                )
    if not converged:
        logger.warning(
            "value iteration unconverged after %d sweeps (residual %.3e, bound %.3e, tol %.3e)",
            iterations,
            residual,
            bound,
            stop_tol,
        )

    vf = ValueFunction(
        grid=cache.grid,
        values=v,
        lam=lam,
        h=h,
        iterations=iterations,
        final_residual=residual,
        converged=converged,
        stop_tol=stop_tol,
        residual_history=np.array(residuals),
        argmin_change_history=np.array(argmin_changes, dtype=np.int64),
    )
    table = ControlTable(
        grid=cache.grid,
        controls=cache.control_values[argmin],
        control_set=ControlSet(cache.control_values),
    )
    return vf, table


def initial_value_guess(
    grid: SimplexGrid,
    rs: ReducedSystem,
    guess_controls,
    lam: float,
    h: float,
    t_e: float,
) -> Array:
    """Constant-control cost minima as the first value-function iterate.

    From every node the reduced dynamics are integrated over [0, t_e] by
    explicit fixed steps of size h for each guess control; the discounted
    cost is accumulated by left-endpoint quadrature and the minimum over
    the controls is stored.  Nodes whose integrations all blow up are
    flagged and given the surrogate value max|g_r| / lam.
    """
    controls = np.asarray(list(guess_controls), dtype=float)
    if controls.size == 0:
        raise ValidationError("need at least one guess control")
    if not (h > 0 and t_e > 0):
        raise ValidationError("h and t_e must be positive")
    n_steps = int(np.ceil(t_e / h - 1e-12))
    nodes = grid.all_nodes()
    norm_sq = np.einsum("ma,ma->m", nodes, nodes)
    blow_sq = max(1.0, 1e12 * float(norm_sq.max()))

    if rs.structured and rs.cost_cw is not None:
        vals, blown, max_g = _accel.guess_structured(
            nodes, rs.a_eff, rs.b_red, rs.cubic, controls, lam, h, n_steps, rs.cost_cw, blow_sq
        )
    else:

        def cost(y, u, sq):
            return rs.cost_batch(y, u)

        vals, blown, max_g = _accel.rollout_minima(
            nodes, controls, cost, rs.rhs_batch, lam, h, n_steps, blow_sq
        )
    if np.any(blown):
        logger.warning(
            "initial guess: %d nodes blew up under every guess control; using surrogate",
            int(np.count_nonzero(blown)),
        )
        vals = vals.copy()
        vals[blown] = max_g / lam
    return vals


@dataclass(frozen=True)
class FeedbackPolicy:
    """Interpolated nodal-argmin feedback law as a state-space operator.

    Construction checks that the basis has at least the table's rank.  Each
    call projects ``y`` onto the first r modes with the expression of
    :func:`~hjbpod.pod.project_coeffs`, clamps the coefficients into the box
    of the table's grid, interpolates the control table at that one point
    (:func:`~hjbpod.hjbgrid.interpolate`, whose grid constants are built once
    per grid) and clips to the span of the table's control set.
    """

    basis: PODBasis
    table: ControlTable

    def __post_init__(self):
        _check_rank(self.basis, self.table.grid.r)

    def __call__(self, y: Array) -> float:
        grid = self.table.grid
        box = grid.box
        basis = self.basis
        coeffs = basis.modes[: grid.r] @ (basis.weight * np.asarray(y, dtype=float))
        # box.clip's np.clip, spelled as its two ufuncs: the same values at a
        # fraction of np.clip's call overhead on an r-vector
        coeffs = np.minimum(np.maximum(coeffs, box.lower), box.upper)
        u = interpolate(grid, self.table.controls, coeffs)
        values = self.table.control_set.values
        return float(min(max(u, values[0]), values[-1]))


def simulate_closed_loop(
    sys: ControlledSystem,
    basis: PODBasis,
    table: ControlTable,
    y0: Array,
    t_e: float,
    cfg: IntegratorConfig | None = None,
    sample_dt: float = 0.05,
) -> Trajectory:
    """Integrate the closed loop ``y' = f(y, Phi(y))`` and sample it.

    ``Phi`` is the :class:`FeedbackPolicy` of the table on its own grid,
    evaluated at every rhs call.
    """
    sample_times = _uniform_times(t_e, sample_dt)
    return integrate(sys, y0, FeedbackPolicy(basis, table), (0.0, t_e), cfg, sample_times)


def evaluate_cost(sys: ControlledSystem, traj: Trajectory, lam: float) -> float:
    """Discounted running cost of a sampled trajectory (trapezoid rule)."""
    g = np.array(
        [sys.running_cost(traj.states[k], traj.controls[k]) for k in range(traj.times.size)]
    )
    integrand = np.exp(-lam * traj.times) * g
    if traj.times.size < 2:
        return 0.0
    return float(np.trapezoid(integrand, traj.times))
