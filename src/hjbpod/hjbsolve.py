"""Value iteration for the fully discrete dynamic-programming equation on a
reduced grid, feedback synthesis, and closed-loop evaluation.

The nodal fixed-point relation is

    v(i) = min_u { (1 - lam*h) * I[v](y_i + h f_r(y_i, u)) + h g_r(y_i, u) },

with I the piecewise-linear interpolation of the grid.  Arrival points,
their interpolation stencils and the stage costs are static across sweeps
and precomputed into an :class:`ArrivalCache`; each Jacobi sweep is then one
sparse matrix-vector product over every (node, control) pair followed by a
minimum over the controls, a contraction with factor (1 - lam*h).
There are no compiled or parallel kernels.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .dynamics import ControlledSystem, IntegratorConfig, Trajectory, integrate
from .errors import CacheBudgetError, NumericalError, ValidationError
from .hjbgrid import SimplexGrid, interpolate, interpolate_gradient, stencil_batch
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

    @classmethod
    def uniform(cls, lo: float, hi: float, count: int) -> "ControlSet":
        if count < 1:
            raise ValidationError("control count must be >= 1")
        return cls(np.linspace(lo, hi, count))


@dataclass(frozen=True)
class ArrivalCache:
    """Per (node, control): stencil of the clamped arrival point and stage cost."""

    grid: SimplexGrid
    control_values: Array  # (nu,)
    h: float
    indices: Array  # (nc, nu, r+1) int32
    weights: Array  # (nc, nu, r+1)
    stage_cost: Array  # (nc, nu)
    invariance: InvarianceReport
    clamp_policy: str
    max_abs_cost: float


@dataclass(frozen=True)
class ValueFunction:
    """Converged (or flagged) nodal values of the discrete value function."""

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
        """Fixed-point distance bound final_residual * (1 - lam h)/(lam h)."""
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
    entry_budget: int = 200_000_000,
) -> ArrivalCache:
    """Evaluate f_r once per (node, control) and freeze stencils and costs.

    Arrival points leaving the box are clamped (policy "clamp") or cause a
    failure (policy "reject"); displacement statistics are recorded either
    way so domain-invariance violations are always visible.
    """
    if h <= 0:
        raise ValidationError("scheme step h must be positive")
    if clamp_policy not in ("clamp", "reject"):
        raise ValidationError(f"unknown clamp policy {clamp_policy!r}")
    if entry_budget > np.iinfo(np.int32).max:
        # the sweep addresses the cache through an int32 CSR row pointer
        raise ValidationError(f"cache entry budget {entry_budget} exceeds the int32 range")
    lo, hi = rs.full.control_box
    vals = controls.values
    if vals[0] < lo - 1e-12 or vals[-1] > hi + 1e-12:
        raise ValidationError("control set exceeds the admissible control box")

    nc = grid.node_count
    nu = vals.size
    entries = nc * nu * (grid.r + 1)
    if entries > entry_budget:
        raise CacheBudgetError(
            f"arrival cache needs {entries} entries, exceeding budget {entry_budget}"
        )

    nodes = grid.all_nodes()
    indices = np.empty((nc, nu, grid.r + 1), dtype=np.int32)
    weights = np.empty((nc, nu, grid.r + 1))
    stage_cost = np.empty((nc, nu))

    def freeze(l, rows, clipped):
        indices[rows, l, :], weights[rows, l, :] = stencil_batch(grid, clipped)
        stage_cost[rows, l] = rs.cost_batch(nodes[rows], float(vals[l]))

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
        indices=indices,
        weights=weights,
        stage_cost=stage_cost,
        invariance=report,
        clamp_policy=clamp_policy,
        max_abs_cost=float(np.max(np.abs(stage_cost))),
    )


def sweep_once(cache: ArrivalCache, v: Array, lam: float, h: float) -> tuple[Array, Array]:
    """Apply the dynamic-programming operator once; returns (values, argmin)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (cache.grid.node_count,):
        raise ValidationError("nodal vector has wrong length")
    return _accel.sweep(v, cache.indices, cache.weights, cache.stage_cost, 1.0 - lam * h, h)


def value_iteration(
    cache: ArrivalCache,
    v0: Array,
    lam: float,
    h: float,
    stop_tol: float,
    max_iters: int = 100_000,
) -> tuple[ValueFunction, ControlTable]:
    """Fixed-point (Jacobi) iteration of the discrete scheme.

    Stops when two consecutive iterates differ by less than ``stop_tol`` in
    the maximum norm.  Hitting ``max_iters`` returns a result flagged as
    unconverged rather than raising, so long parameter sweeps keep partial
    data.  Argmin ties resolve to the smallest control value.
    """
    if stop_tol <= 0:
        raise ValidationError("stop_tol must be positive")
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    if not 0.0 < lam * h < 1.0:
        raise ValidationError("need 0 < lam*h < 1 for a contraction")
    if h > 0.5 / lam:
        warnings.warn(f"h={h:g} exceeds the recommended range h <= 1/(2*lam)")

    v = np.asarray(v0, dtype=float).copy()
    if v.shape != (cache.grid.node_count,):
        raise ValidationError("initial guess has wrong length")
    residuals = []
    argmin_changes = []
    prev_argmin = None
    converged = False
    iterations = 0
    residual = np.inf
    argmin = None
    for iterations in range(1, max_iters + 1):
        v_new, argmin = sweep_once(cache, v, lam, h)
        residual = float(_accel.max_abs_diff(v_new, v))
        residuals.append(residual)
        if prev_argmin is None:
            argmin_changes.append(cache.grid.node_count)
        else:
            argmin_changes.append(int(np.count_nonzero(argmin != prev_argmin)))
        prev_argmin = argmin
        v = v_new
        if residual < stop_tol:
            converged = True
            break
    if not converged:
        logger.warning(
            "value iteration unconverged after %d sweeps (residual %.3e, tol %.3e)",
            iterations,
            residual,
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
    if h <= 0 or t_e <= 0:
        raise ValidationError("h and t_e must be positive")
    n_steps = int(np.ceil(t_e / h - 1e-12))
    nodes = grid.all_nodes()
    norm_sq = np.einsum("ma,ma->m", nodes, nodes)
    blow_sq = max(1.0, 1e12 * float(norm_sq.max()))

    if rs.structured and rs.cost_cw is not None:
        vals, blown, gmax = _accel.guess_structured(
            nodes, rs.a_eff, rs.b_red, rs.cubic, controls, lam, h, n_steps, rs.cost_cw, blow_sq
        )
    else:
        vals, blown, gmax = _accel.rollout_minima(
            nodes, controls, rs.cost_batch, rs.rhs_batch, lam, h, n_steps, blow_sq
        )
    max_g = float(gmax.max()) if gmax.size else 0.0

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
    :meth:`gradient` differentiates the law, so that :func:`integrate` can
    give LSODA the exact closed-loop Jacobian.
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

    def gradient(self, y: Array) -> Array:
        """Gradient of the law in ``y``: the chain rule through the projection,
        the box clamp (flat outside the box) and the interpolant.  The final
        clip never binds, since interpolated table values stay inside the
        control span."""
        grid = self.table.grid
        modes = self.basis.modes[: grid.r]
        weight = self.basis.weight
        coeffs = modes @ (weight * np.asarray(y, dtype=float))
        return weight * (interpolate_gradient(grid, self.table.controls, coeffs) @ modes)


def simulate_closed_loop(
    sys: ControlledSystem,
    basis: PODBasis,
    table: ControlTable,
    y0: Array,
    t_e: float,
    cfg: IntegratorConfig | None = None,
    sample_dt: float = 0.05,
    sample_hold: bool = False,
) -> Trajectory:
    """Integrate the closed loop ``y' = f(y, Phi(y))`` and sample it.

    ``Phi`` is the :class:`FeedbackPolicy` of the table on its own grid.
    By default the feedback is evaluated continuously (at every rhs call);
    with ``sample_hold`` the control is frozen over each sampling interval.
    """
    policy = FeedbackPolicy(basis, table)
    n_samp = int(round(t_e / sample_dt))
    sample_times = np.linspace(0.0, t_e, n_samp + 1)
    if not sample_hold:
        return integrate(sys, y0, policy, (0.0, t_e), cfg, sample_times)

    cfg = cfg or IntegratorConfig()
    states = [np.asarray(y0, dtype=float)]
    controls = []
    y = states[0]
    for k in range(n_samp):
        u = policy(y)
        controls.append(u)
        seg = integrate(sys, y, u, (sample_times[k], sample_times[k + 1]), cfg)
        y = seg.states[-1]
        states.append(y)
    controls.append(policy(y))
    return Trajectory(sample_times, np.array(states), np.array(controls))


def evaluate_cost(sys: ControlledSystem, traj: Trajectory, lam: float) -> float:
    """Discounted running cost of a sampled trajectory (trapezoid rule)."""
    g = np.array(
        [sys.running_cost(traj.states[k], traj.controls[k]) for k in range(traj.times.size)]
    )
    integrand = np.exp(-lam * traj.times) * g
    if traj.times.size < 2:
        return 0.0
    return float(np.trapezoid(integrand, traj.times))
