"""Controlled ODE systems, the two semidiscretized PDE test problems, and
time integration.

Both test problems are finite-difference semidiscretizations of a 1-D
convection-reaction-diffusion equation with homogeneous Dirichlet boundary
conditions; the state vector holds the interior nodes only.  States are
measured in the weighted norm ``|y|^2 = sum_j w_j y_j^2`` whose weights
approximate the L2 inner product on the spatial interval.
"""

from __future__ import annotations

import csv
import importlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import (
    IntegrationFailure,
    InvalidDiscretizationError,
    ValidationError,
)

Array = np.ndarray


@dataclass(frozen=True)
class SystemStructure:
    """Optional algebraic structure of a system's right-hand side.

    When present, ``rhs(y, u) == linear @ y + nonlin(y) + u * control_gain``
    with ``nonlin`` selected by tag.  The exact reduced operators key off
    this; the callable ``rhs`` remains the source of truth.
    """

    linear: Array
    control_gain: Array
    nonlinearity: str | None = None  # None or "bistable_cubic" (adds y - y**3)
    quadratic_cost_control_weight: float | None = None  # g = |y|_w^2 + cw*u^2


@dataclass(frozen=True)
class ControlledSystem:
    """A finite-dimensional controlled dynamical system with running cost.

    Attributes
    ----------
    n : state dimension.
    rhs : ``(y, u) -> dy/dt`` for a state vector and a scalar control.
    running_cost : ``(y, u) -> float`` cost rate.
    weight : positive quadrature weights of the state inner product.
    control_box : admissible control interval ``(u_a, u_b)``.
    label : identifier used in artifacts.
    rhs_batch : optional vectorized rhs over stacked states ``(m, n)``.
    jacobian : optional ``(y, u) -> d rhs/dy`` for implicit integrators.
    structure : optional :class:`SystemStructure` hints.
    """

    n: int
    rhs: Callable[[Array, float], Array]
    running_cost: Callable[[Array, float], float]
    weight: Array
    control_box: tuple[float, float]
    label: str
    rhs_batch: Callable[[Array, float], Array] | None = None
    jacobian: Callable[[Array, float], Array] | None = None
    structure: SystemStructure | None = None

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        if w.shape != (self.n,):
            raise ValidationError(f"weight must have shape ({self.n},), got {w.shape}")
        if not np.all(w > 0):
            raise ValidationError("all inner-product weights must be strictly positive")
        if not self.control_box[0] < self.control_box[1]:
            raise ValidationError("control_box must satisfy u_a < u_b")
        object.__setattr__(self, "weight", w)

    def weighted_norm(self, y: Array) -> float:
        """Norm induced by the quadrature weights."""
        y = np.asarray(y, dtype=float)
        return float(np.sqrt(np.dot(self.weight, y * y)))


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of a controlled system.

    ``derivatives`` holds rhs evaluations at the sampled states when they
    were requested (never finite differences of the states).
    """

    times: Array
    states: Array  # (k, n)
    controls: Array  # (k,)
    derivatives: Array | None = None  # (k, n)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValidationError("trajectory times must be strictly increasing")
        k = t.size
        if self.states.shape[0] != k or self.controls.shape[0] != k:
            raise ValidationError("states/controls must match times length")
        if self.derivatives is not None and self.derivatives.shape != self.states.shape:
            raise ValidationError("derivatives must match states shape")


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and method selection for :func:`integrate`.

    ``method`` is either ``"stiff"`` (adaptive implicit, suitable for the
    diffusion-dominated test problems) or ``"explicit"`` (adaptive
    Runge-Kutta).
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    max_step: float = np.inf
    method: str = "stiff"

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValidationError("integrator tolerances must be positive")
        if self.max_step <= 0:
            raise ValidationError("max_step must be positive")
        if self.method not in ("stiff", "explicit"):
            raise ValidationError(f"unknown integrator method {self.method!r}")


def _tridiag_matvec(sub: float, diag: float, sup: float, y: Array) -> Array:
    """Apply a constant-coefficient tridiagonal operator along the last axis."""
    out = diag * y
    out[..., :-1] += sup * y[..., 1:]
    out[..., 1:] += sub * y[..., :-1]
    return out


def build_test1(N: int) -> ControlledSystem:
    """Semilinear reaction-diffusion test problem on (0, 1).

    Fourth-order compact finite differences for the diffusion term: with
    tridiagonal ``A`` (second difference) and ``C`` (compact mass matrix),
    the interior-node dynamics are

        y' = (1/10) C^{-1} A y + y (1 - y^2) + u * B,

    with source profile ``B_j = 2 x_j (1 - x_j)``, cost rate
    ``|y|_w^2 + u^2/100`` and admissible controls in [-1, 1].  The Cholesky
    factorization of ``C`` is computed once here.
    """
    if N < 4:
        raise InvalidDiscretizationError(f"need N >= 4 cells, got {N}")
    n = N - 1
    dx = 1.0 / N
    x = dx * np.arange(1, N)
    B = 2.0 * x * (1.0 - x)
    weight = np.full(n, dx)

    # C = tridiag(1, 10, 1)/12, banded upper form for cholesky_banded.
    ab = np.zeros((2, n))
    ab[0, 1:] = 1.0 / 12.0
    ab[1, :] = 10.0 / 12.0
    c_factor = cholesky_banded(ab)

    inv_dx2 = 1.0 / (dx * dx)

    def apply_a_over_10(y: Array) -> Array:
        return _tridiag_matvec(inv_dx2, -2.0 * inv_dx2, inv_dx2, np.asarray(y, dtype=float)) / 10.0

    def rhs(y: Array, u: float) -> Array:
        y = np.asarray(y, dtype=float)
        diff = cho_solve_banded((c_factor, False), apply_a_over_10(y))
        return diff + y * (1.0 - y * y) + u * B

    def rhs_batch(Y: Array, u: float) -> Array:
        Y = np.asarray(Y, dtype=float)
        diff = cho_solve_banded((c_factor, False), apply_a_over_10(Y).T).T
        return diff + Y * (1.0 - Y * Y) + u * B

    def running_cost(y: Array, u: float) -> float:
        y = np.asarray(y, dtype=float)
        return float(np.dot(weight, y * y) + u * u / 100.0)

    # Dense C^{-1}A/10 for Jacobians and reduced-operator precomputation.
    a_dense = (
        np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    ) * inv_dx2
    d_dense = cho_solve_banded((c_factor, False), a_dense / 10.0)

    def jacobian(y: Array, u: float) -> Array:
        return d_dense + np.diag(1.0 - 3.0 * y * y)

    structure = SystemStructure(
        linear=d_dense,
        control_gain=B,
        nonlinearity="bistable_cubic",
        quadratic_cost_control_weight=0.01,
    )
    return ControlledSystem(
        n=n,
        rhs=rhs,
        running_cost=running_cost,
        weight=weight,
        control_box=(-1.0, 1.0),
        label=f"test1-N{N}",
        rhs_batch=rhs_batch,
        jacobian=jacobian,
        structure=structure,
    )


def build_test2(N: int, control_box: tuple[float, float] = (-2.2, 0.0)) -> ControlledSystem:
    """Linear advection-diffusion test problem on (0, 2).

    Standard second-order centered differences,

        y_j' = (y_{j+1} - 2 y_j + y_{j-1}) / (10 dx^2)
               - (y_{j+1} - y_{j-1}) / (2 dx) + u * b(x_j),

    with ``b`` the indicator of (1/2, 1), cost rate ``|y|_w^2 + u^2/100``.
    The admissible control interval is configurable; the default brackets
    the snapshot controls {-2.2, -1.1, 0}.
    """
    if N < 4:
        raise InvalidDiscretizationError(f"need N >= 4 cells, got {N}")
    n = N - 1
    dx = 2.0 / N
    x = dx * np.arange(1, N)
    b = ((x > 0.5) & (x < 1.0)).astype(float)
    weight = np.full(n, dx)

    sub = 1.0 / (10.0 * dx * dx) + 1.0 / (2.0 * dx)
    diag = -2.0 / (10.0 * dx * dx)
    sup = 1.0 / (10.0 * dx * dx) - 1.0 / (2.0 * dx)

    def rhs(y: Array, u: float) -> Array:
        return _tridiag_matvec(sub, diag, sup, np.asarray(y, dtype=float)) + u * b

    def rhs_batch(Y: Array, u: float) -> Array:
        return _tridiag_matvec(sub, diag, sup, np.asarray(Y, dtype=float)) + u * b

    def running_cost(y: Array, u: float) -> float:
        y = np.asarray(y, dtype=float)
        return float(np.dot(weight, y * y) + u * u / 100.0)

    a_dense = np.diag(np.full(n, diag)) + np.diag(np.full(n - 1, sup), 1) + np.diag(
        np.full(n - 1, sub), -1
    )

    def jacobian(y: Array, u: float) -> Array:
        return a_dense

    structure = SystemStructure(
        linear=a_dense,
        control_gain=b,
        nonlinearity=None,
        quadratic_cost_control_weight=0.01,
    )
    return ControlledSystem(
        n=n,
        rhs=rhs,
        running_cost=running_cost,
        weight=weight,
        control_box=control_box,
        label=f"test2-N{N}",
        rhs_batch=rhs_batch,
        jacobian=jacobian,
        structure=structure,
    )


def test1_initial_state(N: int) -> Array:
    """Parabolic bump 2x(1-x) at the interior nodes (also the control profile)."""
    dx = 1.0 / N
    x = dx * np.arange(1, N)
    return 2.0 * x * (1.0 - x)


def test2_initial_state(N: int) -> Array:
    """Positive half-sine hump max(0, 0.5 sin(pi x)) at the interior nodes."""
    dx = 2.0 / N
    x = dx * np.arange(1, N)
    return np.maximum(0.0, 0.5 * np.sin(np.pi * x))


def integrate(
    sys: ControlledSystem,
    y0: Array,
    control,
    t_span: tuple[float, float],
    cfg: IntegratorConfig | None = None,
    sample_times: Sequence[float] | None = None,
    with_derivatives: bool = False,
) -> Trajectory:
    """Integrate ``y' = f(y, u)`` and sample the solution.

    ``control`` is a scalar (held constant) or a state feedback ``u(y)``.
    A feedback closes the loop: the system Jacobian lacks its term, so the
    stiff solver then differences the closed-loop rhs instead.  Sampled
    controls are the controls at the sampled states; sampled derivatives,
    when requested, are rhs evaluations there.  Raises
    :class:`IntegrationFailure` carrying the failure time if the solver
    cannot complete the span.
    """
    cfg = cfg or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t0:
        raise ValidationError("t_span must satisfy t0 <= t1")
    if callable(control):
        law, jac = control, None
    else:
        value = float(control)
        law = lambda y: value
        jac = None if sys.jacobian is None else (lambda t, y: sys.jacobian(y, value))
    y0 = np.asarray(y0, dtype=float)

    if sample_times is None:
        sample_times = np.array([t0, t1]) if t1 > t0 else np.array([t0])
    ts = np.asarray(sample_times, dtype=float)
    if ts.size and (ts[0] < t0 - 1e-12 or ts[-1] > t1 + 1e-12):
        raise ValidationError("sample_times must lie within t_span")

    if t1 == t0:
        ts = np.array([t0])
        states = y0[None, :].copy()
    else:
        method = "LSODA" if cfg.method == "stiff" else "RK45"
        kwargs = {"jac": jac} if method == "LSODA" and jac is not None else {}
        sol = solve_ivp(
            lambda t, y: sys.rhs(y, law(y)),
            (t0, t1),
            y0,
            method=method,
            dense_output=True,
            rtol=cfg.rel_tol,
            atol=cfg.abs_tol,
            max_step=cfg.max_step,
            **kwargs,
        )
        if not sol.success:
            t_fail = float(sol.t[-1]) if sol.t.size else t0
            y_fail = sol.y[:, -1] if sol.t.size else y0
            raise IntegrationFailure(f"integration failed: {sol.message}", t_fail, y_fail)
        states = np.ascontiguousarray(sol.sol(ts).T)

    controls = np.array([law(y) for y in states], dtype=float)
    derivs = None
    if with_derivatives:
        derivs = np.empty_like(states)
        for k in range(states.shape[0]):
            derivs[k] = sys.rhs(states[k], controls[k])
    return Trajectory(ts, states, controls, derivs)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with header ``t, y_1..y_n, u``."""
    n = traj.states.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"y_{j}" for j in range(1, n + 1)] + ["u"])
        for k in range(traj.times.size):
            row = [repr(float(traj.times[k]))]
            row += [repr(float(v)) for v in traj.states[k]]
            row.append(repr(float(traj.controls[k])))
            writer.writerow(row)


def load_system(config: dict) -> ControlledSystem:
    """Build a system from a configuration mapping.

    Recognized keys: ``test`` ("test1" | "test2" | "custom"), ``N``,
    ``control_box`` (test2 override), and for custom systems ``factory`` as
    a ``"module:function"`` path returning a :class:`ControlledSystem`.
    """
    test = config.get("test")
    if test == "test1":
        return build_test1(int(config.get("N", 100)))
    if test == "test2":
        box = config.get("control_box")
        if box is not None:
            return build_test2(int(config.get("N", 100)), control_box=(float(box[0]), float(box[1])))
        return build_test2(int(config.get("N", 100)))
    if test == "custom":
        factory = config.get("factory")
        if not factory or ":" not in factory:
            raise ValidationError("custom system needs factory 'module:function'")
        mod_name, fn_name = factory.split(":", 1)
        fn = getattr(importlib.import_module(mod_name), fn_name)
        sys_obj = fn(config)
        if not isinstance(sys_obj, ControlledSystem):
            raise ValidationError("custom factory must return a ControlledSystem")
        return sys_obj
    raise ValidationError(f"unknown test id {test!r}")
