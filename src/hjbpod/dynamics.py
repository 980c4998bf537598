"""Controlled ODE systems, the two semidiscretized PDE test problems, and
time integration.

Both test problems are finite-difference semidiscretizations of a 1-D
convection-reaction-diffusion equation with homogeneous Dirichlet boundary
conditions; the state vector holds the interior nodes only.  States are
measured in the weighted norm ``|y|^2 = sum_j w_j y_j^2`` whose weights
approximate the L2 inner product on the spatial interval.
"""

from __future__ import annotations

import importlib
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationFailure, ValidationError

Array = np.ndarray

# Steps LSODA may take between two output times.  odeint's default of 500
# is too few for a single long interval at the default tolerance of 1e-12.
_MXSTEP = 100_000


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

    def __post_init__(self):
        if self.nonlinearity not in (None, "bistable_cubic"):
            raise ValidationError(f"unknown nonlinearity {self.nonlinearity!r}")


@dataclass(frozen=True)
class ControlledSystem:
    """A finite-dimensional controlled dynamical system with running cost.

    Attributes
    ----------
    rhs : ``(y, u) -> dy/dt`` at a scalar control, for a state ``(n,)`` or rows ``(m, n)``.
    running_cost : ``(y, u) -> float`` cost rate.
    weight : positive quadrature weights of the state inner product.
    control_box : admissible control interval ``(u_a, u_b)``.
    jacobian : optional ``(y, u) -> d rhs/dy`` at a fixed control;
        :func:`integrate` hands it to LSODA, for feedbacks too.
    structure : optional :class:`SystemStructure` hints.
    """

    rhs: Callable[[Array, float], Array]
    running_cost: Callable[[Array, float], float]
    weight: Array
    control_box: tuple[float, float]
    jacobian: Callable[[Array, float], Array] | None = None
    structure: SystemStructure | None = None

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        if w.ndim != 1:
            raise ValidationError(f"weight must be 1-D, got shape {w.shape}")
        if not np.all(w > 0):
            raise ValidationError("all inner-product weights must be strictly positive")
        if not self.control_box[0] < self.control_box[1]:
            raise ValidationError("control_box must satisfy u_a < u_b")
        object.__setattr__(self, "weight", w)

    @property
    def n(self) -> int:
        """State dimension: the length of ``weight``."""
        return self.weight.size

    def weighted_norm(self, y: Array) -> float:
        """Norm induced by the quadrature weights."""
        y = np.asarray(y, dtype=float)
        return float(np.sqrt(np.dot(self.weight, y * y)))


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of a controlled system."""

    times: Array
    states: Array  # (k, n)
    controls: Array  # (k,)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValidationError("trajectory times must be strictly increasing")
        k = t.size
        if self.states.shape[0] != k or self.controls.shape[0] != k:
            raise ValidationError("states/controls must match times length")


@dataclass(frozen=True)
class IntegratorConfig:
    """Relative and absolute tolerances of LSODA in :func:`integrate`."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValidationError("integrator tolerances must be positive")


def _tridiag_matvec(sub: float, diag: float, sup: float, y: Array) -> Array:
    """Apply a constant-coefficient tridiagonal operator along the last axis."""
    out = diag * y
    out[..., :-1] += sup * y[..., 1:]
    out[..., 1:] += sub * y[..., :-1]
    return out


def _quadratic_running_cost(weight: Array) -> Callable[[Array, float], float]:
    """The cost rate ``|y|_w^2 + u^2/100`` of both test problems."""

    def running_cost(y: Array, u: float) -> float:
        y = np.asarray(y, dtype=float)
        return float(np.dot(weight, y * y) + u * u / 100.0)

    return running_cost


def build_test1(N: int) -> ControlledSystem:
    """Semilinear reaction-diffusion test problem on (0, 1).

    Fourth-order compact finite differences for the diffusion term: with
    tridiagonal ``A`` (second difference) and ``C`` (compact mass matrix),
    the interior-node dynamics are

        y' = (1/10) C^{-1} A y + y (1 - y^2) + u * B,

    with source profile ``B_j = 2 x_j (1 - x_j)``, cost rate
    ``|y|_w^2 + u^2/100`` and admissible controls in [-1, 1].  The Cholesky
    factorization of ``C`` is computed once here, and LAPACK's banded solver
    ``pbtrs`` fetched once: ``rhs`` calls it directly, as
    ``cho_solve_banded`` does in the end, without that wrapper's per-call
    overhead, and keeps the wrapper's checks on the right-hand side (its
    length and finiteness) and on the solver's status.  The first call imports
    ``scipy.linalg``; test 2 never needs it.
    """
    # here rather than at the top: only test 1 and the Riccati solve use scipy.linalg
    from scipy.linalg import cho_solve_banded, cholesky_banded, get_lapack_funcs

    if N < 4:
        raise ValidationError(f"need N >= 4 cells, got {N}")
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
    (pbtrs,) = get_lapack_funcs(("pbtrs",), (c_factor,))

    inv_dx2 = 1.0 / (dx * dx)

    def apply_a_over_10(y: Array) -> Array:
        return _tridiag_matvec(inv_dx2, -2.0 * inv_dx2, inv_dx2, np.asarray(y, dtype=float)) / 10.0

    def rhs(Y: Array, u: float) -> Array:
        # one state (n,) or stacked states (m, n); .T is a no-op on one state
        Y = np.asarray(Y, dtype=float)
        b = np.asarray_chkfinite(apply_a_over_10(Y).T)
        if b.shape[0] != n:
            # pbtrs takes its order from b and would read past c_factor
            raise ValueError(f"state of length {b.shape[0]}, expected {n}")
        x, info = pbtrs(c_factor, b, lower=0)
        if info != 0:
            # LinAlgError is a ValueError, as the wrapper's negative-info error was
            raise np.linalg.LinAlgError(f"LAPACK pbtrs returned info={info}")
        return x.T + Y * (1.0 - Y * Y) + u * B

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
        rhs=rhs,
        running_cost=_quadratic_running_cost(weight),
        weight=weight,
        control_box=(-1.0, 1.0),
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
        raise ValidationError(f"need N >= 4 cells, got {N}")
    n = N - 1
    dx = 2.0 / N
    x = dx * np.arange(1, N)
    b = ((x > 0.5) & (x < 1.0)).astype(float)
    weight = np.full(n, dx)

    sub = 1.0 / (10.0 * dx * dx) + 1.0 / (2.0 * dx)
    diag = -2.0 / (10.0 * dx * dx)
    sup = 1.0 / (10.0 * dx * dx) - 1.0 / (2.0 * dx)

    def rhs(Y: Array, u: float) -> Array:
        # one state (n,) or stacked states (m, n)
        return _tridiag_matvec(sub, diag, sup, np.asarray(Y, dtype=float)) + u * b

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
        rhs=rhs,
        running_cost=_quadratic_running_cost(weight),
        weight=weight,
        control_box=control_box,
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
) -> Trajectory:
    """Integrate ``y' = f(y, u)`` with LSODA and sample the solution.

    ``control`` is a scalar (held constant) or a state feedback ``u(y)``.
    The span must have ``t0 < t1``; all of it, from ``t0`` to the last
    sample time, is one ``scipy.integrate.odeint`` call.  When the system
    has a ``jacobian``, LSODA gets ``jacobian(y, u(y))`` for a feedback
    (``jacobian(y, u)`` for a scalar control); otherwise it differences the
    rhs.  For a feedback this Jacobian lacks the term of ``du/dy``.  LSODA
    uses it only in its corrector's Newton matrix, so the omission changes
    the work of a step (corrector iterations, and a smaller step when they
    converge slowly), not the error test a step must pass.  Sampled
    controls are the controls at the sampled states.  ``sample_times``
    (default ``(t0, t1)``) must be strictly increasing and inside
    ``t_span``.  Raises :class:`IntegrationFailure` if LSODA does not
    complete the span or its output is not finite; the failure carries the
    last time at which the rhs was evaluated and the last sample that was
    completed.  The first call imports ``scipy.integrate``, so that
    commands which never integrate do not load it.
    """
    # here rather than at the top: scipy.integrate is most of the package's import time
    from scipy.integrate import ODEintWarning, odeint

    cfg = cfg or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t0 < t1:
        raise ValidationError("t_span must satisfy t0 < t1")
    if callable(control):
        law = control
    else:
        value = float(control)
        law = lambda y: value
    jac = None if sys.jacobian is None else (lambda t, y: sys.jacobian(y, law(y)))
    y0 = np.asarray(y0, dtype=float)

    ts = np.array([t0, t1]) if sample_times is None else np.asarray(sample_times, dtype=float)
    if np.any(np.diff(ts) <= 0):
        raise ValidationError("sample_times must be strictly increasing")
    if ts.size and (ts[0] < t0 - 1e-12 or ts[-1] > t1 + 1e-12):
        raise ValidationError("sample_times must lie within t_span")

    last_t = [t0]

    def rhs(t, y):
        last_t[0] = t
        return sys.rhs(y, law(y))

    times = np.concatenate(([t0], np.clip(ts, t0, t1)))
    with warnings.catch_warnings():
        # the failure is raised below, with its message
        warnings.simplefilter("ignore", ODEintWarning)
        out, info = odeint(
            rhs, y0, times, Dfun=jac, full_output=True, tfirst=True,
            rtol=cfg.rel_tol, atol=cfg.abs_tol, mxstep=_MXSTEP,
        )
    complete = np.isfinite(out).all(axis=1)
    failed = info["message"] != "Integration successful."
    if failed:
        # LSODA stopped before the first sample its last step did not reach
        complete[1:] &= info["tcur"] >= times[1:]
    if failed or not complete.all():
        n_done = int(np.argmin(np.append(complete, False)))
        # LSODA reports success on a rhs that turned NaN or infinite
        reason = info["message"] if failed else "the solution became NaN or infinite"
        raise IntegrationFailure(
            f"integration failed: {reason}", float(last_t[0]), out[max(n_done - 1, 0)]
        )
    states = out[1:]

    controls = np.array([law(y) for y in states], dtype=float)
    return Trajectory(ts, states, controls)


def _uniform_times(t_e: float, sample_dt: float) -> Array:
    """Times from 0 to ``t_e`` in ``round(t_e / sample_dt)`` equal steps; both positive, finite."""
    if not (0 < t_e < np.inf and 0 < sample_dt < np.inf):
        raise ValidationError("t_e and sample_dt must be positive and finite")
    return np.linspace(0.0, t_e, int(round(t_e / sample_dt)) + 1)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with header ``t, y_1..y_n, u``, numbers as ``%.17g``."""
    n = traj.states.shape[1]
    header = ",".join(["t"] + [f"y_{j}" for j in range(1, n + 1)] + ["u"])
    data = np.column_stack([traj.times, traj.states, traj.controls])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")


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
        extra = {} if box is None else {"control_box": (float(box[0]), float(box[1]))}
        return build_test2(int(config.get("N", 100)), **extra)
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
