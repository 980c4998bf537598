"""Discounted linear-quadratic oracle: Riccati solve and feedback.

The discounted problem (cost weighted by exp(-lam*t)) reduces to a
standard continuous algebraic Riccati equation through the substitution
``ytilde = exp(-lam*t/2) y``, which shifts the drift to ``A - (lam/2) I``.
The CARE is solved by Newton iteration with Lyapunov solves (Kleinman),
started from the zero gain, which is stabilizing when the shifted drift is
stable, as it is for the diffusion-dominated test operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ControlledSystem, IntegratorConfig, Trajectory, _uniform_times, integrate
from .errors import NumericalError, ValidationError

Array = np.ndarray

# Newton-Kleinman stops at this relative CARE residual; at a stall it
# accepts a residual up to _STALL_TOL, and it gives up after _MAX_ITERS steps.
_RTOL = 1e-12
_STALL_TOL = 1e-10
_MAX_ITERS = 60
# Floor of the reference control magnitude in compare_controls.
_CONTROL_FLOOR = 1e-3


@dataclass(frozen=True)
class CareSolution:
    """Stabilizing CARE solution, the feedback gain row, and the residual; not the CARE's data."""

    P: Array
    gain: Array  # (n,) row of R^{-1} B^T P
    residual: float  # relative Frobenius norm of the CARE residual
    residual_history: Array

    def __post_init__(self):
        sym_dev = float(np.max(np.abs(self.P - self.P.T)))
        if sym_dev > 1e-10 * max(1.0, float(np.max(np.abs(self.P)))):
            raise ValidationError("CARE solution must be symmetric")


def solve_care(A: Array, B: Array, Q: Array, R: float, lam: float = 0.0) -> CareSolution:
    """Solve the discounted CARE by Newton-Kleinman iteration from the zero gain.

    With ``Abar = A - (lam/2) I``, finds symmetric PSD ``P`` with

        Abar^T P + P Abar - P B R^{-1} B^T P + Q = 0.

    ``B`` is a single input column given as a vector; ``R`` is scalar.
    Raises :class:`NumericalError` if ``Abar`` is not stable (the zero gain
    is then no stabilizing start) or if the iteration stagnates.  The first
    call imports ``scipy.linalg``.
    """
    # here rather than at the top: only the Riccati solve and test 1 use scipy.linalg
    from scipy.linalg import solve_continuous_lyapunov

    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).ravel()
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n,) or Q.shape != (n, n):
        raise ValidationError("A, Q must be (n, n) and B length n")
    if not R > 0:
        raise ValidationError("R must be positive")

    a_bar = A - 0.5 * lam * np.eye(n)
    K = np.zeros(n)
    spectral = np.max(np.linalg.eigvals(a_bar).real)
    if spectral >= 0:
        raise NumericalError(f"zero gain is not stabilizing (max Re eig = {spectral:.3e})")

    q_norm = max(float(np.linalg.norm(Q)), np.finfo(float).tiny)

    def care_residual(P: Array) -> float:
        res = a_bar.T @ P + P @ a_bar - np.outer(P @ B, B @ P) / R + Q
        return float(np.linalg.norm(res)) / q_norm

    history = []
    P = None
    for _ in range(_MAX_ITERS):
        a_cl = a_bar - np.outer(B, K)
        rhs = -(Q + R * np.outer(K, K))
        P = solve_continuous_lyapunov(a_cl.T, rhs)
        P = 0.5 * (P + P.T)
        K = (P @ B) / R
        history.append(care_residual(P))
        if history[-1] <= _RTOL:
            break
        # Two consecutive slow steps mean quadratic convergence has hit its
        # roundoff floor; accept only if the floor is already tight.
        if (
            len(history) >= 3
            and history[-1] > 0.5 * history[-2]
            and history[-2] > 0.5 * history[-3]
        ):
            if history[-1] <= _STALL_TOL:
                break
            raise NumericalError(f"Newton iteration stagnated at residual {history[-1]:.3e}")
    else:
        raise NumericalError(
            f"Newton iteration did not reach rtol={_RTOL:g} in {_MAX_ITERS} steps "
            f"(residual {history[-1]:.3e})"
        )

    eig_min = float(np.min(np.linalg.eigvalsh(P)))
    if eig_min < -1e-8 * max(1.0, float(np.max(np.abs(P)))):
        raise NumericalError(f"CARE solution is not PSD (min eig {eig_min:.3e})")
    return CareSolution(
        P=P,
        gain=(P @ B) / R,
        residual=history[-1],
        residual_history=np.array(history),
    )


def linear_quadratic_data(sys: ControlledSystem, lam: float) -> tuple[Array, Array, Array, float]:
    """Extract (A, B, Q, R) of a linear system with weighted-quadratic cost."""
    st = sys.structure
    if st is None or st.nonlinearity is not None or st.quadratic_cost_control_weight is None:
        raise ValidationError("system is not linear-quadratic; cannot form CARE data")
    return st.linear, st.control_gain, np.diag(sys.weight), float(
        st.quadratic_cost_control_weight
    )


def simulate_lqr(
    sys: ControlledSystem,
    care: CareSolution,
    y0: Array,
    t_e: float,
    cfg: IntegratorConfig | None = None,
    sample_dt: float = 0.05,
) -> Trajectory:
    """Closed-loop trajectory under the (unclipped) LQR feedback law
    ``u = -R^{-1} B^T P y = -gain . y``.

    LSODA gets the system's Jacobian ``A``, as for every feedback in
    :func:`~hjbpod.dynamics.integrate`.
    """
    sample_times = _uniform_times(t_e, sample_dt)
    law = lambda y: float(-np.dot(care.gain, y))
    return integrate(sys, y0, law, (0.0, t_e), cfg, sample_times)


@dataclass(frozen=True)
class ControlComparison:
    """Pointwise relative gap between two control series on a common grid."""

    times: Array
    relative_error: Array  # |u_a - u_b| / max(1e-3, |u_b|)
    median: float
    max: float


def compare_controls(
    u_hjb: Array, u_lqr: Array, times_hjb: Array, times_lqr: Array
) -> ControlComparison:
    """Relative error of a control series against a reference series on the same times.

    The reference magnitude is floored at 1e-3 so near-zero reference
    controls do not inflate the ratio unboundedly.  Raises
    :class:`ValidationError` if the two time grids do not line up.
    """
    u_hjb = np.asarray(u_hjb, dtype=float)
    u_lqr = np.asarray(u_lqr, dtype=float)
    times_hjb = np.asarray(times_hjb, dtype=float)
    times_lqr = np.asarray(times_lqr, dtype=float)
    if not (
        times_hjb.shape == times_lqr.shape
        and np.allclose(times_hjb, times_lqr, rtol=0.0, atol=1e-12)
    ):
        raise ValidationError("control series are sampled on misaligned time grids")
    ratio = np.abs(u_hjb - u_lqr) / np.maximum(_CONTROL_FLOOR, np.abs(u_lqr))
    return ControlComparison(
        times=times_hjb,
        relative_error=ratio,
        median=float(np.median(ratio)),
        max=float(np.max(ratio)),
    )
