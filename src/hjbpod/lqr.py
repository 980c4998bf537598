"""Discounted linear-quadratic oracle: Riccati solve and feedback.

The discounted problem (cost weighted by exp(-lam*t)) reduces to a
standard continuous algebraic Riccati equation through the substitution
``ytilde = exp(-lam*t/2) y``, which shifts the drift to ``A - (lam/2) I``.
The CARE is solved by Newton iteration with Lyapunov solves (Kleinman),
started from a stabilizing gain; for the diffusion-dominated test operator
the shifted drift is already stable, so the zero gain is admissible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .dynamics import ControlledSystem, IntegratorConfig, Trajectory, integrate
from .errors import CareSolveError, ValidationError

Array = np.ndarray


@dataclass(frozen=True)
class CareSolution:
    """Stabilizing CARE solution, the feedback gain row, and the residual."""

    P: Array
    gain: Array  # (n,) row of R^{-1} B^T P
    residual: float  # relative Frobenius norm of the CARE residual
    residual_history: Array
    A_shifted: Array
    B: Array

    def __post_init__(self):
        sym_dev = float(np.max(np.abs(self.P - self.P.T)))
        if sym_dev > 1e-10 * max(1.0, float(np.max(np.abs(self.P)))):
            raise ValidationError("CARE solution must be symmetric")


def solve_care(
    A: Array,
    B: Array,
    Q: Array,
    R: float,
    lam: float = 0.0,
    rtol: float = 1e-12,
    stall_tol: float = 1e-10,
    max_iters: int = 60,
    K0: Array | None = None,
) -> CareSolution:
    """Solve the discounted CARE by Newton-Kleinman iteration.

    With ``Abar = A - (lam/2) I``, finds symmetric PSD ``P`` with

        Abar^T P + P Abar - P B R^{-1} B^T P + Q = 0.

    ``B`` is a single input column given as a vector; ``R`` is scalar.
    Raises :class:`CareSolveError` (with the residual history) if no
    stabilizing start exists or the iteration stagnates.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).ravel()
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n,) or Q.shape != (n, n):
        raise ValidationError("A, Q must be (n, n) and B length n")
    if R <= 0:
        raise ValidationError("R must be positive")

    a_bar = A - 0.5 * lam * np.eye(n)
    K = np.zeros(n) if K0 is None else np.asarray(K0, dtype=float).ravel()
    spectral = np.max(np.linalg.eigvals(a_bar - np.outer(B, K)).real)
    if spectral >= 0:
        raise CareSolveError(
            f"initial gain is not stabilizing (max Re eig = {spectral:.3e}); "
            "provide a stabilizing K0"
        )

    q_norm = max(float(np.linalg.norm(Q)), np.finfo(float).tiny)

    def care_residual(P: Array) -> float:
        res = a_bar.T @ P + P @ a_bar - np.outer(P @ B, B @ P) / R + Q
        return float(np.linalg.norm(res)) / q_norm

    history = []
    P = None
    for _ in range(max_iters):
        a_cl = a_bar - np.outer(B, K)
        rhs = -(Q + R * np.outer(K, K))
        P = solve_continuous_lyapunov(a_cl.T, rhs)
        P = 0.5 * (P + P.T)
        K = (P @ B) / R
        history.append(care_residual(P))
        if history[-1] <= rtol:
            break
        # Two consecutive slow steps mean quadratic convergence has hit its
        # roundoff floor; accept only if the floor is already tight.
        if (
            len(history) >= 3
            and history[-1] > 0.5 * history[-2]
            and history[-2] > 0.5 * history[-3]
        ):
            if history[-1] <= stall_tol:
                break
            raise CareSolveError(
                f"Newton iteration stagnated at residual {history[-1]:.3e}", history
            )
    else:
        raise CareSolveError(
            f"Newton iteration did not reach rtol={rtol:g} in {max_iters} steps "
            f"(residual {history[-1]:.3e})",
            history,
        )

    eig_min = float(np.min(np.linalg.eigvalsh(P)))
    if eig_min < -1e-8 * max(1.0, float(np.max(np.abs(P)))):
        raise CareSolveError(f"CARE solution is not PSD (min eig {eig_min:.3e})", history)
    return CareSolution(
        P=P,
        gain=(P @ B) / R,
        residual=history[-1],
        residual_history=np.array(history),
        A_shifted=a_bar,
        B=B,
    )


def lqr_feedback(care: CareSolution, y: Array) -> float:
    """Optimal linear feedback u = -R^{-1} B^T P y."""
    return float(-np.dot(care.gain, y))


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
    """Closed-loop trajectory under the (unclipped) LQR feedback law."""
    n_samp = int(round(t_e / sample_dt))
    sample_times = np.linspace(0.0, t_e, n_samp + 1)
    return integrate(sys, y0, lambda y: lqr_feedback(care, y), (0.0, t_e), cfg, sample_times)


@dataclass(frozen=True)
class ControlComparison:
    """Pointwise relative gap between two control series on a common grid."""

    times: Array
    relative_error: Array  # |u_a - u_b| / max(1e-3, |u_b|)
    median: float
    max: float


def compare_controls(
    u_hjb: Array,
    u_lqr: Array,
    times_hjb: Array | None = None,
    times_lqr: Array | None = None,
    resample: bool = False,
    floor: float = 1e-3,
) -> ControlComparison:
    """Relative error of a control series against a reference series.

    The reference magnitude is floored at ``floor`` so near-zero reference
    controls do not inflate the ratio unboundedly.  Misaligned time grids
    fail unless ``resample`` is set, in which case the reference is
    linearly resampled onto the first grid.
    """
    u_hjb = np.asarray(u_hjb, dtype=float)
    u_lqr = np.asarray(u_lqr, dtype=float)
    if times_hjb is None and times_lqr is None:
        if u_hjb.shape != u_lqr.shape:
            raise ValidationError("control series lengths differ and no time grids given")
        times = np.arange(u_hjb.size, dtype=float)
    else:
        if times_hjb is None or times_lqr is None:
            raise ValidationError("give both time grids or neither")
        times_hjb = np.asarray(times_hjb, dtype=float)
        times_lqr = np.asarray(times_lqr, dtype=float)
        aligned = times_hjb.shape == times_lqr.shape and np.allclose(
            times_hjb, times_lqr, rtol=0.0, atol=1e-12
        )
        if aligned:
            times = times_hjb
        elif resample:
            u_lqr = np.interp(times_hjb, times_lqr, u_lqr)
            times = times_hjb
        else:
            raise ValidationError("time grids are misaligned; pass resample=True to interpolate")
    ratio = np.abs(u_hjb - u_lqr) / np.maximum(floor, np.abs(u_lqr))
    return ControlComparison(
        times=times,
        relative_error=ratio,
        median=float(np.median(ratio)),
        max=float(np.max(ratio)),
    )
