"""Snapshot generation and proper orthogonal decomposition.

The snapshot family of each sampled trajectory consists of the scaled time
average ``sqrt(N) * ybar`` followed by the time-scale-weighted derivative
samples ``tau * y_t(t_j)``, ``j = 0..M-1``.  Modes are eigenvectors of the
(weighted) correlation matrix of these vectors, orthonormal in the system
inner product; the eigenvalue tail beyond a truncation rank measures the
mean-square projection error exactly, and combining the mean with the
derivative samples yields computable pointwise-in-time error bounds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dynamics import ControlledSystem, IntegratorConfig, Trajectory, integrate
from .errors import IntegrationFailure, NumericalError, ValidationError

logger = logging.getLogger(__name__)

Array = np.ndarray

# Relative eigenvalue floor of the basis: smaller eigenpairs are roundoff.
_DROP_TOL = 1e-12


@dataclass(frozen=True)
class SnapshotSet:
    """States and time derivatives of p trajectories on a uniform time grid."""

    p: int
    M: int
    dt: float
    states: Array  # (p, N, n) with N = M + 1
    derivs: Array  # (p, N, n)
    controls: Array  # (p,)
    weight: Array  # (n,)

    def __post_init__(self):
        N = self.M + 1
        if self.M < 1:
            raise ValidationError("need at least one sample after t = 0 (M >= 1)")
        if self.states.shape[:2] != (self.p, N) or self.derivs.shape != self.states.shape:
            raise ValidationError("states and derivs must both have shape (p, M+1, n)")
        if not self.dt > 0:
            raise ValidationError("dt must be positive")

    @property
    def N(self) -> int:
        return self.M + 1

    @property
    def T(self) -> float:
        return self.M * self.dt

    @property
    def n(self) -> int:
        return self.states.shape[2]


@dataclass(frozen=True)
class PODBasis:
    """Orthonormal modes and eigenvalues of a snapshot correlation matrix.

    ``modes`` has one mode per row; orthonormality is with respect to the
    weighted inner product carried in ``weight``.
    """

    modes: Array  # (d, n)
    eigvals: Array  # (d,), positive, non-increasing
    tau: float
    p: int
    N: int
    weight: Array  # (n,)

    def __post_init__(self):
        if np.any(self.eigvals <= 0) or np.any(np.diff(self.eigvals) > 0):
            raise ValidationError("eigenvalues must be positive and non-increasing")
        if self.modes.shape[0] != self.eigvals.shape[0]:
            raise ValidationError("modes/eigvals length mismatch")

    @property
    def d(self) -> int:
        return self.modes.shape[0]

    def tail(self, r: int) -> float:
        """Truncation energy sum(eigvals[r:])."""
        return float(np.sum(self.eigvals[r:]))

    def gram_deviation(self) -> float:
        """Max-norm deviation of the weighted mode Gram matrix from identity."""
        g = (self.modes * self.weight) @ self.modes.T
        return float(np.max(np.abs(g - np.eye(self.d))))


@dataclass(frozen=True)
class ProjectionDiagnostics:
    """Computable projection-error quantities for a snapshot set at rank r.

    ``identity_lhs`` is the mean-square projection error over all snapshot
    vectors; by the exact identity it equals ``tail``.  The per-trajectory
    arrays pair each measured quantity with its computable bound.
    """

    r: int
    tail: float
    identity_lhs: float
    traj_mean_sq: Array  # (p,) squared projection error of the trajectory mean
    traj_deriv_sq: Array  # (p,) tau^2/(M+1)-weighted derivative residual sum
    traj_bound: float  # p * tail, bounds traj_mean_sq + traj_deriv_sq
    pointwise_max_sq: Array  # (p,) max_j |y(t_j) - P y(t_j)|^2 at rank r
    pointwise_bound: Array  # (p,)

    def __post_init__(self):
        for name in ("traj_mean_sq", "traj_deriv_sq", "pointwise_max_sq", "pointwise_bound"):
            if np.any(np.asarray(getattr(self, name)) < 0):
                raise ValidationError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class RhsProjectionSeries:
    """Residual of the vector field against the reduced space along a trajectory."""

    times: Array
    residual: Array  # |(I - P) f(y(s), u(s))| at the samples
    nearest_snapshot_gap: Array | None  # min_l,n |f(y(s),u(s)) - f(y^l(t_n), u^l(t_n))|
    tail_term: float  # (M+1)/tau^2 * p * tail(r)


def generate_snapshots(
    sys: ControlledSystem,
    constant_controls,
    y0: Array,
    dt: float,
    T: float,
    cfg: IntegratorConfig | None = None,
    quotient_at_zero: bool = False,
) -> SnapshotSet:
    """Integrate one trajectory per constant control and sample states/derivatives.

    ``T`` must be positive and a multiple of ``dt``.  Derivatives are the
    system's ``rhs``, called once per trajectory on its stacked sampled
    states.  With ``quotient_at_zero`` the derivative at t=0 is replaced by
    the first difference quotient of the states, which avoids the blow-up
    of the true derivative for rough initial data.
    """
    controls = np.asarray(list(constant_controls), dtype=float)
    if controls.size == 0:
        raise ValidationError("need at least one snapshot control")
    if not T > 0:
        raise ValidationError("T must be positive")
    if not dt > 0:
        raise ValidationError("dt must be positive")
    M = int(round(T / dt))
    if M < 1 or abs(M * dt - T) > 1e-9 * max(1.0, T):
        raise ValidationError("dt must divide T")
    lo, hi = sys.control_box
    if np.any(controls < lo - 1e-12) or np.any(controls > hi + 1e-12):
        logger.warning("snapshot controls extend outside the admissible box [%g, %g]", lo, hi)

    sample_times = np.linspace(0.0, T, M + 1)
    states = np.empty((controls.size, M + 1, sys.n))
    derivs = np.empty_like(states)
    for nu, u in enumerate(controls):
        try:
            traj = integrate(sys, y0, float(u), (0.0, T), cfg, sample_times)
        except IntegrationFailure as exc:
            raise IntegrationFailure(
                f"snapshot trajectory {nu} (u={u:g}) failed: {exc.reason}", exc.time, exc.state
            ) from exc
        states[nu] = traj.states
        derivs[nu] = sys.rhs(traj.states, float(u))
    if quotient_at_zero:
        derivs[:, 0, :] = (states[:, 1, :] - states[:, 0, :]) / dt
    return SnapshotSet(
        p=controls.size,
        M=M,
        dt=float(dt),
        states=states,
        derivs=derivs,
        controls=controls,
        weight=sys.weight,
    )


def assemble_snapshot_vectors(snap: SnapshotSet, tau: float) -> Array:
    """Stack the snapshot vectors of all trajectories, grouped by trajectory.

    Per trajectory: ``sqrt(N) * ybar`` followed by ``tau * y_t(t_j)`` for
    ``j = 0..M-1``, so each trajectory contributes N = M+1 vectors.
    """
    if not tau > 0:
        raise ValidationError("snapshot time scale tau must be positive")
    p, N, n = snap.p, snap.N, snap.n
    out = np.empty((p * N, n))
    for nu in range(p):
        ybar = snap.states[nu].mean(axis=0)
        out[nu * N] = np.sqrt(N) * ybar
        out[nu * N + 1 : (nu + 1) * N] = tau * snap.derivs[nu, : N - 1]
    return out


def correlation_matrix(vectors: Array, weight: Array) -> Array:
    """Weighted Gram matrix of the snapshot vectors scaled by 1/(pN)."""
    V = np.asarray(vectors, dtype=float)
    if V.ndim != 2 or V.size == 0:
        raise ValidationError("need a nonempty 2-D stack of snapshot vectors")
    w = np.asarray(weight, dtype=float)
    if w.shape != (V.shape[1],):
        raise ValidationError("weight length must match snapshot dimension")
    K = (V * w) @ V.T / V.shape[0]
    return 0.5 * (K + K.T)


def compute_basis(snap: SnapshotSet, tau: float | None = None) -> PODBasis:
    """Eigendecompose the snapshot correlation matrix and build the modes.

    Eigenpairs with ``lambda_k <= _DROP_TOL * lambda_1`` are discarded.  The
    modes are re-orthonormalized (modified Gram-Schmidt in the weighted
    inner product, which preserves every leading span) and sign-fixed so
    the first significant component of each mode is positive.
    """
    if tau is None:
        tau = snap.T
    vectors = assemble_snapshot_vectors(snap, tau)
    K = correlation_matrix(vectors, snap.weight)
    lam, vecs = np.linalg.eigh(K)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vecs = vecs[:, order]
    if lam[0] <= 0:
        raise NumericalError("snapshot set has no positive correlation energy")
    keep = lam > _DROP_TOL * lam[0]
    lam = lam[keep]
    vecs = vecs[:, keep]
    pN = vectors.shape[0]

    modes = (vecs.T @ vectors) / (np.sqrt(pN) * np.sqrt(lam)[:, None])

    # Small trailing eigenvalues lose orthogonality to roundoff amplified by
    # lambda_1/lambda_k; polish without touching the nested spans.  Two
    # Gram-Schmidt passes keep the result orthonormal even for trailing
    # modes near the drop threshold.
    w = snap.weight
    kept_lam = []
    kept_modes = []
    for k in range(modes.shape[0]):
        v = modes[k].copy()
        for _ in range(2):
            for q in kept_modes:
                v -= np.dot(w * q, v) * q
        nrm = np.sqrt(np.dot(w * v, v))
        if nrm < 1e-7:
            logger.warning("dropping mode %d: numerically dependent on earlier modes", k)
            continue
        kept_modes.append(v / nrm)
        kept_lam.append(lam[k])
    if not kept_modes:
        raise NumericalError("all modes fell below the drop tolerance")
    modes = np.array(kept_modes)
    lam = np.array(kept_lam)

    for k in range(modes.shape[0]):
        row = modes[k]
        sig = np.nonzero(np.abs(row) > 1e-12 * np.max(np.abs(row)))[0]
        if sig.size and row[sig[0]] < 0:
            modes[k] = -row

    basis = PODBasis(
        modes=modes, eigvals=lam, tau=float(tau), p=snap.p, N=snap.N, weight=snap.weight
    )
    dev = basis.gram_deviation()
    if dev > 1e-10:
        raise NumericalError(f"mode orthonormality check failed (deviation {dev:.3e})")
    return basis


def identity_basis(weight: Array) -> PODBasis:
    """Trivial basis whose reduced space at full rank is the state space itself.

    Modes are rescaled coordinate directions, orthonormal in the weighted
    inner product; useful for running the reduced machinery as a full-space
    solver on small systems.
    """
    w = np.asarray(weight, dtype=float)
    modes = np.diag(1.0 / np.sqrt(w))
    return PODBasis(
        modes=modes, eigvals=np.ones(w.size), tau=1.0, p=0, N=0, weight=w
    )


def _check_rank(basis: PODBasis, r: int) -> int:
    if not 1 <= r <= basis.d:
        raise ValidationError(f"rank r={r} out of range 1..{basis.d}, the basis dimension")
    return int(r)


def project_coeffs(basis: PODBasis, y: Array, r: int) -> Array:
    """Coefficients of the weighted projection of y onto the first r modes."""
    r = _check_rank(basis, r)
    return basis.modes[:r] @ (basis.weight * np.asarray(y, dtype=float))


def project_coeffs_batch(basis: PODBasis, Y: Array, r: int) -> Array:
    """Row-wise :func:`project_coeffs` for stacked states (m, n) -> (m, r)."""
    r = _check_rank(basis, r)
    return np.asarray(Y, dtype=float) @ (basis.modes[:r] * basis.weight).T


def lift(basis: PODBasis, y_r: Array) -> Array:
    """Full-space vector with the given coefficients in the first r modes."""
    y_r = np.asarray(y_r, dtype=float)
    r = _check_rank(basis, y_r.shape[-1])
    return y_r @ basis.modes[:r]


def projection_error_stats(basis: PODBasis, snap: SnapshotSet, r: int) -> ProjectionDiagnostics:
    """Measured projection errors of a snapshot set against their bounds.

    Computes (i) the mean-square projection error of the snapshot vectors,
    equal to the eigenvalue tail by the exact identity, (ii) the
    per-trajectory mean/derivative residual sum with its ``p * tail``
    bound, and (iii) the pointwise-in-time maxima with the bound
    ``(3 + 24 T^2/tau^2) p tail + (16T/3) dt^2 int |y_tt|^2``, the
    second-derivative integral approximated by trapezoid quadrature on
    finite-differenced derivative samples.
    """
    r = _check_rank(basis, r)
    w = basis.weight
    tau = basis.tau
    p, N = snap.p, snap.N
    tail = basis.tail(r)

    def sq_residual(Y: Array) -> Array:
        # Rows of Y minus their rank-r projections, squared weighted norms.
        res = Y - project_coeffs_batch(basis, Y, r) @ basis.modes[:r]
        return (res * res) @ w

    vectors = assemble_snapshot_vectors(snap, tau)
    identity_lhs = float(np.mean(sq_residual(vectors)))

    traj_mean_sq = np.empty(p)
    traj_deriv_sq = np.empty(p)
    pointwise_max_sq = np.empty(p)
    pointwise_bound = np.empty(p)
    T = snap.T
    for nu in range(p):
        ybar = snap.states[nu].mean(axis=0)
        traj_mean_sq[nu] = sq_residual(ybar[None, :])[0]
        dres = sq_residual(snap.derivs[nu, : N - 1])
        traj_deriv_sq[nu] = tau * tau / N * float(np.sum(dres))
        pointwise_max_sq[nu] = float(np.max(sq_residual(snap.states[nu])))

        # central differences inside, one-sided at both ends
        ytt = np.gradient(snap.derivs[nu], snap.dt, axis=0)
        integral = float(np.trapezoid((ytt * ytt) @ w, dx=snap.dt))
        pointwise_bound[nu] = (3.0 + 24.0 * T * T / (tau * tau)) * p * tail + (
            16.0 * T / 3.0
        ) * snap.dt * snap.dt * integral

    return ProjectionDiagnostics(
        r=r,
        tail=tail,
        identity_lhs=identity_lhs,
        traj_mean_sq=traj_mean_sq,
        traj_deriv_sq=traj_deriv_sq,
        traj_bound=p * tail,
        pointwise_max_sq=pointwise_max_sq,
        pointwise_bound=pointwise_bound,
    )


def rhs_projection_diagnostic(
    basis: PODBasis,
    sys: ControlledSystem,
    traj: Trajectory,
    r: int,
    snap: SnapshotSet | None = None,
) -> RhsProjectionSeries:
    """Residual series ``|(I - P) f(y(s), u(s))|`` along a trajectory.

    When the generating snapshot set is supplied, also reports the distance
    of each rhs value to the nearest snapshot derivative sample (those are
    the rhs values of the snapshot trajectories), the first ingredient of
    the computable rhs-projection bound; the second is the eigenvalue tail
    term ``(M+1)/tau^2 * p * tail``.
    """
    r = _check_rank(basis, r)
    if traj.controls is None:
        raise ValidationError("trajectory must carry its controls")
    w = basis.weight
    k = traj.times.size
    fvals = np.empty((k, traj.states.shape[1]))
    for i in range(k):
        fvals[i] = sys.rhs(traj.states[i], traj.controls[i])
    res = fvals - project_coeffs_batch(basis, fvals, r) @ basis.modes[:r]
    residual = np.sqrt((res * res) @ w)

    gap = None
    if snap is not None:
        samples = snap.derivs.reshape(-1, snap.n)
        gap = np.empty(k)
        for i in range(k):
            diff = samples - fvals[i]
            gap[i] = np.sqrt(np.min((diff * diff) @ w))

    tail_term = 0.0
    if basis.p > 0:
        tail_term = basis.N / (basis.tau**2) * basis.p * basis.tail(r)
    return RhsProjectionSeries(
        times=traj.times, residual=residual, nearest_snapshot_gap=gap, tail_term=tail_term
    )


def save_snapshots(path, snap: SnapshotSet) -> None:
    np.savez_compressed(
        path,
        states=snap.states,
        derivs=snap.derivs,
        controls=snap.controls,
        weight=snap.weight,
        dt=snap.dt,
        M=snap.M,
    )


def load_snapshots(path) -> SnapshotSet:
    with np.load(path) as data:
        states = data["states"]  # read once: NpzFile decompresses on every access
        return SnapshotSet(
            p=states.shape[0],
            M=int(data["M"]),
            dt=float(data["dt"]),
            states=states,
            derivs=data["derivs"],
            controls=data["controls"],
            weight=data["weight"],
        )


def save_basis(path, basis: PODBasis) -> None:
    np.savez_compressed(
        path,
        modes=basis.modes,
        eigvals=basis.eigvals,
        tau=basis.tau,
        p=basis.p,
        N=basis.N,
        weight=basis.weight,
    )


def load_basis(path) -> PODBasis:
    with np.load(path) as data:
        return PODBasis(
            modes=data["modes"],
            eigvals=data["eigvals"],
            tau=float(data["tau"]),
            p=int(data["p"]),
            N=int(data["N"]),
            weight=data["weight"],
        )
