import dataclasses

import numpy as np
import pytest

import hjbpod as hp
from hjbpod.errors import ValidationError
from hjbpod.pod import (
    assemble_snapshot_vectors,
    load_basis,
    load_snapshots,
    project_coeffs_batch,
    save_basis,
    save_snapshots,
)

from conftest import make_decay_system, random_snapshot_set


class TestGenerateSnapshots:
    def test_scalar_decay_analytic(self):
        sys_d = make_decay_system()
        snap = hp.generate_snapshots(sys_d, [0.0], np.ones(1), 0.5, 1.0)
        np.testing.assert_allclose(
            snap.states[0, :, 0], [1.0, np.exp(-0.5), np.exp(-1.0)], atol=1e-10
        )
        np.testing.assert_allclose(snap.derivs[0], -snap.states[0], atol=1e-12)

    def test_zero_horizon(self):
        # a set with no sample after t = 0 has no derivative snapshots
        sys_d = make_decay_system()
        with pytest.raises(ValidationError, match="T must be positive"):
            hp.generate_snapshots(sys_d, [0.0, 1.0], np.array([0.3]), 0.5, 0.0)

    def test_test1_defaults(self, test1_bundle):
        _, snap, _ = test1_bundle
        assert snap.p == 3 and snap.N == 61

    def test_derivatives_are_rhs_evaluations(self):
        sys2 = hp.build_test2(8)
        y0 = hp.test2_initial_state(8)
        snap = hp.generate_snapshots(sys2, [-1.0], y0, 0.2, 0.4, hp.IntegratorConfig())
        for k in range(3):
            np.testing.assert_array_equal(snap.derivs[0, k], sys2.rhs(snap.states[0, k], -1.0))

    def test_derivatives_are_one_stacked_rhs_call_per_trajectory(self):
        sys2 = hp.build_test2(8)
        stacks = []

        def spy(Y, u):
            if np.ndim(Y) == 2:
                stacks.append((np.array(Y), u))
            return sys2.rhs(Y, u)

        spied = dataclasses.replace(sys2, rhs=spy)
        snap = hp.generate_snapshots(spied, [-1.0, 0.0], hp.test2_initial_state(8), 0.2, 0.4)
        assert len(stacks) == 2
        for nu, (Y, u) in enumerate(stacks):
            assert u == snap.controls[nu]
            np.testing.assert_array_equal(Y, snap.states[nu])

    def test_quotient_at_zero(self):
        sys_d = make_decay_system()
        snap = hp.generate_snapshots(sys_d, [0.0], np.ones(1), 0.5, 1.0, quotient_at_zero=True)
        assert snap.derivs[0, 0, 0] == (snap.states[0, 1, 0] - snap.states[0, 0, 0]) / 0.5

    def test_dt_must_divide_horizon(self):
        sys_d = make_decay_system()
        with pytest.raises(ValidationError):
            hp.generate_snapshots(sys_d, [0.0], np.ones(1), 0.3, 1.0)


class TestAssemble:
    def test_constant_trajectory(self):
        n, M = 4, 3
        c = np.arange(1.0, 5.0)
        snap = hp.SnapshotSet(
            p=1,
            M=M,
            dt=0.1,
            states=np.tile(c, (1, M + 1, 1)),
            derivs=np.zeros((1, M + 1, n)),
            controls=np.zeros(1),
            weight=np.ones(n),
        )
        vecs = assemble_snapshot_vectors(snap, 2.0)
        np.testing.assert_allclose(vecs[0], np.sqrt(M + 1) * c, atol=1e-14)
        assert np.all(vecs[1:] == 0.0)

    def test_two_sample_formula(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, -1.0])
        dydt0 = np.array([0.5, 0.25])
        snap = hp.SnapshotSet(
            p=1,
            M=1,
            dt=0.1,
            states=np.stack([a, b])[None, :, :],
            derivs=np.stack([dydt0, np.zeros(2)])[None, :, :],
            controls=np.zeros(1),
            weight=np.ones(2),
        )
        vecs = assemble_snapshot_vectors(snap, 1.7)
        np.testing.assert_allclose(vecs[0], np.sqrt(2) * (a + b) / 2, atol=1e-15)
        np.testing.assert_allclose(vecs[1], 1.7 * dydt0, atol=1e-15)

    def test_tau_homogeneity(self, rng):
        snap = random_snapshot_set(rng)
        v1 = assemble_snapshot_vectors(snap, 1.0)
        v2 = assemble_snapshot_vectors(snap, 2.0)
        for nu in range(snap.p):
            base = nu * snap.N
            np.testing.assert_array_equal(v2[base], v1[base])
            np.testing.assert_array_equal(v2[base + 1 :base + snap.N], 2.0 * v1[base + 1 :base + snap.N])

    def test_bad_tau(self, rng):
        with pytest.raises(ValidationError, match="snapshot time scale tau must be positive"):
            assemble_snapshot_vectors(random_snapshot_set(rng), 0.0)


class TestCorrelationMatrix:
    def test_orthonormal_pair(self):
        V = np.eye(2)
        np.testing.assert_allclose(hp.correlation_matrix(V, np.ones(2)), np.eye(2) / 2)

    def test_single_unit_vector(self):
        K = hp.correlation_matrix(np.array([[1.0, 0.0, 0.0]]), np.ones(3))
        np.testing.assert_array_equal(K, [[1.0]])

    def test_matches_double_loop(self, rng):
        V = rng.normal(size=(3, 5))
        w = rng.uniform(0.5, 1.5, size=5)
        K = hp.correlation_matrix(V, w)
        for a in range(3):
            for b in range(3):
                direct = sum(w[j] * V[a, j] * V[b, j] for j in range(5)) / 3.0
                assert abs(K[a, b] - direct) < 1e-14


class TestComputeBasis:
    def test_rank_one_line(self):
        direction = np.array([3.0, 4.0]) / 5.0
        states = np.outer(np.linspace(1, 2, 4), direction)[None, :, :]
        snap = hp.SnapshotSet(
            p=1, M=3, dt=0.1, states=states, derivs=np.zeros_like(states),
            controls=np.zeros(1), weight=np.ones(2),
        )
        basis = hp.compute_basis(snap, tau=1.0)
        assert basis.d == 1
        got = basis.modes[0] / np.linalg.norm(basis.modes[0])
        np.testing.assert_allclose(np.abs(got), direction, atol=1e-12)

    def test_orthonormal_snapshots_flat_spectrum(self):
        # Four orthonormal snapshot vectors: every eigenvalue is 1/(pN) and
        # the rank-d residual of the mean-square identity vanishes.
        n = 4
        states = np.zeros((1, 4, n))
        derivs = np.zeros((1, 4, n))
        states[0, :, 0] = 1.0 / 2.0  # mean -> sqrt(N)*ybar = e_0
        derivs[0, :3, :] = np.eye(n)[1:]  # tau * y_t(t_j) = e_{j+1}
        snap = hp.SnapshotSet(
            p=1, M=3, dt=0.1, states=states, derivs=derivs,
            controls=np.zeros(1), weight=np.ones(n),
        )
        basis = hp.compute_basis(snap, tau=1.0)
        np.testing.assert_allclose(basis.eigvals, 0.25, atol=1e-14)
        diag = hp.projection_error_stats(basis, snap, basis.d)
        assert diag.identity_lhs < 1e-14

    def test_mean_square_identity_every_rank(self, rng):
        snap = random_snapshot_set(rng)
        basis = hp.compute_basis(snap, tau=1.3)
        vecs = assemble_snapshot_vectors(snap, 1.3)
        for r in range(1, basis.d + 1):
            res = vecs - project_coeffs_batch(basis, vecs, r) @ basis.modes[:r]
            lhs = float(np.mean((res * res) @ snap.weight))
            assert abs(lhs - basis.tail(r)) < 1e-10 * basis.eigvals[0]

    def test_orthonormality(self, rng):
        basis = hp.compute_basis(random_snapshot_set(rng), tau=0.7)
        assert basis.gram_deviation() < 1e-10

    def test_scaling_covariance(self, rng):
        snap = random_snapshot_set(rng, n=12, p=1, M=5)
        scaled = hp.SnapshotSet(
            p=1, M=5, dt=snap.dt, states=3.0 * snap.states, derivs=3.0 * snap.derivs,
            controls=snap.controls, weight=snap.weight,
        )
        b1 = hp.compute_basis(snap, tau=1.0)
        b2 = hp.compute_basis(scaled, tau=1.0)
        np.testing.assert_allclose(b2.eigvals, 9.0 * b1.eigvals, rtol=1e-9)
        for k in range(b1.d):
            align = abs(np.dot(b1.weight * b1.modes[k], b2.modes[k]))
            assert align == pytest.approx(1.0, abs=1e-7)

    def test_degenerate_rejected(self):
        states = np.zeros((1, 3, 4))
        snap = hp.SnapshotSet(
            p=1, M=2, dt=0.1, states=states, derivs=np.zeros_like(states),
            controls=np.zeros(1), weight=np.ones(4),
        )
        with pytest.raises(hp.NumericalError):
            hp.compute_basis(snap, tau=1.0)


class TestProjections:
    def test_mode_coefficients(self, rng):
        basis = hp.compute_basis(random_snapshot_set(rng), tau=1.0)
        r = min(4, basis.d)
        coeffs = hp.project_coeffs(basis, basis.modes[0], r)
        expected = np.zeros(r)
        expected[0] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-10)

    def test_orthogonal_vector_maps_to_zero(self):
        basis = hp.identity_basis(np.ones(3))
        y = np.array([0.0, 0.0, 5.0])
        np.testing.assert_allclose(hp.project_coeffs(basis, y, 2), np.zeros(2), atol=1e-15)

    def test_coefficient_norm_equals_projection_norm(self, rng):
        snap = random_snapshot_set(rng)
        basis = hp.compute_basis(snap, tau=1.0)
        r = min(5, basis.d)
        for _ in range(5):
            y = rng.normal(size=snap.n)
            c = hp.project_coeffs(basis, y, r)
            py = hp.lift(basis, c)
            lhs = np.linalg.norm(c)
            rhs = np.sqrt(np.dot(snap.weight * py, py))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, lhs)
            assert lhs <= np.sqrt(np.dot(snap.weight * y, y)) + 1e-12

    def test_lift_basis_vectors(self, rng):
        basis = hp.compute_basis(random_snapshot_set(rng), tau=1.0)
        e1 = np.zeros(3)
        e1[0] = 1.0
        np.testing.assert_array_equal(hp.lift(basis, e1), basis.modes[0])
        assert np.all(hp.lift(basis, np.zeros(3)) == 0.0)

    def test_projection_idempotent_on_span(self, rng):
        snap = random_snapshot_set(rng)
        basis = hp.compute_basis(snap, tau=1.0)
        r = min(4, basis.d)
        y = hp.lift(basis, rng.normal(size=r))
        np.testing.assert_allclose(
            hp.lift(basis, hp.project_coeffs(basis, y, r)), y, atol=1e-12
        )

    def test_projection_contracts_and_squares(self, rng):
        snap = random_snapshot_set(rng)
        basis = hp.compute_basis(snap, tau=1.0)
        r = min(3, basis.d)
        for _ in range(5):
            y = rng.normal(size=snap.n)
            py = hp.lift(basis, hp.project_coeffs(basis, y, r))
            ppy = hp.lift(basis, hp.project_coeffs(basis, py, r))
            np.testing.assert_allclose(ppy, py, atol=1e-12)

    def test_rank_validation(self, rng):
        basis = hp.compute_basis(random_snapshot_set(rng), tau=1.0)
        with pytest.raises(ValidationError):
            hp.project_coeffs(basis, np.zeros(20), basis.d + 1)


class TestProjectionErrorStats:
    def test_full_rank_zero_error(self, rng):
        snap = random_snapshot_set(rng)
        basis = hp.compute_basis(snap, tau=1.0)
        diag = hp.projection_error_stats(basis, snap, basis.d)
        assert diag.tail == 0.0
        assert diag.identity_lhs < 1e-12
        assert np.all(diag.pointwise_max_sq < 1e-12)

    def test_constant_in_time_snapshots(self, rng):
        n, M = 6, 4
        y = rng.normal(size=n)
        states = np.tile(y, (1, M + 1, 1))
        snap = hp.SnapshotSet(
            p=1, M=M, dt=0.1, states=states, derivs=np.zeros_like(states),
            controls=np.zeros(1), weight=np.ones(n),
        )
        # Add a second, independent trajectory so rank 1 is a true truncation.
        z = rng.normal(size=n)
        snap2 = hp.SnapshotSet(
            p=2, M=M, dt=0.1,
            states=np.concatenate([states, np.tile(z, (1, M + 1, 1))]),
            derivs=np.zeros((2, M + 1, n)),
            controls=np.zeros(2), weight=np.ones(n),
        )
        basis = hp.compute_basis(snap2, tau=1.0)
        diag = hp.projection_error_stats(basis, snap2, 1)
        np.testing.assert_allclose(diag.pointwise_max_sq, diag.traj_mean_sq, atol=1e-13)

    def test_per_trajectory_bound(self, rng):
        snap = random_snapshot_set(rng)
        basis = hp.compute_basis(snap, tau=1.0)
        for r in (1, 3, 5):
            diag = hp.projection_error_stats(basis, snap, r)
            combined = diag.traj_mean_sq + diag.traj_deriv_sq
            assert np.all(combined <= diag.traj_bound + 1e-12)

    def test_pointwise_bound_on_generated_snapshots(self, test2_bundle):
        _, snap, basis = test2_bundle
        for r in (2, 3, 4):
            diag = hp.projection_error_stats(basis, snap, r)
            assert np.all(diag.pointwise_max_sq <= diag.pointwise_bound)


class TestRhsProjectionDiagnostic:
    def test_full_rank_zero_residual(self, test2_bundle):
        # At full rank the rhs values along a snapshot trajectory lie in the
        # snapshot span up to the eigenvalue drop tolerance; the t=0 sample
        # is excluded because the stored value there is the difference
        # quotient, not the rhs.
        sys2, snap, basis = test2_bundle
        traj = hp.Trajectory(
            times=np.arange(snap.N) * snap.dt,
            states=snap.states[0],
            controls=np.full(snap.N, snap.controls[0]),
        )
        series = hp.rhs_projection_diagnostic(basis, sys2, traj, basis.d, snap=snap)
        assert np.all(series.residual[1:] < 2e-6)

    def test_snapshot_trajectory_identity(self, test2_bundle):
        # Along a snapshot trajectory the rhs values are the stored
        # derivative samples, so the residual equals the derivative
        # projection error, i.e. the assembled-vector error divided by tau.
        sys2, snap, basis = test2_bundle
        r = 4
        traj = hp.Trajectory(
            times=np.arange(snap.N) * snap.dt,
            states=snap.states[1],
            controls=np.full(snap.N, snap.controls[1]),
        )
        series = hp.rhs_projection_diagnostic(basis, sys2, traj, r, snap=snap)
        assert series.nearest_snapshot_gap is not None
        # interior samples (skipping the quotient-replaced t=0 entry)
        for j in range(1, snap.N):
            d = snap.derivs[1, j]
            res = d - hp.lift(basis, hp.project_coeffs(basis, d, r))
            expected = np.sqrt(np.dot(snap.weight * res, res))
            assert series.residual[j] == pytest.approx(expected, abs=1e-10)
            assert series.nearest_snapshot_gap[j] < 1e-9
        assert series.tail_term == pytest.approx(snap.N / basis.tau**2 * snap.p * basis.tail(r))


def test_snapshot_and_basis_roundtrip(tmp_path, rng):
    snap = random_snapshot_set(rng)
    save_snapshots(tmp_path / "s.npz", snap)
    back = load_snapshots(tmp_path / "s.npz")
    np.testing.assert_array_equal(back.states, snap.states)
    assert back.M == snap.M and back.p == snap.p

    basis = hp.compute_basis(snap, tau=1.0)
    save_basis(tmp_path / "b.npz", basis)
    b2 = load_basis(tmp_path / "b.npz")
    np.testing.assert_array_equal(b2.modes, basis.modes)
    assert b2.tau == basis.tau
