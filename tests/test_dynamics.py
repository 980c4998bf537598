import numpy as np
import pytest
from scipy.linalg import expm, solve

import hjbpod as hp
from hjbpod.dynamics import load_system, write_trajectory_csv
from hjbpod.errors import InvalidDiscretizationError, ValidationError

from conftest import make_decay_system, make_scalar_integrator_system


def dense_test1_operators(N):
    """Straightforward dense assembly of the Test-1 matrices."""
    n = N - 1
    dx = 1.0 / N
    A = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)) / dx**2
    C = (np.diag(np.full(n, 10.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)) / 12.0
    x = dx * np.arange(1, N)
    B = 2 * x * (1 - x)
    return A, C, B


def dense_test2_operator(N):
    n = N - 1
    dx = 2.0 / N
    main = np.full(n, -2.0 / (10 * dx * dx))
    sub = np.full(n - 1, 1.0 / (10 * dx * dx) + 1.0 / (2 * dx))
    sup = np.full(n - 1, 1.0 / (10 * dx * dx) - 1.0 / (2 * dx))
    return np.diag(main) + np.diag(sub, -1) + np.diag(sup, 1)


class TestBuildTest1:
    def test_zero_equilibrium(self):
        sys1 = hp.build_test1(100)
        assert np.all(sys1.rhs(np.zeros(99), 0.0) == 0.0)

    def test_unit_control_gives_source_profile(self):
        sys1 = hp.build_test1(100)
        x = np.arange(1, 100) / 100.0
        np.testing.assert_allclose(sys1.rhs(np.zeros(99), 1.0), 2 * x * (1 - x), rtol=0, atol=1e-15)

    def test_matches_dense_assembly(self, rng):
        N = 8
        sys1 = hp.build_test1(N)
        A, C, B = dense_test1_operators(N)
        y = rng.normal(size=N - 1)
        expected = solve(C, A @ y / 10.0) + y * (1 - y**2) + 0.5 * B
        np.testing.assert_allclose(sys1.rhs(y, 0.5), expected, rtol=0, atol=1e-12)

    def test_batch_matches_single(self, rng):
        sys1 = hp.build_test1(16)
        Y = rng.normal(size=(5, 15))
        batch = sys1.rhs_batch(Y, -0.3)
        for i in range(5):
            np.testing.assert_allclose(batch[i], sys1.rhs(Y[i], -0.3), atol=1e-14)

    def test_too_coarse_rejected(self):
        with pytest.raises(InvalidDiscretizationError):
            hp.build_test1(3)

    def test_weighted_norm_of_ones(self):
        N = 100
        sys1 = hp.build_test1(N)
        assert sys1.weighted_norm(np.ones(N - 1)) == np.sqrt((N - 1) / N)


class TestBuildTest2:
    def test_zero_equilibrium(self):
        sys2 = hp.build_test2(100)
        assert np.all(sys2.rhs(np.zeros(99), 0.0) == 0.0)

    def test_source_is_window_indicator(self):
        sys2 = hp.build_test2(100)
        x = 2.0 * np.arange(1, 100) / 100.0
        out = sys2.rhs(np.zeros(99), 1.0)
        np.testing.assert_array_equal(out, ((x > 0.5) & (x < 1.0)).astype(float))

    def test_matches_dense_operator(self, rng):
        N = 8
        sys2 = hp.build_test2(N)
        A = dense_test2_operator(N)
        y = rng.normal(size=N - 1)
        np.testing.assert_allclose(sys2.rhs(y, 0.0), A @ y, rtol=0, atol=1e-13)

    def test_too_coarse_rejected(self):
        with pytest.raises(InvalidDiscretizationError):
            hp.build_test2(2)


class TestCostDensity:
    def test_zero(self):
        sys1 = hp.build_test1(10)
        assert sys1.running_cost(np.zeros(9), 0.0) == 0.0

    def test_pure_control(self):
        sys1 = hp.build_test1(10)
        assert sys1.running_cost(np.zeros(9), 10.0) == pytest.approx(1.0, abs=1e-15)

    def test_ones_vector(self):
        N = 20
        sys1 = hp.build_test1(N)
        got = sys1.running_cost(np.ones(N - 1), 0.0)
        assert got == pytest.approx((N - 1) / N, abs=1e-14)


class TestIntegrate:
    def test_scalar_decay(self):
        sys_d = make_decay_system()
        cfg = hp.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = hp.integrate(sys_d, np.ones(1), 0.0, (0.0, 1.0), cfg, [1.0])
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 10 * cfg.rel_tol

    def test_degenerate_span(self):
        sys_d = make_decay_system()
        traj = hp.integrate(sys_d, np.array([0.7]), 0.0, (0.0, 0.0))
        assert traj.times.shape == (1,)
        assert traj.states[0, 0] == 0.7

    def test_linear_system_vs_expm(self):
        N = 8
        sys2 = hp.build_test2(N)
        A = dense_test2_operator(N)
        y0 = hp.test2_initial_state(N)
        traj = hp.integrate(sys2, y0, 0.0, (0.0, 0.5), hp.IntegratorConfig(), [0.5])
        np.testing.assert_allclose(traj.states[-1], expm(0.5 * A) @ y0, rtol=0, atol=1e-9)

    def test_derivatives_are_rhs_evaluations(self):
        sys2 = hp.build_test2(8)
        y0 = hp.test2_initial_state(8)
        traj = hp.integrate(
            sys2, y0, -1.0, (0.0, 0.4), hp.IntegratorConfig(), [0.0, 0.2, 0.4], with_derivatives=True
        )
        for k in range(3):
            np.testing.assert_array_equal(traj.derivatives[k], sys2.rhs(traj.states[k], -1.0))

    def test_tolerance_self_consistency(self):
        sys2 = hp.build_test2(16)
        y0 = hp.test2_initial_state(16)
        samples = [0.25, 0.5]
        coarse = hp.integrate(sys2, y0, -1.0, (0.0, 0.5), hp.IntegratorConfig(1e-8, 1e-8), samples)
        fine = hp.integrate(sys2, y0, -1.0, (0.0, 0.5), hp.IntegratorConfig(5e-9, 5e-9), samples)
        assert np.max(np.abs(coarse.states - fine.states)) < 1e-8 * 100

    def test_state_feedback_control(self):
        # ydot = u under the feedback u = -y decays as exp(-t).
        sys_t = make_scalar_integrator_system()
        cfg = hp.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        law = lambda y: -float(y[0])
        traj = hp.integrate(sys_t, np.ones(1), law, (0.0, 1.0), cfg, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(traj.states[:, 0], np.exp(-traj.times), rtol=1e-8, atol=0)
        np.testing.assert_array_equal(traj.controls, [law(y) for y in traj.states])

    def test_bad_span_rejected(self):
        sys_d = make_decay_system()
        with pytest.raises(ValidationError):
            hp.integrate(sys_d, np.ones(1), 0.0, (1.0, 0.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_carries_time(self):
        # finite-time blow-up: y' = y^2 from y0=1 escapes at t=1
        sys_blow = hp.ControlledSystem(
            n=1, rhs=lambda y, u: np.asarray(y) ** 2, running_cost=lambda y, u: 0.0,
            weight=np.ones(1), control_box=(-1, 1), label="blow",
        )
        cfg = hp.IntegratorConfig(1e-9, 1e-9, method="explicit")
        with pytest.raises(hp.errors.IntegrationFailure) as exc:
            hp.integrate(sys_blow, np.ones(1), 0.0, (0.0, 2.0), cfg)
        assert 0.9 < exc.value.time <= 2.0


def test_trajectory_csv_roundtrip(tmp_path):
    sys_d = make_decay_system()
    traj = hp.integrate(sys_d, np.ones(1), 0.25, (0.0, 1.0), None, [0.0, 0.5, 1.0])
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,y_1,u"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 0], traj.times)
    np.testing.assert_allclose(data[:, 1], traj.states[:, 0])


class TestLoadSystem:
    def test_test_ids(self):
        assert load_system({"test": "test1", "N": 12}).n == 11
        assert load_system({"test": "test2", "N": 12}).control_box == (-2.2, 0.0)
        sys2 = load_system({"test": "test2", "N": 12, "control_box": (-3.0, 1.0)})
        assert sys2.control_box == (-3.0, 1.0)

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            load_system({"test": "nope"})

    def test_custom_needs_factory(self):
        with pytest.raises(ValidationError):
            load_system({"test": "custom"})
