import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

import hjbpod as hp
from hjbpod import lqr
from hjbpod.errors import NumericalError, ValidationError
from hjbpod.lqr import (
    ControlComparison,
    compare_controls,
    linear_quadratic_data,
    simulate_lqr,
    solve_care,
)


class TestSolveCare:
    def test_scalar_closed_form(self):
        # abar = -1 (A = -1/2 shifted by lam/2 = 1/2), b = q = rho = 1:
        # p^2 + 2p - 1 = 0, p = sqrt(2) - 1.
        care = solve_care(np.array([[-0.5]]), np.array([1.0]), np.array([[1.0]]), 1.0, lam=1.0)
        assert abs(care.P[0, 0] - (np.sqrt(2) - 1)) < 1e-12

    def test_lyapunov_case(self):
        care = solve_care(np.array([[-0.5]]), np.array([0.0]), np.array([[2.0]]), 1.0, lam=1.0)
        assert care.P[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_test2_operator(self, test2_bundle):
        sys2, _, _ = test2_bundle
        A, B, Q, R = linear_quadratic_data(sys2, 1.0)
        care = solve_care(A, B, Q, R, lam=1.0)
        assert care.residual < 1e-8
        a_shifted = A - 0.5 * np.eye(A.shape[0])
        # closed loop is stable
        eig = np.linalg.eigvals(a_shifted - np.outer(B, care.gain))
        assert eig.real.max() < 0
        # cross-check against an independent dense ARE solver
        P_ref = solve_continuous_are(a_shifted, B[:, None], Q, np.array([[R]]))
        assert np.max(np.abs(P_ref - care.P)) < 1e-9 * np.max(np.abs(P_ref))

    def test_unstabilizable_rejected(self):
        with pytest.raises(NumericalError, match="zero gain is not stabilizing"):
            solve_care(np.array([[1.0]]), np.array([0.0]), np.array([[1.0]]), 1.0, lam=0.0)

    def test_nonlinear_system_rejected(self, test1_bundle):
        sys1, _, _ = test1_bundle
        with pytest.raises(ValidationError):
            linear_quadratic_data(sys1, 1.0)


@pytest.fixture(scope="module")
def scalar_care():
    return solve_care(np.array([[-0.5]]), np.array([1.0]), np.array([[1.0]]), 1.0, lam=1.0)


@pytest.fixture(scope="module")
def scalar_law(scalar_care):
    """The feedback law that simulate_lqr passes to integrate for the scalar CARE."""
    laws = []
    integrate = lqr.integrate

    def spy(sys_obj, y0, law, *args):
        laws.append(law)
        return integrate(sys_obj, y0, law, *args)

    sys_s = hp.ControlledSystem(
        rhs=lambda y, u: -0.5 * np.asarray(y) + u, running_cost=lambda y, u: 0.0,
        weight=np.ones(1), control_box=(-1.0, 1.0),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lqr, "integrate", spy)
        simulate_lqr(sys_s, scalar_care, np.ones(1), 1.0)
    (law,) = laws
    return law


class TestLqrFeedback:
    def test_zero_state(self, scalar_law):
        assert scalar_law(np.zeros(1)) == 0.0

    def test_scalar_value(self, scalar_law):
        # u = -R^{-1} b p y with p = sqrt(2) - 1 and b = R = y = 1
        assert scalar_law(np.ones(1)) == pytest.approx(-(np.sqrt(2) - 1), abs=1e-10)

    def test_linearity(self, scalar_law, rng):
        y = rng.normal(size=1)
        assert scalar_law(2 * y) == pytest.approx(2 * scalar_law(y), rel=1e-14)


def test_lqr_beats_constant_controls():
    # discounted-cost optimality spot check on a small Test-2 instance
    sys2 = hp.build_test2(24)
    A, B, Q, R = linear_quadratic_data(sys2, 1.0)
    care = solve_care(A, B, Q, R, lam=1.0)
    y0 = hp.test2_initial_state(24)
    cfg = hp.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    traj = simulate_lqr(sys2, care, y0, 3.0, cfg, sample_dt=0.05)
    cost_lqr = hp.evaluate_cost(sys2, traj, 1.0)
    for u in (-2.2, -1.1, 0.0):
        ref = hp.integrate(sys2, y0, u, (0.0, 3.0), cfg, traj.times)
        assert cost_lqr <= hp.evaluate_cost(sys2, ref, 1.0) + 1e-10


class TestCompareControls:
    def test_identical_series(self):
        u = np.array([0.5, -0.2, 0.0])
        t = np.arange(3.0)
        comp = compare_controls(u, u, t, t)
        assert isinstance(comp, ControlComparison)
        assert np.all(comp.relative_error == 0.0)
        assert comp.median == 0.0 and comp.max == 0.0
        np.testing.assert_array_equal(comp.times, t)

    def test_floor_active(self):
        t = np.arange(4.0)
        comp = compare_controls(np.full(4, 0.001), np.zeros(4), t, t)
        np.testing.assert_allclose(comp.relative_error, 1.0)

    def test_hand_computed_ratio(self):
        t = np.arange(3.0)
        comp = compare_controls(np.full(3, -0.45), np.full(3, -0.5), t, t)
        np.testing.assert_allclose(comp.relative_error, 0.1)

    def test_misaligned_grids(self):
        t1 = np.linspace(0, 1, 5)
        with pytest.raises(ValidationError):
            compare_controls(np.zeros(5), np.zeros(9), t1, np.linspace(0, 1, 9))
        with pytest.raises(ValidationError):
            compare_controls(np.zeros(5), np.zeros(5), t1, t1 + 1e-9)
