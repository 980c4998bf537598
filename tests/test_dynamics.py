import dataclasses
import gc
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm, solve

import hjbpod as hp
from hjbpod.dynamics import load_system, write_trajectory_csv
from hjbpod.errors import ValidationError
from hjbpod.reduced import Hyperbox

from conftest import make_decay_system, make_scalar_integrator_system, random_snapshot_set


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

    @pytest.mark.parametrize("rows", [None, 5, 0])
    def test_rhs_equals_the_cho_solve_banded_formula(self, rng, rows):
        # the direct pbtrs call is the one cho_solve_banded ends in: bit-equal
        # on one state, on stacked states and on zero stacked rows
        from scipy.linalg import cho_solve_banded, cholesky_banded

        N = 100
        n = N - 1
        sys1 = hp.build_test1(N)
        B = dense_test1_operators(N)[2]
        ab = np.zeros((2, n))
        ab[0, 1:] = 1.0 / 12.0
        ab[1, :] = 10.0 / 12.0
        c_factor = cholesky_banded(ab)
        dx = 1.0 / N
        inv_dx2 = 1.0 / (dx * dx)
        Y = rng.normal(size=(n,) if rows is None else (rows, n))
        a_y = -2.0 * inv_dx2 * Y
        a_y[..., :-1] += inv_dx2 * Y[..., 1:]
        a_y[..., 1:] += inv_dx2 * Y[..., :-1]
        diff = cho_solve_banded((c_factor, False), (a_y / 10.0).T).T
        expected = diff + Y * (1.0 - Y * Y) + 0.3 * B
        got = sys1.rhs(Y, 0.3)
        assert got.shape == Y.shape
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("bad", ["nan", "inf", "long", "short", "one", "stacked"])
    def test_rhs_rejects_bad_states(self, bad):
        sys1 = hp.build_test1(20)
        y = {
            "nan": np.full(19, np.nan),
            "inf": np.where(np.arange(19) == 4, np.inf, 0.0),
            "long": np.ones(20),
            "short": np.ones(18),
            "one": np.ones(1),
            "stacked": np.ones((3, 20)),
        }[bad]
        with pytest.raises(ValueError):
            sys1.rhs(y, 0.0)

    def test_rhs_does_not_call_the_wrapper(self, monkeypatch, rng):
        # build_test1 fetches the LAPACK routine once; no rhs call goes
        # through cho_solve_banded afterwards.  The wrapper's body is patched
        # too, since a name bound at build time would escape the first patch.
        import scipy.linalg
        from scipy.linalg import _decomp_cholesky

        sys1 = hp.build_test1(30)
        y = rng.normal(size=29)
        expected = sys1.rhs(y, 0.5)

        def wrapper(*args, **kwargs):
            raise AssertionError("cho_solve_banded called")

        monkeypatch.setattr(scipy.linalg, "cho_solve_banded", wrapper)
        monkeypatch.setattr(_decomp_cholesky, "_cho_solve_banded", wrapper)
        np.testing.assert_array_equal(sys1.rhs(y, 0.5), expected)
        assert sys1.rhs(np.stack([y, -y]), 0.5).shape == (2, 29)

    def test_too_coarse_rejected(self):
        with pytest.raises(ValidationError, match="need N >= 4 cells, got 3"):
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
        with pytest.raises(ValidationError, match="need N >= 4 cells, got 2"):
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
        with pytest.raises(ValidationError, match="t0 < t1"):
            hp.integrate(sys_d, np.array([0.7]), 0.0, (0.0, 0.0))

    def test_linear_system_vs_expm(self):
        N = 8
        sys2 = hp.build_test2(N)
        A = dense_test2_operator(N)
        y0 = hp.test2_initial_state(N)
        traj = hp.integrate(sys2, y0, 0.0, (0.0, 0.5), hp.IntegratorConfig(), [0.5])
        np.testing.assert_allclose(traj.states[-1], expm(0.5 * A) @ y0, rtol=0, atol=1e-9)

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
        with pytest.raises(hp.errors.IntegrationFailure) as exc:
            hp.integrate(sys_blow, np.ones(1), 0.0, (0.0, 2.0))
        assert 0.9 < exc.value.time <= 2.0

    @pytest.mark.parametrize("times", [[0.0, 0.5, 0.2], [0.0, 0.2, 0.2, 0.5]])
    def test_unsorted_sample_times_rejected_before_integrating(self, times):
        calls = []
        sys_d = make_decay_system()
        rhs = sys_d.rhs
        sys_d = dataclasses.replace(sys_d, rhs=lambda y, u: calls.append(1) or rhs(y, u))
        with pytest.raises(ValidationError, match="strictly increasing"):
            hp.integrate(sys_d, np.ones(1), 0.0, (0.0, 1.0), None, times)
        assert calls == []

    def test_repeated_calls_leave_no_memory_behind(self):
        sys2 = hp.build_test2(100)
        y0 = hp.test2_initial_state(100)
        hp.integrate(sys2, y0, -1.0, (0.0, 0.5))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                hp.integrate(sys2, y0, -1.0, (0.0, 0.5))
            gc.collect()
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert live < 64_000


def test_trajectory_csv_roundtrip(tmp_path):
    sys_d = make_decay_system()
    traj = hp.integrate(sys_d, np.ones(1), 0.25, (0.0, 1.0), None, [0.0, 0.5, 1.0])
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,y_1,u"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], traj.times)
    np.testing.assert_array_equal(data[:, 1], traj.states[:, 0])
    np.testing.assert_array_equal(data[:, 2], traj.controls)


def test_unknown_nonlinearity_rejected():
    with pytest.raises(ValidationError, match="nonlinearity"):
        hp.SystemStructure(linear=np.eye(2), control_gain=np.ones(2), nonlinearity="quadratic")


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


NAN = float("nan")


@pytest.fixture(scope="module")
def nan_check_inputs(toy_reduced):
    snap = random_snapshot_set(np.random.default_rng(3))
    grid = hp.build_grid(Hyperbox(np.array([-1.0]), np.array([1.0])), 0.5)
    return SimpleNamespace(
        sys=make_decay_system(), rs=toy_reduced, grid=grid, snap=snap,
        basis=hp.compute_basis(snap),
    )


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda c: hp.IntegratorConfig(rel_tol=NAN),
            "integrator tolerances must be positive", id="IntegratorConfig-rel_tol",
        ),
        pytest.param(
            lambda c: hp.IntegratorConfig(abs_tol=NAN),
            "integrator tolerances must be positive", id="IntegratorConfig-abs_tol",
        ),
        pytest.param(
            lambda c: hp.generate_snapshots(c.sys, [0.0], np.ones(1), NAN, 1.0),
            "dt must be positive", id="generate_snapshots-dt",
        ),
        pytest.param(
            lambda c: hp.initial_value_guess(c.grid, c.rs, [0.0], 1.0, NAN, 1.0),
            "h and t_e must be positive", id="initial_value_guess-h",
        ),
        pytest.param(
            lambda c: hp.initial_value_guess(c.grid, c.rs, [0.0], 1.0, 0.1, NAN),
            "h and t_e must be positive", id="initial_value_guess-t_e",
        ),
        pytest.param(
            lambda c: hp.build_arrival_cache(c.grid, c.rs, hp.ControlSet(np.zeros(1)), NAN),
            "scheme step h must be positive", id="build_arrival_cache-h",
        ),
        pytest.param(
            lambda c: hp.ensure_invariant_grid(c.rs, c.grid.box, [0.0], 0.5, NAN),
            "step h must be positive", id="ensure_invariant_grid-h",
        ),
        pytest.param(
            lambda c: hp.clipped_arrivals(c.rs, c.grid.box, c.grid.all_nodes(), [0.0], NAN),
            "step h must be positive", id="clipped_arrivals-h",
        ),
        pytest.param(
            lambda c: hp.compute_basis(c.snap, tau=NAN),
            "tau must be positive", id="compute_basis-tau",
        ),
        pytest.param(
            lambda c: hp.build_domain(c.basis, c.snap, 1, margin=NAN),
            "margin must be nonnegative", id="build_domain-margin",
        ),
        pytest.param(
            lambda c: hp.solve_care(-np.eye(1), np.ones(1), np.eye(1), NAN),
            "R must be positive", id="solve_care-R",
        ),
    ],
)
def test_nan_refused_at_public_range_checks(nan_check_inputs, call, message):
    # each check is spelled "not x > 0", which NaN fails as 0 or a negative does
    with pytest.raises(ValidationError, match=message):
        call(nan_check_inputs)
