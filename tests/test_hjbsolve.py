import numpy as np
import pytest

import hjbpod as hp
from hjbpod.errors import CacheBudgetError, ValidationError
from hjbpod.hjbgrid import stencil_batch
from hjbpod.hjbsolve import ArrivalCache
from hjbpod.reduced import Hyperbox, ReducedSystem

from conftest import make_scalar_integrator_system


def toy_grid(lo=-1.0, hi=1.0, diameter=0.02):
    return hp.build_grid(Hyperbox(np.array([lo]), np.array([hi])), diameter)


def constant_cache(grid, g_value, lam_h_pair=None):
    """Cache with f == 0 (self-arrivals) and a constant stage cost."""
    nc = grid.node_count
    width = grid.r + 1
    indices = np.zeros((nc, 1, width), dtype=np.int32)
    indices[:, 0, 0] = np.arange(nc)
    weights = np.zeros((nc, 1, width))
    weights[:, 0, 0] = 1.0
    return ArrivalCache(
        grid=grid,
        control_values=np.array([0.0]),
        h=0.1,
        indices=indices,
        weights=weights,
        stage_cost=np.full((nc, 1), float(g_value)),
        invariance=hp.InvarianceReport(nc, 0, np.zeros(grid.r)),
        clamp_policy="clamp",
        max_abs_cost=abs(float(g_value)),
    )


@pytest.fixture(scope="module")
def toy_cache(toy_reduced):
    grid = toy_grid()
    controls = hp.ControlSet(np.array([-1.0, 0.0, 1.0]))
    cache = hp.build_arrival_cache(grid, toy_reduced, controls, h=0.002)
    return grid, cache


class TestControlSet:
    def test_uniform(self):
        cs = hp.ControlSet.uniform(-1, 1, 21)
        assert cs.values.size == 21
        assert cs.values[0] == -1.0 and cs.values[-1] == 1.0

    def test_must_be_sorted(self):
        with pytest.raises(ValidationError):
            hp.ControlSet(np.array([1.0, -1.0]))

    def test_nonempty(self):
        with pytest.raises(ValidationError):
            hp.ControlSet(np.array([]))


class TestBuildArrivalCache:
    def test_zero_field_self_stencils(self):
        sys0 = hp.ControlledSystem(
            n=1, rhs=lambda y, u: np.zeros(1), running_cost=lambda y, u: 1.0,
            weight=np.ones(1), control_box=(-1, 1), label="null",
            rhs_batch=lambda Y, u: np.zeros_like(np.asarray(Y, dtype=float)),
        )
        rs = ReducedSystem(hp.identity_basis(np.ones(1)), sys0, 1)
        grid = toy_grid(diameter=0.25)
        cache = hp.build_arrival_cache(grid, rs, hp.ControlSet(np.array([0.0])), h=0.1)
        for i in range(grid.node_count):
            top = np.argmax(cache.weights[i, 0])
            assert cache.indices[i, 0, top] == i
            assert cache.weights[i, 0, top] == pytest.approx(1.0, abs=1e-12)

    def test_unit_drift_hits_right_neighbor(self):
        sys1 = hp.ControlledSystem(
            n=1, rhs=lambda y, u: np.ones(1), running_cost=lambda y, u: 0.0,
            weight=np.ones(1), control_box=(-1, 1), label="drift",
            rhs_batch=lambda Y, u: np.ones_like(np.asarray(Y, dtype=float)),
        )
        rs = ReducedSystem(hp.identity_basis(np.ones(1)), sys1, 1)
        grid = toy_grid(0.0, 1.0, diameter=0.25)
        edge = grid.edge[0]
        cache = hp.build_arrival_cache(grid, rs, hp.ControlSet(np.array([0.0])), h=edge)
        # interior node arrivals land exactly on the right neighbor
        i = 1
        top = np.argmax(cache.weights[i, 0])
        assert cache.indices[i, 0, top] == i + 1
        assert cache.weights[i, 0, top] == pytest.approx(1.0, abs=1e-12)

    def test_spot_check_recompute(self, toy_reduced, rng):
        grid = toy_grid()
        controls = hp.ControlSet(np.array([-1.0, 0.0, 1.0]))
        h = 0.002
        cache = hp.build_arrival_cache(grid, toy_reduced, controls, h=h)
        nodes = grid.all_nodes()
        nodal = rng.normal(size=grid.node_count)
        for _ in range(100):
            i = int(rng.integers(grid.node_count))
            l = int(rng.integers(3))
            arrival = nodes[i] + h * toy_reduced.rhs(nodes[i], controls.values[l])
            clamped, _ = hp.clamp_to_domain(grid.box, arrival)
            idx, wts = stencil_batch(grid, clamped[None, :])
            fresh = float(np.dot(wts[0], nodal[idx[0]]))
            cached = float(np.dot(cache.weights[i, l], nodal[cache.indices[i, l]]))
            assert cached == pytest.approx(fresh, abs=1e-12)
            assert cache.stage_cost[i, l] == pytest.approx(
                toy_reduced.cost(nodes[i], controls.values[l]), rel=1e-12, abs=1e-14
            )

    def test_budget(self, toy_reduced):
        grid = toy_grid()
        with pytest.raises(CacheBudgetError):
            hp.build_arrival_cache(
                grid, toy_reduced, hp.ControlSet(np.array([0.0])), 0.002, entry_budget=10
            )

    def test_reject_policy(self):
        sys1 = hp.ControlledSystem(
            n=1, rhs=lambda y, u: np.ones(1), running_cost=lambda y, u: 0.0,
            weight=np.ones(1), control_box=(-1, 1), label="drift",
            rhs_batch=lambda Y, u: np.ones_like(np.asarray(Y, dtype=float)),
        )
        rs = ReducedSystem(hp.identity_basis(np.ones(1)), sys1, 1)
        grid = toy_grid(0.0, 1.0, diameter=0.25)
        with pytest.raises(hp.NumericalError):
            hp.build_arrival_cache(
                grid, rs, hp.ControlSet(np.array([0.0])), h=0.5, clamp_policy="reject"
            )

    def test_control_box_enforced(self, toy_reduced):
        grid = toy_grid()
        with pytest.raises(ValidationError):
            hp.build_arrival_cache(grid, toy_reduced, hp.ControlSet(np.array([-2.0, 2.0])), 0.01)


class TestInitialValueGuess:
    def test_zero_cost_gives_zero(self):
        sys0 = hp.ControlledSystem(
            n=1, rhs=lambda y, u: np.zeros(1), running_cost=lambda y, u: 0.0,
            weight=np.ones(1), control_box=(-1, 1), label="null",
            rhs_batch=lambda Y, u: np.zeros_like(np.asarray(Y, dtype=float)),
        )
        rs = ReducedSystem(hp.identity_basis(np.ones(1)), sys0, 1)
        grid = toy_grid(diameter=0.5)
        v0 = hp.initial_value_guess(grid, rs, [0.0], lam=1.0, h=0.01, t_e=1.0)
        assert np.all(v0 == 0.0)

    def test_constant_cost_quadrature(self):
        # g == 1, f == 0: the guess equals the exact left-endpoint sum
        # h * sum exp(-lam j h), within O(h) of (1 - exp(-lam t_e)) / lam.
        sys0 = hp.ControlledSystem(
            n=1, rhs=lambda y, u: np.zeros(1), running_cost=lambda y, u: 1.0,
            weight=np.ones(1), control_box=(-1, 1), label="unit-cost",
            rhs_batch=lambda Y, u: np.zeros_like(np.asarray(Y, dtype=float)),
        )
        rs = ReducedSystem(hp.identity_basis(np.ones(1)), sys0, 1)
        grid = toy_grid(diameter=0.5)
        lam, h, t_e = 1.0, 0.002, 3.0
        v0 = hp.initial_value_guess(grid, rs, [0.0], lam, h, t_e)
        n_steps = int(np.ceil(t_e / h))
        exact_sum = h * np.sum(np.exp(-lam * h * np.arange(n_steps)))
        np.testing.assert_allclose(v0, exact_sum, atol=1e-12)
        assert abs(v0[0] - (1 - np.exp(-lam * t_e)) / lam) < 2 * h

    def test_single_control_degenerate_min(self, toy_reduced):
        grid = toy_grid(diameter=0.5)
        v_one = hp.initial_value_guess(grid, toy_reduced, [0.5], 1.0, 0.01, 1.0)
        assert np.all(np.isfinite(v_one))

    def test_fast_path_matches_generic(self, test1_bundle):
        sys1, snap, basis = test1_bundle
        rs = ReducedSystem(basis, sys1, 3)
        box = hp.build_domain(basis, snap, 3)
        grid = hp.build_grid(box, 0.4)
        fast = hp.initial_value_guess(grid, rs, [-1.0, 1.0], 1.0, 0.05, 1.0)
        rs_slow = ReducedSystem(basis, sys1, 3)
        rs_slow._fast = False  # force the generic numpy path
        slow = hp.initial_value_guess(grid, rs_slow, [-1.0, 1.0], 1.0, 0.05, 1.0)
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-12)


class TestValueIteration:
    def test_zero_cost_contracts_to_zero(self, toy_cache):
        grid, cache = toy_cache
        zero_cache = ArrivalCache(
            grid=cache.grid, control_values=cache.control_values, h=cache.h,
            indices=cache.indices, weights=cache.weights,
            stage_cost=np.zeros_like(cache.stage_cost), invariance=cache.invariance,
            clamp_policy="clamp", max_abs_cost=0.0,
        )
        v0 = np.abs(np.sin(np.arange(grid.node_count)))
        vf, _ = hp.value_iteration(zero_cache, v0, 1.0, 0.002, stop_tol=1e-12)
        assert np.max(np.abs(vf.values)) < 1e-9
        # geometric decay with ratio <= (1 - lam h)
        hist = vf.residual_history
        ratios = hist[5:] / hist[4:-1]
        assert np.all(ratios <= (1 - 0.002) + 1e-9)

    def test_constant_cost_fixed_point(self):
        grid = toy_grid(diameter=0.25)
        cache = constant_cache(grid, 1.0)
        vf, table = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, 0.1, 1e-4)
        bound = 1e-4 * (1 - 0.1) / 0.1
        assert np.max(np.abs(vf.values - 1.0)) <= bound
        assert np.all(table.controls == 0.0)

    def test_value_bounded_by_cost_scale(self, toy_cache):
        grid, cache = toy_cache
        vf, _ = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, 0.002, stop_tol=1e-8)
        assert np.max(vf.values) <= cache.max_abs_cost / 1.0 + 1e-6

    def test_contraction_on_random_pairs(self, toy_cache, rng):
        grid, cache = toy_cache
        lam, h = 1.0, 0.002
        for _ in range(10):
            v = rng.normal(size=grid.node_count)
            w = rng.normal(size=grid.node_count)
            tv, _ = hp.sweep_once(cache, v, lam, h)
            tw, _ = hp.sweep_once(cache, w, lam, h)
            lhs = np.max(np.abs(tv - tw))
            rhs = (1 - lam * h) * np.max(np.abs(v - w))
            assert lhs <= rhs + 1e-12

    def test_monotonicity(self, toy_cache, rng):
        grid, cache = toy_cache
        v = rng.normal(size=grid.node_count)
        w = v + rng.uniform(0.0, 1.0, size=grid.node_count)
        tv, _ = hp.sweep_once(cache, v, 1.0, 0.002)
        tw, _ = hp.sweep_once(cache, w, 1.0, 0.002)
        assert np.all(tv <= tw + 1e-14)

    def test_cost_shift_shifts_values_not_argmin(self, toy_cache):
        grid, cache = toy_cache
        lam, h = 1.0, 0.002
        vf1, t1 = hp.value_iteration(cache, np.zeros(grid.node_count), lam, h, 1e-11)
        shifted = ArrivalCache(
            grid=cache.grid, control_values=cache.control_values, h=cache.h,
            indices=cache.indices, weights=cache.weights,
            stage_cost=cache.stage_cost + 2.0, invariance=cache.invariance,
            clamp_policy="clamp", max_abs_cost=cache.max_abs_cost + 2.0,
        )
        vf2, t2 = hp.value_iteration(shifted, np.zeros(grid.node_count) + 2.0, lam, h, 1e-11)
        np.testing.assert_allclose(vf2.values - vf1.values, 2.0 / lam, atol=1e-7)
        np.testing.assert_array_equal(t1.controls, t2.controls)

    def test_argmin_tie_takes_smallest_control(self):
        # Two controls with identical arrivals and stage costs: the argmin
        # must resolve to the smaller control value.
        grid = toy_grid(diameter=0.25)
        nc = grid.node_count
        indices = np.zeros((nc, 2, 2), dtype=np.int32)
        indices[:, :, 0] = np.arange(nc)[:, None]
        weights = np.zeros((nc, 2, 2))
        weights[:, :, 0] = 1.0
        cache = ArrivalCache(
            grid=grid, control_values=np.array([-0.5, 0.5]), h=0.1,
            indices=indices, weights=weights, stage_cost=np.ones((nc, 2)),
            invariance=hp.InvarianceReport(nc, 0, np.zeros(1)),
            clamp_policy="clamp", max_abs_cost=1.0,
        )
        _, table = hp.value_iteration(cache, np.zeros(nc), 1.0, 0.1, 1e-6)
        assert np.all(table.controls == -0.5)

    def test_unconverged_flagged(self, toy_cache):
        grid, cache = toy_cache
        vf, _ = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, 0.002, 1e-12, max_iters=3)
        assert not vf.converged
        assert vf.iterations == 3

    def test_full_space_equivalence_identity_basis(self, rng):
        # With the identity basis the "reduced" solve IS the full-space
        # solve: the same cache entries come out of the raw dynamics.
        A = np.array([[-1.0, 0.3], [0.0, -0.5]])
        b = np.array([0.5, -0.2])
        sys2 = hp.ControlledSystem(
            n=2, rhs=lambda y, u: A @ y + u * b,
            running_cost=lambda y, u: float(y @ y + u * u),
            weight=np.ones(2), control_box=(-1, 1), label="lin2",
            rhs_batch=lambda Y, u: np.asarray(Y) @ A.T + u * b,
        )
        rs = ReducedSystem(hp.identity_basis(np.ones(2)), sys2, 2)
        box = Hyperbox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        grid = hp.build_grid(box, 0.3)
        controls = hp.ControlSet(np.array([-1.0, 0.0, 1.0]))
        cache = hp.build_arrival_cache(grid, rs, controls, h=0.05)
        nodes = grid.all_nodes()
        for i in (0, 7, grid.node_count - 1):
            for l, u in enumerate(controls.values):
                arrival = nodes[i] + 0.05 * (A @ nodes[i] + u * b)
                clamped, _ = hp.clamp_to_domain(box, arrival)
                idx, wts = stencil_batch(grid, clamped[None, :])
                np.testing.assert_array_equal(cache.indices[i, l], idx[0])
                np.testing.assert_allclose(cache.weights[i, l], wts[0], atol=1e-15)


def test_value_iteration_repeatable(toy_solution_free):
    # two full solves from the same start agree bit for bit
    grid, cache = toy_solution_free
    vf, table = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, 0.002, 1e-6, 10000)
    assert vf.converged
    vf2, table2 = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, 0.002, 1e-6, 10000)
    np.testing.assert_array_equal(vf.values, vf2.values)


@pytest.fixture()
def toy_solution_free(toy_reduced):
    grid = toy_grid()
    cache = hp.build_arrival_cache(
        grid, toy_reduced, hp.ControlSet(np.array([-1.0, 0.0, 1.0])), h=0.002
    )
    return grid, cache


def _sweep_per_node(v, idx, wts, g, one_minus_lh, h):
    """Reference sweep: a plain loop over nodes, controls and stencil vertices."""
    nc, nu, s = idx.shape
    v_new = np.empty(nc)
    argmin = np.empty(nc, dtype=np.int32)
    for i in range(nc):
        best = np.inf
        best_u = 0
        for l in range(nu):
            acc = 0.0
            for q in range(s):
                acc += wts[i, l, q] * v[idx[i, l, q]]
            val = one_minus_lh * acc + h * g[i, l]
            if val < best:
                best = val
                best_u = l
        v_new[i] = best
        argmin[i] = best_u
    return v_new, argmin


def test_sweep_matches_per_node_loop(toy_solution_free, rng):
    from hjbpod import _accel

    grid, cache = toy_solution_free
    v = rng.normal(size=grid.node_count)
    args = (v, cache.indices, cache.weights, cache.stage_cost, 0.998, 0.002)
    ref_v, ref_a = _sweep_per_node(*args)
    got_v, got_a = _accel.sweep(*args)
    np.testing.assert_allclose(got_v, ref_v, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(got_a, ref_a)


class TestFeedback:
    def test_node_returns_table_entry(self, toy_reduced, toy_cache):
        grid, cache = toy_cache
        vf, table = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, 0.002, 1e-8)
        basis = toy_reduced.basis
        i = grid.node_count // 3
        y = hp.lift(basis, grid.all_nodes()[i])
        assert hp.FeedbackPolicy(basis, table)(y) == table.controls[i]

    def test_constant_table(self, toy_reduced, toy_cache, rng):
        grid, cache = toy_cache
        table = hp.ControlTable(
            grid=grid, controls=np.zeros(grid.node_count),
            control_set=hp.ControlSet(np.array([0.0])),
        )
        for _ in range(5):
            y = rng.normal(size=1)
            assert hp.FeedbackPolicy(toy_reduced.basis, table)(y) == 0.0

    def test_compositional_oracle(self, toy_reduced, toy_cache, rng):
        grid, cache = toy_cache
        vf, table = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, 0.002, 1e-8)
        basis = toy_reduced.basis
        for _ in range(10):
            y = rng.normal(size=1) * 2.0
            coeffs = hp.project_coeffs(basis, y, 1)
            clamped, _ = hp.clamp_to_domain(grid.box, coeffs)
            manual = hp.interpolate(grid, table.controls, clamped)
            manual = float(np.clip(manual, -1.0, 1.0))
            assert hp.FeedbackPolicy(basis, table)(y) == pytest.approx(manual, abs=1e-14)


class TestClosedLoop:
    def test_zero_policy_matches_uncontrolled(self):
        sys2 = hp.build_test2(12)
        basis = hp.identity_basis(sys2.weight)
        box = Hyperbox(np.full(11, -1.0), np.full(11, 1.0))
        grid_stub = hp.SimplexGrid(
            box=box, cells_per_axis=np.ones(11, dtype=np.int64),
            edge=box.width, node_count=2**11, k_r=float(np.linalg.norm(box.width)),
        )
        table = hp.ControlTable(
            grid=grid_stub, controls=np.zeros(grid_stub.node_count),
            control_set=hp.ControlSet(np.array([0.0])),
        )
        y0 = hp.test2_initial_state(12)
        cfg = hp.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = hp.simulate_closed_loop(sys2, basis, table, y0, 0.5, cfg, sample_dt=0.25)
        ref = hp.integrate(sys2, y0, 0.0, (0.0, 0.5), cfg, traj.times)
        np.testing.assert_allclose(traj.states, ref.states, atol=1e-8)

    def test_scalar_constant_policy_analytic(self, toy_reduced):
        # ydot = -1 from y0 = 1 reaches 0 at t = 1 exactly.
        grid = toy_grid(diameter=0.5)
        table = hp.ControlTable(
            grid=grid, controls=np.full(grid.node_count, -1.0),
            control_set=hp.ControlSet(np.array([-1.0])),
        )
        sys_t = make_scalar_integrator_system()
        traj = hp.simulate_closed_loop(
            sys_t, toy_reduced.basis, table, np.array([1.0]), 1.0,
            hp.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14), sample_dt=0.25,
        )
        assert abs(traj.states[-1, 0]) < 1e-9
        assert np.all(traj.controls == -1.0)

    def test_sample_hold_variant(self, toy_reduced):
        grid = toy_grid(diameter=0.5)
        table = hp.ControlTable(
            grid=grid, controls=np.full(grid.node_count, -1.0),
            control_set=hp.ControlSet(np.array([-1.0])),
        )
        sys_t = make_scalar_integrator_system()
        traj = hp.simulate_closed_loop(
            sys_t, toy_reduced.basis, table, np.array([1.0]), 1.0,
            None, sample_dt=0.25, sample_hold=True,
        )
        assert abs(traj.states[-1, 0]) < 1e-9


class TestEvaluateCost:
    def test_zero_trajectory(self):
        sys_t = make_scalar_integrator_system()
        traj = hp.Trajectory(np.linspace(0, 1, 5), np.zeros((5, 1)), np.zeros(5))
        assert hp.evaluate_cost(sys_t, traj, 1.0) == 0.0

    def test_unit_cost_analytic(self):
        sys1 = hp.ControlledSystem(
            n=1, rhs=lambda y, u: np.zeros(1), running_cost=lambda y, u: 1.0,
            weight=np.ones(1), control_box=(-1, 1), label="unit",
        )
        dt = 0.05
        times = np.arange(0, 3 + dt / 2, dt)
        traj = hp.Trajectory(times, np.zeros((times.size, 1)), np.zeros(times.size))
        got = hp.evaluate_cost(sys1, traj, 1.0)
        assert abs(got - (1 - np.exp(-3.0))) <= dt * dt / 4

    def test_self_convergence_order(self):
        sys_t = make_scalar_integrator_system()  # g = y^2
        lam = 1.0
        errs = []
        exact = 1.0 / 3.0 * (1 - np.exp(-3.0 * 3.0))  # int e^{-t} e^{-2t} dt over [0,3]
        for dt in (0.1, 0.05, 0.025):
            times = np.arange(0, 3 + dt / 2, dt)
            states = np.exp(-times)[:, None]
            traj = hp.Trajectory(times, states, np.zeros(times.size))
            errs.append(abs(hp.evaluate_cost(sys_t, traj, lam) - exact))
        order = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert min(order, order2) >= 1.9
