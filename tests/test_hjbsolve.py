import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg

import hjbpod as hp
from hjbpod.errors import NumericalError, ValidationError
from hjbpod.hjbgrid import aligned_grid, stencil_batch
from hjbpod.hjbsolve import ArrivalCache
from hjbpod.reduced import Hyperbox, ReducedSystem, cubic_batch

from conftest import dyadic_grid, kuhn_probe_points, make_scalar_integrator_system


def toy_grid(lo=-1.0, hi=1.0, diameter=0.02):
    return hp.build_grid(Hyperbox(np.array([lo]), np.array([hi])), diameter)


def constant_cache(grid, g_value, h=0.1):
    """Cache at step ``h`` with f == 0 (self-arrivals) and a constant stage cost."""
    nc = grid.node_count
    width = grid.r + 1
    indices = np.zeros((nc, 1, width), dtype=np.int32)
    indices[:, 0, 0] = np.arange(nc)
    weights = np.zeros((nc, 1, width))
    weights[:, 0, 0] = 1.0
    return ArrivalCache(
        grid=grid,
        control_values=np.array([0.0]),
        h=h,
        indices=indices,
        weights=weights,
        stage_cost=np.full((nc, 1), float(g_value)),
        invariance=hp.InvarianceReport(nc, 0, np.zeros(grid.r)),
    )


@pytest.fixture(scope="module")
def toy_cache(toy_reduced):
    grid = toy_grid()
    controls = hp.ControlSet(np.array([-1.0, 0.0, 1.0]))
    cache = hp.build_arrival_cache(grid, toy_reduced, controls, h=0.002)
    return grid, cache


class TestControlSet:
    def test_must_be_sorted(self):
        with pytest.raises(ValidationError):
            hp.ControlSet(np.array([1.0, -1.0]))

    def test_nonempty(self):
        with pytest.raises(ValidationError):
            hp.ControlSet(np.array([]))


class TestControlTable:
    def test_one_entry_per_node(self):
        grid = toy_grid(diameter=0.5)
        for count in (grid.node_count - 1, grid.node_count + 1):
            with pytest.raises(ValidationError, match="one entry per grid node"):
                hp.ControlTable(
                    grid=grid, controls=np.zeros(count),
                    control_set=hp.ControlSet(np.array([0.0])),
                )


class TestBuildArrivalCache:
    def test_zero_field_self_stencils(self):
        sys0 = hp.ControlledSystem(
            rhs=lambda Y, u: np.zeros_like(np.asarray(Y, dtype=float)),
            running_cost=lambda y, u: 1.0, weight=np.ones(1), control_box=(-1, 1),
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
            rhs=lambda Y, u: np.ones_like(np.asarray(Y, dtype=float)),
            running_cost=lambda y, u: 0.0, weight=np.ones(1), control_box=(-1, 1),
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
            clamped = grid.box.clip(arrival)
            idx, wts = stencil_batch(grid, clamped[None, :])
            fresh = float(np.dot(wts[0], nodal[idx[0]]))
            cached = float(np.dot(cache.weights[i, l], nodal[cache.indices[i, l]]))
            assert cached == pytest.approx(fresh, abs=1e-12)
            assert cache.stage_cost[i, l] == pytest.approx(
                toy_reduced.cost(nodes[i], controls.values[l]), rel=1e-12, abs=1e-14
            )

    def test_budget(self, toy_reduced):
        grid = toy_grid()
        with pytest.raises(ValidationError, match="entries, exceeding budget 10$"):
            hp.build_arrival_cache(
                grid, toy_reduced, hp.ControlSet(np.array([0.0])), 0.002, entry_budget=10
            )

    def test_budget_beyond_int32_rejected(self, toy_reduced):
        # the sweep's CSR row pointer is int32, so no budget may exceed its range
        with pytest.raises(ValidationError, match="int32"):
            hp.build_arrival_cache(
                toy_grid(), toy_reduced, hp.ControlSet(np.array([0.0])), 0.002,
                entry_budget=np.iinfo(np.int32).max + 1,
            )

    def test_reject_policy(self):
        sys1 = hp.ControlledSystem(
            rhs=lambda Y, u: np.ones_like(np.asarray(Y, dtype=float)),
            running_cost=lambda y, u: 0.0, weight=np.ones(1), control_box=(-1, 1),
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
            rhs=lambda Y, u: np.zeros_like(np.asarray(Y, dtype=float)),
            running_cost=lambda y, u: 0.0, weight=np.ones(1), control_box=(-1, 1),
        )
        rs = ReducedSystem(hp.identity_basis(np.ones(1)), sys0, 1)
        grid = toy_grid(diameter=0.5)
        v0 = hp.initial_value_guess(grid, rs, [0.0], lam=1.0, h=0.01, t_e=1.0)
        assert np.all(v0 == 0.0)

    def test_constant_cost_quadrature(self):
        # g == 1, f == 0: the guess equals the exact left-endpoint sum
        # h * sum exp(-lam j h), within O(h) of (1 - exp(-lam t_e)) / lam.
        sys0 = hp.ControlledSystem(
            rhs=lambda Y, u: np.zeros_like(np.asarray(Y, dtype=float)),
            running_cost=lambda y, u: 1.0, weight=np.ones(1), control_box=(-1, 1),
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
        rs_slow.structured = False  # force the generic numpy path
        slow = hp.initial_value_guess(grid, rs_slow, [-1.0, 1.0], 1.0, 0.05, 1.0)
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("structured", [True, False])
    def test_blown_rollouts_get_surrogate_without_overflow(self, test1_bundle, structured):
        # On a box three widths past the snapshots nearly every rollout blows
        # up; only live rows may be advanced, so nothing overflows.
        sys1, snap, basis = test1_bundle
        rs = ReducedSystem(basis, sys1, 4)
        rs.structured = structured
        grid = aligned_grid(hp.build_domain(basis, snap, 4, margin=3.0), 0.2)
        controls, lam, h, t_e = [-1.0, 0.0, 1.0], 1.0, 0.5, 3.0
        v0 = hp.initial_value_guess(grid, rs, controls, lam, h, t_e)

        # Reference: one node and one control at a time.
        nodes = grid.all_nodes()
        blow_sq = max(1.0, 1e12 * np.max(np.sum(nodes * nodes, axis=1)))
        n_steps = int(np.ceil(t_e / h))
        disc = np.exp(-lam * h * np.arange(n_steps))
        cost = np.full((grid.node_count, len(controls)), np.inf)
        max_g = 0.0
        for i, y0 in enumerate(nodes):
            for l, u in enumerate(controls):
                y, acc = y0.copy(), 0.0
                for k in range(n_steps):
                    g = rs.cost_batch(y[None], u)[0]
                    max_g = max(max_g, abs(g))
                    acc += disc[k] * g * h
                    y = y + h * rs.rhs_batch(y[None], u)[0]
                    if y @ y > blow_sq:
                        break
                else:
                    cost[i, l] = acc
        best = cost.min(axis=1)
        blown = ~np.isfinite(best)
        assert 0 < np.count_nonzero(~blown) < grid.node_count
        np.testing.assert_allclose(v0[blown], max_g / lam, rtol=1e-12)
        np.testing.assert_allclose(v0[~blown], best[~blown], rtol=1e-12)

    @pytest.mark.parametrize(
        "bundle, margin, h",
        [("test1_bundle", 0.0, 0.02), ("test2_bundle", 0.0, 0.05), ("test1_bundle", 3.0, 0.5)],
        ids=["test1-cubic", "test2-linear", "test1-blown"],
    )
    def test_structured_path_equals_a_whole_array_loop(self, request, bundle, margin, h):
        sys_obj, snap, basis = request.getfixturevalue(bundle)
        rs = ReducedSystem(basis, sys_obj, 4)
        grid = aligned_grid(hp.build_domain(basis, snap, 4, margin=margin), 0.4)
        controls, lam, t_e = [-1.0, 0.0, 1.0], 1.0, 3.0
        v0 = hp.initial_value_guess(grid, rs, controls, lam, h, t_e)

        # Reference: every live row advanced at once by y += h f(y), with the
        # norms computed twice per step, for the cost and the blow-up test.
        nodes = grid.all_nodes()
        blow_sq = max(1.0, 1e12 * float(np.einsum("ma,ma->m", nodes, nodes).max()))
        n_steps = int(np.ceil(t_e / h - 1e-12))
        disc = np.exp(-lam * h * np.arange(n_steps))
        best = np.full(grid.node_count, np.inf)
        gmax = 0.0
        for u in controls:
            y = nodes.copy()
            acc = np.zeros(grid.node_count)
            alive = np.ones(grid.node_count, dtype=bool)
            for k in range(n_steps):
                g = np.einsum("ma,ma->m", y, y) + rs.cost_cw * u * u
                gmax = max(gmax, np.where(alive, np.abs(g), 0.0).max())
                acc[alive] += disc[k] * g[alive] * h
                live = y[alive]
                cubic = 0.0 if rs.cubic is None else cubic_batch(live, rs.cubic)
                y[alive] += h * (live @ rs.a_eff.T + u * rs.b_red - cubic)
                alive &= np.einsum("ma,ma->m", y, y) <= blow_sq
            acc[~alive] = np.inf
            best = np.minimum(best, acc)
        blown = ~np.isfinite(best)
        best[blown] = gmax / lam
        assert (rs.cubic is None) == (bundle == "test2_bundle")
        assert np.any(blown) == (margin > 0)
        np.testing.assert_array_equal(v0, best)

    def test_no_einsum_path_search(self, test1_bundle, monkeypatch):
        from numpy._core import einsumfunc

        def refuse(*args, **kwargs):
            raise AssertionError("einsum_path called")

        # np.einsum(..., optimize=True) looks the name up in its own module.
        monkeypatch.setattr(np, "einsum_path", refuse)
        monkeypatch.setattr(einsumfunc, "einsum_path", refuse)
        sys1, snap, basis = test1_bundle
        rs = ReducedSystem(basis, sys1, 4)
        grid = aligned_grid(hp.build_domain(basis, snap, 4), 0.4)
        assert rs.rhs_batch(grid.all_nodes(), 0.5).shape == (grid.node_count, 4)
        v0 = hp.initial_value_guess(grid, rs, [-1.0, 0.0, 1.0], 1.0, 0.05, 1.0)
        assert np.all(np.isfinite(v0))


class TestValueIteration:
    def test_zero_cost_contracts_to_zero(self, toy_cache):
        grid, cache = toy_cache
        zero_cache = ArrivalCache(
            grid=cache.grid, control_values=cache.control_values, h=cache.h,
            indices=cache.indices, weights=cache.weights,
            stage_cost=np.zeros_like(cache.stage_cost), invariance=cache.invariance,
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

    def test_step_beyond_half_the_discount_scale_warns(self):
        grid = toy_grid(diameter=0.25)
        cache = constant_cache(grid, 1.0, h=0.5)
        hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, 0.5, 1e-4)  # no warning
        cache = constant_cache(grid, 1.0, h=0.6)
        message = r"^h=0.6 exceeds the recommended range h <= 1/\(2\*lam\)$"
        with pytest.warns(UserWarning, match=message):
            vf, _ = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, 0.6, 1e-4)
        assert vf.converged

    def test_value_bounded_by_cost_scale(self, toy_cache):
        grid, cache = toy_cache
        vf, _ = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, 0.002, stop_tol=1e-8)
        assert np.max(vf.values) <= np.max(np.abs(cache.stage_cost)) / 1.0 + 1e-6

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
        )
        _, table = hp.value_iteration(cache, np.zeros(nc), 1.0, 0.1, 1e-6)
        assert np.all(table.controls == -0.5)

    def test_unconverged_flagged(self, toy_cache, caplog):
        grid, cache = toy_cache
        vf, _ = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, 0.002, 1e-12, max_iters=3)
        assert not vf.converged
        assert vf.iterations == 3
        assert vf.error_bound > 1e-12
        assert "value iteration unconverged after 3 sweeps" in caplog.text

    def test_failed_policy_evaluation_warns_and_the_greedy_residual_decides(
        self, monkeypatch, caplog
    ):
        # an evaluation that returns its start unimproved leaves plain Jacobi
        # sweeps, which still stop on the bound
        grid = toy_grid(diameter=0.25)
        cache = constant_cache(grid, 1.0)
        monkeypatch.setattr(scipy.sparse.linalg, "bicgstab", lambda a, b, x0, rtol: (x0, 7))
        vf, _ = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, 0.1, 1e-4)
        assert vf.converged and vf.error_bound <= 1e-4
        assert vf.iterations > 50
        assert np.max(np.abs(vf.values - 1.0)) <= vf.error_bound
        assert "policy evaluation after sweep 1: BiCGSTAB info 7" in caplog.text

    def test_policy_evaluation_reaches_the_fixed_point_in_one_step(self):
        # one control: the first evaluation solves the fixed point itself
        grid = toy_grid(diameter=0.25)
        cache = constant_cache(grid, 1.0)
        vf, _ = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, 0.1, 1e-12)
        assert vf.converged and vf.iterations == 2
        np.testing.assert_allclose(vf.values, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_guess_refused(self, toy_cache, bad):
        grid, cache = toy_cache
        v0 = np.zeros(grid.node_count)
        v0[7] = bad
        with pytest.raises(ValidationError, match="^initial guess has 1 non-finite values$"):
            hp.value_iteration(cache, v0, 1.0, 0.002, 1e-6)

    def test_nan_residual_raises_at_its_sweep(self, toy_cache):
        # a NaN stage cost at one pair reaches that node's value at sweep 1;
        # the iteration stops there instead of running max_iters sweeps
        grid, cache = toy_cache
        stage_cost = cache.stage_cost.copy()
        stage_cost[5, 1] = np.nan
        bad = dataclasses.replace(cache, stage_cost=stage_cost)
        message = r"^value iteration reached NaN values at sweep 1 \(1 of \d+ nodes\)$"
        with pytest.raises(NumericalError, match=message):
            hp.value_iteration(bad, np.zeros(grid.node_count), 1.0, 0.002, 1e-6, max_iters=5000)

    def test_full_space_equivalence_identity_basis(self, rng):
        # With the identity basis the "reduced" solve IS the full-space
        # solve: the same cache entries come out of the raw dynamics.
        A = np.array([[-1.0, 0.3], [0.0, -0.5]])
        b = np.array([0.5, -0.2])
        sys2 = hp.ControlledSystem(
            rhs=lambda Y, u: np.asarray(Y) @ A.T + u * b,
            running_cost=lambda y, u: float(y @ y + u * u),
            weight=np.ones(2), control_box=(-1, 1),
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
                clamped = box.clip(arrival)
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
    lam, h = 1.0, cache.h
    args = (v, cache.indices, cache.weights, cache.stage_cost, 1.0 - lam * h, h)
    ref_v, ref_a = _sweep_per_node(*args)
    for got_v, got_a in (_accel.sweep(*args), hp.sweep_once(cache, v, lam, h)):
        np.testing.assert_array_equal(got_v, ref_v)
        np.testing.assert_array_equal(got_a, ref_a)


def test_sweep_at_a_step_other_than_the_cache_is_refused(toy_solution_free):
    grid, cache = toy_solution_free
    v = np.zeros(grid.node_count)
    message = r"h=0.001 differs from the arrival cache's h=0.002"
    with pytest.raises(ValidationError, match=message):
        hp.sweep_once(cache, v, 1.0, 0.001)
    with pytest.raises(ValidationError, match=message):
        hp.value_iteration(cache, v, 1.0, 0.001, 1e-6)


@pytest.mark.parametrize("nc, nu, s", [(200, 11, 5), (300, 7, 7)])
def test_sweep_matches_per_node_loop_on_random_stencils(rng, nc, nu, s):
    # stencils of r+1 = s random vertices with Dirichlet weights: the sweep
    # sums each stencil in vertex order, exactly as the plain loop does
    from hjbpod import _accel

    idx = rng.integers(0, nc, size=(nc, nu, s)).astype(np.int32)
    wts = rng.dirichlet(np.ones(s), size=(nc, nu))
    g = rng.uniform(0.0, 1.0, size=(nc, nu))
    # at every tenth node the last control repeats the first at a cost low
    # enough to win: an exact tie at the minimum, which goes to control 0
    idx[::10, -1], wts[::10, -1] = idx[::10, 0], wts[::10, 0]
    g[::10, 0] = g[::10, -1] = -1e4
    v = rng.normal(size=nc)
    args = (v, idx, wts, g, 0.998, 0.002)
    ref_v, ref_a = _sweep_per_node(*args)
    got_v, got_a = _accel.sweep(*args)
    np.testing.assert_array_equal(got_v, ref_v)
    np.testing.assert_array_equal(got_a, ref_a)
    assert np.all(got_a[::10] == 0)


@pytest.fixture()
def built_operators(monkeypatch):
    """Every CSR matrix the sweep kernels build, in order."""
    from scipy import sparse

    from hjbpod import _accel

    make, built = sparse.csr_array, []

    def csr_array(*args, **kwargs):
        built.append(make(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(_accel.sparse, "csr_array", csr_array)
    return built


def test_sweep_operator_shares_the_cache_arrays(toy_solution_free, rng, built_operators):
    # the sweep's CSR matrix holds the cache's stencil arrays, not copies
    from hjbpod import _accel

    grid, cache = toy_solution_free
    _accel.sweep(
        rng.normal(size=grid.node_count), cache.indices, cache.weights, cache.stage_cost,
        0.998, 0.002,
    )
    (op,) = built_operators
    assert np.shares_memory(op.data, cache.weights)
    assert np.shares_memory(op.indices, cache.indices)
    assert op.indptr.dtype == np.int32


def test_value_iteration_builds_the_sweep_operator_once_per_cache(
    toy_solution_free, built_operators
):
    grid, cache = toy_solution_free
    vf, _ = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, 0.002, 1e-8)
    assert vf.iterations > 1
    (op,) = built_operators
    assert np.shares_memory(op.data, cache.weights)
    assert np.shares_memory(op.indices, cache.indices)
    again, _ = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, 0.002, 1e-8)
    assert len(built_operators) == 1
    np.testing.assert_array_equal(again.values, vf.values)


def _node_major_jacobi(cache, v0, lam, h, stop_tol):
    """Reference value iteration on node-major (nc, nu) candidates: each
    stencil summed in vertex order from 0.0, as a CSR row is, then
    ``np.argmin`` and ``take_along_axis`` over the controls."""
    idx, wts = np.ascontiguousarray(cache.indices), np.ascontiguousarray(cache.weights)
    hg = h * np.ascontiguousarray(cache.stage_cost)
    v, prev, residuals, changes = v0.copy(), None, [], []
    while True:
        acc = np.zeros(hg.shape)
        for q in range(idx.shape[2]):
            acc += wts[:, :, q] * v[idx[:, :, q]]
        cand = acc * (1.0 - lam * h) + hg
        argmin = np.argmin(cand, axis=1)
        v_new = np.take_along_axis(cand, argmin[:, None], axis=1)[:, 0]
        residuals.append(np.max(np.abs(v_new - v)))
        changes.append(v.size if prev is None else np.count_nonzero(argmin != prev))
        v, prev = v_new, argmin
        if residuals[-1] < stop_tol:
            return v, argmin, residuals, changes


def _jacobi(cache, v0, lam, h, stop_tol):
    """Jacobi iteration through :func:`hp.sweep_once`, the greedy step of
    value iteration, until two iterates differ by less than ``stop_tol``."""
    v, prev, residuals, changes = v0.copy(), None, [], []
    while True:
        v_new, argmin = hp.sweep_once(cache, v, lam, h)
        residuals.append(np.max(np.abs(v_new - v)))
        changes.append(v.size if prev is None else np.count_nonzero(argmin != prev))
        v, prev = v_new, argmin
        if residuals[-1] < stop_tol:
            return v, argmin, residuals, changes


def _small_problem(request, bundle, r, diameter):
    """A clamped test1 or test2 cache on a coarse grid, 11 controls, h = 0.01,
    and its warm start."""
    sys_obj, snap, basis = request.getfixturevalue(bundle)
    rs = ReducedSystem(basis, sys_obj, r)
    grid = aligned_grid(hp.build_domain(basis, snap, r), diameter)
    controls = hp.ControlSet(np.linspace(*sys_obj.control_box, 11))
    cache = hp.build_arrival_cache(grid, rs, controls, 0.01)
    v0 = hp.initial_value_guess(grid, rs, [controls.values[0], 0.0], 1.0, 0.05, 1.0)
    return cache, v0


SMALL_PROBLEMS = pytest.mark.parametrize(
    "bundle, r, diameter", [("test1_bundle", 3, 0.05), ("test2_bundle", 2, 0.1)],
    ids=["test1", "test2"],
)


@SMALL_PROBLEMS
def test_value_iteration_equals_a_node_major_jacobi_loop(request, bundle, r, diameter):
    # 243 and 189 nodes, 11 controls, about 200 sweeps each
    cache, v0 = _small_problem(request, bundle, r, diameter)
    h, stop_tol = 0.01, 1e-6
    values, argmin, residuals, changes = _jacobi(cache, v0, 1.0, h, stop_tol)
    ref_v, ref_a, ref_res, ref_changes = _node_major_jacobi(cache, v0, 1.0, h, stop_tol)
    assert cache.invariance.violations > 0 and len(residuals) > 100
    assert len(residuals) == len(ref_res)
    np.testing.assert_array_equal(values, ref_v)
    np.testing.assert_array_equal(argmin, ref_a)
    np.testing.assert_array_equal(residuals, ref_res)
    np.testing.assert_array_equal(changes, ref_changes)


@SMALL_PROBLEMS
@pytest.mark.parametrize("stop_tol", [1e-3, 1e-6, 1e-9])
def test_value_iteration_lies_within_its_bound_of_the_fixed_point(
    request, bundle, r, diameter, stop_tol
):
    cache, v0 = _small_problem(request, bundle, r, diameter)
    lam, h = 1.0, 0.01
    v_star, _, _, _ = _node_major_jacobi(cache, v0, lam, h, 1e-13)
    # v_star is itself within 1e-13 (1 - lam h) / (lam h) of the fixed point
    slack = 1e-13 * (1 - lam * h) / (lam * h)
    vf, _ = hp.value_iteration(cache, v0, lam, h, stop_tol)
    assert vf.converged and vf.error_bound <= stop_tol
    assert vf.residual_history.size == vf.argmin_change_history.size == vf.iterations
    assert vf.final_residual == vf.residual_history[-1]
    assert np.max(np.abs(vf.values - v_star)) <= vf.error_bound + slack


def test_sweep_takes_the_lowest_index_with_its_bits():
    from hjbpod import _accel

    # one row of nu candidates per node, transposed to the (nu, nc) layout
    nodes = np.array(
        [
            [0.0, -0.0, 1.0],  # signed-zero tie, a plain tie once swept
            [-0.0, 0.0, 1.0],
            [1.0, -0.0, 0.0],  # tie at controls 1 and 2
            [2.0, 1.0, 1.0],  # exact tie at control 1
            [1.0, np.nan, 0.0],  # a NaN candidate is never replaced
            [np.nan, -1.0, np.nan],
            [3.0, 2.0, 1.0],
        ]
    )
    hg = np.ascontiguousarray(nodes.T)
    nu, nc = hg.shape
    # a zero operator: the sweep sees the candidates 0.0 * (1 - lam h) + hg
    op = _accel.sweep_operator(np.zeros((nu, nc, 1), np.int32), np.zeros((nu, nc, 1)))
    got_v, got_a = _accel.sweep_with(op, np.ones(nc), hg, 0.998)
    seen = 0.0 * 0.998 + nodes
    ref_v = seen[np.arange(nc), got_a]
    assert got_a.tolist() == [0, 0, 1, 1, 1, 0, 2]
    assert got_a.dtype == np.int32
    assert got_v.view(np.uint64).tolist() == ref_v.view(np.uint64).tolist()
    assert not np.signbit(got_v[:3]).any()


def test_cache_gathers_equal_the_per_node_stencils(toy_solution_free, toy_reduced, rng):
    # the node-major indexing of the control-major cache, as perfbench's
    # reference reads it, against the stencils of every arrival
    grid, cache = toy_solution_free
    nodes = grid.all_nodes()
    at = np.arange(grid.node_count)
    policy = rng.integers(0, cache.control_values.size, size=grid.node_count)
    want_idx, want_wts, want_cost = [], [], []
    for i, l in zip(at, policy):
        u = float(cache.control_values[l])
        node = nodes[i : i + 1]
        arrival = grid.box.clip(node + cache.h * toy_reduced.rhs_batch(node, u))
        idx, wts = stencil_batch(grid, arrival)
        want_idx.append(idx[0])
        want_wts.append(wts[0])
        want_cost.append(toy_reduced.cost_batch(node, u)[0])
    np.testing.assert_array_equal(cache.indices[at, policy], want_idx)
    np.testing.assert_array_equal(cache.weights[at, policy], want_wts)
    np.testing.assert_array_equal(cache.stage_cost[at, policy], want_cost)


def test_cache_is_stored_control_major_and_the_operator_shares_it(toy_solution_free):
    grid, cache = toy_solution_free
    nc, nu = grid.node_count, cache.control_values.size
    assert cache.indices.shape == (nc, nu, 2) and cache.stage_cost.shape == (nc, nu)
    for field in (cache.indices, cache.weights, cache.stage_cost):
        assert field.swapaxes(0, 1).flags.c_contiguous
    assert cache.scaled_cost.shape == (nu, nc) and cache.scaled_cost.flags.c_contiguous
    op = cache.operator
    assert np.shares_memory(op.data, cache.weights)
    assert np.shares_memory(op.indices, cache.indices)
    # row l*nc + i is the stencil of node i under control l
    for i, l in ((0, 0), (3, 2), (nc - 1, 1)):
        row = op[[l * nc + i]]
        np.testing.assert_array_equal(row.indices, cache.indices[i, l])
        np.testing.assert_array_equal(row.data, cache.weights[i, l])


def test_a_hand_built_node_major_cache_sweeps_as_the_per_node_loop(rng):
    nc, nu, s = 150, 5, 3
    idx = rng.integers(0, nc, size=(nc, nu, s)).astype(np.int32)
    wts = rng.dirichlet(np.ones(s), size=(nc, nu))
    g = rng.uniform(0.0, 1.0, size=(nc, nu))
    grid = toy_grid(diameter=2.0 / (nc - 1))
    assert grid.node_count == nc
    cache = ArrivalCache(
        grid=grid, control_values=np.linspace(-1.0, 1.0, nu), h=0.002,
        indices=idx, weights=wts, stage_cost=g,
        invariance=hp.InvarianceReport(nc * nu, 0, np.zeros(1)),
    )
    v = rng.normal(size=nc)
    got_v, got_a = hp.sweep_once(cache, v, 1.0, 0.002)
    ref_v, ref_a = _sweep_per_node(v, idx, wts, g, 0.998, 0.002)
    np.testing.assert_array_equal(got_v, ref_v)
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
            clamped = grid.box.clip(coeffs)
            manual = hp.interpolate(grid, table.controls, clamped)
            manual = float(np.clip(manual, -1.0, 1.0))
            assert hp.FeedbackPolicy(basis, table)(y) == pytest.approx(manual, abs=1e-14)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_equals_composition_bit_for_bit(self, r, rng):
        grid = dyadic_grid(r)
        values = np.linspace(-1.0, 1.0, 5)
        table = hp.ControlTable(
            grid=grid, controls=rng.choice(values, grid.node_count),
            control_set=hp.ControlSet(values),
        )
        pts = kuhn_probe_points(grid, rng)
        # unit weights project lifted lattice points back exactly; random
        # weights give generic coefficients
        for weight in (np.ones(r + 2), rng.uniform(0.5, 2.0, r + 2)):
            basis = hp.identity_basis(weight)
            policy = hp.FeedbackPolicy(basis, table)
            extra = rng.normal(size=(pts.shape[0], 2))
            for y in hp.lift(basis, np.hstack([pts, extra])):
                assert policy(y) == composed_feedback(basis, table, y)

    def test_nan_state_rejected(self, toy_reduced, toy_cache):
        grid, cache = toy_cache
        table = hp.ControlTable(
            grid=grid, controls=np.zeros(grid.node_count),
            control_set=hp.ControlSet(np.array([0.0])),
        )
        with pytest.raises(ValidationError, match="point coordinates contain NaN"):
            hp.FeedbackPolicy(toy_reduced.basis, table)(np.array([np.nan]))

    def test_rank_checked_at_construction(self):
        table = hp.ControlTable(
            grid=dyadic_grid(3), controls=np.zeros(5**3),
            control_set=hp.ControlSet(np.array([0.0])),
        )
        with pytest.raises(ValidationError, match="rank"):
            hp.FeedbackPolicy(hp.identity_basis(np.ones(2)), table)


def composed_feedback(basis, table, y):
    """Reference feedback from the library's batch pieces."""
    grid = table.grid
    coeffs = hp.project_coeffs(basis, y, grid.r)
    idx, wts = stencil_batch(grid, grid.box.clip(coeffs)[None, :])
    u = float(np.dot(wts[0], table.controls[idx[0]]))
    values = table.control_set.values
    return float(np.clip(u, values[0], values[-1]))


@pytest.fixture(scope="module")
def test2_table(test2_bundle):
    """A coarse r=2 control table for test2."""
    sys2, snap, basis = test2_bundle
    h = 0.02
    rs = ReducedSystem(basis, sys2, 2)
    grid = aligned_grid(hp.build_domain(basis, snap, 2), 0.2)
    cache = hp.build_arrival_cache(grid, rs, hp.ControlSet(np.linspace(-2.2, 0.0, 5)), h)
    _, table = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, h, 1e-5)
    return table


def spy_on_odeint(monkeypatch):
    """Record ``(Dfun, info)`` for every odeint call that integrate makes.

    ``info`` is LSODA's ``full_output`` dictionary, whose counters are
    cumulative per output time.  ``integrate`` imports ``odeint`` from
    ``scipy.integrate`` on each call, so the spy goes there.
    """
    import scipy.integrate

    seen = []
    odeint = scipy.integrate.odeint

    def spy(*args, **kwargs):
        out = odeint(*args, **kwargs)
        seen.append((kwargs.get("Dfun"), out[1]))
        return out

    monkeypatch.setattr(scipy.integrate, "odeint", spy)
    return seen


class TestClosedLoop:
    def test_equals_integrate_with_composed_law(self, test2_bundle, test2_table):
        sys2, _, basis = test2_bundle
        table = test2_table
        y0 = hp.test2_initial_state(100)
        cfg = hp.IntegratorConfig()
        traj = hp.simulate_closed_loop(sys2, basis, table, y0, 1.0, cfg, sample_dt=0.1)
        law = lambda y: composed_feedback(basis, table, y)
        ref = hp.integrate(sys2, y0, law, (0.0, 1.0), cfg, traj.times)
        np.testing.assert_array_equal(traj.states, ref.states)
        np.testing.assert_array_equal(traj.controls, ref.controls)
        assert np.ptp(traj.controls) > 0

    def test_jacobian_passed_only_with_gradient_and_structure(
        self, test2_bundle, test2_table, monkeypatch
    ):
        # every control, feedback or scalar, gets the system's own Jacobian
        # at the control it applies; without one LSODA differences the rhs
        sys2, _, basis = test2_bundle
        policy = hp.FeedbackPolicy(basis, test2_table)
        y0 = hp.test2_initial_state(100)
        seen = spy_on_odeint(monkeypatch)
        hp.integrate(sys2, y0, policy, (0.0, 0.1))
        hp.integrate(sys2, y0, lambda y: policy(y), (0.0, 0.1))
        hp.integrate(dataclasses.replace(sys2, structure=None), y0, policy, (0.0, 0.1))
        hp.integrate(dataclasses.replace(sys2, jacobian=None), y0, policy, (0.0, 0.1))
        jacobians = [dfun for dfun, _ in seen]
        assert jacobians[3] is None
        y = 0.5 * y0
        for dfun in jacobians[:3]:
            np.testing.assert_array_equal(dfun(0.0, y), sys2.jacobian(y, policy(y)))

    def test_exact_jacobian_matches_differencing_with_fewer_rhs_calls(
        self, test2_bundle, test2_table, monkeypatch
    ):
        # Judged per step by LSODA's own counters (steps nst, rhs calls nfe,
        # Jacobians nje): the step counts follow round-off, which changes
        # with the BLAS thread count, so no fixed ratio of total calls holds
        # at every thread count.
        sys2, _, basis = test2_bundle
        policy = hp.FeedbackPolicy(basis, test2_table)
        y0 = hp.test2_initial_state(100)
        times = np.linspace(0.0, 3.0, 31)
        seen = spy_on_odeint(monkeypatch)
        exact = hp.integrate(sys2, y0, policy, (0.0, 3.0), None, times)
        no_jacobian = dataclasses.replace(sys2, jacobian=None)
        differenced = hp.integrate(no_jacobian, y0, policy, (0.0, 3.0), None, times)
        np.testing.assert_allclose(exact.states, differenced.states, rtol=0, atol=1e-8)
        (_, exact_info), (_, diff_info) = seen
        nst, nfe, nje = (exact_info[k][-1] for k in ("nst", "nfe", "nje"))
        # about 1.93 rhs calls per step, none spent on a Jacobian
        assert nje > 0 and nfe < 2.5 * nst
        nst, nfe, nje = (diff_info[k][-1] for k in ("nst", "nfe", "nje"))
        # each differenced Jacobian costs n rhs calls on top of the steps' own
        assert nje > 0 and nfe >= sys2.n * nje + nst

    def test_custom_system_without_structure_gets_its_jacobian(self, monkeypatch):
        # a stiff cubic system with a Jacobian and no SystemStructure
        rates = np.array([1.0, 1e2, 1e4])
        custom = hp.ControlledSystem(
            rhs=lambda y, u: -rates * y - y**3 + u,
            running_cost=lambda y, u: float(y @ y + u * u),
            weight=np.ones(3),
            control_box=(-1.0, 1.0),
            jacobian=lambda y, u: -np.diag(rates + 3 * y**2),
        )
        law = lambda y: float(-np.tanh(y.sum()))
        y0 = np.array([1.0, -0.5, 0.25])
        times = np.linspace(0.0, 2.0, 5)
        seen = spy_on_odeint(monkeypatch)
        traj = hp.integrate(custom, y0, law, (0.0, 2.0), None, times)
        no_jacobian = dataclasses.replace(custom, jacobian=None)
        ref = hp.integrate(no_jacobian, y0, law, (0.0, 2.0), None, times)
        (dfun, info), (no_dfun, _) = seen
        y = np.array([0.3, 0.2, -0.1])
        np.testing.assert_array_equal(dfun(0.0, y), custom.jacobian(y, law(y)))
        assert no_dfun is None and info["nje"][-1] > 0
        np.testing.assert_allclose(traj.states, ref.states, rtol=0, atol=1e-9)

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


class TestEvaluateCost:
    def test_zero_trajectory(self):
        sys_t = make_scalar_integrator_system()
        traj = hp.Trajectory(np.linspace(0, 1, 5), np.zeros((5, 1)), np.zeros(5))
        assert hp.evaluate_cost(sys_t, traj, 1.0) == 0.0

    def test_unit_cost_analytic(self):
        sys1 = hp.ControlledSystem(
            rhs=lambda y, u: np.zeros(np.shape(y)), running_cost=lambda y, u: 1.0,
            weight=np.ones(1), control_box=(-1, 1),
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
