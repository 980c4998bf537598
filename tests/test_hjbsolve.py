import dataclasses

import numpy as np
import pytest

import hjbpod as hp
from hjbpod import dynamics
from hjbpod.errors import CacheBudgetError, InvalidPointError, ValidationError
from hjbpod.hjbgrid import aligned_grid, stencil_batch
from hjbpod.hjbsolve import ArrivalCache
from hjbpod.reduced import Hyperbox, ReducedSystem

from conftest import dyadic_grid, kuhn_probe_points, make_scalar_integrator_system


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
        with pytest.raises(CacheBudgetError):
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
    args = (v, cache.indices, cache.weights, cache.stage_cost, 0.998, 0.002)
    ref_v, ref_a = _sweep_per_node(*args)
    got_v, got_a = _accel.sweep(*args)
    np.testing.assert_array_equal(got_v, ref_v)
    np.testing.assert_array_equal(got_a, ref_a)


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


def test_sweep_operator_shares_the_cache_arrays(toy_solution_free, rng, monkeypatch):
    # the sweep's CSR matrix holds the cache's stencil arrays, not copies
    from scipy import sparse

    from hjbpod import _accel

    make, built = sparse.csr_array, []

    def csr_array(*args, **kwargs):
        built.append(make(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(_accel.sparse, "csr_array", csr_array)
    grid, cache = toy_solution_free
    _accel.sweep(
        rng.normal(size=grid.node_count), cache.indices, cache.weights, cache.stage_cost,
        0.998, 0.002,
    )
    (op,) = built
    assert np.shares_memory(op.data, cache.weights)
    assert np.shares_memory(op.indices, cache.indices)
    assert op.indptr.dtype == np.int32


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
        with pytest.raises(InvalidPointError):
            hp.FeedbackPolicy(toy_reduced.basis, table)(np.array([np.nan]))

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_gradient_matches_central_differences(self, r, rng):
        box = Hyperbox(-rng.uniform(0.5, 2, r), rng.uniform(0.5, 2, r))
        values = np.linspace(-1.0, 1.0, 5)
        n = r + 2
        # a random weighted-orthonormal basis: projection mixes every state entry
        weight = rng.uniform(0.5, 2.0, n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        basis = hp.PODBasis(
            modes=q.T / np.sqrt(weight), eigvals=np.ones(n), tau=1.0, p=0, N=0, weight=weight,
        )
        eps = 1e-7
        for grid in (dyadic_grid(r), hp.build_grid(box, float(np.linalg.norm(box.width) / 3))):
            table = hp.ControlTable(
                grid=grid, controls=rng.choice(values, grid.node_count),
                control_set=hp.ControlSet(values),
            )
            policy = hp.FeedbackPolicy(basis, table)
            for _ in range(10):
                # distinct fractional coordinates well inside (0, 1): strictly
                # inside one Kuhn simplex
                theta = rng.permutation(np.linspace(0.1, 0.9, r)) + rng.uniform(-0.02, 0.02, r)
                cell = rng.integers(0, grid.cells_per_axis)
                coeffs = grid.box.lower + grid.edge * (cell + theta)
                y = np.concatenate([coeffs, rng.normal(size=2)]) @ basis.modes
                grad = policy.gradient(y)
                fd = np.array(
                    [(policy(y + eps * e) - policy(y - eps * e)) / (2 * eps) for e in np.eye(n)]
                )
                np.testing.assert_allclose(fd, grad, rtol=5e-6, atol=5e-6 * np.abs(grad).max())

    def test_gradient_zero_beyond_a_face(self, rng):
        grid = dyadic_grid(3)
        values = np.linspace(-1.0, 1.0, 5)
        table = hp.ControlTable(
            grid=grid, controls=rng.choice(values, grid.node_count),
            control_set=hp.ControlSet(values),
        )
        # unit weights: the projected coordinates are the state entries
        policy = hp.FeedbackPolicy(hp.identity_basis(np.ones(3)), table)
        for y in ([1.7, 0.3, -0.4], [0.3, -1.2, 0.1], [-3.0, 0.6, 2.0]):
            y = np.array(y)
            grad = policy.gradient(y)
            beyond = np.abs(y) > 1.0
            assert np.all(grad[beyond] == 0.0)
            np.testing.assert_array_equal(
                grad[~beyond], hp.interpolate_gradient(grid, table.controls, y)[~beyond]
            )

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
    cache = hp.build_arrival_cache(grid, rs, hp.ControlSet.uniform(-2.2, 0.0, 5), h)
    _, table = hp.value_iteration(cache, np.zeros(grid.node_count), 1.0, h, 1e-5)
    return table


def spy_on_odeint(monkeypatch):
    """Record the ``Dfun`` of every odeint call that integrate makes."""
    seen = []
    odeint = dynamics.odeint

    def spy(*args, **kwargs):
        seen.append(kwargs.get("Dfun"))
        return odeint(*args, **kwargs)

    monkeypatch.setattr(dynamics, "odeint", spy)
    return seen


def counting_rhs(sys_obj):
    """The system with an rhs that counts its calls in the returned list."""
    calls = []
    rhs = sys_obj.rhs

    def counted(y, u):
        calls.append(1)
        return rhs(y, u)

    return dataclasses.replace(sys_obj, rhs=counted), calls


class TestClosedLoop:
    def test_equals_integrate_with_composed_law(self, test2_bundle, test2_table):
        sys2, _, basis = test2_bundle
        table = test2_table
        y0 = hp.test2_initial_state(100)
        cfg = hp.IntegratorConfig()
        traj = hp.simulate_closed_loop(sys2, basis, table, y0, 1.0, cfg, sample_dt=0.1)
        law = hp.FeedbackLaw(
            lambda y: composed_feedback(basis, table, y), hp.FeedbackPolicy(basis, table).gradient
        )
        ref = hp.integrate(sys2, y0, law, (0.0, 1.0), cfg, traj.times)
        np.testing.assert_array_equal(traj.states, ref.states)
        np.testing.assert_array_equal(traj.controls, ref.controls)
        assert np.ptp(traj.controls) > 0

    def test_jacobian_passed_only_with_gradient_and_structure(
        self, test2_bundle, test2_table, monkeypatch
    ):
        sys2, _, basis = test2_bundle
        policy = hp.FeedbackPolicy(basis, test2_table)
        y0 = hp.test2_initial_state(100)
        seen = spy_on_odeint(monkeypatch)
        hp.integrate(sys2, y0, policy, (0.0, 0.1))
        hp.integrate(sys2, y0, lambda y: policy(y), (0.0, 0.1))
        hp.integrate(dataclasses.replace(sys2, structure=None), y0, policy, (0.0, 0.1))
        assert callable(seen[0])
        assert seen[1:] == [None, None]
        # the closed-loop Jacobian: A plus the control gain times the law's gradient
        A = sys2.structure.linear
        b = sys2.structure.control_gain
        y = 0.5 * y0
        np.testing.assert_allclose(
            seen[0](0.0, y), A + np.outer(b, policy.gradient(y)), rtol=0, atol=1e-12
        )

    def test_exact_jacobian_matches_differencing_with_fewer_rhs_calls(
        self, test2_bundle, test2_table
    ):
        sys2, _, basis = test2_bundle
        policy = hp.FeedbackPolicy(basis, test2_table)
        y0 = hp.test2_initial_state(100)
        times = np.linspace(0.0, 3.0, 31)
        counted_sys, calls = counting_rhs(sys2)
        exact = hp.integrate(counted_sys, y0, policy, (0.0, 3.0), None, times)
        exact_calls = len(calls)
        calls.clear()
        differenced = hp.integrate(counted_sys, y0, lambda y: policy(y), (0.0, 3.0), None, times)
        np.testing.assert_allclose(exact.states, differenced.states, rtol=0, atol=1e-8)
        assert 2 * exact_calls <= len(calls)

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
