"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  The two desk-scale experiments share session fixtures with
the unit tests; everything else builds its own small problems.
"""

import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import hjbpod as hp
from hjbpod.hjbgrid import aligned_grid, ensure_invariant_grid, stencil_batch
from hjbpod.lqr import compare_controls, linear_quadratic_data, simulate_lqr, solve_care
from hjbpod.pod import assemble_snapshot_vectors, project_coeffs_batch
from hjbpod.reduced import Hyperbox, ReducedSystem, grow_to_invariant

from conftest import make_scalar_integrator_system, random_snapshot_set


def report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def toy_solution():
    """1-D toy (ydot = u, g = y^2) solved on [-1, 1] with k=0.02, h=0.002."""
    sys_t = make_scalar_integrator_system()
    basis = hp.identity_basis(np.ones(1))
    rs = ReducedSystem(basis, sys_t, 1)
    grid = hp.build_grid(Hyperbox(np.array([-1.0]), np.array([1.0])), 0.02)
    controls = hp.ControlSet(np.array([-1.0, 0.0, 1.0]))
    cache = hp.build_arrival_cache(grid, rs, controls, h=0.002)
    return sys_t, rs, grid, controls, cache


@pytest.fixture(scope="module")
def test1_solution(test1_bundle):
    """Desk-scale Test-1 pipeline at the reference parameters."""
    sys1, snap, basis = test1_bundle
    r, k_r, h, lam = 4, 0.02, 0.002, 1.0
    rs = ReducedSystem(basis, sys1, r)
    interval = np.linspace(-1.0, 1.0, 21)
    box = hp.build_domain(basis, snap, r)
    box = grow_to_invariant(rs, box, interval)
    grid = ensure_invariant_grid(rs, box, interval, k_r, h)
    controls = hp.ControlSet(interval)
    cache = hp.build_arrival_cache(grid, rs, controls, h)
    v0 = hp.initial_value_guess(grid, rs, [-1.0, 0.0, 1.0], lam, h, 3.0)
    vf, table = hp.value_iteration(cache, v0, lam, h, stop_tol=5e-4)
    return sys1, snap, basis, rs, grid, cache, vf, table


@pytest.fixture(scope="module")
def test2_solution(test2_bundle):
    """Desk-scale Test-2 pipeline (clamped box, origin-aligned grid)."""
    sys2, snap, basis = test2_bundle
    lam, h, k_r = 1.0, 0.01, 0.1
    out = {}
    for r in (2, 4):
        rs = ReducedSystem(basis, sys2, r)
        box = hp.build_domain(basis, snap, r)
        grid = aligned_grid(box, k_r)
        controls = hp.ControlSet(np.linspace(-2.2, 0.0, 11))
        cache = hp.build_arrival_cache(grid, rs, controls, h)
        v0 = hp.initial_value_guess(grid, rs, [-2.2, -1.1, 0.0], lam, h, 3.0)
        vf, table = hp.value_iteration(cache, v0, lam, h, stop_tol=1e-6)
        out[r] = (rs, grid, cache, vf, table)
    return sys2, snap, basis, out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_pod_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(50):
        snap = random_snapshot_set(rng, n=20, p=2, M=9)
        basis = hp.compute_basis(snap, tau=1.0)
        vecs = assemble_snapshot_vectors(snap, 1.0)
        for r in range(1, basis.d + 1):
            res = vecs - project_coeffs_batch(basis, vecs, r) @ basis.modes[:r]
            lhs = float(np.mean((res * res) @ snap.weight))
            gap = abs(lhs - basis.tail(r)) / basis.eigvals[0]
            worst = max(worst, gap)
            assert gap <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"POD mean-square identity, 50 random sets: worst gap {worst:.2e} "
              f"(tol 1e-10), {elapsed:.1f}s")


def test_criterion_02_pointwise_projection_bound(test1_bundle):
    t0 = time.perf_counter()
    _, snap, basis = test1_bundle
    margins = []
    for r in (2, 3, 4):
        diag = hp.projection_error_stats(basis, snap, r)
        assert np.all(diag.pointwise_max_sq <= diag.pointwise_bound)
        margins.append(float(np.max(diag.pointwise_max_sq / diag.pointwise_bound)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, f"pointwise projection bounds hold for r=2,3,4; "
              f"largest measured/bound ratio {max(margins):.2e}, {elapsed:.1f}s")


def test_criterion_03_contraction(toy_solution):
    t0 = time.perf_counter()
    _, _, grid, _, cache = toy_solution
    lam, h = 1.0, 0.002
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=grid.node_count)
        w = rng.normal(size=grid.node_count)
        tv, _ = hp.sweep_once(cache, v, lam, h)
        tw, _ = hp.sweep_once(cache, w, lam, h)
        assert np.max(np.abs(tv - tw)) <= (1 - lam * h) * np.max(np.abs(v - w)) + 1e-12

    # Jacobi iteration of the operator, until two iterates differ by < 1e-12
    v, prev, hist, changes = rng.normal(size=grid.node_count), None, [], []
    for _ in range(20000):
        tv, argmin = hp.sweep_once(cache, v, lam, h)
        hist.append(float(np.max(np.abs(tv - v))))
        changes.append(v.size if prev is None else int(np.count_nonzero(argmin != prev)))
        v, prev = tv, argmin
        if hist[-1] < 1e-12:
            break
    stable_from = int(np.max(np.nonzero(changes)[0])) + 1 if np.any(changes) else 0
    # The 1e-6 ratio slack is resolvable only while the residual stays above
    # the float64 quantization of O(1) nodal values (eps/residual < 1e-6).
    floor = 1e-9
    checked = 0
    for m in range(stable_from + 1, len(hist)):
        if hist[m - 1] < floor:
            break
        assert hist[m] <= ((1 - lam * h) + 1e-6) * hist[m - 1]
        checked += 1
    assert checked > 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"contraction factor <= {1 - lam * h} on 20 random pairs; residual "
              f"ratios verified on {checked} post-stabilization sweeps, {elapsed:.1f}s")


def test_criterion_04_closed_form_fixed_point():
    t0 = time.perf_counter()
    sys0 = hp.ControlledSystem(
        n=1, rhs=lambda y, u: np.zeros(1), running_cost=lambda y, u: 1.0,
        weight=np.ones(1), control_box=(-1, 1), label="unit-cost",
        rhs_batch=lambda Y, u: np.zeros_like(np.asarray(Y, dtype=float)),
    )
    rs = ReducedSystem(hp.identity_basis(np.ones(1)), sys0, 1)
    grid = hp.build_grid(Hyperbox(np.array([-1.0]), np.array([1.0])), 0.1)
    cache = hp.build_arrival_cache(grid, rs, hp.ControlSet(np.array([0.0])), h=0.05)
    lam, h, stop = 1.0, 0.05, 1e-4
    vf, _ = hp.value_iteration(cache, np.zeros(grid.node_count), lam, h, stop)
    gap = float(np.max(np.abs(vf.values - 1.0)))
    bound = stop * (1 - lam * h) / (lam * h)
    assert gap <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(4, f"g=1, f=0 fixed point: |v - 1| = {gap:.3e} <= {bound:.3e}, {elapsed:.1f}s")


def brute_force_dp(lo, hi, n_cells, controls, lam, h, sweeps, tol=1e-15):
    """Independent discounted DP on the same arrival map (plain numpy)."""
    edge = (hi - lo) / n_cells
    ys = lo + edge * np.arange(n_cells + 1)
    v = np.zeros(n_cells + 1)
    for _ in range(sweeps):
        best = np.full(v.size, np.inf)
        for u in controls:
            a = np.clip(ys + h * u, lo, hi)
            t = (a - lo) / edge
            j = np.minimum(t.astype(np.int64), n_cells - 1)
            th = np.clip(t - j, 0.0, 1.0)
            cand = (1 - lam * h) * ((1 - th) * v[j] + th * v[j + 1]) + h * ys**2
            best = np.minimum(best, cand)
        if np.max(np.abs(best - v)) < tol:
            v = best
            break
        v = best
    return v


def test_criterion_05_dp_oracle_equivalence(toy_solution):
    t0 = time.perf_counter()
    _, _, grid, controls, cache = toy_solution
    lam, h = 1.0, 0.002
    vf, _ = hp.value_iteration(cache, np.zeros(grid.node_count), lam, h, 1e-9, 50_000)
    assert vf.converged
    oracle = brute_force_dp(-1.0, 1.0, int(grid.cells_per_axis[0]), [-1.0, 0.0, 1.0],
                            lam, h, sweeps=100_000)
    gap = float(np.max(np.abs(vf.values - oracle)))
    assert gap <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, f"value iteration vs brute-force DP: max gap {gap:.2e} <= 1e-6, {elapsed:.1f}s")


def test_criterion_06_test1_reproduction(test1_solution):
    t0 = time.perf_counter()
    sys1, snap, basis, rs, grid, cache, vf, table = test1_solution
    assert vf.converged, "value iteration must converge at stop 5e-4"
    assert cache.invariance.violations == 0, "reduced-domain invariance must hold"

    y0 = hp.test1_initial_state(100)
    icfg = hp.IntegratorConfig()
    traj = hp.simulate_closed_loop(sys1, basis, table, y0, 3.0, icfg, sample_dt=0.05)
    unc = hp.integrate(sys1, y0, 0.0, (0.0, 3.0), icfg, traj.times)
    cost_hjb = hp.evaluate_cost(sys1, traj, 1.0)
    cost_unc = hp.evaluate_cost(sys1, unc, 1.0)
    assert cost_hjb < cost_unc
    const_costs = {}
    for u in (-1.0, 0.0, 1.0):
        ref = hp.integrate(sys1, y0, u, (0.0, 3.0), icfg, traj.times)
        const_costs[u] = hp.evaluate_cost(sys1, ref, 1.0)
        assert cost_hjb < const_costs[u]
    norm_ratio = sys1.weighted_norm(traj.states[-1]) / sys1.weighted_norm(unc.states[-1])
    assert norm_ratio < 0.5
    elapsed = time.perf_counter() - t0
    report(6, f"test1 N=100 r=4 k_r=0.02: {grid.node_count} nodes, "
              f"{cache.invariance.checked} arrival checks with 0 violations, "
              f"cost {cost_hjb:.4f} < uncontrolled {cost_unc:.4f} and constants "
              f"{min(const_costs.values()):.4f}+, terminal-norm ratio {norm_ratio:.3f} < 0.5, "
              f"{elapsed:.0f}s")


def test_rhs_diagnostic_on_closed_loop(test1_solution):
    # The vector-field projection residual along the optimal closed loop is
    # a finite, reportable series together with its computable bound terms.
    sys1, snap, basis, rs, grid, cache, vf, table = test1_solution
    y0 = hp.test1_initial_state(100)
    traj = hp.simulate_closed_loop(
        sys1, basis, table, y0, 3.0, hp.IntegratorConfig(), sample_dt=0.05
    )
    series = hp.rhs_projection_diagnostic(basis, sys1, traj, 4, snap=snap)
    assert np.all(np.isfinite(series.residual))
    assert series.nearest_snapshot_gap is not None
    assert np.all(np.isfinite(series.nearest_snapshot_gap))
    assert series.tail_term > 0.0


def test_criterion_07_test2_lqr_agreement(test2_solution):
    t0 = time.perf_counter()
    sys2, snap, basis, solutions = test2_solution
    A, B, Q, R = linear_quadratic_data(sys2, 1.0)
    care = solve_care(A, B, Q, R, lam=1.0)
    y0 = hp.test2_initial_state(100)
    icfg = hp.IntegratorConfig()
    traj_lqr = simulate_lqr(sys2, care, y0, 3.0, icfg, sample_dt=0.05)

    rs, grid, cache, vf, table = solutions[4]
    assert vf.converged
    traj4 = hp.simulate_closed_loop(sys2, basis, table, y0, 3.0, icfg, sample_dt=0.05)
    comp4 = compare_controls(traj4.controls, traj_lqr.controls, traj4.times, traj_lqr.times)
    assert comp4.max <= 0.35
    assert comp4.median <= 0.15

    rs2, grid2, cache2, vf2, table2 = solutions[2]
    traj2 = hp.simulate_closed_loop(sys2, basis, table2, y0, 3.0, icfg, sample_dt=0.05)
    comp2 = compare_controls(traj2.controls, traj_lqr.controls, traj2.times, traj_lqr.times)
    assert np.all(np.isfinite(comp2.relative_error))  # may exceed 100%; must not fail
    elapsed = time.perf_counter() - t0
    report(7, f"test2 k_r=0.1 r=4 vs LQR: max rel err {comp4.max:.3f} <= 0.35, "
              f"median {comp4.median:.3f} <= 0.15 (r=2 ran, max {comp2.max:.1f}), {elapsed:.0f}s")


def test_criterion_08_care_oracle(test2_bundle):
    t0 = time.perf_counter()
    sys2, _, _ = test2_bundle
    A, B, Q, R = linear_quadratic_data(sys2, 1.0)
    care = solve_care(A, B, Q, R, lam=1.0)
    assert care.residual < 1e-8
    scalar = solve_care(np.array([[-0.5]]), np.array([1.0]), np.array([[1.0]]), 1.0, lam=1.0)
    scalar_err = abs(scalar.P[0, 0] - (np.sqrt(2) - 1.0))
    assert scalar_err < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(8, f"CARE: test2 residual {care.residual:.2e} < 1e-8, scalar closed-form "
              f"error {scalar_err:.1e} < 1e-12, {elapsed:.1f}s")


def _mms_error_test1(N):
    sys1 = hp.build_test1(N)
    x = np.arange(1, N) / N
    z = lambda t: np.exp(-t / 2) * np.sin(np.pi * x)
    # forcing for z_t = 0.1 z_xx + z - z^3 + s
    def forcing(t):
        zt = -0.5 * z(t)
        zxx = -np.pi**2 * z(t)
        return zt - (0.1 * zxx + z(t) - z(t) ** 3)

    sol = solve_ivp(
        lambda t, y: sys1.rhs(y, 0.0) + forcing(t),
        (0.0, 0.5),
        z(0.0),
        method="LSODA",
        rtol=1e-12,
        atol=1e-13,
        jac=lambda t, y: sys1.jacobian(y, 0.0),
    )
    return sys1.weighted_norm(sol.y[:, -1] - z(0.5))


def _mms_error_test2(N):
    sys2 = hp.build_test2(N)
    x = 2.0 * np.arange(1, N) / N
    z = lambda t: np.exp(-t / 2) * np.sin(np.pi * x / 2)
    def forcing(t):
        zt = -0.5 * z(t)
        zxx = -((np.pi / 2) ** 2) * z(t)
        zx = np.exp(-t / 2) * (np.pi / 2) * np.cos(np.pi * x / 2)
        return zt - (0.1 * zxx - zx)

    sol = solve_ivp(
        lambda t, y: sys2.rhs(y, 0.0) + forcing(t),
        (0.0, 0.5),
        z(0.0),
        method="LSODA",
        rtol=1e-12,
        atol=1e-13,
        jac=lambda t, y: sys2.jacobian(y, 0.0),
    )
    return sys2.weighted_norm(sol.y[:, -1] - z(0.5))


def test_criterion_09_fd_orders():
    t0 = time.perf_counter()
    Ns = [16, 32, 64, 128]
    e1 = [_mms_error_test1(N) for N in Ns]
    e2 = [_mms_error_test2(N) for N in Ns]
    orders1 = [np.log2(e1[i] / e1[i + 1]) for i in range(3)]
    orders2 = [np.log2(e2[i] / e2[i + 1]) for i in range(3)]
    assert min(orders1) >= 3.7
    assert min(orders2) >= 1.8
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(9, f"manufactured-solution orders: test1 {['%.2f' % o for o in orders1]} "
              f">= 3.7, test2 {['%.2f' % o for o in orders2]} >= 1.8, {elapsed:.0f}s")


def test_criterion_10_interpolation_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    for r in range(1, 6):
        box = Hyperbox(-rng.uniform(0.5, 2.0, r), rng.uniform(0.5, 2.0, r))
        grid = hp.build_grid(box, float(np.linalg.norm(box.width)) / 3.0)
        nodes = grid.all_nodes()
        a = rng.normal(size=r)
        b = rng.normal()
        affine = nodes @ a + b
        rnd = rng.normal(size=grid.node_count)
        pts = rng.uniform(box.lower, box.upper, size=(1000, r))
        idx, wts = stencil_batch(grid, pts)
        assert np.all(wts >= 0)
        np.testing.assert_allclose(wts.sum(axis=1), 1.0, atol=1e-12)
        got = np.einsum("mq,mq->m", wts, affine[idx])
        np.testing.assert_allclose(got, pts @ a + b, atol=1e-12)
        vals = np.einsum("mq,mq->m", wts, rnd[idx])
        assert np.all(vals <= rnd.max() + 1e-14) and np.all(vals >= rnd.min() - 1e-14)
        # continuity across an interior lattice plane of the first axis
        if grid.cells_per_axis[0] >= 2:
            face = grid.box.lower[0] + grid.edge[0]
            fpts = pts.copy()
            fpts[:, 0] = face
            left = fpts.copy()
            left[:, 0] -= 1e-13 * grid.edge[0]
            il, wl = stencil_batch(grid, left)
            ir, wr = stencil_batch(grid, fpts)
            vl = np.einsum("mq,mq->m", wl, rnd[il])
            vr = np.einsum("mq,mq->m", wr, rnd[ir])
            assert np.max(np.abs(vl - vr)) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(10, f"interpolation affine/partition/monotone/continuity for r=1..5 "
               f"(1000 points each), {elapsed:.1f}s")


def test_criterion_11_grid_refinement_study():
    # Qualitative stand-in for the O(h + k) convergence theory: halving both
    # k and h = 0.1 k roughly halves the deviation from a fine reference.
    t0 = time.perf_counter()
    sys_t = make_scalar_integrator_system()
    basis = hp.identity_basis(np.ones(1))
    rs = ReducedSystem(basis, sys_t, 1)
    box = Hyperbox(np.array([-1.0]), np.array([1.0]))
    controls = hp.ControlSet(np.array([-1.0, 0.0, 1.0]))
    probes = np.linspace(-1.0, 1.0, 201)[:, None]

    def solve_at(k):
        grid = hp.build_grid(box, k)
        cache = hp.build_arrival_cache(grid, rs, controls, h=0.1 * k)
        vf, _ = hp.value_iteration(
            cache, np.zeros(grid.node_count), 1.0, 0.1 * k, 1e-10, 300_000
        )
        assert vf.converged
        idx, wts = stencil_batch(grid, probes)
        return np.einsum("mq,mq->m", wts, vf.values[idx])

    ref = solve_at(0.005)
    ks = [0.08, 0.04, 0.02, 0.01]
    devs = [float(np.max(np.abs(solve_at(k) - ref))) for k in ks]
    slope = np.polyfit(np.log2(ks), np.log2(devs), 1)[0]
    assert slope >= 0.8
    elapsed = time.perf_counter() - t0
    report(11, f"refinement study on the 1-D toy: deviations {['%.2e' % d for d in devs]} "
               f"for k={ks}, slope {slope:.2f} >= 0.8, {elapsed:.0f}s")
