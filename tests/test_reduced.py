import dataclasses

import numpy as np
import pytest

import hjbpod as hp
from hjbpod import reduced
from hjbpod.errors import NumericalError, ValidationError
from hjbpod.hjbgrid import aligned_grid, ensure_invariant_grid
from hjbpod.reduced import Hyperbox, ReducedSystem, clipped_arrivals, grow_to_invariant

from conftest import make_scalar_integrator_system, random_snapshot_set


@pytest.fixture(scope="module")
def test1_reduced(test1_bundle):
    sys1, snap, basis = test1_bundle
    return ReducedSystem(basis, sys1, 4)


class TestReducedRhs:
    def test_identity_reduction_is_exact(self, rng):
        sys_t = make_scalar_integrator_system()
        basis = hp.identity_basis(np.ones(1))
        rs = ReducedSystem(basis, sys_t, 1)
        y = rng.normal(size=1)
        np.testing.assert_array_equal(rs.rhs(y, 0.3), sys_t.rhs(y, 0.3))

    def test_zero_field(self):
        sys0 = hp.ControlledSystem(
            rhs=lambda y, u: np.zeros(np.shape(y)), running_cost=lambda y, u: 0.0,
            weight=np.ones(2), control_box=(-1, 1),
        )
        rs = ReducedSystem(hp.identity_basis(np.ones(2)), sys0, 2)
        assert np.all(rs.rhs(np.array([1.0, -2.0]), 0.5) == 0.0)

    def test_compositional_oracle(self, test1_bundle, test1_reduced, rng):
        sys1, _, basis = test1_bundle
        for _ in range(5):
            y_r = rng.normal(size=4) * 0.3
            via_ops = hp.project_coeffs(basis, sys1.rhs(hp.lift(basis, y_r), 0.0), 4)
            got = test1_reduced.rhs(y_r, 0.0)
            np.testing.assert_allclose(got, via_ops, rtol=0, atol=1e-14)

    def test_fast_batch_matches_composition(self, test1_reduced, rng):
        rs = test1_reduced
        Yr = rng.normal(size=(8, 4)) * 0.4
        fast = rs.rhs_batch(Yr, -0.7)
        scale = np.max(np.abs(fast))
        for i in range(8):
            np.testing.assert_allclose(fast[i], rs.rhs(Yr[i], -0.7), rtol=0, atol=1e-12 * scale)

    def test_generic_batch_is_one_rhs_call_matching_rows(self, test1_bundle, rng):
        # without structure the rows are lifted and passed to the full rhs
        # as one stack
        sys1, _, basis = test1_bundle
        calls = []

        def rhs(Y, u):
            calls.append(np.shape(Y))
            return sys1.rhs(Y, u)

        plain = dataclasses.replace(sys1, rhs=rhs, structure=None)
        rs = ReducedSystem(basis, plain, 4)
        assert not rs.structured
        Yr = rng.normal(size=(8, 4)) * 0.4
        batch = rs.rhs_batch(Yr, -0.7)
        assert calls == [(8, sys1.n)]
        scale = np.max(np.abs(batch))
        for i in range(8):
            np.testing.assert_allclose(batch[i], rs.rhs(Yr[i], -0.7), rtol=0, atol=1e-12 * scale)

    def test_fast_cost_matches_composition(self, test1_reduced, rng):
        rs = test1_reduced
        Yr = rng.normal(size=(8, 4)) * 0.4
        fast = rs.cost_batch(Yr, 0.9)
        for i in range(8):
            assert fast[i] == pytest.approx(rs.cost(Yr[i], 0.9), rel=1e-10)


class TestCubicMonomials:
    """The unique-monomial cubic against its definitions."""

    @pytest.mark.parametrize("r", [1, 2, 4, "d"])
    @pytest.mark.parametrize("stretch", [1.0, 3.0])
    def test_matches_dense_contraction_and_single_point_rhs(self, test1_bundle, rng, r, stretch):
        sys1, snap, basis = test1_bundle
        r = basis.d if r == "d" else r
        rs = ReducedSystem(basis, sys1, r)
        assert rs.cubic[1].shape == (r, r * (r + 1) * (r + 2) // 6)
        # Points in the snapshot box (stretch 1) and in the box scaled 3x about its centre.
        box = hp.build_domain(basis, snap, r)
        mid = 0.5 * (box.lower + box.upper)
        Yr = mid + stretch * (rng.uniform(box.lower, box.upper, size=(40, r)) - mid)
        u = -0.7
        got = rs.rhs_batch(Yr, u)

        dense = np.einsum("ij,aj,bj,cj->iabc", rs.phi_w, rs.phi, rs.phi, rs.phi)
        ref = Yr @ rs.a_eff.T + u * rs.b_red - np.einsum("iabc,ma,mb,mc->mi", dense, Yr, Yr, Yr)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))

        # rs.rhs lifts, applies the full rhs and projects: its round-off is
        # relative to the full-space terms, not to their reduced sum.
        st = sys1.structure
        Z = np.abs(Yr @ rs.phi)
        terms = Z @ np.abs(st.linear).T + Z + Z**3 + abs(u) * np.abs(st.control_gain)
        scale = np.max(terms @ np.abs(rs.phi_w).T)
        point = np.array([rs.rhs(y, u) for y in Yr])
        np.testing.assert_allclose(got, point, rtol=0, atol=1e-14 * scale)


class TestReducedCost:
    def test_zero_state_zero_control(self, test1_reduced):
        assert test1_reduced.cost(np.zeros(4), 0.0) == 0.0

    def test_pure_control(self, test1_reduced):
        assert test1_reduced.cost(np.zeros(4), 10.0) == pytest.approx(1.0)

    def test_equals_cost_density_on_lift(self, test1_bundle, test1_reduced, rng):
        sys1, _, basis = test1_bundle
        y_r = rng.normal(size=4) * 0.2
        expected = sys1.running_cost(hp.lift(basis, y_r), 0.4)
        assert test1_reduced.cost(y_r, 0.4) == expected


class TestBuildDomain:
    def test_two_point_box(self):
        # Snapshot states engineered so the rank-2 projections are exactly
        # (0, 0) and (1, 2).
        basis = hp.identity_basis(np.ones(2))
        states = np.array([[[0.0, 0.0], [1.0, 2.0]]])
        snap = hp.SnapshotSet(
            p=1, M=1, dt=1.0, states=states, derivs=np.zeros_like(states),
            controls=np.zeros(1), weight=np.ones(2),
        )
        box = hp.build_domain(basis, snap, 2, margin=0.0)
        np.testing.assert_array_equal(box.lower, [0.0, 0.0])
        np.testing.assert_array_equal(box.upper, [1.0, 2.0])

    def test_margin_inflation(self):
        basis = hp.identity_basis(np.ones(2))
        states = np.array([[[0.0, 0.0], [1.0, 2.0]]])
        snap = hp.SnapshotSet(
            p=1, M=1, dt=1.0, states=states, derivs=np.zeros_like(states),
            controls=np.zeros(1), weight=np.ones(2),
        )
        box = hp.build_domain(basis, snap, 2, margin=0.1)
        np.testing.assert_allclose(box.lower, [-0.1, -0.2])
        np.testing.assert_allclose(box.upper, [1.1, 2.2])

    def test_degenerate_axis_expanded(self):
        basis = hp.identity_basis(np.ones(2))
        states = np.array([[[0.0, 1.0], [1.0, 1.0]]])  # second axis collapses
        snap = hp.SnapshotSet(
            p=1, M=1, dt=1.0, states=states, derivs=np.zeros_like(states),
            controls=np.zeros(1), weight=np.ones(2),
        )
        box = hp.build_domain(basis, snap, 2)
        assert box.width[1] > 0


class TestClamp:
    def test_interior_point(self):
        box = Hyperbox(np.zeros(2), np.ones(2))
        point = box.clip(np.array([0.3, 0.8]))
        np.testing.assert_array_equal(point, [0.3, 0.8])

    def test_exterior_point(self):
        box = Hyperbox(np.zeros(2), np.ones(2))
        point = box.clip(np.array([1.2, 0.5]))
        np.testing.assert_array_equal(point, [1.0, 0.5])

    def test_matches_boundary_sampling(self, rng):
        # The clamp is the Euclidean closest point: its distance agrees with
        # a brute-force search over a dense boundary sampling (the sampled
        # minimum is accurate to second order in the sample spacing).
        box = Hyperbox(np.array([-1.0, 0.5]), np.array([2.0, 3.0]))
        t = np.linspace(0.0, 1.0, 30_001)
        edges = [
            np.column_stack([box.lower[0] + t * 3.0, np.full_like(t, box.lower[1])]),
            np.column_stack([box.lower[0] + t * 3.0, np.full_like(t, box.upper[1])]),
            np.column_stack([np.full_like(t, box.lower[0]), box.lower[1] + t * 2.5]),
            np.column_stack([np.full_like(t, box.upper[0]), box.lower[1] + t * 2.5]),
        ]
        boundary = np.concatenate(edges)
        for _ in range(20):
            p = rng.uniform(-3, 5, size=2)
            if np.all((p >= box.lower) & (p <= box.upper)):
                continue
            clamped = box.clip(p)
            d_clamp = np.linalg.norm(clamped - p)
            d_brute = np.min(np.linalg.norm(boundary - p, axis=1))
            assert abs(d_clamp - d_brute) < 1e-6

    def test_idempotent_and_minimal(self, rng):
        box = Hyperbox(np.array([-1.0, -1.0, 0.0]), np.array([1.0, 2.0, 0.5]))
        for _ in range(50):
            x = rng.uniform(-3, 4, size=3)
            c1 = box.clip(x)
            c2 = box.clip(c1)
            np.testing.assert_array_equal(c1, c2)
            y = rng.uniform(box.lower, box.upper)
            assert np.linalg.norm(c1 - x) <= np.linalg.norm(y - x) + 1e-12


class TestCheckInvariance:
    def test_zero_field_no_violations(self):
        sys0 = hp.ControlledSystem(
            rhs=lambda Y, u: np.zeros_like(np.asarray(Y, dtype=float)),
            running_cost=lambda y, u: 0.0, weight=np.ones(2), control_box=(-1, 1),
        )
        rs = ReducedSystem(hp.identity_basis(np.ones(2)), sys0, 2)
        box = Hyperbox(np.zeros(2), np.ones(2))
        nodes = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        rep = hp.clipped_arrivals(rs, box, nodes, [-1.0, 1.0], 0.1)[0]
        assert rep.violations == 0 and rep.checked == 6

    def test_hand_computed_violation(self):
        sys1 = hp.ControlledSystem(
            rhs=lambda Y, u: np.ones_like(np.asarray(Y, dtype=float)),
            running_cost=lambda y, u: 0.0, weight=np.ones(1), control_box=(-1, 1),
        )
        rs = ReducedSystem(hp.identity_basis(np.ones(1)), sys1, 1)
        box = Hyperbox(np.zeros(1), np.ones(1))
        rep = hp.clipped_arrivals(rs, box, np.array([[1.0]]), [0.0], 0.5)[0]
        assert rep.violations == 1
        np.testing.assert_allclose(rep.max_rel_displacement, [0.5])

    def test_face_excess_and_visited_blocks(self, monkeypatch):
        # f = u: with h = 0.5, u = -1 leaves the unit box 0.5 below, u = 2
        # leaves it 1.0 above.
        sys_u = hp.ControlledSystem(
            rhs=lambda Y, u: np.full(np.shape(Y), float(u)),
            running_cost=lambda y, u: 0.0, weight=np.ones(1), control_box=(-1, 2),
        )
        rs = ReducedSystem(hp.identity_basis(np.ones(1)), sys_u, 1)
        box = Hyperbox(np.zeros(1), np.ones(1))
        seen = []
        monkeypatch.setattr(reduced, "_CHUNK", 1)
        rep, below, above = clipped_arrivals(
            rs, box, np.array([[0.0], [1.0]]), [-1.0, 2.0], 0.5,
            visit=lambda l, rows, clipped: seen.append((l, rows, clipped.ravel().tolist())),
        )
        assert (rep.checked, rep.violations) == (4, 2)
        np.testing.assert_array_equal(below, [0.5])
        np.testing.assert_array_equal(above, [1.0])
        np.testing.assert_array_equal(rep.max_rel_displacement, [1.0])
        assert seen == [
            (0, slice(0, 1), [0.0]), (0, slice(1, 2), [0.5]),
            (1, slice(0, 1), [1.0]), (1, slice(1, 2), [1.0]),
        ]


class TestNonFiniteArrivals:
    """A rhs that is NaN or inf on part of the box fails loudly in every
    function that computes arrivals, under the control that met it."""

    @staticmethod
    def reduced_system(bad):
        def rhs(Y, u):
            Y = np.asarray(Y, dtype=float)
            return np.where(np.abs(Y) > 0.9, bad, u - Y)

        sys_b = hp.ControlledSystem(
            rhs=rhs, running_cost=lambda y, u: float(y[0] ** 2), weight=np.ones(1),
            control_box=(-1.0, 1.0),
        )
        return ReducedSystem(hp.identity_basis(np.ones(1)), sys_b, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "compute", ["clipped_arrivals", "ensure_invariant_grid", "build_arrival_cache"]
    )
    def test_raises_numerical_error(self, bad, compute):
        rs = self.reduced_system(bad)
        box = Hyperbox(np.array([-1.0]), np.array([1.0]))
        controls = [-1.0, 0.0, 1.0]
        # 21 nodes; the 3 with |y| > 0.9 have non-finite arrivals
        grid = aligned_grid(box, 0.1)
        call = {
            "clipped_arrivals": lambda: clipped_arrivals(rs, box, grid.all_nodes(), controls, 0.1),
            "ensure_invariant_grid": lambda: ensure_invariant_grid(rs, box, controls, 0.1, 0.1),
            "build_arrival_cache": lambda: hp.build_arrival_cache(
                grid, rs, hp.ControlSet(np.array(controls)), 0.1
            ),
        }[compute]
        with pytest.raises(NumericalError, match="^3 of 21 arrival points under control u=-1 "):
            call()


    def test_huge_finite_arrivals_are_refused_before_the_int64_cast(self):
        # arrivals 1e299 beyond the box push a face out by 1e300 edges: the
        # cell count was cast to INT64_MIN and a grid of negative node count
        # came back
        rs = self.reduced_system(1e300)
        box = Hyperbox(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValidationError, match=r"^edge \[0.1\] needs \[1.e\+300\] cells"):
            ensure_invariant_grid(rs, box, [-1.0, 0.0, 1.0], 0.1, 0.1)


class TestProjectionNormChain:
    def test_coefficient_norm_bounded_by_state_norm(self, rng):
        # |P_c z|_2 = |P^r z|_w <= |z|_w on random samples.
        snap = random_snapshot_set(rng)
        basis = hp.compute_basis(snap, tau=1.0)
        r = min(4, basis.d)
        for _ in range(20):
            z = rng.normal(size=snap.n)
            coeff = hp.project_coeffs(basis, z, r)
            pz = hp.lift(basis, coeff)
            nz = np.sqrt(np.dot(snap.weight * z, z))
            npz = np.sqrt(np.dot(snap.weight * pz, pz))
            assert abs(np.linalg.norm(coeff) - npz) < 1e-12 * max(1.0, nz)
            assert np.linalg.norm(coeff) <= nz + 1e-12


class TestIdentityReduction:
    def test_full_rank_trajectories_match(self):
        # With the identity basis at full rank, reduced trajectories lifted
        # back coincide with full trajectories up to integrator tolerance.
        sys2 = hp.build_test2(8)
        basis = hp.identity_basis(sys2.weight)
        rs = ReducedSystem(basis, sys2, sys2.n)
        y0 = hp.test2_initial_state(8)
        cfg = hp.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        full = hp.integrate(sys2, y0, -1.0, (0.0, 0.5), cfg, [0.5])
        y_r = hp.project_coeffs(basis, y0, sys2.n)
        # integrate the reduced field with the same integrator machinery
        red_sys = hp.ControlledSystem(
            rhs=lambda y, u: rs.rhs(y, u), running_cost=lambda y, u: rs.cost(y, u),
            weight=np.ones(sys2.n), control_box=sys2.control_box,
        )
        red = hp.integrate(red_sys, y_r, -1.0, (0.0, 0.5), cfg, [0.5])
        np.testing.assert_allclose(
            hp.lift(basis, red.states[-1]), full.states[-1], atol=1e-8
        )


class TestGrowToInvariant:
    def test_linear_stable_system(self):
        # ydot = -y + u: under |u| <= 1 the box must cover the equilibria +-1.
        sys_lin = hp.ControlledSystem(
            rhs=lambda Y, u: -np.asarray(Y, dtype=float) + u, running_cost=lambda y, u: 0.0,
            weight=np.ones(1), control_box=(-1, 1),
        )
        rs = ReducedSystem(hp.identity_basis(np.ones(1)), sys_lin, 1)
        box = grow_to_invariant(rs, Hyperbox(np.array([-0.1]), np.array([0.1])), [-1.0, 1.0])
        assert box.lower[0] <= -1.0 <= 1.0 <= box.upper[0]
        nodes = np.linspace(box.lower[0], box.upper[0], 41)[:, None]
        rep = hp.clipped_arrivals(rs, box, nodes, [-1.0, 0.0, 1.0], 0.05)[0]
        assert rep.violations == 0

    def test_already_invariant_box_unchanged(self):
        sys_lin = hp.ControlledSystem(
            rhs=lambda Y, u: -np.asarray(Y, dtype=float), running_cost=lambda y, u: 0.0,
            weight=np.ones(1), control_box=(-1, 1),
        )
        rs = ReducedSystem(hp.identity_basis(np.ones(1)), sys_lin, 1)
        start = Hyperbox(np.array([-2.0]), np.array([2.0]))
        box = grow_to_invariant(rs, start, [-1.0, 1.0])
        np.testing.assert_array_equal(box.lower, start.lower)
        np.testing.assert_array_equal(box.upper, start.upper)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "start, u", [(0.5, 1), (1.0, -1)], ids=["bracketing", "face-sample"]
    )
    def test_non_finite_rhs_raises(self, bad, start, u):
        # expansive 2y + u, not finite where |y| > 0.9: a NaN used to count
        # as inward flow, so growth stopped at the NaN region's edge (from
        # [-0.5, 0.5]) or kept a face inside it (from [-1, 1]) without error
        def rhs(Y, u):
            Y = np.asarray(Y, dtype=float)
            return np.where(np.abs(Y) > 0.9, bad, 2.0 * Y + u)

        sys_b = hp.ControlledSystem(
            rhs=rhs, running_cost=lambda y, u: 0.0, weight=np.ones(1), control_box=(-1.0, 1.0),
        )
        rs = ReducedSystem(hp.identity_basis(np.ones(1)), sys_b, 1)
        box = Hyperbox(np.array([-start]), np.array([start]))
        message = f"axis-0 component is NaN or inf at or beyond the upper face under control u={u}$"
        with pytest.raises(NumericalError, match=message):
            grow_to_invariant(rs, box, [-1.0, 1.0])

    def test_test1_box_equals_an_80_step_bisection(self, test1_bundle, test1_reduced, monkeypatch):
        # the bisection stops once no bracket can move; the box is bit for bit
        # that of all 80 steps, from fewer vector-field calls
        _, snap, basis = test1_bundle
        start = hp.build_domain(basis, snap, 4)
        calls = []
        rhs_batch = test1_reduced.rhs_batch

        def counting(Yr, u):
            calls.append(u)
            return rhs_batch(Yr, u)

        monkeypatch.setattr(test1_reduced, "rhs_batch", counting)
        box = grow_to_invariant(test1_reduced, start, [-1.0, 1.0])
        early = len(calls)
        monkeypatch.setattr(reduced, "_outermost_root", _outermost_root_80)
        ref = grow_to_invariant(test1_reduced, start, [-1.0, 1.0])
        np.testing.assert_array_equal(box.lower, ref.lower)
        np.testing.assert_array_equal(box.upper, ref.upper)
        assert early < len(calls) - early


def _outermost_root_80(rs, pts, axis, u, sign):
    """Reference: the root search of ``reduced._outermost_root``, bisecting
    for all 80 steps."""
    f = rs.rhs_batch(pts, u)[:, axis] * sign
    active = f > 0.0
    if not np.any(active):
        return float(pts[0, axis])
    pts = pts[active].copy()
    v0 = pts[0, axis]
    step = np.full(pts.shape[0], 1e-3 * max(1.0, abs(v0)))
    lo = np.full(pts.shape[0], v0)
    hi = lo + sign * step
    while True:
        pts[:, axis] = hi
        out = rs.rhs_batch(pts, u)[:, axis] * sign > 0.0
        if not np.any(out):
            break
        lo[out] = hi[out]
        step[out] *= 2.0
        hi[out] = hi[out] + sign * step[out]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        pts[:, axis] = mid
        out = rs.rhs_batch(pts, u)[:, axis] * sign > 0.0
        lo[out] = mid[out]
        hi[~out] = mid[~out]
    return float(sign * np.max(sign * hi))


def test_rank_validation(test1_bundle):
    sys1, _, basis = test1_bundle
    with pytest.raises(ValidationError):
        ReducedSystem(basis, sys1, basis.d + 1)
