import itertools
import warnings

import numpy as np
import pytest

import hjbpod as hp
from hjbpod.errors import ValidationError
from hjbpod.hjbgrid import aligned_grid, check_cache_size, grid_from_edge, stencil_batch
from hjbpod.reduced import Hyperbox

from conftest import dyadic_grid, kuhn_probe_points


def unit_box(r):
    return Hyperbox(np.zeros(r), np.ones(r))


class TestBuildGrid:
    def test_one_dimensional(self):
        g = hp.build_grid(unit_box(1), 0.6)
        assert tuple(g.cells_per_axis) == (2,)
        assert g.node_count == 3
        assert g.k_r == 0.5

    def test_square(self):
        g = hp.build_grid(unit_box(2), 0.5)
        assert tuple(g.cells_per_axis) == (3, 3)
        assert g.node_count == 16
        assert g.k_r <= 0.5

    def test_diameter_respected_anisotropic(self):
        box = Hyperbox(np.zeros(3), np.array([2.0, 0.3, 0.04]))
        g = hp.build_grid(box, 0.1)
        assert g.k_r <= 0.1

    def test_node_count_is_exact(self):
        # 200001**4 overflows int64: np.prod wrapped it to a negative count
        g = grid_from_edge(unit_box(4), np.full(4, 1.0 / 200_000))
        assert tuple(g.cells_per_axis) == (200_000,) * 4
        assert g.node_count == 200_001**4 and type(g.node_count) is int

    @pytest.mark.parametrize("diameter", [1e-20, 1e-320, np.nan])
    def test_cell_count_beyond_2_53_is_refused(self, diameter):
        # refused before the int64 cast, without an overflow or cast warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="cells per axis .limit 2..53.$"):
                hp.build_grid(unit_box(4), diameter)


class TestCheckCacheSize:
    def test_entries_are_exact(self):
        # 16 nodes, 3 controls, 3 stencil entries per pair
        assert check_cache_size(hp.build_grid(unit_box(2), 0.5), 3, 144) == 144
        g = grid_from_edge(unit_box(4), np.full(4, 1.0 / 200_000))
        entries = 200_001**4 * 11 * 5
        with pytest.raises(ValidationError, match=f"^arrival cache needs {entries} entries"):
            check_cache_size(g, 11, 200_000_000)


class TestStencil:
    def test_lattice_node_gets_unit_weight(self):
        g = hp.build_grid(unit_box(2), 0.5)  # edge 1/3... use binary-exact grid
        box = Hyperbox(np.zeros(2), np.ones(2))
        g = hp.SimplexGrid(
            box=box, cells_per_axis=np.array([4, 4]), edge=np.array([0.25, 0.25]),
            node_count=25, k_r=float(np.hypot(0.25, 0.25)),
        )
        idx, wts = stencil_batch(g, np.array([[0.5, 0.75]]))
        assert wts[0].max() == 1.0
        assert wts[0].sum() == pytest.approx(1.0, abs=1e-15)
        node = g.all_nodes()[idx[0, np.argmax(wts[0])]]
        np.testing.assert_array_equal(node, [0.5, 0.75])

    def test_hand_computed_2d(self):
        g = hp.SimplexGrid(
            box=unit_box(2), cells_per_axis=np.array([1, 1]), edge=np.ones(2),
            node_count=4, k_r=np.sqrt(2.0),
        )
        idx, wts = stencil_batch(g, np.array([[0.7, 0.2]]))
        np.testing.assert_allclose(wts[0], [0.3, 0.5, 0.2], atol=1e-15)
        verts = g.all_nodes()[idx[0]]
        np.testing.assert_array_equal(verts, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])

    def test_tie_is_deterministic(self):
        g = hp.SimplexGrid(
            box=unit_box(2), cells_per_axis=np.array([1, 1]), edge=np.ones(2),
            node_count=4, k_r=np.sqrt(2.0),
        )
        idx1, wts1 = stencil_batch(g, np.array([[0.4, 0.4]]))
        idx2, _ = stencil_batch(g, np.array([[0.4, 0.4]]))
        np.testing.assert_array_equal(idx1, idx2)
        assert wts1[0].sum() == pytest.approx(1.0, abs=1e-15)

    def test_nan_rejected(self):
        g = hp.build_grid(unit_box(2), 0.5)
        with pytest.raises(ValidationError, match="point coordinates contain NaN"):
            stencil_batch(g, np.array([[0.1, np.nan]]))


def brute_force_kuhn_interpolate(grid, nodal, point):
    """Interpolate by explicitly enumerating all r! simplices of the cell."""
    r = grid.r
    u = (point - grid.box.lower) / grid.edge
    cell = np.clip(np.floor(u).astype(int), 0, grid.cells_per_axis - 1)
    theta = u - cell
    strides = grid.strides
    base = int(cell @ strides)
    for perm in itertools.permutations(range(r)):
        # vertices of the Kuhn simplex for this axis ordering
        idx = [base]
        for axis in perm:
            idx.append(idx[-1] + int(strides[axis]))
        verts = np.array([np.array(np.unravel_index(i, grid.node_shape)) for i in idx])
        # barycentric solve
        A = np.vstack([np.ones(r + 1), (verts - cell).T])
        b = np.concatenate([[1.0], theta])
        try:
            lam = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if np.all(lam >= -1e-12):
            return float(np.dot(lam, [nodal[i] for i in idx]))
    raise AssertionError("point not located in any simplex")


class TestInterpolate:
    def test_constant_reproduction(self, rng):
        g = hp.build_grid(unit_box(3), 0.4)
        nodal = np.full(g.node_count, 2.5)
        for _ in range(10):
            assert hp.interpolate(g, nodal, rng.uniform(0, 1, 3)) == pytest.approx(2.5, abs=1e-13)

    def test_coordinate_reproduction(self, rng):
        g = hp.build_grid(unit_box(2), 0.3)
        nodal = g.all_nodes()[:, 0]
        for _ in range(20):
            p = rng.uniform(0, 1, 2)
            assert hp.interpolate(g, nodal, p) == pytest.approx(p[0], abs=1e-13)

    def test_against_simplex_enumeration(self, rng):
        box = Hyperbox(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 2.5]))
        g = hp.build_grid(box, 0.8)
        nodal = rng.normal(size=g.node_count)
        for _ in range(50):
            p = rng.uniform(box.lower, box.upper)
            expected = brute_force_kuhn_interpolate(g, nodal, p)
            assert hp.interpolate(g, nodal, p) == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_single(self, rng):
        g = hp.build_grid(unit_box(3), 0.5)
        nodal = rng.normal(size=g.node_count)
        pts = rng.uniform(0, 1, size=(40, 3))
        idx, wts = stencil_batch(g, pts)
        for i in range(40):
            assert hp.interpolate(g, nodal, pts[i]) == float(np.dot(wts[i], nodal[idx[i]]))


    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_equals_stencil_batch_bit_for_bit(self, r, rng):
        # the one-point kernel and the batch kernel of the arrival cache
        # must give the same value at every point, not merely a close one
        box = Hyperbox(-rng.uniform(0.5, 2, r), rng.uniform(0.5, 2, r))
        for g in (dyadic_grid(r), hp.build_grid(box, float(np.linalg.norm(box.width) / 3))):
            nodal = rng.normal(size=g.node_count)
            pts = kuhn_probe_points(g, rng)
            # infinite coordinates clip to the box faces, as finite exterior ones do
            infinite = pts[rng.integers(len(pts), size=20)]
            infinite[np.arange(20), rng.integers(r, size=20)] = rng.choice([-np.inf, np.inf], 20)
            pts = np.concatenate([pts, infinite])
            idx, wts = stencil_batch(g, pts)
            for i, p in enumerate(pts):
                assert hp.interpolate(g, nodal, p) == float(np.dot(wts[i], nodal[idx[i]]))

    def test_nan_and_bad_shapes_rejected(self):
        g = dyadic_grid(2)
        nodal = np.zeros(g.node_count)
        with pytest.raises(ValidationError, match="point coordinates contain NaN"):
            hp.interpolate(g, nodal, np.array([0.1, np.nan]))
        with pytest.raises(ValidationError, match=r"point must have shape \(2,\)"):
            hp.interpolate(g, nodal, np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValidationError):
            hp.interpolate(g, nodal[:-1], np.array([0.1, 0.2]))


class TestInterpolationProperties:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_affine_reproduction_and_bounds(self, r, rng):
        box = Hyperbox(-rng.uniform(0.5, 2, r), rng.uniform(0.5, 2, r))
        g = hp.build_grid(box, float(np.linalg.norm(box.width) / 4))
        a = rng.normal(size=r)
        b = rng.normal()
        nodes = g.all_nodes()
        nodal = nodes @ a + b
        pts = rng.uniform(box.lower, box.upper, size=(200, r))
        idx, wts = stencil_batch(g, pts)
        assert np.all(wts >= 0)
        np.testing.assert_allclose(wts.sum(axis=1), 1.0, atol=1e-12)
        vals = np.einsum("mq,mq->m", wts, nodal[idx])
        np.testing.assert_allclose(vals, pts @ a + b, atol=1e-12)
        rnd = rng.normal(size=g.node_count)
        vals2 = np.einsum("mq,mq->m", wts, rnd[idx])
        assert np.all(vals2 <= rnd.max() + 1e-14)
        assert np.all(vals2 >= rnd.min() - 1e-14)

    def test_cross_face_continuity(self, rng):
        g = hp.build_grid(unit_box(3), 0.7)
        nodal = rng.normal(size=g.node_count)
        face_x = g.box.lower[0] + g.edge[0]  # interior lattice plane
        for _ in range(50):
            p = np.array([face_x, rng.uniform(0, 1), rng.uniform(0, 1)])
            left = hp.interpolate(g, nodal, p - np.array([1e-13, 0, 0]))
            right = hp.interpolate(g, nodal, p)
            assert abs(left - right) < 1e-12


class TestInterpolateGradient:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_affine_function_inside_and_flat_outside(self, r, rng):
        box = Hyperbox(-rng.uniform(0.5, 2, r), rng.uniform(0.5, 2, r))
        g = hp.build_grid(box, float(np.linalg.norm(box.width) / 4))
        a = rng.normal(size=r)
        nodal = g.all_nodes() @ a + rng.normal()
        for p in rng.uniform(box.lower, box.upper, size=(50, r)):
            np.testing.assert_allclose(hp.interpolate_gradient(g, nodal, p), a, rtol=1e-10)
        for p in rng.uniform(box.lower - box.width, box.upper + box.width, size=(50, r)):
            outside = (p < box.lower) | (p > box.upper)
            expected = np.where(outside, 0.0, a)
            grad = hp.interpolate_gradient(g, nodal, p)
            np.testing.assert_allclose(grad, expected, rtol=1e-10)
            assert np.all(grad[outside] == 0.0)

    def test_nan_and_bad_shapes_rejected(self):
        g = dyadic_grid(2)
        nodal = np.zeros(g.node_count)
        with pytest.raises(ValidationError, match="point coordinates contain NaN"):
            hp.interpolate_gradient(g, nodal, np.array([0.1, np.nan]))
        with pytest.raises(ValidationError, match=r"point must have shape \(2,\)"):
            hp.interpolate_gradient(g, nodal, np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValidationError):
            hp.interpolate_gradient(g, nodal[:-1], np.array([0.1, 0.2]))


class TestAlignedGrid:
    def test_anchor_is_a_node(self):
        box = Hyperbox(np.array([-0.37, -0.11]), np.array([0.53, 0.4]))
        g = aligned_grid(box, 0.2)
        for axis in range(2):
            coords = g.box.lower[axis] + g.edge[axis] * np.arange(g.node_shape[axis])
            assert np.min(np.abs(coords)) < 1e-12

    def test_contains_original_box(self):
        box = Hyperbox(np.array([-0.37]), np.array([0.53]))
        g = aligned_grid(box, 0.2)
        assert g.box.lower[0] <= box.lower[0] and g.box.upper[0] >= box.upper[0]
        assert g.k_r <= 0.2
