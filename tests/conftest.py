import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import hjbpod as hp
from hjbpod.hjbgrid import grid_from_edge
from hjbpod.reduced import Hyperbox, ReducedSystem


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def compare_runs():
    """``tools/compare_runs.py`` as a module, with ``tools/`` on ``sys.path``
    only while it imports; afterwards the path and the module cache are as
    they were, so no other test sees the name."""
    tools = str(Path(__file__).resolve().parent.parent / "tools")
    saved = sys.modules.pop("compare_runs", None)
    sys.path.insert(0, tools)
    try:
        module = importlib.import_module("compare_runs")
    finally:
        sys.path.remove(tools)
    try:
        yield module
    finally:
        sys.modules.pop("compare_runs", None)
        if saved is not None:
            sys.modules["compare_runs"] = saved


def make_scalar_integrator_system():
    """1-D toy: ydot = u, g = y^2, controls in [-1, 1], unit weight."""
    return hp.ControlledSystem(
        n=1,
        rhs=lambda y, u: np.array([u]),
        running_cost=lambda y, u: float(y[0] * y[0]),
        weight=np.ones(1),
        control_box=(-1.0, 1.0),
        label="toy-integrator",
        rhs_batch=lambda Y, u: np.full_like(np.asarray(Y, dtype=float), u),
    )


def make_decay_system():
    """1-D toy: ydot = -y (control ignored), g = y^2."""
    return hp.ControlledSystem(
        n=1,
        rhs=lambda y, u: -np.asarray(y, dtype=float),
        running_cost=lambda y, u: float(y[0] * y[0]),
        weight=np.ones(1),
        control_box=(-1.0, 1.0),
        label="toy-decay",
        rhs_batch=lambda Y, u: -np.asarray(Y, dtype=float),
    )


@pytest.fixture(scope="session")
def toy_reduced():
    """Identity-basis reduction of the scalar integrator toy."""
    sys_obj = make_scalar_integrator_system()
    basis = hp.identity_basis(np.ones(1))
    return ReducedSystem(basis, sys_obj, 1)


@pytest.fixture(scope="session")
def test1_bundle():
    """Full-size Test-1 system with its snapshot set and basis."""
    sys_obj = hp.build_test1(100)
    y0 = hp.test1_initial_state(100)
    snap = hp.generate_snapshots(
        sys_obj, [-1.0, 0.0, 1.0], y0, 1.0 / 20.0, 3.0, quotient_at_zero=True
    )
    basis = hp.compute_basis(snap)
    return sys_obj, snap, basis


@pytest.fixture(scope="session")
def test2_bundle():
    sys_obj = hp.build_test2(100)
    y0 = hp.test2_initial_state(100)
    snap = hp.generate_snapshots(
        sys_obj, [-2.2, -1.1, 0.0], y0, 1.0 / 20.0, 3.0, quotient_at_zero=True
    )
    basis = hp.compute_basis(snap)
    return sys_obj, snap, basis


def random_snapshot_set(rng, n=20, p=2, M=9, dt=0.1):
    """Synthetic snapshot data with random states/derivatives and weights."""
    states = rng.normal(size=(p, M + 1, n))
    derivs = rng.normal(size=(p, M + 1, n))
    weight = rng.uniform(0.5, 2.0, size=n)
    return hp.SnapshotSet(
        p=p,
        M=M,
        dt=dt,
        states=states,
        derivs=derivs,
        controls=np.zeros(p),
        weight=weight,
    )


def kuhn_probe_points(grid, rng, count=30):
    """Points that stress the Kuhn stencil of ``grid``, shape (6 * count, r).

    Nodes, points on a lattice plane of one axis (cell faces), points whose fractional coordinates tie on
    every axis or on every other axis, uniform interior points and points
    outside the box.  On a lattice with dyadic lower corner and edge the
    nodes, faces and ties are exact in floating point.
    """
    r = grid.r
    lower, upper, edge = grid.box.lower, grid.box.upper, grid.edge
    nodes = grid.all_nodes()[rng.integers(grid.node_count, size=count)]
    faces = rng.uniform(lower, upper, size=(count, r))
    axis = rng.integers(r, size=count)
    faces[np.arange(count), axis] = nodes[np.arange(count), axis]
    cells = rng.integers(0, grid.cells_per_axis, size=(count, r))
    ties = lower + edge * (cells + rng.choice([0.25, 0.5, 0.75], size=(count, 1)))
    half_ties = ties.copy()
    half_ties[:, ::2] = rng.uniform(lower[::2], upper[::2], size=(count, (r + 1) // 2))
    interior = rng.uniform(lower, upper, size=(count, r))
    exterior = rng.uniform(lower - grid.box.width, upper + grid.box.width, size=(count, r))
    return np.concatenate([nodes, faces, ties, half_ties, interior, exterior])


def dyadic_grid(r):
    """Lattice on [-1, 1]^r with edge 1/2 (5**r nodes)."""
    return grid_from_edge(Hyperbox(np.full(r, -1.0), np.ones(r)), np.full(r, 0.5))
