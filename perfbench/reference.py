"""Tight reference fixed point of a solved run, by Howard policy iteration.

For a fixed policy pi the nodal values of the discrete scheme solve the
sparse linear system

    (I - (1 - lam h) W_pi) v = h g_pi,

where row i of W_pi holds the interpolation weights of the arrival point of
node i under control pi(i) (Alla, Falcone & Kalise, SISC 37, 2015).  The
arrival cache is rebuilt with the program's public ``build_arrival_cache``
from the grid in ``meta_r*.json`` and the saved control values, so the
reference is the fixed point of the program's own operator: the result is
accepted only if ``max |sweep_once(v*) - v*| <= RESIDUAL_TOL``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hjbpod import dynamics, hjbsolve, pod
from hjbpod.hjbgrid import SimplexGrid
from hjbpod.reduced import Hyperbox, ReducedSystem

RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Reference:
    """The reference fixed point and how far the run's solution is from it."""

    values: np.ndarray
    policy_updates: int
    residual: float  # max |sweep_once(v*) - v*|
    value_gap: float  # max |v_solved - v*|
    policy_mismatch_frac: float  # share of nodes whose saved control differs
    error_bound: float  # the bound the run itself reported

    @property
    def ok(self) -> bool:
        return bool(self.residual <= RESIDUAL_TOL)


def _grid(payload: dict) -> SimplexGrid:
    box = Hyperbox(np.array(payload["lower"]), np.array(payload["upper"]))
    cells = np.array(payload["cells_per_axis"], dtype=np.int64)
    edge = box.width / cells
    return SimplexGrid(
        box=box,
        cells_per_axis=cells,
        edge=edge,
        node_count=int(np.prod(cells + 1)),
        k_r=float(np.sqrt(edge @ edge)),
    )


def solve_reference(rundir: Path, r: int, max_updates: int = 50) -> Reference:
    """Policy iteration from the greedy policy of the run's solved values."""
    meta = json.loads((rundir / f"meta_r{r}.json").read_text())
    cfg = meta["config"]
    grid = _grid(meta["grid"])
    with np.load(rundir / f"solve_r{r}.npz") as data:
        solved, saved_controls, control_values = (
            data["values"],
            data["controls"],
            data["control_values"],
        )
    payload = {key: cfg[key] for key in ("test", "N", "factory", "control_box")}
    rs = ReducedSystem(pod.load_basis(rundir / "basis.npz"), dynamics.load_system(payload), r)
    lam, h = cfg["lam"], cfg["h"]
    cache = hjbsolve.build_arrival_cache(
        grid,
        rs,
        hjbsolve.ControlSet(control_values),
        h,
        clamp_policy=cfg["clamp_policy"],
        entry_budget=cfg["cache_budget"],
    )

    n = grid.node_count
    nodes = np.arange(n)
    rows = np.repeat(nodes, r + 1)
    system_eye = sp.identity(n, format="csr")
    v = solved
    tv, policy = hjbsolve.sweep_once(cache, v, lam, h)
    for updates in range(1, max_updates + 1):
        w_pi = sp.csr_matrix(
            (cache.weights[nodes, policy].ravel(), (rows, cache.indices[nodes, policy].ravel())),
            shape=(n, n),
        )
        v, _ = spla.bicgstab(
            system_eye - (1.0 - lam * h) * w_pi,
            h * cache.stage_cost[nodes, policy],
            x0=v,
            rtol=1e-14,
            atol=0.0,
            maxiter=2000,
        )
        tv, greedy = hjbsolve.sweep_once(cache, v, lam, h)
        if np.array_equal(greedy, policy):
            break
        policy = greedy
    return Reference(
        values=v,
        policy_updates=updates,
        residual=float(np.max(np.abs(tv - v))),
        value_gap=float(np.max(np.abs(solved - v))),
        policy_mismatch_frac=float(np.count_nonzero(control_values[greedy] != saved_controls))
        / n,
        error_bound=float(meta["iteration"]["error_bound"]),
    )
