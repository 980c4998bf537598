"""Command-line pipeline: snapshots -> solve -> simulate -> compare.

Each stage writes its artifacts (npz bundles for downstream stages, CSV and
JSON for external consumption) into the run directory together with the
fully resolved configuration, so any figure can be regenerated from the
CSVs and npz files.  Exit codes: 0 success, 2 validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import dynamics, hjbgrid, hjbsolve, lqr, pod, reduced
from .errors import HjbPodError, NumericalError, ValidationError
from .hjbgrid import SimplexGrid, aligned_grid, ensure_invariant_grid, grid_from_edge
from .reduced import Hyperbox

logger = logging.getLogger(__name__)

# Per-test pipeline defaults.  Both tests smooth the t=0 derivative sample
# by a difference quotient: the initial profiles violate the boundary
# compatibility of the PDE, so the exact t=0 derivative carries a stiff
# boundary-layer transient that would pollute the basis.  Test 1 admits an
# invariant reduced box (grown and verified); the advection-dominated
# test 2 does not, so its arrivals are clamped and the statistics recorded.
# Test 2 solves to a tighter fixed point and uses a coarser control set:
# the control-table argmins near the target state need both to settle.
_TEST_DEFAULTS = {
    "test1": dict(quotient_at_zero=True, ensure_invariance=True),
    "test2": dict(
        snapshot_controls=(-2.2, -1.1, 0.0),
        k_r=0.1,
        control_count=11,
        stop_tol=1e-6,
        quotient_at_zero=True,
        ensure_invariance=False,
    ),
}


# What each RunConfig annotation admits, besides None where it ends in "| None".
_KINDS = {
    "int": (int, np.integer),
    "float": (int, float, np.integer, np.floating),
    "bool": bool,
    "str": str,
}


def _of_kind(value, kind: str) -> bool:
    """Whether ``value`` is of ``kind``; a tuple is a list or tuple of numbers."""
    if isinstance(value, bool):
        return kind == "bool"
    if kind == "tuple":
        return isinstance(value, (list, tuple)) and all(_of_kind(v, "float") for v in value)
    return isinstance(value, _KINDS[kind])


@dataclass
class RunConfig:
    """Parameters of a pipeline run: the one place where a run's settings
    are defined and checked.

    Construction checks each value against its field's kind, converts the
    tuple fields to float tuples, fills the derived defaults and checks
    every value's range, so every field holds the value the run uses and a
    bad value raises a ValidationError naming its key before any command
    reads or writes.  Values from a config file and from flags pass the
    same checks.  The solve's size is limited by ``cache_budget`` alone, the
    entries of the arrival cache (:func:`hjbgrid.check_cache_size`).
    """

    test: str = "test1"
    N: int = 100
    snapshot_controls: tuple = (-1.0, 0.0, 1.0)
    dt: float = 0.05
    T: float = 3.0
    tau: float | None = None  # default: T
    r: int = 4
    k_r: float = 0.02
    h: float | None = None  # default: 0.1 * k_r
    lam: float = 1.0
    t_e: float = 3.0
    control_count: int = 21
    stop_tol: float = 5e-4
    max_iters: int = 100_000
    clamp_policy: str = "clamp"
    margin: float = 0.0
    quotient_at_zero: bool = False
    ensure_invariance: bool = False
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    guess_step: float | None = None  # default: h
    cache_budget: int = hjbgrid.ENTRY_BUDGET
    outdir: str = "runs"
    factory: str | None = None
    control_box: tuple | None = None  # test2 override
    y0: tuple | None = None  # custom systems: initial state

    def __post_init__(self) -> None:
        for f in fields(self):
            kind, _, optional = f.type.partition(" | ")
            value = getattr(self, f.name)
            if not (value is None and optional or _of_kind(value, kind)):
                raise ValidationError(f"config key {f.name!r} must be a {kind}, got {value!r}")
            if kind == "tuple" and value is not None:
                setattr(self, f.name, tuple(float(v) for v in value))
        if self.tau is None:
            self.tau = self.T
        if self.h is None:
            self.h = 0.1 * self.k_r
        if self.guess_step is None:
            self.guess_step = self.h
        for key in (
            "T", "dt", "tau", "t_e", "k_r", "lam", "stop_tol", "r", "h", "guess_step",
            "control_count", "max_iters", "rel_tol", "abs_tol", "cache_budget",
        ):
            if getattr(self, key) <= 0:
                raise ValidationError(f"{key} must be positive")
        if self.cache_budget > hjbgrid.MAX_ENTRY_BUDGET:
            raise ValidationError(f"cache_budget must be at most {hjbgrid.MAX_ENTRY_BUDGET}")
        if self.margin < 0:
            raise ValidationError("margin must be nonnegative")
        if not self.snapshot_controls:
            raise ValidationError("snapshot_controls must hold at least one control")
        if self.control_box is not None and len(self.control_box) != 2:
            raise ValidationError(f"control_box must be two numbers, got {self.control_box!r}")
        choices = {"test": (*_TEST_DEFAULTS, "custom"), "clamp_policy": ("clamp", "reject")}
        for key, allowed in choices.items():
            value = getattr(self, key)
            if value not in allowed:
                raise ValidationError(f"{key} must be one of {allowed}, got {value!r}")

    def integrator(self) -> dynamics.IntegratorConfig:
        return dynamics.IntegratorConfig(rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    def system(self) -> dynamics.ControlledSystem:
        payload = {"test": self.test, "N": self.N, "factory": self.factory}
        if self.control_box is not None:
            payload["control_box"] = self.control_box
        return dynamics.load_system(payload)

    def initial_state(self, sys: dynamics.ControlledSystem) -> np.ndarray:
        if self.y0 is not None:
            y0 = np.asarray(self.y0, dtype=float)
            if y0.shape != (sys.n,):
                raise ValidationError(f"y0 must have length {sys.n}")
            return y0
        if self.test == "test1":
            return dynamics.test1_initial_state(self.N)
        if self.test == "test2":
            return dynamics.test2_initial_state(self.N)
        raise ValidationError("custom systems need an explicit y0 in the config")


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Merge per-test defaults, a JSON config file, and CLI overrides."""
    data: dict = {}
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError(f"config file {path} must hold a JSON object")
    test = overrides.get("test") or data.get("test") or "test1"
    if not isinstance(test, str):
        raise ValidationError(f"config key 'test' in {path} must be a str, got {test!r}")
    merged: dict = {"test": test}
    merged.update(_TEST_DEFAULTS.get(test, {}))
    merged.update({k: v for k, v in data.items() if v is not None})
    merged.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(merged) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**merged)


# ---------------------------------------------------------------------------
# artifact helpers


def _existing(path: Path, command: str) -> Path:
    """``path``, if it exists; else a ValidationError naming ``command``, which writes it."""
    if not path.exists():
        raise ValidationError(f"missing {command} artifacts: no {path} (run '{command}' first)")
    return path


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


_CSV_SCHEMAS = {
    "spectrum.csv": "k, lambda_k (correlation eigenvalues, descending)",
    "trajectory_*.csv": "t, y_1..y_n, u",
    "control_error_r{r}.csv": "t, u_hjb, u_lqr, relative_error",
}


# The variables that set the BLAS thread count.  The POD basis, and so every
# later artifact, changes in its last bits with that count.
_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _meta_skeleton(cfg: RunConfig) -> dict:
    return {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": asdict(cfg),
        "csv_schemas": _CSV_SCHEMAS,
        "thread_env": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
    }


def _grid_payload(grid: SimplexGrid) -> dict:
    return {
        "lower": grid.box.lower,
        "upper": grid.box.upper,
        "cells_per_axis": grid.cells_per_axis,
        "edge": grid.edge,
        "k_r": grid.k_r,
        "node_count": grid.node_count,
    }


def _grid_from_payload(payload: dict) -> SimplexGrid:
    box = Hyperbox(np.array(payload["lower"]), np.array(payload["upper"]))
    return grid_from_edge(box, np.array(payload["edge"]))


# The config keys that fix the controlled system.  An artifact written for
# other values belongs to another system, whatever its shape.
_SYSTEM_KEYS = ("test", "N", "factory", "control_box")


def _settings(cfg: RunConfig, keys=None) -> dict:
    """The values of ``keys`` (default: every field) as an artifact's JSON
    stores them, so that they compare equal to the stored ones."""
    keys = [f.name for f in fields(cfg)] if keys is None else keys
    return json.loads(json.dumps({k: getattr(cfg, k) for k in keys}, default=_json_default))


def _check_system(cfg: RunConfig, path: Path, stored: dict, command: str) -> None:
    """Raise a ValidationError unless ``stored``, the config that ``command``
    wrote ``path`` under, has this run's ``_SYSTEM_KEYS``."""
    ours = _settings(cfg, _SYSTEM_KEYS)
    for key in _SYSTEM_KEYS:
        if stored.get(key) != ours[key]:
            raise ValidationError(
                f"{path} belongs to another system: it has {key}={stored.get(key)!r}, "
                f"this run has {key}={ours[key]!r} (re-run '{command}' with this config)"
            )


def _basis_hash(basis: pod.PODBasis) -> str:
    """SHA-256 of the basis arrays and their shapes."""
    import hashlib  # loaded by the commands that write or read a solve, not at import

    digest = hashlib.sha256()
    for array in (basis.modes, basis.eigvals, basis.weight):
        digest.update(repr(array.shape).encode())
        digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return digest.hexdigest()


def _load_solution(out: Path, cfg: RunConfig, basis: pod.PODBasis) -> hjbsolve.ControlTable:
    """The control table solved at rank ``cfg.r`` for this system, on the grid
    it was solved on.  ``basis`` must be the one it was solved with."""
    r = cfg.r
    meta_path = _existing(out / f"meta_r{r}.json", "solve")
    with open(meta_path) as fh:
        meta = json.load(fh)
    _check_system(cfg, meta_path, meta["config"], "solve")
    if meta["basis"].get("sha256") != _basis_hash(basis):
        raise ValidationError(
            f"{out / 'basis.npz'} is not the basis {meta_path} was solved with "
            "(re-run 'solve' with this basis)"
        )
    with np.load(_existing(out / f"solve_r{r}.npz", "solve")) as data:
        controls = data["controls"]
        control_values = data["control_values"]
    return hjbsolve.ControlTable(
        grid=_grid_from_payload(meta["grid"]),
        controls=controls,
        control_set=hjbsolve.ControlSet(control_values),
    )


# ---------------------------------------------------------------------------
# commands


def cmd_snapshots(cfg: RunConfig) -> Path:
    """Generate the snapshot bundle, its POD basis and the correlation spectrum CSV."""
    sys_obj = cfg.system()
    y0 = cfg.initial_state(sys_obj)
    icfg = cfg.integrator()
    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    snap = pod.generate_snapshots(
        sys_obj,
        cfg.snapshot_controls,
        y0,
        cfg.dt,
        cfg.T,
        icfg,
        quotient_at_zero=cfg.quotient_at_zero,
    )
    pod.save_snapshots(out / "snapshots.npz", snap)
    basis = pod.compute_basis(snap, tau=cfg.tau)
    pod.save_basis(out / "basis.npz", basis)
    eigvals = basis.eigvals
    write_csv(out / "spectrum.csv", ["k", "lambda_k"], [np.arange(1, eigvals.size + 1), eigvals])
    meta = _meta_skeleton(cfg)
    meta["snapshots"] = {
        "p": snap.p,
        "N": snap.N,
        "dt": snap.dt,
        "T": snap.T,
        "n": snap.n,
        "basis_dimension": basis.d,
        "elapsed_s": time.perf_counter() - t0,
    }
    write_json(out / "snapshots_meta.json", meta)
    logger.info("snapshots: p=%d N=%d -> %s", snap.p, snap.N, out / "snapshots.npz")
    return out


def cmd_solve(cfg: RunConfig) -> Path:
    """Domain, grid, arrival cache, and value iteration for the configured rank."""
    out = Path(cfg.outdir)
    snap_path = _existing(out / "snapshots.npz", "snapshots")
    meta_path = _existing(out / "snapshots_meta.json", "snapshots")
    with open(meta_path) as fh:
        _check_system(cfg, meta_path, json.load(fh)["config"], "snapshots")
    snap = pod.load_snapshots(snap_path)
    basis = pod.load_basis(_existing(out / "basis.npz", "snapshots"))
    if cfg.r > basis.d:
        raise ValidationError(f"requested rank r={cfg.r} exceeds basis dimension d={basis.d}")

    sys_obj = cfg.system()
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    rs = reduced.ReducedSystem(basis, sys_obj, cfg.r)
    box = reduced.build_domain(basis, snap, cfg.r, margin=cfg.margin)
    control_values = np.linspace(*sys_obj.control_box, cfg.control_count)
    if cfg.ensure_invariance:
        box = reduced.grow_to_invariant(rs, box, sys_obj.control_box)
        grid = ensure_invariant_grid(
            rs, box, control_values, cfg.k_r, cfg.h, entry_budget=cfg.cache_budget
        )
    else:
        grid = aligned_grid(box, cfg.k_r)
    timings["setup_s"] = time.perf_counter() - t0
    logger.info(
        "grid: %s cells, %d nodes, k_r=%.4g",
        [int(c) for c in grid.cells_per_axis],
        grid.node_count,
        grid.k_r,
    )

    controls = hjbsolve.ControlSet(control_values)

    t0 = time.perf_counter()
    cache = hjbsolve.build_arrival_cache(
        grid, rs, controls, cfg.h, clamp_policy=cfg.clamp_policy, entry_budget=cfg.cache_budget
    )
    timings["cache_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    v0 = hjbsolve.initial_value_guess(
        grid, rs, cfg.snapshot_controls, cfg.lam, cfg.guess_step, cfg.t_e
    )
    timings["guess_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    vf, table = hjbsolve.value_iteration(
        cache, v0, cfg.lam, cfg.h, cfg.stop_tol, max_iters=cfg.max_iters
    )
    timings["iteration_s"] = time.perf_counter() - t0
    logger.info(
        "value iteration: %d sweeps, residual %.3e, converged=%s",
        vf.iterations,
        vf.final_residual,
        vf.converged,
    )

    np.savez_compressed(
        out / f"solve_r{cfg.r}.npz",
        values=vf.values,
        controls=table.controls,
        control_values=controls.values,
        residual_history=vf.residual_history,
        argmin_change_history=vf.argmin_change_history,
    )

    meta = _meta_skeleton(cfg)
    meta["grid"] = _grid_payload(grid)
    meta["basis"] = {
        "d": basis.d,
        "tau": basis.tau,
        "eigval_tail": basis.tail(cfg.r),
        "sha256": _basis_hash(basis),
    }
    meta["iteration"] = {
        "iterations": vf.iterations,
        "final_residual": vf.final_residual,
        "converged": vf.converged,
        "stop_tol": vf.stop_tol,
        "error_bound": vf.error_bound,
    }
    meta["invariance"] = {
        "checked": cache.invariance.checked,
        "violations": cache.invariance.violations,
        "max_rel_displacement": cache.invariance.max_rel_displacement,
    }
    meta["timings"] = timings
    write_json(out / f"meta_r{cfg.r}.json", meta)
    if not vf.converged:
        raise NumericalError(
            f"value iteration unconverged (residual {vf.final_residual:.3e} "
            f"after {vf.iterations} sweeps); artifacts were written"
        )
    return out


def cmd_simulate(cfg: RunConfig) -> Path:
    """Closed-loop simulation under the solved policy plus uncontrolled reference.

    ``simulate_r*.json`` records the costs and ``outside_box_frac``, the share
    of sampled states whose projection lies outside the table's grid box.
    """
    out = Path(cfg.outdir)
    basis = pod.load_basis(_existing(out / "basis.npz", "snapshots"))
    table = _load_solution(out, cfg, basis)
    sys_obj = cfg.system()
    y0 = cfg.initial_state(sys_obj)
    icfg = cfg.integrator()

    traj = hjbsolve.simulate_closed_loop(
        sys_obj,
        basis,
        table,
        y0,
        cfg.t_e,
        icfg,
        sample_dt=cfg.dt,
    )
    dynamics.write_trajectory_csv(traj, out / f"trajectory_hjb_r{cfg.r}.csv")

    sample_times = traj.times
    unc = dynamics.integrate(sys_obj, y0, 0.0, (0.0, cfg.t_e), icfg, sample_times)
    dynamics.write_trajectory_csv(unc, out / "trajectory_unc.csv")

    cost_hjb = hjbsolve.evaluate_cost(sys_obj, traj, cfg.lam)
    cost_unc = hjbsolve.evaluate_cost(sys_obj, unc, cfg.lam)
    # where the projected state leaves the table's box the feedback clamps it
    # there, and the solve certifies nothing
    box = table.grid.box
    coeffs = pod.project_coeffs_batch(basis, traj.states, table.grid.r)
    outside = np.any(box.clip(coeffs) != coeffs, axis=1)
    payload = _meta_skeleton(cfg)
    payload["costs"] = {
        "hjb": cost_hjb,
        "uncontrolled": cost_unc,
        "terminal_norm_hjb": sys_obj.weighted_norm(traj.states[-1]),
        "terminal_norm_uncontrolled": sys_obj.weighted_norm(unc.states[-1]),
    }
    payload["outside_box_frac"] = float(np.mean(outside))
    write_json(out / f"simulate_r{cfg.r}.json", payload)
    logger.info("closed-loop cost %.6g vs uncontrolled %.6g", cost_hjb, cost_unc)
    return out


# The config keys the Riccati solution depends on: the system and the discount.
_CARE_KEYS = _SYSTEM_KEYS + ("lam",)


def _care_for(out: Path, cfg: RunConfig, lq_data: tuple) -> lqr.CareSolution:
    """The Riccati solution for ``lq_data = (A, B, Q, R)`` and ``cfg.lam``.

    Loaded from ``care.npz`` if it was solved under the same ``_CARE_KEYS``;
    otherwise solved and saved there with them.  The file holds the solution
    as one structured record, so that reusing it reads one array, not one
    per field.
    """
    path = out / "care.npz"
    key = json.dumps(_settings(cfg, _CARE_KEYS), sort_keys=True)
    if path.exists():
        with np.load(path) as data:
            if str(data["key"]) == key:
                record = data["care"]
                stored = {name: record[name] for name in record.dtype.names}
                stored["residual"] = float(stored["residual"])
                return lqr.CareSolution(**stored)
    care = lqr.solve_care(*lq_data, lam=cfg.lam)
    values = {name: np.asarray(value) for name, value in asdict(care).items()}
    record = np.array(
        tuple(values.values()), dtype=[(n, v.dtype, v.shape) for n, v in values.items()]
    )
    np.savez(path, key=key, care=record)
    return care


def _simulated_with(sim_path: Path, cfg: RunConfig) -> bool:
    """Whether ``simulate`` last wrote ``sim_path`` under this config."""
    if not sim_path.exists():
        return False
    with open(sim_path) as fh:
        stored = json.load(fh).get("config")
    return stored == _settings(cfg)


def cmd_compare_lqr(cfg: RunConfig) -> Path:
    """LQR oracle run and HJB-vs-LQR error series for a linear-quadratic test.

    Reuses the HJB trajectory of the run directory only if ``simulate`` wrote
    it under this same config; otherwise it simulates first.  The Riccati
    solution is taken from ``care.npz`` when it was solved for this system
    and discount, and otherwise solved, once the system is known to be
    linear-quadratic and the HJB trajectory is at hand.  The summary records
    the range of the sampled LQR controls, the share outside the control
    box and whether the LQR law stayed admissible (``lqr_admissible``).
    """
    out = Path(cfg.outdir)
    sys_obj = cfg.system()
    lq_data = lqr.linear_quadratic_data(sys_obj, cfg.lam)
    hjb_path = out / f"trajectory_hjb_r{cfg.r}.csv"
    if not (hjb_path.exists() and _simulated_with(out / f"simulate_r{cfg.r}.json", cfg)):
        cmd_simulate(cfg)
    t_hjb, u_hjb = np.loadtxt(hjb_path, delimiter=",", skiprows=1, usecols=(0, -1), unpack=True)

    care = _care_for(out, cfg, lq_data)
    y0 = cfg.initial_state(sys_obj)
    traj_lqr = lqr.simulate_lqr(sys_obj, care, y0, cfg.t_e, cfg.integrator(), sample_dt=cfg.dt)
    dynamics.write_trajectory_csv(traj_lqr, out / "trajectory_lqr.csv")

    comp = lqr.compare_controls(u_hjb, traj_lqr.controls, t_hjb, traj_lqr.times)
    write_csv(
        out / f"control_error_r{cfg.r}.csv",
        ["t", "u_hjb", "u_lqr", "relative_error"],
        [comp.times, u_hjb, traj_lqr.controls, comp.relative_error],
    )

    summary_path = out / "lqr_summary.json"
    summary = {}
    if summary_path.exists():
        with open(summary_path) as fh:
            summary = json.load(fh)
    # the LQR law is unclipped: where it leaves the control box, the control
    # error is measured against an inadmissible reference
    u_lqr = traj_lqr.controls
    lo, hi = sys_obj.control_box
    outside_frac = float(np.mean((u_lqr < lo) | (u_lqr > hi)))
    summary[f"r{cfg.r}"] = {
        "median_relative_error": comp.median,
        "max_relative_error": comp.max,
        "care_residual": care.residual,
        "cost_lqr": hjbsolve.evaluate_cost(sys_obj, traj_lqr, cfg.lam),
        "lqr_control_min": float(u_lqr.min()),
        "lqr_control_max": float(u_lqr.max()),
        "lqr_outside_box_frac": outside_frac,
        "lqr_admissible": outside_frac == 0.0,
        "config": asdict(cfg),
    }
    summary["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    write_json(summary_path, summary)
    logger.info("control error vs LQR: median %.3g, max %.3g", comp.median, comp.max)
    return out


def cmd_report(cfg: RunConfig) -> Path:
    """Summarize the artifacts of a run directory in ``report.txt``, which
    does not name the directory, so equal runs write equal reports."""
    out = _existing(Path(cfg.outdir), "snapshots")
    lines = []
    for meta_path in sorted(out.glob("meta_r*.json")):
        with open(meta_path) as fh:
            meta = json.load(fh)
        it = meta.get("iteration", {})
        inv = meta.get("invariance", {})
        lines.append(
            f"{meta_path.name}: nodes={meta['grid']['node_count']} "
            f"iters={it.get('iterations')} residual={it.get('final_residual'):.3e} "
            f"converged={it.get('converged')} violations={inv.get('violations')} "
            f"tail={meta['basis']['eigval_tail']:.3e}"
        )
    for sim_path in sorted(out.glob("simulate_r*.json")):
        with open(sim_path) as fh:
            sim = json.load(fh)
        costs = sim["costs"]
        lines.append(
            f"{sim_path.name}: cost_hjb={costs['hjb']:.6g} "
            f"cost_unc={costs['uncontrolled']:.6g}"
        )
    summary_path = out / "lqr_summary.json"
    if summary_path.exists():
        with open(summary_path) as fh:
            summary = json.load(fh)
        for key, entry in sorted(summary.items()):
            if key.startswith("r"):
                lines.append(
                    f"lqr {key}: median={entry['median_relative_error']:.3g} "
                    f"max={entry['max_relative_error']:.3g}"
                )
                if not entry.get("lqr_admissible", True):
                    lines.append(
                        f"warning: lqr {key}: the unclipped LQR law left the control box "
                        f"in {entry['lqr_outside_box_frac']:.1%} of the samples "
                        f"(controls {entry['lqr_control_min']:.4g} to "
                        f"{entry['lqr_control_max']:.4g}); the control error above is "
                        "measured against an inadmissible reference"
                    )
    report = "\n".join(lines)
    print(f"run directory: {out}\n{report}")
    (out / "report.txt").write_text(report + "\n")
    return out


# ---------------------------------------------------------------------------
# argument parsing

_COMMANDS = {
    "snapshots": cmd_snapshots,
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "compare-lqr": cmd_compare_lqr,
    "report": cmd_report,
}


# The RunConfig fields that are also flags, each spelt --name with "-" for "_".
_FLAGS = (
    "test", "outdir", "N", "r", "k_r", "h", "dt", "T", "tau", "t_e", "lam",
    "control_count", "stop_tol", "max_iters", "margin", "clamp_policy", "guess_step",
)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="hjbpod",
        description="Reduced-order dynamic-programming feedback control pipeline",
    )
    p.add_argument("command", choices=list(_COMMANDS))
    p.add_argument("--config", help="JSON config file")
    for name in _FLAGS:
        kind = RunConfig.__dataclass_fields__[name].type.partition(" | ")[0]
        parse = {"int": int, "float": float, "str": str}[kind]
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=parse)
    p.add_argument("-v", "--verbose", action="store_true")
    args = p.parse_args(argv)

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    # load_config drops the flags left unset (None)
    overrides = {name: getattr(args, name) for name in _FLAGS}
    try:
        cfg = load_config(args.config, overrides)
        _COMMANDS[args.command](cfg)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except HjbPodError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
