"""Command-line pipeline: snapshots -> basis -> solve -> simulate -> compare.

Each stage writes its artifacts (npz bundles for downstream stages, CSV and
JSON for external consumption) into the run directory together with the
fully resolved configuration, so any figure can be regenerated from the
CSVs alone.  Exit codes: 0 success, 2 validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import dynamics, hjbsolve, lqr, pod, reduced
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
    "test1": dict(
        N=100,
        snapshot_controls=(-1.0, 0.0, 1.0),
        k_r=0.02,
        control_count=21,
        quotient_at_zero=True,
        ensure_invariance=True,
    ),
    "test2": dict(
        N=100,
        snapshot_controls=(-2.2, -1.1, 0.0),
        k_r=0.1,
        control_count=11,
        stop_tol=1e-6,
        quotient_at_zero=True,
        ensure_invariance=False,
    ),
}


@dataclass
class RunConfig:
    """Resolved parameters of a pipeline run."""

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
    control_interval: tuple | None = None  # default: system control box
    stop_tol: float = 5e-4
    max_iters: int = 100_000
    clamp_policy: str = "clamp"
    margin: float = 0.0
    quotient_at_zero: bool = False
    ensure_invariance: bool = False
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    guess_step: float | None = None  # default: h
    guess_controls: tuple | None = None  # default: snapshot controls
    node_budget: int = 5_000_000
    cache_budget: int = 200_000_000
    outdir: str = "runs"
    sample_hold: bool = False
    factory: str | None = None
    control_box: tuple | None = None  # test2 override
    y0: tuple | None = None  # custom systems: initial state

    def validate(self) -> None:
        if self.T <= 0 or self.dt <= 0:
            raise ValidationError("T and dt must be positive")
        if self.t_e <= 0:
            raise ValidationError("t_e must be positive")
        if self.k_r <= 0:
            raise ValidationError("k_r must be positive")
        if self.r < 1:
            raise ValidationError("r must be >= 1")
        if self.stop_tol <= 0:
            raise ValidationError("stop_tol must be positive")
        if self.resolved_h > 0.5 / self.lam:
            logger.warning("h=%g exceeds the recommended bound 1/(2*lam)", self.resolved_h)

    @property
    def resolved_h(self) -> float:
        return self.h if self.h is not None else 0.1 * self.k_r

    @property
    def resolved_tau(self) -> float:
        return self.tau if self.tau is not None else self.T

    @property
    def resolved_guess_step(self) -> float:
        return self.guess_step if self.guess_step is not None else self.resolved_h

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

    def resolved_dict(self) -> dict:
        d = asdict(self)
        d["h"] = self.resolved_h
        d["tau"] = self.resolved_tau
        d["guess_step"] = self.resolved_guess_step
        if d["guess_controls"] is None:
            d["guess_controls"] = list(self.snapshot_controls)
        return d


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Merge per-test defaults, a JSON config file, and CLI overrides."""
    data: dict = {}
    if path:
        with open(path) as fh:
            data = json.load(fh)
    test = overrides.get("test") or data.get("test") or "test1"
    merged: dict = {"test": test}
    merged.update(_TEST_DEFAULTS.get(test, {}))
    merged.update({k: v for k, v in data.items() if v is not None})
    merged.update({k: v for k, v in overrides.items() if v is not None})
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(merged) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key in ("snapshot_controls", "guess_controls", "control_interval", "control_box", "y0"):
        if merged.get(key) is not None:
            merged[key] = tuple(float(v) for v in merged[key])
    cfg = RunConfig(**merged)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# artifact helpers


def _outdir(cfg: RunConfig) -> Path:
    path = Path(cfg.outdir)
    path.mkdir(parents=True, exist_ok=True)
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
    "value_r{r}.csv": "i_1..i_r (lattice index), x_1..x_r (node coords), value",
    "policy_r{r}.csv": "i_1..i_r, x_1..x_r, control",
    "trajectory_*.csv": "t, y_1..y_n, u",
    "control_error_r{r}.csv": "t, u_hjb, u_lqr, relative_error",
    "state_diff_r{r}.csv": "t, dy_1..dy_n (HJB minus LQR state)",
}


def _meta_skeleton(cfg: RunConfig) -> dict:
    return {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": cfg.resolved_dict(),
        "csv_schemas": _CSV_SCHEMAS,
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
    # the stored grid already met its budget when it was solved
    return grid_from_edge(box, np.array(payload["edge"]), node_budget=payload["node_count"])


def _write_spectrum(path: Path, eigvals: np.ndarray) -> None:
    write_csv(path, ["k", "lambda_k"], [np.arange(1, eigvals.size + 1), eigvals])


def _load_solution(out: Path, r: int) -> hjbsolve.ControlTable:
    """The control table solved at rank ``r``, on the grid it was solved on."""
    npz_path = out / f"solve_r{r}.npz"
    meta_path = out / f"meta_r{r}.json"
    if not npz_path.exists() or not meta_path.exists():
        raise ValidationError(f"missing solve artifacts for r={r} in {out} (run 'solve' first)")
    with open(meta_path) as fh:
        meta = json.load(fh)
    with np.load(npz_path) as data:
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
    """Generate the snapshot bundle and the correlation spectrum CSV."""
    out = _outdir(cfg)
    sys_obj = cfg.system()
    y0 = cfg.initial_state(sys_obj)
    t0 = time.perf_counter()
    snap = pod.generate_snapshots(
        sys_obj,
        cfg.snapshot_controls,
        y0,
        cfg.dt,
        cfg.T,
        cfg.integrator(),
        quotient_at_zero=cfg.quotient_at_zero,
    )
    pod.save_snapshots(out / "snapshots.npz", snap)
    basis = pod.compute_basis(snap, tau=cfg.resolved_tau)
    pod.save_basis(out / "basis.npz", basis)
    _write_spectrum(out / "spectrum.csv", basis.eigvals)
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


def cmd_basis(cfg: RunConfig) -> Path:
    """(Re)build the POD basis from an existing snapshot bundle."""
    out = _outdir(cfg)
    snap_path = out / "snapshots.npz"
    if not snap_path.exists():
        raise ValidationError(f"snapshot bundle not found: {snap_path} (run 'snapshots' first)")
    snap = pod.load_snapshots(snap_path)
    basis = pod.compute_basis(snap, tau=cfg.resolved_tau)
    pod.save_basis(out / "basis.npz", basis)
    _write_spectrum(out / "spectrum.csv", basis.eigvals)
    meta = _meta_skeleton(cfg)
    meta["basis"] = {"d": basis.d, "tau": basis.tau, "eigvals": basis.eigvals}
    write_json(out / "basis_meta.json", meta)
    return out


def cmd_solve(cfg: RunConfig) -> Path:
    """Domain, grid, arrival cache, and value iteration for the configured rank."""
    out = _outdir(cfg)
    snap_path = out / "snapshots.npz"
    if not snap_path.exists():
        raise ValidationError(f"snapshot bundle not found: {snap_path} (run 'snapshots' first)")
    snap = pod.load_snapshots(snap_path)
    basis_path = out / "basis.npz"
    if basis_path.exists():
        basis = pod.load_basis(basis_path)
    else:
        basis = pod.compute_basis(snap, tau=cfg.resolved_tau)
        pod.save_basis(basis_path, basis)
    if cfg.r > basis.d:
        raise ValidationError(f"requested rank r={cfg.r} exceeds basis dimension d={basis.d}")

    sys_obj = cfg.system()
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    rs = reduced.ReducedSystem(basis, sys_obj, cfg.r)
    box = reduced.build_domain(basis, snap, cfg.r, margin=cfg.margin)
    interval = cfg.control_interval or sys_obj.control_box
    control_values = np.linspace(interval[0], interval[1], cfg.control_count)
    if cfg.ensure_invariance:
        box = reduced.grow_to_invariant(rs, box, interval)
        grid = ensure_invariant_grid(
            rs, box, control_values, cfg.k_r, cfg.resolved_h, node_budget=cfg.node_budget
        )
    else:
        grid = aligned_grid(box, cfg.k_r, node_budget=cfg.node_budget)
    timings["setup_s"] = time.perf_counter() - t0
    logger.info(
        "grid: %s cells, %d nodes, k_r=%.4g",
        [int(c) for c in grid.cells_per_axis],
        grid.node_count,
        grid.k_r,
    )

    controls = hjbsolve.ControlSet(control_values)
    h = cfg.resolved_h

    t0 = time.perf_counter()
    cache = hjbsolve.build_arrival_cache(
        grid, rs, controls, h, clamp_policy=cfg.clamp_policy, entry_budget=cfg.cache_budget
    )
    timings["cache_s"] = time.perf_counter() - t0

    guess_controls = cfg.guess_controls or cfg.snapshot_controls
    t0 = time.perf_counter()
    v0 = hjbsolve.initial_value_guess(
        grid, rs, guess_controls, cfg.lam, cfg.resolved_guess_step, cfg.t_e
    )
    timings["guess_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    vf, table = hjbsolve.value_iteration(
        cache, v0, cfg.lam, h, cfg.stop_tol, max_iters=cfg.max_iters
    )
    timings["iteration_s"] = time.perf_counter() - t0
    logger.info(
        "value iteration: %d sweeps, residual %.3e, converged=%s",
        vf.iterations,
        vf.final_residual,
        vf.converged,
    )

    nodes = grid.all_nodes()
    lattice = np.stack(
        np.unravel_index(np.arange(grid.node_count), grid.node_shape), axis=1
    ).astype(float)
    idx_headers = [f"i_{a}" for a in range(1, grid.r + 1)]
    x_headers = [f"x_{a}" for a in range(1, grid.r + 1)]
    cols = [lattice[:, a] for a in range(grid.r)] + [nodes[:, a] for a in range(grid.r)]
    write_csv(
        out / f"value_r{cfg.r}.csv", idx_headers + x_headers + ["value"], cols + [vf.values]
    )
    write_csv(
        out / f"policy_r{cfg.r}.csv", idx_headers + x_headers + ["control"], cols + [table.controls]
    )
    np.savez_compressed(
        out / f"solve_r{cfg.r}.npz",
        values=vf.values,
        controls=table.controls,
        control_values=controls.values,
    )

    meta = _meta_skeleton(cfg)
    meta["grid"] = _grid_payload(grid)
    meta["basis"] = {"d": basis.d, "tau": basis.tau, "eigval_tail": basis.tail(cfg.r)}
    meta["control_set"] = controls.values
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
    """Closed-loop simulation under the solved policy plus uncontrolled reference."""
    out = _outdir(cfg)
    basis = pod.load_basis(out / "basis.npz")
    table = _load_solution(out, cfg.r)
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
        sample_hold=cfg.sample_hold,
    )
    dynamics.write_trajectory_csv(traj, out / f"trajectory_hjb_r{cfg.r}.csv")

    sample_times = traj.times
    unc = dynamics.integrate(sys_obj, y0, 0.0, (0.0, cfg.t_e), icfg, sample_times)
    dynamics.write_trajectory_csv(unc, out / "trajectory_unc.csv")

    cost_hjb = hjbsolve.evaluate_cost(sys_obj, traj, cfg.lam)
    cost_unc = hjbsolve.evaluate_cost(sys_obj, unc, cfg.lam)
    payload = _meta_skeleton(cfg)
    payload["costs"] = {
        "hjb": cost_hjb,
        "uncontrolled": cost_unc,
        "terminal_norm_hjb": sys_obj.weighted_norm(traj.states[-1]),
        "terminal_norm_uncontrolled": sys_obj.weighted_norm(unc.states[-1]),
    }
    write_json(out / f"simulate_r{cfg.r}.json", payload)
    logger.info("closed-loop cost %.6g vs uncontrolled %.6g", cost_hjb, cost_unc)
    return out


def cmd_compare_lqr(cfg: RunConfig) -> Path:
    """LQR oracle run and HJB-vs-LQR error series for a linear-quadratic test."""
    out = _outdir(cfg)
    sys_obj = cfg.system()
    A, B, Q, R = lqr.linear_quadratic_data(sys_obj, cfg.lam)
    care = lqr.solve_care(A, B, Q, R, lam=cfg.lam)
    y0 = cfg.initial_state(sys_obj)
    icfg = cfg.integrator()

    traj_lqr = lqr.simulate_lqr(sys_obj, care, y0, cfg.t_e, icfg, sample_dt=cfg.dt)
    dynamics.write_trajectory_csv(traj_lqr, out / "trajectory_lqr.csv")

    hjb_path = out / f"trajectory_hjb_r{cfg.r}.csv"
    if not hjb_path.exists():
        cmd_simulate(cfg)
    data = np.loadtxt(hjb_path, delimiter=",", skiprows=1)
    t_hjb, states_hjb, u_hjb = data[:, 0], data[:, 1:-1], data[:, -1]

    comp = lqr.compare_controls(
        u_hjb, traj_lqr.controls, t_hjb, traj_lqr.times, resample=True
    )
    write_csv(
        out / f"control_error_r{cfg.r}.csv",
        ["t", "u_hjb", "u_lqr", "relative_error"],
        [comp.times, u_hjb, traj_lqr.controls, comp.relative_error],
    )
    diff = states_hjb - traj_lqr.states
    write_csv(
        out / f"state_diff_r{cfg.r}.csv",
        ["t"] + [f"dy_{j}" for j in range(1, diff.shape[1] + 1)],
        [t_hjb] + [diff[:, j] for j in range(diff.shape[1])],
    )

    summary_path = out / "lqr_summary.json"
    summary = {}
    if summary_path.exists():
        with open(summary_path) as fh:
            summary = json.load(fh)
    summary[f"r{cfg.r}"] = {
        "median_relative_error": comp.median,
        "max_relative_error": comp.max,
        "care_residual": care.residual,
        "cost_lqr": hjbsolve.evaluate_cost(sys_obj, traj_lqr, cfg.lam),
        "config": cfg.resolved_dict(),
    }
    summary["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    write_json(summary_path, summary)
    logger.info("control error vs LQR: median %.3g, max %.3g", comp.median, comp.max)
    return out


def cmd_report(cfg: RunConfig) -> Path:
    """Summarize the artifacts of a run directory."""
    out = _outdir(cfg)
    lines = [f"run directory: {out}"]
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
    report = "\n".join(lines)
    print(report)
    (out / "report.txt").write_text(report + "\n")
    return out


# ---------------------------------------------------------------------------
# argument parsing

_COMMANDS = {
    "snapshots": cmd_snapshots,
    "basis": cmd_basis,
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "compare-lqr": cmd_compare_lqr,
    "report": cmd_report,
}


def _add_common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--test", choices=["test1", "test2", "custom"])
    p.add_argument("--outdir")
    p.add_argument("--N", type=int, dest="N")
    p.add_argument("--r", type=int)
    p.add_argument("--k-r", type=float, dest="k_r")
    p.add_argument("--h", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--T", type=float, dest="T")
    p.add_argument("--tau", type=float)
    p.add_argument("--t-e", type=float, dest="t_e")
    p.add_argument("--lam", type=float)
    p.add_argument("--control-count", type=int, dest="control_count")
    p.add_argument("--stop-tol", type=float, dest="stop_tol")
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--margin", type=float)
    p.add_argument("--clamp-policy", choices=["clamp", "reject"], dest="clamp_policy")
    p.add_argument("--guess-step", type=float, dest="guess_step")
    p.add_argument("--sample-hold", action="store_const", const=True, dest="sample_hold")
    p.add_argument("-v", "--verbose", action="store_true")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hjbpod",
        description="Reduced-order dynamic-programming feedback control pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        _add_common_options(sp)
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config", "verbose") and v is not None
    }
    try:
        cfg = load_config(args.config, overrides)
        _COMMANDS[args.command](cfg)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except HjbPodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
