"""Spans around the pipeline's public calls, and the per-layer metrics derived from them.

The tracer patches, for the length of a traced run, the public functions of
each layer at the names their callers look up (``cli.aligned_grid``,
``hjbsolve.build_arrival_cache``, ``FeedbackPolicy.__call__``, ...).  Every
patched call records a span ``[name, start, end, parent, counts]`` in memory;
``counts`` holds work counters noted at the same boundary.  Nothing inside
``src/hjbpod`` is changed.

Spans of the one-off commands (``snapshots``, ``solve``) give totals; spans of
the per-state commands (``simulate``, ``compare-lqr``), run once per initial
state, give per-call medians over the states.

Which end-to-end metric each layer should move, and on which workload:

    pod.*                    solve_ref_s, slightly, on both workloads
    reduced.*                solve_ref_s on t1-invariant (cubic dynamics), not on test2
    hjbgrid.*                solve_ref_s on t1-invariant
    build_arrival_cache.*    solve_ref_s and peak_rss_mb on t2-ensemble
    initial_value_guess.*    solve_ref_s on t1-invariant
    value_iteration.*        solve_ref_s on t2-ensemble, value_gap on t1-invariant
    FeedbackPolicy.*,
    simulate_closed_loop.*   simulate_ref_s on both, most on t2-ensemble
    lqr.* (extras)           lqr_ref_s on t2-ensemble
    cli.write_*              solve_ref_s and simulate_ref_s on t2-ensemble
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import math
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from hjbpod import cli, dynamics, hjbsolve, lqr, pod, reduced

ONCE_COMMANDS = ("cmd.snapshots", "cmd.solve")

# Least share of each command's wall time its direct child spans must cover;
# a traced run fails below it.
MIN_TOP_SPAN_COVERAGE = 0.9

# Which span names must hold the largest self time on each workload (the
# layer the workload was chosen to stress); a traced run fails otherwise.
STRESSED = {
    "t1-invariant": ("hjbsolve.initial_value_guess",),
    "t2-ensemble": ("hjbsolve.FeedbackPolicy", "hjbsolve.simulate_closed_loop"),
}


def _note(rec, **counts):
    if rec[4] is None:
        rec[4] = {}
    for key, value in counts.items():
        rec[4][key] = rec[4].get(key, 0) + value


def _file_bytes(rec, args, kwargs, out):
    _note(rec, bytes=Path(args[0]).stat().st_size)


def _rows(rec, args, kwargs, out):
    _note(rec, rows=len(args[1]))


def _points(rec, args, kwargs, out):
    _note(rec, points=len(out[0]))


def _grid_nodes(rec, args, kwargs, out):
    _note(rec, nodes=out.node_count)


def _basis_modes(rec, args, kwargs, out):
    _note(rec, modes=out.d)


def _cache_stats(rec, args, kwargs, out):
    inv = out.invariance
    _note(
        rec,
        entries=out.indices.size,
        bytes=out.indices.nbytes + out.weights.nbytes + out.stage_cost.nbytes,
        clamp_frac=inv.violations / inv.checked if inv.checked else 0.0,
    )


def _rollout_steps(rec, args, kwargs, out):
    grid, _, guess_controls, _, h, t_e = args[:6]
    steps = math.ceil(t_e / h - 1e-12)
    _note(rec, rollout_steps=grid.node_count * len(list(guess_controls)) * steps)


def _iteration_stats(rec, args, kwargs, out):
    vf, _ = out
    cache = args[0]
    nc, nu, s = cache.indices.shape
    # Bytes one Jacobi sweep must touch, computed from array sizes: the
    # stencil indices (int32) and weights, the stage costs, the gathered and
    # written nodal values and the argmin.
    _note(
        rec,
        nodes=nc,
        bytes_per_sweep=nc * nu * s * (4 + 8) + nc * nu * 8 + nc * (8 + 8 + 4),
        final_residual=vf.final_residual,
        error_bound=vf.error_bound,
        last_argmin_changes=int(vf.argmin_change_history[-1]),
    )


def _newton_iters(rec, args, kwargs, out):
    _note(rec, newton_iters=len(out.residual_history))


class Tracer:
    """In-memory spans around patched calls; install, run, uninstall, dump."""

    def __init__(self):
        self.spans: list[list] = []
        self.count_events = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(rec, args, kwargs, out)
            return out

        return wrapper

    def count(self, key, n=1):
        """Add ``n`` to counter ``key`` of the innermost open span."""
        self.count_events += 1
        if self._stack:
            _note(self.spans[self._stack[-1]], **{key: n})

    def _counted(self, fn, key):
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _timed_count(self, fn, key):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.count(key)
                self.count(key + "_s", perf_counter() - t0)

        return wrapper

    def _counting_system(self, sys_obj):
        jac = sys_obj.jacobian
        return dataclasses.replace(
            sys_obj,
            rhs=self._counted(sys_obj.rhs, "rhs_evals"),
            jacobian=None if jac is None else self._counted(jac, "jac_evals"),
        )

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_span(self, owner, attr, name, after=None):
        self._patch(owner, attr, self.span(name, getattr(owner, attr), after))

    def install(self) -> None:
        """Patch every traced name; :meth:`uninstall` restores the originals."""
        p = self._patch_span
        p(pod, "generate_snapshots", "pod.generate_snapshots")
        p(pod, "compute_basis", "pod.compute_basis", _basis_modes)
        for attr in ("save_snapshots", "load_snapshots", "save_basis", "load_basis"):
            p(pod, attr, f"pod.{attr}")
        p(reduced, "build_domain", "reduced.build_domain")
        p(reduced, "grow_to_invariant", "reduced.grow_to_invariant")
        p(reduced.ReducedSystem, "rhs_batch", "reduced.rhs_batch", _rows)
        p(cli, "aligned_grid", "hjbgrid.aligned_grid", _grid_nodes)
        p(cli, "ensure_invariant_grid", "hjbgrid.ensure_invariant_grid", _grid_nodes)
        p(hjbsolve, "stencil_batch", "hjbgrid.stencil_batch", _points)
        p(hjbsolve, "build_arrival_cache", "hjbsolve.build_arrival_cache", _cache_stats)
        p(hjbsolve, "initial_value_guess", "hjbsolve.initial_value_guess", _rollout_steps)
        p(hjbsolve, "value_iteration", "hjbsolve.value_iteration", _iteration_stats)
        self._patch(hjbsolve, "sweep_once", self._timed_count(hjbsolve.sweep_once, "sweeps"))
        p(hjbsolve.FeedbackPolicy, "__call__", "hjbsolve.FeedbackPolicy")
        p(hjbsolve, "simulate_closed_loop", "hjbsolve.simulate_closed_loop")
        p(hjbsolve, "evaluate_cost", "hjbsolve.evaluate_cost")
        p(lqr, "linear_quadratic_data", "lqr.linear_quadratic_data")
        p(lqr, "solve_care", "lqr.solve_care", _newton_iters)
        p(lqr, "simulate_lqr", "lqr.simulate_lqr")
        p(lqr, "compare_controls", "lqr.compare_controls")
        load_system = dynamics.load_system
        self._patch(
            dynamics,
            "load_system",
            self.span("dynamics.load_system", lambda cfg: self._counting_system(load_system(cfg))),
        )
        p(dynamics, "integrate", "dynamics.integrate")
        p(dynamics, "write_trajectory_csv", "cli.write_trajectory_csv")
        p(cli, "write_csv", "cli.write_csv", _file_bytes)
        p(cli, "write_json", "cli.write_json")
        # cli calls these numpy functions through the module attribute.
        p(np, "savez_compressed", "numpy.savez_compressed")
        p(np, "loadtxt", "numpy.loadtxt")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped JSON: ``{"spans": [[name, start, end, parent, counts]]}``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"spans": self.spans}, fh)


def span_cost_s(samples: int = 20_000) -> float:
    """Measured cost of one span on this machine, net of the bare call."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.span("noop", noop)
    t0 = perf_counter()
    for _ in range(samples):
        noop()
    bare = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(samples):
        wrapped()
    return max(0.0, (perf_counter() - t0 - bare) / samples)


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - child[i]
    return dict(out)


def self_time_summary(spans, workload: str) -> dict:
    """Self time per span name, largest first, and whether the layer the
    workload was chosen to stress holds the largest of them (None for a
    workload that names no stressed layer)."""
    layers = [(k, v) for k, v in self_times(spans).items() if not k.startswith("cmd.")]
    ranked = dict(sorted(layers, key=lambda kv: kv[1], reverse=True))
    stressed = STRESSED.get(workload)
    largest = None
    if stressed:
        others = [v for k, v in ranked.items() if k not in stressed]
        largest = sum(ranked.get(k, 0.0) for k in stressed) > max(others, default=0.0)
    return {"stressed_layer_has_largest_self_time": largest, "self_time_s": ranked}


def layer_metrics(tracer: Tracer, span_cost: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, plus run-specific extras.

    Returns ``(metrics, extras)``: ``metrics`` has one value per declared
    per-layer metric, ``extras`` the layers only some workloads exercise.
    """
    spans = tracer.spans
    roots = []
    for rec in spans:
        roots.append(len(roots) if rec[3] < 0 else roots[rec[3]])
    once = [spans[root][0] in ONCE_COMMANDS for root in roots]

    groups = defaultdict(list)
    for rec, one_off in zip(spans, once):
        groups[rec[0], one_off].append(rec)

    def pick(name, one_off):
        return groups[name, one_off]

    def total(name, key=None):
        recs = pick(name, True)
        if key is None:
            return sum(rec[2] - rec[1] for rec in recs)
        return sum((rec[4] or {}).get(key, 0) for rec in recs)

    def last(name, key):
        recs = pick(name, True)
        return (recs[-1][4] or {}).get(key, 0) if recs else 0

    def per_call(name, key=None):
        recs = pick(name, False)
        if not recs:
            return 0.0
        if key is None:
            return statistics.median(rec[2] - rec[1] for rec in recs)
        return statistics.median((rec[4] or {}).get(key, 0) for rec in recs)

    m = {}
    m["pod.generate_snapshots.s"] = total("pod.generate_snapshots")
    m["pod.generate_snapshots.rhs_evals"] = total("pod.generate_snapshots", "rhs_evals")
    m["pod.compute_basis.s"] = total("pod.compute_basis")
    m["pod.compute_basis.modes"] = last("pod.compute_basis", "modes")
    m["reduced.domain.s"] = total("reduced.build_domain") + total("reduced.grow_to_invariant")
    m["reduced.rhs_batch.calls"] = len(pick("reduced.rhs_batch", True))
    m["reduced.rhs_batch.rows"] = total("reduced.rhs_batch", "rows")
    m["reduced.rhs_batch.s"] = total("reduced.rhs_batch")
    grids = ("hjbgrid.aligned_grid", "hjbgrid.ensure_invariant_grid")
    m["hjbgrid.grid.s"] = sum(total(g) for g in grids)
    m["hjbgrid.grid.nodes"] = sum(last(g, "nodes") for g in grids)
    m["hjbgrid.stencil_batch.calls"] = len(pick("hjbgrid.stencil_batch", True))
    m["hjbgrid.stencil_batch.points"] = total("hjbgrid.stencil_batch", "points")
    m["hjbgrid.stencil_batch.s"] = total("hjbgrid.stencil_batch")
    cache = "hjbsolve.build_arrival_cache"
    m[f"{cache}.s"] = total(cache)
    for key in ("entries", "bytes", "clamp_frac"):
        m[f"{cache}.{key}"] = last(cache, key)
    guess = "hjbsolve.initial_value_guess"
    m[f"{guess}.s"] = total(guess)
    m[f"{guess}.rollout_steps"] = total(guess, "rollout_steps")
    vi = "hjbsolve.value_iteration"
    vi_s = total(vi)
    sweeps = total(vi, "sweeps")
    m[f"{vi}.s"] = vi_s
    m[f"{vi}.sweeps"] = sweeps
    m[f"{vi}.s_per_sweep"] = total(vi, "sweeps_s") / sweeps if sweeps else 0.0
    m[f"{vi}.node_updates_per_s"] = sweeps * last(vi, "nodes") / vi_s if vi_s else 0.0
    for key in ("bytes_per_sweep", "final_residual", "error_bound", "last_argmin_changes"):
        m[f"{vi}.{key}"] = last(vi, key)

    fp_us = [1e6 * (rec[2] - rec[1]) for rec in spans if rec[0] == "hjbsolve.FeedbackPolicy"]
    sims = [i for i, rec in enumerate(spans) if rec[0] == "hjbsolve.simulate_closed_loop"]
    fp_per_sim = Counter(rec[3] for rec in spans if rec[0] == "hjbsolve.FeedbackPolicy")
    calls = [fp_per_sim[i] for i in sims]
    rhs = [(spans[i][4] or {}).get("rhs_evals", 0) for i in sims]
    m["hjbsolve.FeedbackPolicy.calls"] = statistics.median(calls) if calls else 0
    m["hjbsolve.FeedbackPolicy.p50_us"] = float(np.percentile(fp_us, 50)) if fp_us else 0.0
    m["hjbsolve.FeedbackPolicy.p99_us"] = float(np.percentile(fp_us, 99)) if fp_us else 0.0
    m["hjbsolve.simulate_closed_loop.s"] = per_call("hjbsolve.simulate_closed_loop")
    m["hjbsolve.simulate_closed_loop.rhs_evals"] = per_call(
        "hjbsolve.simulate_closed_loop", "rhs_evals"
    )
    m["hjbsolve.simulate_closed_loop.feedback_per_rhs"] = sum(calls) / sum(rhs) if sum(rhs) else 0.0
    m["cli.write_csv.s"] = total("cli.write_csv")
    m["cli.write_csv.bytes"] = total("cli.write_csv", "bytes")
    m["cli.write_trajectory_csv.s"] = per_call("cli.write_trajectory_csv")
    m["cli.write_json.s"] = total("cli.write_json")

    commands = [i for i, rec in enumerate(spans) if rec[3] < 0]
    covered = Counter()
    for start, end, parent in ((rec[1], rec[2], rec[3]) for rec in spans):
        if parent >= 0 and spans[parent][3] < 0:
            covered[parent] += end - start
    coverage = defaultdict(list)
    for i in commands:
        name, start, end = spans[i][:3]
        coverage[name].append(covered[i] / (end - start))
    wall = sum(spans[i][2] - spans[i][1] for i in commands)
    m["trace.spans"] = len(spans)
    m["trace.overhead_frac"] = (len(spans) + tracer.count_events) * span_cost / wall
    m["trace.top_span_coverage"] = min(min(v) for v in coverage.values())
    m["trace.solve_s"] = sum(
        spans[i][2] - spans[i][1] for i in commands if spans[i][0] in ONCE_COMMANDS
    )

    # Layers only some workloads exercise; None where this one does not.
    extras = {
        "reduced.grow_to_invariant.s": total("reduced.grow_to_invariant") or None,
        "lqr.solve_care.s": per_call("lqr.solve_care") or None,
        "lqr.solve_care.newton_iters": per_call("lqr.solve_care", "newton_iters") or None,
        "lqr.simulate_lqr.s": per_call("lqr.simulate_lqr") or None,
        "trace.coverage_by_command": {k: min(v) for k, v in coverage.items()},
        "trace.span_cost_us": 1e6 * span_cost,
    }
    return m, extras
