"""Workloads, operation accounting and end-to-end metrics of the benchmark.

A run drives the user path in-process, ``hjbpod.cli.main`` with
``snapshots -> solve -> simulate [-> compare-lqr]``, in a fresh run
directory.  Every time is taken by this file's clocks around ``cli.main``;
the ``timings`` block of ``meta_r*.json`` is never read.  Each command is
recorded as a :class:`Timing`; :func:`time_metrics` turns the timings into
the end-to-end times, at the reference speed of ``calibration.py`` for the
declared metrics and as wall time next to them.  After the timed
commands, a reference fixed point (``reference.py``) is computed and timed
on its own, to measure how far the solved values are from the discrete
fixed point.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter, process_time

import numpy as np
from scipy.special import ndtri

from hjbpod import cli, dynamics

import reference
import tracing

# Cap on per-state command runs in one run.
MAX_STATE_RUNS = 200
# Fewest one-off passes an untraced run times, so that the median of their
# times is not moved by one pass that ran long.
MIN_SOLVE_PASSES = 3


@dataclass(frozen=True)
class Timing:
    """One command: ``time.monotonic()`` at its start and end, and the CPU
    seconds the process used meanwhile."""

    start: float
    end: float
    cpu: float

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Workload:
    """Pinned pipeline settings, written as the run's ``--config`` file.

    ``members`` > 0 draws that many initial states from the seed; 0 uses
    the paper's ``y0`` and ignores the seed.
    """

    name: str
    config: dict
    members: int = 0


def _config(test, r, k_r, h, control_count, stop_tol, ensure_invariance, **extra):
    return dict(
        test=test,
        N=100,
        r=r,
        k_r=k_r,
        h=h,
        control_count=control_count,
        stop_tol=stop_tol,
        ensure_invariance=ensure_invariance,
        **extra,
    )


# Why these two: t1-invariant is the only nonlinear, invariant-box case and
# its solve is mostly warm start (cubic rollouts), value iteration stopping
# after one sweep; t2-ensemble solves by ~300 Jacobi sweeps over a clamped
# box, then spends most of its time in the per-point feedback law, LSODA and
# the LQR oracle, over seeded initial states.  t1-invariant keeps the
# paper's grid (4,095 nodes) but rolls the warm start out with steps of 0.02
# instead of h = 0.002: a solve then takes about 5 s rather than 30 s, so
# several solve passes fit in one run, while the one-sweep early stop and its
# distance from the fixed point stay as at h (value_gap 0.041).
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "t1-invariant",
            _config("test1", 4, 0.02, 0.002, 21, 5e-4, True, guess_step=0.02),
        ),
        Workload("t2-ensemble", _config("test2", 4, 0.1, 0.01, 11, 1e-6, False), members=16),
    )
}


def initial_states(wl: Workload, seed: int) -> list:
    """The run's initial states: ``[None]`` (the paper's y0) or seeded test2 members.

    A member is ``a*y0 + sum_{j<=3} c_j sin(j pi x / 2)`` with a ~ U(0.8, 1.2)
    and c_j ~ N(0, 0.05).  The K members are a Latin hypercube sample of
    (a, c_1, c_2, c_3), one draw per 1/K of each marginal, so that the
    ensemble median moves little from seed to seed.
    """
    if wl.members == 0:
        return [None]
    if wl.config["test"] != "test2":
        raise ValueError("seeded ensembles are defined for test2 only")
    n_cells = wl.config["N"]
    x = 2.0 / n_cells * np.arange(1, n_cells)
    modes = np.sin(np.outer(np.arange(1, 4), np.pi * x / 2.0))
    rng = np.random.default_rng(seed)
    k = wl.members
    u = np.stack([(rng.permutation(k) + rng.random(k)) / k for _ in range(4)], axis=1)
    a = 0.8 + 0.4 * u[:, 0]
    c = 0.05 * ndtri(u[:, 1:])
    y0 = dynamics.test2_initial_state(n_cells)
    return [(a[i] * y0 + c[i] @ modes).tolist() for i in range(k)]


def _all_finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class Run:
    """Runs CLI commands in one run directory and counts failed operations.

    An operation fails if its command exits nonzero or raises, or if the
    check on its outputs finds a problem.
    """

    def __init__(self, rundir: Path, tracer: tracing.Tracer | None = None):
        self.rundir = rundir
        self.attempted = 0
        self.failures: list[str] = []
        self._tracer = tracer

    def op(self, argv: list[str], check=None) -> tuple[Timing, object]:
        """Run one command; returns its timing and the check's result (None if failed)."""
        self.attempted += 1
        main = cli.main if self._tracer is None else self._tracer.span(f"cmd.{argv[0]}", cli.main)
        t0, c0 = monotonic(), process_time()
        try:
            rc = main(argv + ["--outdir", str(self.rundir)])
        except Exception:  # a crash is one failed operation; the run goes on
            rc = "exception: " + traceback.format_exc(limit=3).splitlines()[-1]
        timing = Timing(t0, monotonic(), process_time() - c0)
        if rc != 0:
            self.failures.append(f"{argv[0]}: exit {rc}")
            return timing, None
        if check is None:
            return timing, True
        problem, result = check()
        if problem:
            self.failures.append(f"{argv[0]}: {problem}")
            return timing, None
        return timing, result

    def read(self, name: str) -> dict:
        return json.loads((self.rundir / name).read_text())


def _check_solve(run: Run, wl: Workload):
    r = wl.config["r"]
    meta = run.read(f"meta_r{r}.json")
    with np.load(run.rundir / f"solve_r{r}.npz") as data:
        finite = bool(np.all(np.isfinite(data["values"])))
    if not finite:
        return "non-finite values", None
    if not meta["iteration"]["converged"]:
        return "value iteration not converged", None
    if wl.config["ensure_invariance"] and meta["invariance"]["violations"]:
        return f"{meta['invariance']['violations']} invariance violations", None
    return None, meta


def _check_member_output(payload: dict, y0) -> str | None:
    if y0 is not None and payload["config"]["y0"] != y0:
        return "output belongs to another initial state"
    return None


def _check_simulate(run: Run, wl: Workload, y0):
    sim = run.read(f"simulate_r{wl.config['r']}.json")
    costs = sim["costs"]
    if not _all_finite(costs["hjb"], costs["uncontrolled"]):
        return "non-finite cost", None
    if not costs["hjb"] < costs["uncontrolled"]:
        return "closed-loop cost not below uncontrolled", None
    return _check_member_output(sim, y0), (costs["hjb"], costs["uncontrolled"])


def _check_lqr(run: Run, wl: Workload, y0):
    entry = run.read("lqr_summary.json")[f"r{wl.config['r']}"]
    if not _all_finite(entry["cost_lqr"], entry["median_relative_error"]):
        return "non-finite LQR comparison", None
    return _check_member_output(entry, y0), entry["cost_lqr"]


def _median(values):
    return statistics.median(values) if values else float("nan")


def _state_gmean(timings_by_state, seconds):
    """Geometric mean over states of the median of each state's ``seconds(timing)``.

    States differ in how long they take, and the seed draws them anew; the
    geometric mean of a Latin-hypercube sample moves less from seed to seed
    than its median, and one state that ran long moves it little.
    """
    per_state = [_median([seconds(t) for t in ts]) for ts in timings_by_state if ts]
    return statistics.geometric_mean(per_state) if per_state else float("nan")


def time_metrics(timings: dict, ref_seconds) -> tuple[dict, dict]:
    """End-to-end times of a run, from its command timings.

    ``ref_seconds(timing)`` is a command's time at the reference speed;
    the declared metrics use it, and the extras give the same times as wall
    seconds.  ``solve_ref_s`` is the median over the one-off passes of
    snapshots plus solve; the per-state times are geometric means over
    states of each state's median.  Returns ``(metrics, extras)``.
    """
    wall = lambda t: t.wall  # noqa: E731
    solve = timings["solve"]
    lqr = timings["compare-lqr"]
    metrics = {
        "solve_ref_s": _median([sum(map(ref_seconds, p)) for p in solve]),
        "simulate_ref_s": _state_gmean(timings["simulate"], ref_seconds),
    }
    extras = {
        "solve_wall_s": _median([sum(map(wall, p)) for p in solve]),
        "simulate_wall_s": _state_gmean(timings["simulate"], wall),
        "lqr_ref_s": _state_gmean(lqr, ref_seconds) if any(lqr) else None,
        "lqr_wall_s": _state_gmean(lqr, wall) if any(lqr) else None,
        "passes": {
            "solve_ref_s": [sum(map(ref_seconds, p)) for p in solve],
            "solve_cpu_s": [sum(t.cpu for t in p) for p in solve],
            "solve_wall_s": [sum(map(wall, p)) for p in solve],
            "simulate_ref_s": [[ref_seconds(t) for t in ts] for ts in timings["simulate"]],
            "simulate_cpu_s": [[t.cpu for t in ts] for ts in timings["simulate"]],
        },
    }
    return metrics, extras


def run_workload(
    wl: Workload,
    seed: int,
    seconds: float,
    workdir: Path,
    tracer: tracing.Tracer | None = None,
) -> dict:
    """Run one workload; returns timings, metrics, failures and the reference check.

    The one-off commands (snapshots, solve) run once from an empty
    directory, then the per-state commands once for each of the workload's
    initial states; this first pass feeds the quality medians.  Untraced
    runs then repeat state passes, cycling through the states, and one-off
    passes, interleaved, until each has taken ``seconds`` of wall time and
    there have been MIN_SOLVE_PASSES one-off passes, so that short work is
    timed several times.  A traced run makes one traced pass of
    everything, which its layer totals and self times describe, after two
    untraced solve passes that measure the tracing overhead.  The timings
    of every command are returned under ``timings`` for :func:`time_metrics`.
    """
    rundir = workdir / f"run-{wl.name}-seed{seed}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        return _run_in(rundir, wl, seed, seconds, tracer)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _one_off(run: Run, wl: Workload, base: list[str]):
    """Snapshots and solve from an empty directory; returns ([timings], meta or None)."""
    shutil.rmtree(run.rundir, ignore_errors=True)
    run.rundir.mkdir()
    snapshots, _ = run.op(["snapshots"] + base)
    solve, meta = run.op(["solve"] + base, check=lambda: _check_solve(run, wl))
    return [snapshots, solve], meta


def _run_in(rundir, wl, seed, seconds, tracer):
    run = Run(rundir / "pipeline", tracer)
    r = wl.config["r"]
    is_lqr = wl.config["test"] == "test2"
    config = rundir / "config.json"
    config.write_text(json.dumps(wl.config))
    base = ["--config", str(config)]
    states = initial_states(wl, seed)
    sim_t = [[] for _ in states]
    lqr_t = [[] for _ in states]
    costs, cost_ratios, lqr_ratios = [], [], []

    def state_pass(i):
        """Simulate [and compare with LQR] state i; returns the seconds taken."""
        k = i % len(states)
        y0 = states[k]
        argv = base
        if y0 is not None:
            member = rundir / "member.json"
            member.write_text(json.dumps({**wl.config, "y0": y0}))
            argv = ["--config", str(member)]
        t0 = perf_counter()
        timing, cost = run.op(["simulate"] + argv, lambda: _check_simulate(run, wl, y0))
        sim_t[k].append(timing)
        if is_lqr:
            timing, cost_lqr = run.op(["compare-lqr"] + argv, lambda: _check_lqr(run, wl, y0))
            lqr_t[k].append(timing)
        if i < len(states) and cost is not None:
            cost_hjb, cost_unc = cost
            costs.append(cost_hjb)
            cost_ratios.append(cost_hjb / cost_unc)
            if is_lqr and cost_lqr is not None:
                lqr_ratios.append(cost_hjb / cost_lqr)
        return perf_counter() - t0

    untraced_solve_s = None
    if tracer is not None:
        # Untraced passes first: the traced pass's excess over the best of
        # them is the measured tracing overhead.  Two, because the first
        # call of a process also pays one-off costs such as lazy imports.
        plain = Run(run.rundir)
        untraced_solve_s = min(
            sum(t.wall for t in _one_off(plain, wl, base)[0]) for _ in range(2)
        )
        run.attempted += plain.attempted
        run.failures += plain.failures
        tracer.install()
    try:
        timings, meta = _one_off(run, wl, base)
        solve_t = [timings]
        state_time = 0.0
        i = 0
        while meta is not None and i < len(states):
            state_time += state_pass(i)
            i += 1
        # Untraced runs go on with state passes and solve passes until each
        # has had ``seconds``, interleaved so that the repetitions of both
        # are spread over the whole run rather than one slow spell.
        while tracer is None and meta is not None:
            states_left = state_time < seconds and i < MAX_STATE_RUNS
            solve_time = sum(t.wall for p in solve_t for t in p)
            solve_left = solve_time < seconds or len(solve_t) < MIN_SOLVE_PASSES
            if not (states_left or solve_left):
                break
            if states_left and (not solve_left or state_time <= solve_time):
                state_time += state_pass(i)
                i += 1
            else:
                timings, meta = _one_off(run, wl, base)
                solve_t.append(timings)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref = None
    reference_s = float("nan")
    if meta is not None:
        t0 = perf_counter()
        ref = reference.solve_reference(run.rundir, r)
        reference_s = perf_counter() - t0

    metrics = {
        "peak_rss_mb": peak_rss_mb,
        "value_gap": ref.value_gap if ref else float("nan"),
        "policy_mismatch_frac": ref.policy_mismatch_frac if ref else float("nan"),
        "closed_loop_cost_ratio": _median(cost_ratios),
    }
    extras = {
        "closed_loop_cost": _median(costs),
        "cost_ratio_lqr": _median(lqr_ratios) if is_lqr else None,
        "failed_frac": len(run.failures) / run.attempted,
        "solve_runs": len(solve_t),
        "untraced_solve_s": untraced_solve_s,
        "state_runs": sum(map(len, sim_t)),
        "distinct_states": len(states),
        "seed_used": wl.members > 0,
        "reference_s": reference_s,
        "reference_policy_updates": ref.policy_updates if ref else None,
        "reference_residual": ref.residual if ref else None,
        "error_bound": ref.error_bound if ref else None,
    }
    return {
        "timings": {"solve": solve_t, "simulate": sim_t, "compare-lqr": lqr_t},
        "metrics": metrics,
        "extras": extras,
        "attempted": run.attempted,
        "failures": run.failures,
        "reference_ok": bool(ref and ref.ok),
    }
