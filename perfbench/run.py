"""Benchmark of the hjbpod pipeline, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload t2-ensemble --seed 1 --seconds 10 --trace 0

Workloads are defined in ``bench.py``.  With ``--trace 0`` the run reports
the end-to-end metrics declared in ``BENCHMARK.json``; with ``--trace 1`` a
separately traced run reports the per-layer metrics (``tracing.py``) and
writes its spans under ``perfbench/out``.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it print every metric with its unit, the run environment, and
for traced runs the self time per layer.  The exit code is 0 only when every
operation succeeded and every correctness check passed.

An untraced run pins itself to one CPU and runs the calibration kernel of
``calibration.py`` beside it on that CPU, so that every time it reports is
taken at the same reference speed however fast the shared host runs.
"""

from __future__ import annotations

import os
import sys

# Pin the BLAS, OpenMP and numba pools before numpy is imported: one thread
# gives a plain single-threaded baseline and the steadiest timings on a
# shared host.  The values are recorded with every run.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3  # taken before and again after the workload

# Units of the reported quantities that BENCHMARK.json does not declare
# because only some workloads have them.
EXTRA_UNITS = {
    "solve_wall_s": "s",
    "simulate_wall_s": "s",
    "setup_wall_s": "s",
    "lqr_ref_s": "s",
    "lqr_wall_s": "s",
    "calibration_samples": "count",
    "host_speed": "1",
    "closed_loop_cost": "cost",
    "cost_ratio_lqr": "1",
    "failed_frac": "1",
    "reference_s": "s",
    "reference_residual": "cost",
    "error_bound": "cost",
    "reduced.grow_to_invariant.s": "s",
    "lqr.solve_care.s": "s",
    "lqr.solve_care.newton_iters": "count",
    "lqr.simulate_lqr.s": "s",
}


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_environment() -> dict:
    import numpy
    import scipy

    from hjbpod import _accel

    return {
        "have_numba": bool(_accel.HAVE_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


def setup_samples() -> list:
    """Timings of importing hjbpod and warming its kernels, in SETUP_SAMPLES
    fresh interpreters."""
    from bench import Timing

    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "warm.py")],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(Timing(*map(float, proc.stdout.split()[-3:])))
    return samples


def backend_note(env: dict) -> str:
    """Flag a comparison with the recorded baseline when the backend differs."""
    path = HERE / "baseline.json"
    if not path.exists():
        return "no baseline recorded"
    base = json.loads(path.read_text())["env"]
    differs = [k for k in ("have_numba", "threads") if base.get(k) != env[k]]
    if differs:
        return (
            "WARNING: backend differs from the baseline in "
            + ", ".join(f"{k} ({base.get(k)} there, {env[k]} here)" for k in differs)
            + "; do not compare these numbers with it"
        )
    return "backend matches the baseline (numba and thread pinning)"


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hjbpod" / "__init__.py").is_file():
        print(f"error: no hjbpod sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import bench
    import calibration
    import hjbpod
    import tracing

    if Path(hjbpod.__file__).resolve().parent != SRC / "hjbpod":
        print(f"error: imported hjbpod from {hjbpod.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = bench.WORKLOADS[args.workload]

    env = run_environment()
    if args.trace:
        tracer = tracing.Tracer()
        result = bench.run_workload(wl, args.seed, args.seconds, OUT, tracer)
        kind = "per_layer"
        metrics, extras = tracing.layer_metrics(tracer, tracing.span_cost_s())
        untraced_s = result["extras"]["untraced_solve_s"]
        # Measured overhead: traced snapshots+solve over the best untraced pass.
        metrics["trace.solve_overhead_measured_frac"] = (
            metrics["trace.solve_s"] / untraced_s - 1.0 if untraced_s else float("nan")
        )
        extras["untraced_solve_s"] = untraced_s
        extras.update(tracing.self_time_summary(tracer.spans, wl.name))
        tracer.dump(OUT / f"{wl.name}-seed{args.seed}.spans.json.gz")
    else:
        # The calibration kernel must share this process's one CPU (the
        # set-up probes inherit it).  Set-up samples are taken on both sides
        # of the workload, so that one slow spell does not decide their median.
        affinity = os.sched_getaffinity(0)
        cpu = min(affinity)
        os.sched_setaffinity(0, {cpu})
        try:
            with calibration.Calibrator(cpu, OUT) as cal:
                setup = setup_samples()
                result = bench.run_workload(wl, args.seed, args.seconds, OUT)
                setup += setup_samples()
        finally:
            os.sched_setaffinity(0, affinity)

        def ref_seconds(t):
            return cal.ref_seconds(t.cpu, t.start, t.end)

        kind = "end_to_end"
        times, time_extras = bench.time_metrics(result["timings"], ref_seconds)
        metrics = {
            "setup_s": statistics.median(map(ref_seconds, setup)),
            **times,
            **result["metrics"],
        }
        extras = {**time_extras, **result["extras"]}
        extras["setup_wall_s"] = statistics.median(t.wall for t in setup)
        extras["calibration_samples"] = cal.samples
        extras["host_speed"] = cal.speed(setup[0].start, setup[-1].end)

    units = {m["name"]: m["unit"] for m in declared[kind]}
    missing = [name for name in units if name not in metrics]
    non_finite = [name for name in units if name in metrics and not math.isfinite(metrics[name])]
    problems = result["failures"] + [f"metric not measured: {n}" for n in missing + non_finite]
    if not result["reference_ok"]:
        problems.append("reference fixed point missed its residual tolerance")
    if args.trace:
        if extras["stressed_layer_has_largest_self_time"] is False:
            stressed = " + ".join(tracing.STRESSED[wl.name])
            problems.append(f"{stressed} does not hold the largest self time")
        coverage = metrics.get("trace.top_span_coverage", float("nan"))
        if not coverage >= tracing.MIN_TOP_SPAN_COVERAGE:
            problems.append(
                f"top-level spans cover {coverage:.3f} of a command's wall time,"
                f" below {tracing.MIN_TOP_SPAN_COVERAGE}"
            )
    correct = not problems

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(backend_note(env))
    print(f"{kind} metrics:")
    for name, unit in units.items():
        print(f"  {name:48s} {_fmt(metrics.get(name)):>14s} {unit}")
    print("other quantities:")
    for name, value in extras.items():
        if not isinstance(value, dict):
            print(f"  {name:48s} {_fmt(value):>14s} {EXTRA_UNITS.get(name, '')}")
    if args.trace:
        print("self time by span (s):")
        for name, value in list(extras["self_time_s"].items())[:10]:
            print(f"  {name:48s} {value:14.4f}")
    for problem in problems:
        print(f"FAILED: {problem}")

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": metrics,
        "extras": extras,
        "problems": problems,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {
            name: {"value": metrics[name] if math.isfinite(metrics[name]) else None, "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
