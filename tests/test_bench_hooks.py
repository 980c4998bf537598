"""The benchmark's hooks into the library still hold.

``perfbench/tracing.py`` patches library functions by name and reads
attributes of their results; ``perfbench/reference.py`` and
``perfbench/warm.py`` call library functions directly.  A rename or a
removed attribute breaks only the benchmark, which the other tests never
run.  This test runs the traced pipeline on a tiny test-2 config, on a tiny
invariant test-1 config (the path of ``ensure_invariant_grid``,
``grow_to_invariant`` and the warm start), on the real t1-invariant
workload with its two traced gates, and the set-up probe, and leaves every
file under ``perfbench/`` as it is.
"""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
# perfbench's own top-level modules; they are imported for this file only
_PERFBENCH_MODULES = ("bench", "reference", "tracing")


@pytest.fixture(scope="module")
def perfbench_modules():
    """``bench`` and ``tracing`` from ``perfbench/``, with ``perfbench/`` on
    ``sys.path`` only while they import; afterwards the path and the module
    cache are as they were, so no other test sees these names."""
    saved = {name: sys.modules.pop(name) for name in _PERFBENCH_MODULES if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        bench = importlib.import_module("bench")
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
    try:
        yield bench, tracing
    finally:
        for name in _PERFBENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


@pytest.mark.parametrize("test", ["test2", "test1"])
def test_traced_pipeline_emits_every_declared_layer_metric(tmp_path, perfbench_modules, test):
    bench, tracing = perfbench_modules
    if test == "test2":
        tiny, members = bench._config("test2", 2, 0.3, 0.03, 5, 1e-6, False), 1
    else:
        tiny = bench._config("test1", 2, 0.2, 0.02, 5, 5e-4, True, guess_step=0.1)
        members = 0
    # the benchmark's traced run: two untraced solve passes, then snapshots,
    # solve, simulate and (test2) compare-lqr under the tracer, then the
    # reference.  The stressed-layer rule is not checked: at this size it
    # does not hold.
    tracer = tracing.Tracer()
    try:
        result = bench.run_workload(
            bench.Workload("tiny", tiny, members=members), 3, 0.0, tmp_path, tracer
        )
    finally:
        tracer.uninstall()
    assert result["failures"] == []
    assert result["reference_ok"]
    metrics, _ = tracing.layer_metrics(tracer, tracing.span_cost_s(samples=1000))
    # run.py adds this one from the untraced passes
    metrics["trace.solve_overhead_measured_frac"] = (
        metrics["trace.solve_s"] / result["extras"]["untraced_solve_s"] - 1.0
    )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert all(math.isfinite(value) for value in metrics.values())
    # the work counters come from the patched library calls: a solve or a
    # simulation that stops calling them zeroes its counter
    assert metrics["hjbsolve.value_iteration.sweeps"] >= 1
    assert metrics["hjbsolve.value_iteration.s_per_sweep"] > 0
    # one stencil of r+1 = 3 vertices per node and each of the 5 controls
    assert metrics["hjbsolve.build_arrival_cache.entries"] == metrics["hjbgrid.grid.nodes"] * 5 * 3
    assert metrics["hjbsolve.FeedbackPolicy.calls"] > 0


def test_traced_t1_workload_passes_its_gates(tmp_path, perfbench_modules):
    # the traced benchmark run on the real t1-invariant workload fails on
    # either gate: the stressed layer must hold the largest self time and
    # the top-level spans must cover each command's wall time
    bench, tracing = perfbench_modules
    tracer = tracing.Tracer()
    try:
        result = bench.run_workload(bench.WORKLOADS["t1-invariant"], 1, 0.0, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert result["failures"] == []
    assert result["reference_ok"]
    summary = tracing.self_time_summary(tracer.spans, "t1-invariant")
    assert summary["stressed_layer_has_largest_self_time"] is True, summary["self_time_s"]
    metrics, _ = tracing.layer_metrics(tracer, tracing.span_cost_s(samples=1000))
    assert metrics["trace.top_span_coverage"] >= tracing.MIN_TOP_SPAN_COVERAGE


def test_warm_probe_runs():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "warm.py")], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
