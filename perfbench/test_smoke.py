"""Smoke test of the benchmark at tiny size (test2, r=2, coarse grid).

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import calibration  # noqa: E402
import numpy as np  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from hjbpod import cli  # noqa: E402

TINY = bench._config("test2", 2, 0.3, 0.03, 5, 1e-6, False)
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run_main(monkeypatch, capsys, config, trace):
    monkeypatch.setitem(bench.WORKLOADS, "tiny", bench.Workload("tiny", config, members=2))
    argv = ["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(monkeypatch, capsys, trace, kind):
    # At this size a command's fixed start-up cost (argument and config
    # parsing, logging) is a large share of its few milliseconds, so the
    # coverage floor set for the real workloads does not apply.
    monkeypatch.setattr(tracing, "MIN_TOP_SPAN_COVERAGE", 0.0)
    code, summary = _run_main(monkeypatch, capsys, TINY, trace)
    assert code == 0
    assert summary["correct"] is True
    assert summary["failed"] == 0
    # snapshots and solve MIN_SOLVE_PASSES times untraced, or once traced
    # after two untraced passes; then simulate and compare-lqr per member
    passes = 1 + 2 if trace else bench.MIN_SOLVE_PASSES
    assert summary["attempted"] == 2 * passes + 2 * 2
    assert sorted(summary["metrics"]) == sorted(m["name"] for m in DECLARED[kind])


def test_reference_meets_residual_tolerance(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    for command in ("snapshots", "solve"):
        assert cli.main([command, "--config", str(config), "--outdir", str(tmp_path)]) == 0
    ref = reference.solve_reference(tmp_path, TINY["r"])
    assert ref.residual <= reference.RESIDUAL_TOL
    assert ref.ok
    # the solved values stop short of the fixed point, within the reported bound
    assert 0.0 < ref.value_gap <= ref.error_bound


def test_forced_failure_counts_as_failed(monkeypatch, capsys):
    unconverged = {**TINY, "max_iters": 1}  # solve exits 3: value iteration unconverged
    code, summary = _run_main(monkeypatch, capsys, unconverged, 0)
    assert code != 0
    assert summary["correct"] is False
    assert summary["failed"] >= 1
    record = json.loads((run.OUT / "tiny-seed3-trace0.json").read_text())
    assert record["extras"]["failed_frac"] == summary["failed"] / summary["attempted"] > 0


def test_traced_run_fails_when_another_layer_dominates(monkeypatch, capsys):
    # pod.save_basis is a tiny layer, so it cannot hold the largest self time
    monkeypatch.setitem(tracing.STRESSED, "tiny", ("pod.save_basis",))
    monkeypatch.setattr(tracing, "MIN_TOP_SPAN_COVERAGE", 0.0)
    code, summary = _run_main(monkeypatch, capsys, TINY, 1)
    assert code != 0
    assert summary["correct"] is False
    assert summary["failed"] == 0  # every operation succeeded; the check failed


def test_traced_run_fails_below_top_span_coverage(monkeypatch, capsys):
    monkeypatch.setattr(tracing, "MIN_TOP_SPAN_COVERAGE", 1.01)
    code, summary = _run_main(monkeypatch, capsys, TINY, 1)
    assert code != 0
    assert summary["correct"] is False


def test_calibration_speed_follows_the_window(tmp_path):
    cal = calibration.Calibrator(0, tmp_path)
    ref = calibration.REF_ITER_S
    # kernel iterations ending at t = 0..99: reference speed, then half of it
    cal._end = np.arange(100.0)
    cal._cost = np.where(cal._end < 50, ref, 2 * ref)
    assert cal.speed(10, 40) == pytest.approx(1.0)
    assert cal.speed(60, 90) == pytest.approx(0.5)
    assert cal.ref_seconds(3.0, 60, 90) == pytest.approx(1.5)
    # a window with too few iterations is widened to MIN_SAMPLES of them
    assert cal.speed(20.2, 20.4) == pytest.approx(1.0)


def test_calibrator_stops_its_process(tmp_path):
    with calibration.Calibrator(min(os.sched_getaffinity(0)), tmp_path) as cal:
        proc = cal._proc
        time.sleep(2.0)  # long enough to import numpy and run MIN_SAMPLES iterations
    assert proc.poll() is not None
    assert cal.samples >= calibration.MIN_SAMPLES
    assert list(tmp_path.iterdir()) == []
