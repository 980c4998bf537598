import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hjbpod import cli, hjbsolve, lqr
from hjbpod.errors import ValidationError
from hjbpod.hjbgrid import aligned_grid
from hjbpod.reduced import Hyperbox


def tiny_config(outdir, **extra):
    """A seconds-scale test-1 pipeline configuration."""
    cfg = dict(
        test="test1",
        N=12,
        snapshot_controls=(-1.0, 0.0, 1.0),
        dt=0.25,
        T=1.0,
        r=2,
        k_r=0.25,
        lam=1.0,
        t_e=1.0,
        control_count=5,
        stop_tol=1e-4,
        rel_tol=1e-10,
        abs_tol=1e-10,
        ensure_invariance=True,
        outdir=str(outdir),
    )
    cfg.update(extra)
    return cli.RunConfig(**cfg)


class TestConfig:
    def test_defaults_per_test(self):
        cfg = cli.load_config(None, {"test": "test2"})
        assert cfg.control_count == 11
        assert cfg.quotient_at_zero is True
        assert cfg.ensure_invariance is False
        assert cfg.stop_tol == 1e-6
        cfg = cli.load_config(None, {"test": "test1"})
        assert cfg.snapshot_controls == (-1.0, 0.0, 1.0)
        assert (cfg.k_r, cfg.control_count, cfg.stop_tol) == (0.02, 21, 5e-4)
        assert cfg.quotient_at_zero is True and cfg.ensure_invariance is True

    def test_resolved_derived_values(self):
        cfg = cli.load_config(None, {"test": "test1"})
        assert cfg.h == pytest.approx(0.1 * cfg.k_r)
        assert cfg.tau == cfg.T
        assert cfg.guess_step == cfg.h
        assert cli.load_config(None, {"test": "test1", "h": 0.005}).guess_step == 0.005

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"test": "test1", "N": 40, "r": 3}))
        cfg = cli.load_config(str(path), {"r": 2})
        assert cfg.N == 40 and cfg.r == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"test": "test1", "bogus": 1}))
        with pytest.raises(ValidationError):
            cli.load_config(str(path), {})

    def test_degenerate_horizon_rejected(self):
        with pytest.raises(ValidationError):
            cli.load_config(None, {"test": "test1", "T": 0.0})

    @pytest.mark.parametrize(
        "key, value", [("r", "4"), ("y0", 5), ("control_count", 11.5), ("ensure_invariance", 1)]
    )
    def test_value_of_wrong_kind_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"test": "test2", key: value}))
        out = tmp_path / "out"
        assert cli.main(["snapshots", "--config", str(path), "--outdir", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text", ["[1, 2]", '{"test": ["test2"]}', '{"test": "test2", "r":', None],
        ids=["not-an-object", "test-not-a-str", "truncated", "missing"],
    )
    def test_unreadable_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["snapshots", "--config", str(path), "--outdir", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lam", 0.0), ("lam", -1.0), ("control_count", 0), ("control_count", -1),
            ("max_iters", 0), ("h", 0.0), ("h", -0.1), ("guess_step", 0.0), ("guess_step", -1.0),
        ],
    )
    def test_nonpositive_value_rejected(self, key, value):
        with pytest.raises(ValidationError, match=f"^{key} must be positive"):
            cli.load_config(None, {"test": "test1", key: value})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("tau", -1.0, "tau must be positive"),
            ("rel_tol", 0.0, "rel_tol must be positive"),
            ("abs_tol", -1e-12, "abs_tol must be positive"),
            ("cache_budget", 0, "cache_budget must be positive"),
            ("margin", -0.1, "margin must be nonnegative"),
            ("snapshot_controls", [], "snapshot_controls must hold at least one control"),
            ("control_box", [-2.2], "control_box must be two numbers"),
            ("control_box", [-2.2, 0.0, 1.0], "control_box must be two numbers"),
            ("test", "bogus", "test must be one of ('test1', 'test2', 'custom')"),
            ("clamp_policy", "bogus", "clamp_policy must be one of ('clamp', 'reject')"),
            ("cache_budget", 2**31, "cache_budget must be at most 2147483647"),
        ],
    )
    def test_out_of_range_value_exits_2_before_any_work(
        self, tmp_path, capsys, key, value, message
    ):
        # a config file's value and a flag's pass the same checks, before
        # snapshots integrates anything or creates the run directory
        out = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"test": "test2", key: value}))
        runs = [["--config", str(path)]]
        if key in cli._FLAGS:
            runs.append(["--test", "test2", "--" + key.replace("_", "-"), str(value)])
        for argv in runs:
            assert cli.main(["snapshots", "--outdir", str(out)] + argv) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_out_of_range_value_exits_2(self, tmp_path, capsys):
        # rejected with the configuration, before the command reads or writes
        argv = ["solve", "--test", "test2", "--outdir", str(tmp_path), "--control-count", "-1"]
        assert cli.main(argv) == 2
        assert "control_count must be positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_run")
    cfg = tiny_config(out)
    cli.cmd_snapshots(cfg)
    cli.cmd_solve(cfg)
    cli.cmd_simulate(cfg)
    return out, cfg


class TestPipeline:
    def test_artifacts_exist(self, run_dir):
        out, cfg = run_dir
        for name in (
            "snapshots.npz",
            "basis.npz",
            "spectrum.csv",
            "solve_r2.npz",
            "meta_r2.json",
            "trajectory_hjb_r2.csv",
            "trajectory_unc.csv",
            "simulate_r2.json",
        ):
            assert (out / name).exists(), name

    def test_meta_contents(self, run_dir):
        out, _ = run_dir
        with open(out / "meta_r2.json") as fh:
            meta = json.load(fh)
        assert meta["iteration"]["converged"] is True
        assert meta["invariance"]["violations"] == 0
        assert meta["basis"]["eigval_tail"] >= 0.0
        assert meta["config"]["h"] == pytest.approx(0.025)

    def test_npz_keeps_the_iteration_histories(self, tmp_path, monkeypatch):
        solved, solve = [], hjbsolve.value_iteration

        def value_iteration(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(cli.hjbsolve, "value_iteration", value_iteration)
        cfg = tiny_config(tmp_path)
        cli.cmd_snapshots(cfg)
        cli.cmd_solve(cfg)
        ((vf, _),) = solved
        with np.load(tmp_path / "solve_r2.npz") as data:
            np.testing.assert_array_equal(data["residual_history"], vf.residual_history)
            np.testing.assert_array_equal(data["argmin_change_history"], vf.argmin_change_history)
            assert data["argmin_change_history"].dtype == np.int64
        assert vf.residual_history.size == vf.iterations > 1

    def test_simulation_costs_recorded(self, run_dir):
        out, _ = run_dir
        with open(out / "simulate_r2.json") as fh:
            sim = json.load(fh)
        assert sim["costs"]["hjb"] < sim["costs"]["uncontrolled"]

    def test_report_runs(self, run_dir, capsys):
        out, cfg = run_dir
        cli.cmd_report(cfg)
        captured = capsys.readouterr()
        assert "meta_r2.json" in captured.out

    def test_meta_records_the_thread_variables(self, run_dir, monkeypatch):
        # the POD basis depends on the BLAS thread count
        out, cfg = run_dir
        for name in ("snapshots_meta.json", "meta_r2.json", "simulate_r2.json"):
            stored = json.loads((out / name).read_text())["thread_env"]
            assert set(stored) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert cli._meta_skeleton(cfg)["thread_env"] == {
            "OMP_NUM_THREADS": "2",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": None,
        }

    def test_rank_too_large(self, run_dir):
        out, cfg = run_dir
        cfg_bad = tiny_config(out, r=12)
        with pytest.raises(ValidationError, match="basis dimension"):
            cli.cmd_solve(cfg_bad)


def test_byte_identical_reproducibility(tmp_path, compare_runs):
    # identical numbers in every artifact; the JSON files differ only in
    # the comparator's volatile keys (time stamps, timings, the outdir), and
    # report.txt, which does not name its directory, byte for byte
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        cfg = tiny_config(out)
        cli.cmd_snapshots(cfg)
        cli.cmd_solve(cfg)
        cli.cmd_report(cfg)
    assert (out_a / "report.txt").exists()
    assert compare_runs.compare_runs(out_a, out_b) == {}


# Tolerance of the 1-versus-2 BLAS thread comparison.  Measured on a 2-core
# host (OpenBLAS 0.3.31): the two runs agree bit for bit.  Other BLAS kernels
# (OPENBLAS_CORETYPE=Prescott or Sandybridge, at one thread) move the
# basis's trailing modes by up to 6.1e-10 and every other number by at most
# 1.6e-13; atol leaves a margin of 16 over the larger.
THREADS_ATOL = 1e-8


def test_one_and_two_blas_threads_agree(tmp_path, compare_runs):
    # snapshots -> solve -> simulate -> compare-lqr in a fresh process per
    # thread count, since the BLAS reads the variables when it loads
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(small_test2_config("unused"))))
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (
        "import sys\nfrom hjbpod.cli import main\n"
        "for command in ('snapshots', 'solve', 'simulate', 'compare-lqr'):\n"
        "    assert main([command, '--config', sys.argv[1], '--outdir', sys.argv[2]]) == 0\n"
    )
    runs = []
    for threads in ("1", "2"):
        paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        env.update(dict.fromkeys(cli._THREAD_VARIABLES, threads))
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-c", script, str(path), str(out)], env=env, check=True)
        # the runs record their thread variables, and the basis hash names
        # the exact basis, whose numbers basis.npz holds
        for name in ("snapshots_meta.json", "meta_r2.json", "simulate_r2.json"):
            meta = json.loads((out / name).read_text())
            assert meta.pop("thread_env") == dict.fromkeys(cli._THREAD_VARIABLES, threads)
            meta.get("basis", {}).pop("sha256", None)
            (out / name).write_text(json.dumps(meta))
        runs.append(out)
    assert compare_runs.compare_runs(*runs, atol=THREADS_ATOL) == {}
    with np.load(runs[0] / "solve_r2.npz") as a, np.load(runs[1] / "solve_r2.npz") as b:
        np.testing.assert_array_equal(a["controls"], b["controls"])


def make_custom_system(config):
    """Factory used by the custom-system CLI test (importable by path)."""
    import numpy as np

    import hjbpod as hp

    n = int(config.get("N", 4)) - 1
    A = -np.eye(n)
    b = np.ones(n)
    return hp.ControlledSystem(
        n=n,
        rhs=lambda y, u: A @ y + u * b,
        running_cost=lambda y, u: float(y @ y + 0.01 * u * u),
        weight=np.ones(n),
        control_box=(-1.0, 1.0),
        label="custom-decay",
        rhs_batch=lambda Y, u: np.asarray(Y, dtype=float) @ A.T + u * b,
        structure=hp.SystemStructure(
            linear=A, control_gain=b, nonlinearity=None, quadratic_cost_control_weight=0.01
        ),
    )


def make_nan_system(config):
    """``make_custom_system`` with a rhs that is NaN wherever some |y_i| > 1.

    Its snapshot trajectories keep every |y_i| <= 1, where the rhs is finite;
    corners of the grid box around them lift beyond it."""
    return _non_finite_beyond_one(config, float("nan"))


def make_inf_system(config):
    """``make_nan_system`` with inf in place of NaN."""
    return _non_finite_beyond_one(config, float("inf"))


def _non_finite_beyond_one(config, bad):
    import dataclasses

    import numpy as np

    system = make_custom_system(config)

    def rhs_batch(Y, u):
        F = system.rhs_batch(Y, u)
        F[np.abs(Y).max(axis=1) > 1.0] = bad
        return F

    return dataclasses.replace(
        system, rhs=lambda y, u: rhs_batch(y[None], u)[0], rhs_batch=rhs_batch, structure=None
    )


def test_grid_payload_round_trip(tmp_path):
    # simulate must interpolate on the grid the table was solved on, bit for
    # bit: an edge recomputed as width / cells can differ in the last place
    rng = np.random.default_rng(7)
    path = tmp_path / "grid.json"
    for _ in range(10):
        lower = rng.uniform(-2.0, 0.0, size=3)
        grid = aligned_grid(Hyperbox(lower, lower + rng.uniform(0.5, 3.0, size=3)), 0.3)
        cli.write_json(path, cli._grid_payload(grid))
        loaded = cli._grid_from_payload(json.loads(path.read_text()))
        np.testing.assert_array_equal(loaded.box.lower, grid.box.lower)
        np.testing.assert_array_equal(loaded.box.upper, grid.box.upper)
        np.testing.assert_array_equal(loaded.cells_per_axis, grid.cells_per_axis)
        np.testing.assert_array_equal(loaded.edge, grid.edge)
        assert loaded.node_count == grid.node_count
        assert loaded.k_r == grid.k_r


def test_custom_system_pipeline(tmp_path):
    cfg = cli.RunConfig(
        test="custom",
        factory="test_cli:make_custom_system",
        N=4,
        y0=(1.0, 0.5, -0.25),
        snapshot_controls=(-1.0, 0.0, 1.0),
        dt=0.25,
        T=1.0,
        r=2,
        k_r=0.4,
        t_e=1.0,
        control_count=3,
        stop_tol=1e-4,
        rel_tol=1e-10,
        abs_tol=1e-10,
        outdir=str(tmp_path),
    )
    cli.cmd_snapshots(cfg)
    cli.cmd_solve(cfg)
    cli.cmd_simulate(cfg)
    assert (tmp_path / "solve_r2.npz").exists()
    with open(tmp_path / "simulate_r2.json") as fh:
        sim = json.load(fh)
    assert sim["costs"]["hjb"] <= sim["costs"]["uncontrolled"] + 1e-12


def small_test2_config(outdir, **extra):
    """A seconds-scale test-2 pipeline configuration."""
    return cli.RunConfig(
        test="test2",
        N=24,
        snapshot_controls=(-2.2, -1.1, 0.0),
        dt=0.25,
        T=1.0,
        r=2,
        k_r=0.3,
        lam=1.0,
        t_e=1.0,
        control_count=5,
        stop_tol=1e-5,
        rel_tol=1e-10,
        abs_tol=1e-10,
        quotient_at_zero=True,
        outdir=str(outdir),
        **extra,
    )


def test_compare_lqr_small_test2(tmp_path):
    cfg = small_test2_config(tmp_path)
    cli.cmd_snapshots(cfg)
    cli.cmd_solve(cfg)
    cli.cmd_compare_lqr(cfg)
    assert (tmp_path / "control_error_r2.csv").exists()
    # the state difference is trajectory_hjb_r2.csv minus trajectory_lqr.csv
    assert not (tmp_path / "state_diff_r2.csv").exists()
    with open(tmp_path / "lqr_summary.json") as fh:
        summary = json.load(fh)
    entry = summary["r2"]
    assert entry["care_residual"] < 1e-8
    assert np.isfinite(entry["median_relative_error"])
    data = np.loadtxt(tmp_path / "control_error_r2.csv", delimiter=",", skiprows=1)
    assert data.shape[1] == 4


def test_a_run_writes_each_result_once(tmp_path):
    # the run directory holds exactly the documented files: the solved table
    # only in solve_r2.npz, and no state difference (trajectory_hjb_r2.csv
    # minus trajectory_lqr.csv)
    cfg = small_test2_config(tmp_path)
    for command in (cli.cmd_snapshots, cli.cmd_solve, cli.cmd_simulate, cli.cmd_compare_lqr):
        command(cfg)
    assert {p.name for p in tmp_path.iterdir()} == {
        "snapshots.npz", "basis.npz", "snapshots_meta.json", "spectrum.csv",
        "solve_r2.npz", "meta_r2.json",
        "trajectory_hjb_r2.csv", "trajectory_unc.csv", "simulate_r2.json",
        "care.npz", "trajectory_lqr.csv", "control_error_r2.csv", "lqr_summary.json",
    }
    meta = json.loads((tmp_path / "meta_r2.json").read_text())
    assert "control_set" not in meta
    assert set(meta["csv_schemas"]) == {
        "spectrum.csv", "trajectory_*.csv", "control_error_r{r}.csv"
    }
    # the README's recipe for node i's lattice index and coordinates
    grid = meta["grid"]
    index = np.stack(
        np.unravel_index(np.arange(grid["node_count"]), np.add(grid["cells_per_axis"], 1)), axis=1
    )
    nodes = cli._grid_from_payload(grid).all_nodes()
    np.testing.assert_array_equal(grid["lower"] + index * np.array(grid["edge"]), nodes)


def test_compare_lqr_resimulates_under_its_own_config(tmp_path):
    # A trajectory left by simulate under another config (initial state or
    # horizon) must not be compared with this config's LQR run.
    cfg = small_test2_config(tmp_path)
    cli.cmd_snapshots(cfg)
    cli.cmd_solve(cfg)
    cli.cmd_simulate(cfg)
    cli.cmd_compare_lqr(cfg)
    expected = (tmp_path / "control_error_r2.csv").read_bytes()
    y0 = cfg.initial_state(cfg.system())
    for stale in (
        dataclasses.replace(cfg, y0=tuple(0.5 * y0)),
        dataclasses.replace(cfg, t_e=0.5),
    ):
        cli.cmd_simulate(stale)
        cli.cmd_compare_lqr(cfg)
        assert (tmp_path / "control_error_r2.csv").read_bytes() == expected
        with open(tmp_path / "simulate_r2.json") as fh:
            assert json.load(fh)["config"]["t_e"] == cfg.t_e


def test_compare_lqr_solves_care_once_per_system_and_discount(tmp_path, monkeypatch):
    # The Riccati solution depends on the system and lam, not on y0: a
    # second compare-lqr from another initial state reuses care.npz, one
    # under another discount solves again, and a reused solution gives the
    # same outputs as a fresh one.
    cfg = small_test2_config(tmp_path)
    cli.cmd_snapshots(cfg)
    cli.cmd_solve(cfg)
    solved = []
    solve_care = lqr.solve_care

    def counting(*args, **kwargs):
        solved.append(kwargs["lam"])
        return solve_care(*args, **kwargs)

    monkeypatch.setattr(lqr, "solve_care", counting)

    def outputs():
        summary = json.loads((tmp_path / "lqr_summary.json").read_text())
        summary.pop("generated_at")
        return summary, (tmp_path / "trajectory_lqr.csv").read_bytes()

    cli.cmd_compare_lqr(cfg)
    assert solved == [1.0]
    fresh = outputs()
    y0 = cfg.initial_state(cfg.system())
    cli.cmd_compare_lqr(dataclasses.replace(cfg, y0=tuple(0.5 * y0)))
    assert solved == [1.0]
    assert outputs()[1] != fresh[1]
    cli.cmd_compare_lqr(cfg)
    assert solved == [1.0]
    assert outputs() == fresh
    cli.cmd_compare_lqr(dataclasses.replace(cfg, lam=2.0))
    assert solved == [1.0, 2.0]
    cli.cmd_compare_lqr(cfg)
    assert solved == [1.0, 2.0, 1.0]
    assert outputs() == fresh


def test_care_key_spelling(tmp_path):
    # care.npz written before must keep matching: its key is the JSON of the
    # system keys and lam, sorted, as json.dumps spells them
    cfg = small_test2_config(tmp_path, control_box=(-2.2, 0.0))
    cli._care_for(tmp_path, cfg, lqr.linear_quadratic_data(cfg.system(), cfg.lam))
    with np.load(tmp_path / "care.npz") as data:
        key = str(data["key"])
    assert key == (
        '{"N": 24, "control_box": [-2.2, 0.0], "factory": null, "lam": 1.0, "test": "test2"}'
    )


def test_simulate_records_the_share_outside_the_grid_box(tmp_path):
    # outside the table's box the feedback is clamped and not certified
    cfg = small_test2_config(tmp_path)
    cli.cmd_snapshots(cfg)
    cli.cmd_solve(cfg)
    y0 = cfg.initial_state(cfg.system())
    shares = []
    for scale in (1.0, 5.0):
        cli.cmd_simulate(dataclasses.replace(cfg, y0=tuple(scale * y0)))
        shares.append(json.loads((tmp_path / "simulate_r2.json").read_text())["outside_box_frac"])
    assert shares[0] == 0.0
    assert 0.0 < shares[1] <= 1.0


def test_compare_lqr_records_whether_the_lqr_law_was_admissible(tmp_path, capsys):
    # from y0 the unclipped LQR law stays in the box [-2.2, 0]; from 2 y0 it
    # leaves it, and report warns that the reference was inadmissible
    cfg = small_test2_config(tmp_path)
    cli.cmd_snapshots(cfg)
    cli.cmd_solve(cfg)
    y0 = cfg.initial_state(cfg.system())
    entries, warned = [], []
    for scale in (1.0, 2.0):
        cli.cmd_compare_lqr(dataclasses.replace(cfg, y0=tuple(scale * y0)))
        entries.append(json.loads((tmp_path / "lqr_summary.json").read_text())["r2"])
        capsys.readouterr()
        cli.cmd_report(cfg)
        warned.append("inadmissible" in capsys.readouterr().out)
    inside, outside = entries
    assert inside["lqr_admissible"] is True
    assert inside["lqr_outside_box_frac"] == 0.0
    assert -2.2 <= inside["lqr_control_min"] <= inside["lqr_control_max"] <= 0.0
    assert outside["lqr_admissible"] is False
    assert 0.0 < outside["lqr_outside_box_frac"] < 1.0
    assert outside["lqr_control_min"] < -2.2
    assert warned == [False, True]


class TestMainEntry:
    def test_validation_exit_code(self, tmp_path, capsys):
        code = cli.main(["snapshots", "--test", "test1", "--T", "0", "--outdir", str(tmp_path)])
        assert code == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # an unconverged solve writes its artifacts, then exits 3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(tiny_config(tmp_path / "out"))))
        argv = ["--config", str(path)]
        assert cli.main(["snapshots"] + argv) == 0
        assert cli.main(["solve", "--max-iters", "1"] + argv) == 3
        assert capsys.readouterr().err.startswith("numerical failure: value iteration unconverged")
        assert (tmp_path / "out" / "solve_r2.npz").exists()

    def test_missing_snapshots_exit_code(self, tmp_path):
        code = cli.main(["solve", "--test", "test1", "--outdir", str(tmp_path / "empty")])
        assert code == 2

    @pytest.mark.parametrize(
        "command, missing, producer",
        [
            ("solve", "snapshots.npz", "snapshots"),
            ("simulate", "basis.npz", "snapshots"),
            ("compare-lqr", "basis.npz", "snapshots"),
        ],
    )
    def test_missing_input_exit_code(self, tmp_path, capsys, command, missing, producer):
        # exit 2, the missing file and the command that writes it, and no
        # file written: compare-lqr must fail before its LQR half runs
        code = cli.main([command, "--test", "test2", "--outdir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(tmp_path / missing) in err
        assert f"run '{producer}' first" in err
        assert list(tmp_path.iterdir()) == []

    def test_one_parser_for_every_command(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert cli.main(["report", "--outdir", str(tmp_path / "absent")]) == 2
        assert len(built) == 1
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus", "--outdir", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "name, text, value",
        [
            ("test", "test2", "test2"),
            ("outdir", "runs/x", "runs/x"),
            ("N", "40", 40),
            ("r", "3", 3),
            ("k_r", "0.05", 0.05),
            ("h", "0.004", 0.004),
            ("dt", "0.1", 0.1),
            ("T", "2", 2.0),
            ("tau", "1.5", 1.5),
            ("t_e", "2.5", 2.5),
            ("lam", "2", 2.0),
            ("control_count", "7", 7),
            ("stop_tol", "1e-5", 1e-5),
            ("max_iters", "50", 50),
            ("margin", "0.25", 0.25),
            ("clamp_policy", "reject", "reject"),
            ("guess_step", "0.01", 0.01),
        ],
    )
    def test_each_flag_sets_its_field(self, monkeypatch, name, text, value):
        # --name, with "-" for "_", parsed by the field's type
        parsed = []
        monkeypatch.setitem(cli._COMMANDS, "report", parsed.append)
        assert cli.main(["report", "--" + name.replace("_", "-"), text]) == 0
        (cfg,) = parsed
        assert cfg == cli.load_config(None, {name: value})
        assert type(getattr(cfg, name)) is type(value)

    @pytest.mark.parametrize(
        "extra, message", [({"N": 3}, "need N >= 4 cells"), ({"y0": [1.0, 2.0]}, "y0 must have")]
    )
    def test_snapshots_refused_system_writes_nothing(self, tmp_path, capsys, extra, message):
        out = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"test": "test1", **extra}))
        assert cli.main(["snapshots", "--config", str(path), "--outdir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_grid_beyond_the_cache_budget_is_refused_before_any_arrival(
        self, tmp_path, capsys, monkeypatch
    ):
        # 24 nodes need 360 entries: ensure_invariant_grid refuses the grid
        # before it computes an arrival (every arrival is one rhs_batch row)
        path = tmp_path / "cfg.json"
        # 5 controls at r = 2: 15 cache entries per node
        config = tiny_config(tmp_path / "out", cache_budget=44)
        path.write_text(json.dumps(dataclasses.asdict(config)))
        assert cli.main(["snapshots", "--config", str(path)]) == 0
        rows, at_grid = [], []
        rhs_batch = cli.reduced.ReducedSystem.rhs_batch
        real = cli.ensure_invariant_grid

        def counting(self, Yr, u):
            rows.append(len(Yr))
            return rhs_batch(self, Yr, u)

        def ensure_invariant_grid(*args, **kwargs):
            at_grid.append(sum(rows))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.reduced.ReducedSystem, "rhs_batch", counting)
        monkeypatch.setattr(cli, "ensure_invariant_grid", ensure_invariant_grid)
        capsys.readouterr()
        assert cli.main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "validation error: arrival cache needs 360 entries, exceeding budget 44\n"
        # the box growth ran, and nothing after it
        assert at_grid == [sum(rows)] and sum(rows) > 0
        assert not (tmp_path / "out" / "solve_r2.npz").exists()

    @staticmethod
    def solve_non_finite(tmp_path, capsys, factory):
        """``snapshots`` then ``solve`` of a custom system from ``factory``,
        whose rhs is not finite beyond the snapshots' reach: ``solve`` exits 3."""
        path = tmp_path / "cfg.json"
        out = tmp_path / "out"
        config = dict(
            test="custom", factory=factory, N=4, y0=[1.0, 0.5, -0.25],
            dt=0.25, T=1.0, r=2, k_r=0.4, t_e=1.0, control_count=3, stop_tol=1e-4,
            rel_tol=1e-10, abs_tol=1e-10, outdir=str(out),
        )
        path.write_text(json.dumps(config))
        assert cli.main(["snapshots", "--config", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["solve", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "under control u=-1 are not finite" in err
        assert not (out / "solve_r2.npz").exists()
        return out

    def test_non_finite_arrivals_exit_3_and_write_no_table(self, tmp_path, capsys):
        out = self.solve_non_finite(tmp_path, capsys, "test_cli:make_nan_system")
        assert not (out / "meta_r2.json").exists()

    def test_infinite_rhs_exits_3_without_a_warning(self, tmp_path, capsys):
        # an inf times a zero of the projection is NaN, and the matmul's
        # RuntimeWarning would be an error under the suite's filterwarnings
        self.solve_non_finite(tmp_path, capsys, "test_cli:make_inf_system")

    @staticmethod
    def solve_counting_arrivals(monkeypatch, capsys, argv):
        """``solve`` with ``argv``: its exit code, its stderr and the rhs_batch
        rows it computed (every arrival is one row)."""
        rows = []
        rhs_batch = cli.reduced.ReducedSystem.rhs_batch

        def counting(self, Yr, u):
            rows.append(len(Yr))
            return rhs_batch(self, Yr, u)

        with monkeypatch.context() as patch:
            patch.setattr(cli.reduced.ReducedSystem, "rhs_batch", counting)
            capsys.readouterr()
            code = cli.main(["solve"] + argv)
        return code, capsys.readouterr().err, sum(rows)

    def test_oversized_clamped_solves_exit_2_before_any_arrival(
        self, tmp_path, capsys, monkeypatch
    ):
        # default test 2 (clamped arrivals): at these k_r the node count
        # overflowed int64 (1e-5), needed terabytes (1e-12) or came from
        # cell counts cast to INT64_MIN (1e-20)
        out = tmp_path / "out"
        assert cli.main(["snapshots", "--test", "test2", "--outdir", str(out)]) == 0
        for key, value, message in [
            ("k_r", 1e-5, " entries, exceeding budget 200000000"),
            ("k_r", 1e-12, " entries, exceeding budget 200000000"),
            ("k_r", 1e-20, " cells per axis (limit 2**53)"),
            ("cache_budget", 44, " entries, exceeding budget 44"),
        ]:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"test": "test2", "outdir": str(out), key: value}))
            code, err, rows = self.solve_counting_arrivals(
                monkeypatch, capsys, ["--config", str(path)]
            )
            assert (code, rows) == (2, 0), (key, value)
            assert err.startswith("validation error: ") and err.endswith(message + "\n"), err
        assert not list(out.glob("solve_r*"))

    def test_report_on_missing_directory(self, tmp_path):
        out = tmp_path / "absent"
        assert cli.main(["report", "--outdir", str(out)]) == 2
        assert not out.exists()

    def test_solve_without_basis_fails(self, tmp_path):
        # solve reads the basis that snapshots wrote; it never writes one
        cfg = tiny_config(tmp_path)
        cli.cmd_snapshots(cfg)
        (tmp_path / "basis.npz").unlink()
        with pytest.raises(ValidationError, match="basis.npz .run 'snapshots' first"):
            cli.cmd_solve(cfg)
        assert not (tmp_path / "basis.npz").exists()
        assert not (tmp_path / "solve_r2.npz").exists()

    def test_simulate_without_solve_fails(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cli.cmd_snapshots(cfg)
        with pytest.raises(ValidationError, match="missing solve artifacts"):
            cli.cmd_simulate(cfg)


class TestAnotherSystemsArtifacts:
    """A run directory holds one system's artifacts: a command run for another
    system exits 2 before it writes anything, naming the key that differs."""

    def test_solve_refuses_them(self, tmp_path, capsys):
        cli.cmd_snapshots(tiny_config(tmp_path))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        argv = ["--test", "test2", "--N", "12", "--r", "2", "--outdir", str(tmp_path)]
        assert cli.main(["solve"] + argv) == 2
        err = capsys.readouterr().err
        assert "test='test1'" in err and "test='test2'" in err
        assert "re-run 'snapshots'" in err
        for command in ("simulate", "compare-lqr"):
            assert cli.main([command] + argv) == 2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("key, value", [("test", "test2"), ("N", 16)])
    def test_simulate_refuses_them(self, tmp_path, key, value):
        # the snapshots are re-run for another system after the solve
        cfg = tiny_config(tmp_path)
        cli.cmd_snapshots(cfg)
        cli.cmd_solve(cfg)
        other = dataclasses.replace(cfg, **{key: value})
        cli.cmd_snapshots(other)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        message = f"{key}={getattr(cfg, key)!r}, this run has {key}={value!r} .re-run 'solve'"
        with pytest.raises(ValidationError, match=message):
            cli.cmd_simulate(other)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_simulate_refuses_a_basis_the_solve_did_not_use(tmp_path, capsys):
    # snapshots, solve, snapshots again for the same system with other
    # snapshot settings, simulate: the table belongs to the first basis
    run = tmp_path / "run"

    def main(command, **extra):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(dataclasses.asdict(tiny_config(run, **extra))))
        return cli.main([command, "--config", str(path)])

    assert main("snapshots") == 0
    assert main("solve") == 0
    assert main("snapshots", snapshot_controls=(-1.0, 1.0), T=0.5) == 0
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    assert main("simulate") == 2
    err = capsys.readouterr().err
    assert "basis.npz is not the basis" in err and "re-run 'solve'" in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before
    assert main("solve") == 0
    assert main("simulate") == 0
