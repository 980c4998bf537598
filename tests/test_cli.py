import json

import numpy as np
import pytest

from hjbpod import cli
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

    def test_resolved_derived_values(self):
        cfg = cli.load_config(None, {"test": "test1"})
        assert cfg.resolved_h == pytest.approx(0.1 * cfg.k_r)
        assert cfg.resolved_tau == cfg.T
        assert cfg.resolved_guess_step == cfg.resolved_h

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
            "value_r2.csv",
            "policy_r2.csv",
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

    def test_value_csv_shape(self, run_dir):
        out, _ = run_dir
        with open(out / "meta_r2.json") as fh:
            meta = json.load(fh)
        data = np.loadtxt(out / "value_r2.csv", delimiter=",", skiprows=1)
        assert data.shape == (meta["grid"]["node_count"], 2 * 2 + 1)

    def test_csv_matches_npz(self, run_dir):
        out, _ = run_dir
        values_csv = np.loadtxt(out / "value_r2.csv", delimiter=",", skiprows=1)[:, -1]
        policy_csv = np.loadtxt(out / "policy_r2.csv", delimiter=",", skiprows=1)[:, -1]
        with np.load(out / "solve_r2.npz") as data:
            np.testing.assert_array_equal(values_csv, data["values"])
            np.testing.assert_array_equal(policy_csv, data["controls"])

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

    def test_basis_rebuild(self, run_dir):
        out, cfg = run_dir
        cli.cmd_basis(cfg)
        assert (out / "basis_meta.json").exists()

    def test_rank_too_large(self, run_dir):
        out, cfg = run_dir
        cfg_bad = tiny_config(out, r=12)
        with pytest.raises(ValidationError, match="basis dimension"):
            cli.cmd_solve(cfg_bad)


def test_byte_identical_reproducibility(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        cfg = tiny_config(out)
        cli.cmd_snapshots(cfg)
        cli.cmd_solve(cfg)
    for name in ("value_r2.csv", "policy_r2.csv", "spectrum.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    # meta differs only in the generated_at stamp
    with open(out_a / "meta_r2.json") as fh:
        meta_a = json.load(fh)
    with open(out_b / "meta_r2.json") as fh:
        meta_b = json.load(fh)
    meta_a.pop("generated_at")
    meta_b.pop("generated_at")
    meta_a["timings"] = meta_b["timings"] = None
    meta_a["config"]["outdir"] = meta_b["config"]["outdir"] = None
    assert meta_a == meta_b


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
    assert (tmp_path / "value_r2.csv").exists()
    with open(tmp_path / "simulate_r2.json") as fh:
        sim = json.load(fh)
    assert sim["costs"]["hjb"] <= sim["costs"]["uncontrolled"] + 1e-12


def test_compare_lqr_small_test2(tmp_path):
    cfg = cli.RunConfig(
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
        outdir=str(tmp_path),
    )
    cli.cmd_snapshots(cfg)
    cli.cmd_solve(cfg)
    cli.cmd_compare_lqr(cfg)
    assert (tmp_path / "control_error_r2.csv").exists()
    assert (tmp_path / "state_diff_r2.csv").exists()
    with open(tmp_path / "lqr_summary.json") as fh:
        summary = json.load(fh)
    entry = summary["r2"]
    assert entry["care_residual"] < 1e-8
    assert np.isfinite(entry["median_relative_error"])
    data = np.loadtxt(tmp_path / "control_error_r2.csv", delimiter=",", skiprows=1)
    assert data.shape[1] == 4


class TestMainEntry:
    def test_validation_exit_code(self, tmp_path, capsys):
        code = cli.main(["snapshots", "--test", "test1", "--T", "0", "--outdir", str(tmp_path)])
        assert code == 2

    def test_missing_snapshots_exit_code(self, tmp_path):
        code = cli.main(["solve", "--test", "test1", "--outdir", str(tmp_path / "empty")])
        assert code == 2

    def test_simulate_without_solve_fails(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cli.cmd_snapshots(cfg)
        with pytest.raises(ValidationError, match="missing solve artifacts"):
            cli.cmd_simulate(cfg)
