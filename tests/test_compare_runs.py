"""``tools/compare_runs.py`` finds every kind of difference between two run
directories, and none between two runs of one config."""

import json
import shutil

import numpy as np
import pytest

from hjbpod import cli

from test_cli import tiny_config


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """``snapshots → solve → simulate`` of one tiny config, in two directories."""
    runs = [tmp_path_factory.mktemp(name) for name in ("a", "b")]
    for out in runs:
        cfg = tiny_config(out)
        cli.cmd_snapshots(cfg)
        cli.cmd_solve(cfg)
        cli.cmd_simulate(cfg)
    return runs


@pytest.fixture
def copy_of_b(two_runs, tmp_path):
    """A copy of run ``b`` to change."""
    return shutil.copytree(two_runs[1], tmp_path / "b")


def test_two_runs_of_one_config_compare_equal(compare_runs, two_runs, capsys):
    a, b = two_runs
    assert compare_runs.compare_runs(a, b) == {}
    assert compare_runs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "no file differs\n"


def test_a_one_ulp_change_is_reported_and_passes_at_a_tolerance(
    compare_runs, two_runs, copy_of_b, capsys
):
    path = copy_of_b / "solve_r2.npz"
    with np.load(path) as data:
        members = dict(data)
    values = members["values"]
    i = np.argmax(np.abs(values))
    assert np.spacing(values[i]) < 1e-15
    values[i] = np.nextafter(values[i], np.inf)
    np.savez_compressed(path, **members)

    a = two_runs[0]
    found = compare_runs.compare_runs(a, copy_of_b)
    assert list(found) == ["solve_r2.npz"]
    assert found["solve_r2.npz"].startswith("values: largest deviation")
    assert compare_runs.main([str(a), str(copy_of_b)]) == 1
    assert capsys.readouterr().out.startswith("solve_r2.npz: values: largest deviation")
    assert compare_runs.compare_runs(a, copy_of_b, atol=1e-15) == {}
    assert compare_runs.main([str(a), str(copy_of_b), "--atol", "1e-15"]) == 0


def test_a_deleted_file_is_reported(compare_runs, two_runs, copy_of_b):
    (copy_of_b / "trajectory_unc.csv").unlink()
    found = compare_runs.compare_runs(two_runs[0], copy_of_b)
    assert found == {"trajectory_unc.csv": f"only in {two_runs[0]}"}


def test_volatile_keys_are_not_reported_and_other_keys_are(compare_runs, two_runs, copy_of_b):
    path = copy_of_b / "meta_r2.json"
    meta = json.loads(path.read_text())
    meta["generated_at"] = "2000-01-01T00:00:00+00:00"
    meta["config"]["outdir"] = "elsewhere"
    path.write_text(json.dumps(meta))
    assert compare_runs.compare_runs(two_runs[0], copy_of_b) == {}
    residual = meta["iteration"]["final_residual"]
    meta["iteration"]["final_residual"] = float(np.nextafter(residual, np.inf))
    path.write_text(json.dumps(meta))
    found = compare_runs.compare_runs(two_runs[0], copy_of_b)
    assert found["meta_r2.json"].startswith("iteration.final_residual: largest deviation")


def test_a_changed_csv_number_names_its_column(compare_runs, two_runs, copy_of_b):
    path = copy_of_b / "spectrum.csv"
    header, first, *rest = path.read_text().splitlines()
    k, value = first.split(",")
    path.write_text("\n".join([header, f"{k},{float(value) * 1.5!r}", *rest]) + "\n")
    found = compare_runs.compare_runs(two_runs[0], copy_of_b)
    assert list(found) == ["spectrum.csv"]
    assert found["spectrum.csv"].startswith("column lambda_k: largest deviation")
    assert compare_runs.compare_runs(two_runs[0], copy_of_b, rtol=0.5) == {}


def test_float_fields_of_a_structured_array_take_the_tolerance(compare_runs, tmp_path):
    # care.npz stores the Riccati solution as one structured record
    record = np.zeros((), dtype=[("P", float, (2, 2)), ("iterations", np.int64)])
    record["P"] = [[1.0, 0.5], [0.5, 2.0]]
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        np.savez(out / "care.npz", key="k", care=record)
        record["P"][1, 1] = np.nextafter(2.0, 3.0)
    assert compare_runs.compare_runs(a, b)["care.npz"].startswith("care.P: largest deviation")
    assert compare_runs.compare_runs(a, b, rtol=1e-15) == {}
    record["iterations"] = 1
    np.savez(b / "care.npz", key="k", care=record)
    found = compare_runs.compare_runs(a, b, rtol=1e-15)
    assert found == {"care.npz": "care.iterations: 1 of 1 entries differ"}
