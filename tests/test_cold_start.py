"""What a fresh interpreter loads of scipy.

``import hjbpod`` loads numpy and ``scipy.sparse`` only.  LSODA
(``scipy.integrate``, which also pulls in ``scipy.special`` and
``scipy.optimize``) and ``scipy.linalg`` are imported by the functions that
call them, so commands that never integrate or solve a Riccati equation do
not pay for them; ``solve`` loads ``scipy.linalg`` alone of them, through
the ``scipy.sparse.linalg`` of its policy evaluation.  Each check runs in
its own interpreter.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from hjbpod import cli

from test_cli import small_test2_config

ROOT = Path(__file__).resolve().parent.parent
DEFERRED = ("scipy.integrate", "scipy.linalg", "scipy.special", "scipy.optimize")


def loaded_after(code: str) -> set:
    """The modules of DEFERRED, and ``scipy.sparse``, loaded after ``code`` runs
    in a fresh interpreter with ``src`` on its path."""
    watched = DEFERRED + ("scipy.sparse",)
    report = f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))"
    script = f"{code}\nimport json, sys\n{report}"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_and_warm_probe_load_only_sparse():
    code = "import runpy\nimport hjbpod, hjbpod.cli\nrunpy.run_path('perfbench/warm.py')"
    assert loaded_after(code) == {"scipy.sparse"}


def test_test2_solve_loads_no_integrator(tmp_path):
    # the policy evaluation's scipy.sparse.linalg loads scipy.linalg with it
    cfg = small_test2_config(tmp_path)
    cli.cmd_snapshots(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    code = f"from hjbpod import cli\nassert cli.main(['solve', '--config', {str(path)!r}]) == 0"
    assert loaded_after(code) == {"scipy.sparse", "scipy.linalg"}
    assert (tmp_path / "solve_r2.npz").exists()


def test_solve_loads_the_policy_evaluation_before_timing_the_iteration(tmp_path):
    # otherwise meta_r*.json's iteration_s holds the first import of
    # scipy.sparse.linalg, which value_iteration uses
    cfg = small_test2_config(tmp_path)
    cli.cmd_snapshots(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    code = (
        "import sys\nfrom hjbpod import cli, hjbsolve\n"
        "iterate = hjbsolve.value_iteration\n"
        "def entered(*args, **kwargs):\n"
        "    assert 'scipy.sparse.linalg' in sys.modules\n"
        "    return iterate(*args, **kwargs)\n"
        "hjbsolve.value_iteration = entered\n"
        f"assert cli.main(['solve', '--config', {str(path)!r}]) == 0"
    )
    loaded_after(code)
    assert (tmp_path / "solve_r2.npz").exists()


def test_missing_config_exits_2_without_loading_integrator(tmp_path):
    path = tmp_path / "absent.json"
    code = f"from hjbpod import cli\nassert cli.main(['solve', '--config', {str(path)!r}]) == 2"
    assert loaded_after(code) == {"scipy.sparse"}
