"""Each entry point imports only the layers it runs.

A fresh interpreter runs the entry point and reports which scipy modules it
loaded: the CLI itself and `dfrto estimate` need none, the subcommands that
compute arcs need scipy.special, and only an adaptive batch needs
scipy.integrate.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dfrto

SRC = str(Path(dfrto.__file__).resolve().parents[1])


def scipy_modules_after(code: str, cwd) -> set[str]:
    report = ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
              " if m == 'scipy' or m.startswith('scipy.'))))")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code + report], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def cli_run(*argv: str) -> str:
    return f"from dfrto.cli import main\nassert main({list(argv)!r}) == 0"


def test_cli_import_loads_no_scipy(tmp_path):
    assert scipy_modules_after("import dfrto.cli", tmp_path) == set()


def test_estimate_loads_no_scipy(tmp_path):
    (tmp_path / "m.csv").write_text("t,q_m,c1,c2\n0,9.0,50,50\n0.001,8.9,50.1,49.9\n")
    code = cli_run("estimate", "--input", "m.csv", "--out", "b.csv")
    assert scipy_modules_after(code, tmp_path) == set()


@pytest.mark.parametrize("argv, integrate", [
    (("reach", "--case", "generalized"), False),
    (("montecarlo", "--n", "1", "--strategies", "optimal,nominal,robust"), False),
    (("simulate", "--strategy", "adaptive"), True),
], ids=["reach", "montecarlo_open_loop", "simulate_adaptive"])
def test_arc_subcommands_load_scipy_integrate_only_for_adaptive(tmp_path, argv,
                                                                 integrate):
    loaded = scipy_modules_after(cli_run(*argv), tmp_path)
    assert "scipy.special" in loaded
    assert ("scipy.integrate" in loaded) == integrate


def test_star_import_yields_all_names():
    namespace = {}
    exec("from dfrto import *", namespace)
    assert set(dfrto.__all__) <= set(namespace)
    from dfrto import arc, process
    assert namespace["integrate"] is arc.integrate
    assert namespace["ProcessSpec"] is process.ProcessSpec
    with pytest.raises(AttributeError):
        dfrto.no_such_name
