"""The CLI as a user starts it: a fresh interpreter per command.

Each test runs a child process with this checkout's ``scatchan`` first on
``PYTHONPATH``, so what it checks (import side effects, the exit path of
``python -m scatchan.cli``) cannot be masked by this test process's state.
"""

import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import scatchan

SRC = str(Path(scatchan.__file__).resolve().parent.parent)
SCENARIOS = files("scatchan") / "scenarios"


def child(args, env_update=None, unset=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in unset:
        env.pop(name, None)
    env.update(env_update or {})
    return subprocess.run([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def test_package_import_leaves_numpy_unloaded():
    done = child(["-c", "import sys, scatchan; print('numpy' in sys.modules)"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_exports_are_listed_before_first_access():
    code = "import scatchan; print(set(scatchan.__all__) <= set(dir(scatchan)))"
    done = child(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


def test_star_import_resolves_every_export():
    code = ("from scatchan import *; import scatchan; "
            "print(all(name in globals() for name in scatchan.__all__))")
    done = child(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


def test_submodules_resolve_as_attributes():
    code = "import scatchan; print(scatchan.physics.energy_sweep is scatchan.energy_sweep)"
    done = child(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


def test_cli_import_loads_only_the_standard_library_and_numpy():
    # Every process that starts the CLI pays for what this import loads.
    code = ("import sys; before = set(sys.modules); import scatchan.cli; "
            "new = set(sys.modules) - before; "
            "print(sorted({m.split('.')[0] for m in new} - sys.stdlib_module_names "
            "- {'numpy', 'scatchan'})); print('scatchan.csvtext' in new)")
    done = child(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "False"]


def test_cli_import_sets_one_blas_thread():
    code = "import os, scatchan.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    done = child(["-c", code], unset=("OPENBLAS_NUM_THREADS",))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"


def test_cli_import_keeps_a_preset_thread_count():
    code = "import os, scatchan.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    done = child(["-c", code], env_update={"OPENBLAS_NUM_THREADS": "3"})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "3"


def test_verify_does_not_import_html():
    # Only the SVG writer escapes markup, and verify draws nothing.
    code = ("import sys; from scatchan import cli; "
            f"code = cli.main(['verify', {str(SCENARIOS / 'fig2_eps0.json')!r}]); "
            "print(code, 'html' in sys.modules)")
    done = child(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_run_prints_every_path_into_a_pipe(tmp_path):
    sc = json.loads((SCENARIOS / "fig2_eps0.json").read_text())
    sc["grid"]["points"] = 300
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sc))
    out = tmp_path / "out"
    done = child(["-m", "scatchan.cli", "--out", str(out), "run", str(path)])
    assert done.returncode == 0, done.stderr
    expected = [str(out / name) for name in (
        "fig2_eps0.csv", "fig2_eps0_transmission.svg", "fig2_eps0_capacity.svg")]
    assert done.stdout.splitlines() == expected
    assert all(Path(p).is_file() for p in expected)


def test_malformed_scenario_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "mystery"}))
    done = child(["-m", "scatchan.cli", "--out", str(tmp_path / "out"), "run", str(path)])
    assert done.returncode == 2
    assert "error: unknown scenario kind: 'mystery'" in done.stderr


def test_nan_pipeline_exits_3():
    # The CLI module runs as __main__, as ``python -m`` runs it, on a
    # pipeline that returns NaN.
    code = (
        "import runpy, sys; import numpy as np; from scatchan import physics; "
        "physics.pipeline_amplitudes = lambda base, energies: "
        "{cfg: np.full((len(energies), 2, 2), np.nan) for cfg in ('single', 'double')}; "
        "sys.argv = ['scatchan', 'verify', sys.argv[1]]; "
        "runpy.run_module('scatchan.cli', run_name='__main__')"
    )
    done = child(["-c", code, str(SCENARIOS / "fig2_eps0.json")])
    assert done.returncode == 3
    check = "closed form checked against the pipeline at 65 of 20000 grid points"
    assert f"FAIL: {check}: nan exceeds 1e-09" in done.stderr
    assert f"{check}: nan" in done.stdout.splitlines()
