"""The benchmark's own ops, run through its own checks.

``perfbench/inputs.py`` and ``perfbench/ops.py`` are loaded read-only from
their files, so an entry point they call (``physics.pipeline_m``, positional
``BarrierParams``, ``star_via_series(..., tol=)``, ``contract(order=)``,
``SweepTable.CSV_COLUMNS``) or a flag rule ``ops.check_table`` assumes fails
here as well as in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from scatchan import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def _load(name):
    """perfbench/<name>.py as a module, written nowhere (no bytecode cache)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("inputs"), _load("ops")


def test_compose_mix_jobs_pass_their_checks(bench):
    inputs, ops = bench
    jobs = inputs.ComposeJobs(SEED)
    for _ in range(40):
        job = next(jobs)
        failures, _ = ops.compose_check(job, ops.compose_op(job))
        assert failures == [], job["kind"]
    assert all(jobs.counts[kind] > 0 for kind in inputs.KINDS)


def test_crosscheck_dense_jobs_pass_their_checks(bench):
    inputs, ops = bench
    jobs, rng = inputs.CrosscheckJobs(SEED), np.random.default_rng([SEED, 4])
    for _ in range(3):
        job = next(jobs)
        assert ops.crosscheck_check(job, ops.crosscheck_op(job), rng) == []


def test_fig2_run_csv_passes_its_check(bench, tmp_path):
    inputs, ops = bench
    scenarios = {sc["name"]: (path, sc) for path, sc in inputs.fig2_scenarios(SEED, str(tmp_path))}
    path, sc = scenarios["sweep1"]
    assert cli.main(["--out", str(tmp_path / "out"), "run", path]) == 0
    csv_bytes = (tmp_path / "out" / "sweep1.csv").read_bytes()
    assert ops.fig2_check(sc, csv_bytes, np.random.default_rng([SEED, 4])) == []
