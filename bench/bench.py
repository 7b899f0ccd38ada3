"""Wall-time bench of scatchan, end to end and per layer.

    python bench/bench.py --out BENCH_N.json [LABEL=SRC_DIR ...]

Each ``LABEL=SRC_DIR`` names a source tree (the directory that holds the
``scatchan`` package); the default is ``change=src`` of this checkout.  Trees
are measured in one session, in ``REPEATS`` rounds that alternate their
order, so that a parent and a change can be compared on the same machine
state.  Each round runs every child below once per tree, and each row is
the best of its ``time.perf_counter`` samples over all rounds; beside it,
``quartiles`` holds each row's 25th, 50th and 75th percentiles over the
rounds, the spread against which a ratio of two trees is read.

What a child process measures depends on the lengths of the strings it
starts with, not only on its code: the page faults of ``pipeline_200_minflt``
read 0 and 68, and ``run_peak_rss_mb`` 45.4 and 46.2 MB, for two copies of
one commit at paths of different length.  So every child imports a copy of
its tree's package at a path of the same length for every tree, reads the
scenario from that copy and writes beside it, and in round r every child
gets an unused ``-X pad=`` option of ``LAYOUT_PAD * r`` characters, so
that the rounds sample as many start-up layouts and every tree meets the
same ones.  The rows:

* ``run_s``, ``verify_s``: ``python -m scatchan.cli --threads 1 run`` and
  ``... verify`` of the tree's ``fig2_eps0.json``, as child processes;
* ``run_peak_rss_mb``: the peak resident set of that ``run`` child, read as
  ``ru_maxrss`` of its children by a wrapper process that starts it (the
  smallest of the repeats);
* ``import_s``: ``python -c "import scatchan"`` as a child process, and
  beside it ``python_startup_s`` (``python -c pass``) and ``numpy_import_s``
  (``python -c "import numpy"``, with numpy's default BLAS threads), which
  tell the interpreter's and numpy's share of every child-process row;
* ``cli_import_s``: ``python -c "import scatchan.cli"``, the import every
  CLI process pays (numpy included, with the CLI's BLAS thread setting);
* ``crosscheck_full_peak_rss_mb``: the ``ru_maxrss`` of a child process that
  runs only the ``cross_check_every=1`` sweep of the scenario's 20k grid,
  once (the smallest of the repeats);
* ``energy_sweep_s``, ``crosscheck_full_s``, ``to_csv_s`` and
  ``svg_line_plot_s``: one timed call each, in that order, in a child
  process that has run one untimed sweep first:
  - ``energy_sweep_s``: ``physics.energy_sweep`` on the scenario's 20k grid
    at the default cross-check stride;
  - ``crosscheck_full_s``: the same sweep with ``cross_check_every=1``,
    every grid point recomputed through the graph pipeline;
  - ``to_csv_s``: ``SweepTable.to_csv`` of that sweep;
  - ``svg_line_plot_s``: one ``cli.svg_line_plot`` of its four transmission
    curves with the superactivation bands;
* ``pipeline_200_s``: ``physics.pipeline_amplitudes`` on 200 sorted seeded
  energies in (0.005, 2.0], with a fresh base (epsilon and eta in [0, 0.2],
  half width and separation within 10% of the scenario's) for each call, as
  one ``crosscheck_dense`` op of ``perfbench`` contracts them, in a child
  process that runs nothing else: ``PIPELINE_CALLS`` timed calls after as
  many warm-up calls; the best call of all rounds;
* ``pipeline_200_minflt``: the median ``ru_minflt`` (minor page faults) per
  call in each of those children, which counts the pages the allocator
  hands back to the kernel and takes again between calls; the row is the
  mean over the children, each child's value is kept in
  ``pipeline_200_minflt_children``, and ``quartiles`` are over children,
  since whether the allocator trims depends on where the heap ends.

The file also records the machine (nproc, Python and numpy versions); for
each tree its git commit, ``dirty`` (whether the checkout has changes under
the tree that the commit does not hold; commit and flag are ``null`` outside
a git checkout), ``src_lines`` (the total ``wc -l`` of its
``scatchan/*.py``) and ``src_sha256`` (of those files' names and bytes, in
name order), which tell apart trees that one commit label would confuse;
and the size and sha256 of the files ``run`` writes.  Needs only the stdlib
and numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SCENARIO = Path("scatchan") / "scenarios" / "fig2_eps0.json"
REPEATS = 7
PIPELINE_CALLS = 50
LAYOUT_PAD = 8  # characters of every child's unused -X option, per round
CHILD_ROWS = {  # child-process wall-time rows and the arguments of their child
    "python_startup_s": ("-c", "pass"),
    "numpy_import_s": ("-c", "import numpy"),
    "import_s": ("-c", "import scatchan"),
    "cli_import_s": ("-c", "import scatchan.cli"),
}
ROWS = ("run_s", "verify_s", "import_s", "cli_import_s", "python_startup_s", "numpy_import_s",
        "run_peak_rss_mb", "energy_sweep_s", "crosscheck_full_s",
        "crosscheck_full_peak_rss_mb", "to_csv_s", "svg_line_plot_s",
        "pipeline_200_s", "pipeline_200_minflt")
# Runs argv[1:] as its one child and prints that child's ru_maxrss (KiB on Linux).
RSS_WRAPPER = ("import resource, subprocess, sys; "
               "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
               "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
# Runs the full cross-check sweep of the scenario argv[1] once and prints its
# own ru_maxrss.
CROSSCHECK_RSS = ("import resource, sys; from scatchan import cli, physics; "
                  "base, grid = cli._sweep_inputs(cli.load_scenario(sys.argv[1]))[:2]; "
                  "physics.energy_sweep(base, grid, cross_check_every=1); "
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
# Prints the rows of one child: argv[1] is this script's directory and argv[2]
# the function of this module that measures them (``pipeline_rows`` or
# ``layer_times``).
ROWS_CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); import bench; "
              "print(json.dumps(getattr(bench, sys.argv[2])()))")


def _scenario_inputs():
    from scatchan import cli, physics

    scenario = Path(physics.__file__).parent / "scenarios" / "fig2_eps0.json"
    return cli._sweep_inputs(cli.load_scenario(str(scenario)))[:2]


def pipeline_rows() -> dict:
    """``pipeline_200_s`` and ``pipeline_200_minflt``; runs in a child of its
    own, since the allocator keeps freed pages once it has served larger
    arrays (the 2048-energy chunks of ``crosscheck_full_s``), so the
    fault count depends on what the process ran before."""
    import resource

    from scatchan import physics

    base, rng = _scenario_inputs()[0], np.random.default_rng(11)

    def call():
        fresh = physics.BarrierParams(
            1.0, epsilon=rng.uniform(0.0, 0.2), eta=rng.uniform(0.0, 0.2),
            half_width=base.half_width * rng.uniform(0.9, 1.1),
            separation=base.separation * rng.uniform(0.9, 1.1))
        energies = np.sort(2.0 - rng.uniform(0.0, 1.995, 200))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        physics.pipeline_amplitudes(fresh, energies)
        elapsed = time.perf_counter() - start
        return elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    for _ in range(PIPELINE_CALLS):
        call()
    times, faults = zip(*(call() for _ in range(PIPELINE_CALLS)))
    return {"pipeline_200_s": min(times), "pipeline_200_minflt": float(np.median(faults))}


def layer_times() -> dict:
    """One timed call of each in-process row, after one untimed sweep; runs
    in a child whose ``sys.path`` holds one tree."""
    from scatchan import cli, physics

    base, grid = _scenario_inputs()
    table = physics.energy_sweep(base, grid)
    curves = [(c, getattr(table, c))
              for c in ("p_up_double", "p_dn_double", "p_up_single", "p_dn_single")]
    calls = {
        "energy_sweep_s": lambda: physics.energy_sweep(base, grid),
        "crosscheck_full_s": lambda: physics.energy_sweep(base, grid, cross_check_every=1),
        "to_csv_s": lambda: table.to_csv(io.BytesIO()),
        "svg_line_plot_s": lambda: cli.svg_line_plot(
            table.energy, curves, "Transmission probabilities", "E / V0",
            "transmission probability", shade_mask=table.superactivated),
    }
    times = {}
    for row, call in calls.items():
        start = time.perf_counter()
        call()
        times[row] = time.perf_counter() - start
    return times


def _child(src: Path, pad: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-X", pad, *args], env=env, check=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _git(src: Path, *args: str):
    done = subprocess.run(["git", "-C", str(src), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return done.stdout if done.returncode == 0 else None


def _tree(src: Path) -> dict:
    commit = _git(src, "rev-parse", "HEAD")
    status = _git(src, "status", "--porcelain", "--", ".")
    files = sorted((src / "scatchan").glob("*.py"))
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return {"commit": commit.strip() if commit else None,
            "dirty": bool(status.strip()) if commit and status is not None else None,
            "src_lines": sum(p.read_bytes().count(b"\n") for p in files),
            "src_sha256": digest.hexdigest()}


def _artifacts(out_dir: Path) -> dict:
    return {p.name: {"bytes": p.stat().st_size,
                     "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
            for p in sorted(out_dir.iterdir())}


def measure(trees: dict) -> dict:
    results = {label: _tree(src) for label, src in trees.items()}
    samples = {label: {row: [] for row in ROWS} for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {label: Path(tmp) / f"{i:03d}" for i, label in enumerate(trees)}
        for label, src in trees.items():
            shutil.copytree(src / "scatchan", copies[label] / "scatchan",
                            ignore=shutil.ignore_patterns("__pycache__"))
        for r in range(REPEATS):
            order = list(copies.items())
            pad = "pad=" + "x" * (LAYOUT_PAD * r)
            for label, tree in order[::-1] if r % 2 else order:
                out, scenario = str(tree / "out"), str(tree / SCENARIO)
                for row, args in (
                    ("run_s", ("-m", "scatchan.cli", "--threads", "1", "--out", out,
                               "run", scenario)),
                    ("verify_s", ("-m", "scatchan.cli", "verify", scenario)),
                    *CHILD_ROWS.items(),
                ):
                    start = time.perf_counter()
                    _child(tree, pad, *args)
                    samples[label][row].append(time.perf_counter() - start)
                wrapped = _child(tree, pad, "-c", RSS_WRAPPER, sys.executable, "-X", pad, "-m",
                                 "scatchan.cli", "--threads", "1", "--out", out, "run", scenario)
                samples[label]["run_peak_rss_mb"].append(int(wrapped.stdout) / 1024)
                swept = _child(tree, pad, "-c", CROSSCHECK_RSS, scenario)
                samples[label]["crosscheck_full_peak_rss_mb"].append(int(swept.stdout) / 1024)
                for rows in ("pipeline_rows", "layer_times"):
                    done = _child(tree, pad, "-c", ROWS_CHILD, str(Path(__file__).parent), rows)
                    for row, value in json.loads(done.stdout).items():
                        samples[label][row].append(value)
        for label, tree in copies.items():
            results[label]["artifacts"] = _artifacts(tree / "out")
    for label in trees:
        results[label].update({row: min(v) for row, v in samples[label].items()})
        results[label]["quartiles"] = {
            row: [float(q) for q in np.percentile(v, [25, 50, 75])]
            for row, v in samples[label].items()}
        children = samples[label]["pipeline_200_minflt"]
        results[label]["pipeline_200_minflt"] = float(np.mean(children))
        results[label]["pipeline_200_minflt_children"] = children
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("trees", nargs="*", metavar="LABEL=SRC_DIR",
                        help="source trees to measure (default: change=src)")
    args = parser.parse_args(argv)
    specs = args.trees or [f"change={Path(__file__).resolve().parent.parent / 'src'}"]
    trees = {}
    for spec in specs:
        label, sep, src = spec.partition("=")
        if not sep or not (Path(src) / "scatchan").is_dir():
            parser.error(f"expected LABEL=SRC_DIR holding a scatchan package, got {spec!r}")
        trees[label] = Path(src).resolve()

    trees_out = measure(trees)
    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "repeats": REPEATS,
        "scenario": SCENARIO.name,
        "trees": trees_out,
    }
    base_label = next(iter(trees_out))
    record["ratio_base"] = base_label
    record["ratios"] = {
        label: {row: round(res[row] / trees_out[base_label][row], 4)
                if trees_out[base_label][row] else None for row in ROWS}
        for label, res in trees_out.items() if label != base_label
    }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for label, res in trees_out.items():
        print(label, " ".join(f"{row}={res[row]:.4f} (q1-q3 {res['quartiles'][row][0]:.4f}"
                              f"-{res['quartiles'][row][2]:.4f})" for row in ROWS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
