"""Wall-time bench of scatchan, end to end and per layer.

    python bench/bench.py --out BENCH_N.json [LABEL=SRC_DIR ...]

Each ``LABEL=SRC_DIR`` names a source tree (the directory that holds the
``scatchan`` package); the default is ``change=src`` of this checkout.  Trees
are measured in one session, alternating their order from round to round, so
that a parent and a change can be compared on the same machine state.  Every
row is the best of ``REPEATS`` ``time.perf_counter`` repeats:

* ``run_s``, ``verify_s``: ``python -m scatchan.cli --threads 1 run`` and
  ``... verify`` of the tree's ``fig2_eps0.json``, as child processes;
* ``run_peak_rss_mb``: the peak resident set of that ``run`` child, read as
  ``ru_maxrss`` of its children by a wrapper process that starts it (the
  smallest of the repeats);
* ``import_s``: ``python -c "import scatchan"`` as a child process;
* ``energy_sweep_s``: ``physics.energy_sweep`` on the scenario's 20k grid at
  the default cross-check stride, in a warm process;
* ``crosscheck_full_s``: the same sweep with ``cross_check_every=1``, every
  grid point recomputed through the graph pipeline;
* ``to_csv_s``: ``SweepTable.to_csv`` of that sweep;
* ``svg_line_plot_s``: one ``cli.svg_line_plot`` of its four transmission
  curves with the superactivation bands.

The file also records the machine (nproc, Python and numpy versions), each
tree's git commit, and the size and sha256 of the files ``run`` writes.
Needs only the stdlib and numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SCENARIO = Path("scatchan") / "scenarios" / "fig2_eps0.json"
REPEATS = 7
ROWS = ("run_s", "verify_s", "import_s", "run_peak_rss_mb", "energy_sweep_s",
        "crosscheck_full_s", "to_csv_s", "svg_line_plot_s")
# Runs argv[1:] as its one child and prints that child's ru_maxrss (KiB on Linux).
RSS_WRAPPER = ("import resource, subprocess, sys; "
               "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
               "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")


def best_of(fn) -> float:
    """Smallest wall time of ``REPEATS`` calls of ``fn``."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def layer_times() -> dict:
    """In-process rows; runs in a child whose ``sys.path`` holds one tree."""
    from scatchan import cli, physics

    scenario = Path(physics.__file__).parent / "scenarios" / "fig2_eps0.json"
    base, grid = cli._sweep_inputs(cli.load_scenario(str(scenario)))[:2]
    table = physics.energy_sweep(base, grid)
    curves = [(c, getattr(table, c))
              for c in ("p_up_double", "p_dn_double", "p_up_single", "p_dn_single")]
    return {
        "energy_sweep_s": best_of(lambda: physics.energy_sweep(base, grid)),
        "crosscheck_full_s": best_of(
            lambda: physics.energy_sweep(base, grid, cross_check_every=1)),
        "to_csv_s": best_of(table.to_csv),
        "svg_line_plot_s": best_of(lambda: cli.svg_line_plot(
            table.energy, curves, "Transmission probabilities", "E / V0",
            "transmission probability", shade_mask=table.superactivated)),
    }


def _child(src: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _commit(src: Path):
    done = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return done.stdout.strip() or None


def _artifacts(out_dir: Path) -> dict:
    return {p.name: {"bytes": p.stat().st_size,
                     "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
            for p in sorted(out_dir.iterdir())}


def measure(trees: dict) -> dict:
    results = {label: {"commit": _commit(src)} for label, src in trees.items()}
    samples = {label: {row: [] for row in ("run_s", "verify_s", "import_s", "run_peak_rss_mb")}
               for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(REPEATS):
            order = list(trees.items())
            for label, src in order[::-1] if r % 2 else order:
                out = Path(tmp) / label
                scenario = str(src / SCENARIO)
                for row, args in (
                    ("run_s", ("-m", "scatchan.cli", "--threads", "1", "--out", str(out),
                               "run", scenario)),
                    ("verify_s", ("-m", "scatchan.cli", "verify", scenario)),
                    ("import_s", ("-c", "import scatchan")),
                ):
                    start = time.perf_counter()
                    _child(src, *args)
                    samples[label][row].append(time.perf_counter() - start)
                wrapped = _child(src, "-c", RSS_WRAPPER, sys.executable, "-m", "scatchan.cli",
                                 "--threads", "1", "--out", str(out), "run", scenario)
                samples[label]["run_peak_rss_mb"].append(int(wrapped.stdout) / 1024)
        for label in trees:
            results[label]["artifacts"] = _artifacts(Path(tmp) / label)
    for label, src in trees.items():
        results[label].update({row: min(v) for row, v in samples[label].items()})
        code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import bench; "
                "print(json.dumps(bench.layer_times()))")
        done = _child(src, "-c", code, str(Path(__file__).parent))
        results[label].update(json.loads(done.stdout))
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
        label: {row: round(res[row] / trees_out[base_label][row], 4) for row in ROWS}
        for label, res in trees_out.items() if label != base_label
    }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for label, res in trees_out.items():
        print(label, " ".join(f"{row}={res[row]:.4f}" for row in ROWS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
