"""The scatchan benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload fig2_run --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop: one client, the next op sent only when the
previous one has completed):

fig2_run          ``scatchan run`` then ``scatchan verify`` on a seeded barrier
                  sweep, as two child processes, as a user runs the paper's
                  figure reproduction.
crosscheck_dense  ``physics.energy_sweep(base, grid, cross_check_every=1)`` on
                  200 seeded energies, in one warm worker process.
compose_mix       one seeded composition job (star of a homogeneous,
                  dishomogeneous or singular-loop pair, or contract of a ring
                  graph) and the channel it induces, in one warm worker.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from a separate traced run, in
which every other op runs under the wrappers of ``tracer.py``.  Lines before
it give the machine, the drawn inputs and each metric with its unit.
Outputs go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import shutil
import subprocess
import sys
from time import perf_counter

import inputs
from worker import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("fig2_run", "crosscheck_dense", "compose_mix")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120.0
HARD_STOP_S = 150.0  # ends the timed phase even if a traced run is short of ops

# What one op delivers, for items_per_s: (name of the item, items per op).
ITEM = {"fig2_run": ("grid_points", inputs.GRID_POINTS),
        "crosscheck_dense": ("checked_points", inputs.CROSSCHECK_GRID),
        "compose_mix": ("compositions", 1)}


def machine_record() -> dict:
    """nproc, Python, numpy and its BLAS, git commit and load average."""
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": git_commit(),
        "loadavg_start": loadavg(),
    }


def git_commit():
    """The checked-out commit read from .git, or None outside a git tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return env


def _read_line(proc, timeout):
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise RuntimeError(f"no answer from worker within {timeout:.0f} s")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"worker exited with code {proc.wait()}")
    return json.loads(line)


def start_workers(workload, seed, seconds, spans_path=None):
    """Start SETUP_REPEATS fresh workers one after another; each imports
    scatchan and runs its warm-up ops.  All but the last are sent away.

    Returns (last worker, setup times, import times).  A setup time runs from
    the spawn to the ready line, less the worker's own input generation.
    """
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "serve",
            workload, str(seed), str(seconds)] + ([spans_path] if spans_path else [])
    setups, imports = [], []
    for i in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            ready = _read_line(proc, CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        setups.append(perf_counter() - start - ready["gen_s"])
        imports.append(ready["import_s"])
        if i < SETUP_REPEATS - 1:
            proc.communicate("exit\n", timeout=CHILD_TIMEOUT_S)
    return proc, setups, imports


def run_worker_workload(workload, seed, seconds, trace):
    spans_path = os.path.join(OUT, f"{workload}-spans.json") if trace else None
    proc, setups, imports = start_workers(workload, seed, seconds, spans_path)
    try:
        out, _ = proc.communicate("go\n", timeout=seconds + 170.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = percentile(setups, 50)
    result["setups"] = setups
    result["import_s"] = percentile(imports, 50)
    if trace:
        result["layers"]["scatchan.import_s"] = result["import_s"]
    return result


# --------------------------------------------------------------------------
# fig2_run: two CLI processes per op, driven from this process


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def run_fig2(seed, seconds, trace, tmp):
    import numpy as np

    import ops
    import tracer as tracing

    scenarios = inputs.fig2_scenarios(seed, tmp)
    probe, setups, imports = start_workers("fig2_run", seed, seconds)
    probe.communicate("exit\n", timeout=CHILD_TIMEOUT_S)
    rng = np.random.default_rng([seed, 4])
    env = child_env()
    shas: dict = {}
    failures: list = []
    times, traced_times, overheads, attempted, failed = [], [], [], 0, 0
    spans, counts, errors, import_times, bytes_written = [], [], {}, [], []
    need = inputs.FIG2_SCENARIOS if trace else 0

    def op(index, traced, scenario):
        path, sc = scenarios[scenario % len(scenarios)]
        out_dir = os.path.join(tmp, f"op{index}")
        cmds = []
        for sub in ("run", "verify"):
            argv = ["--out", out_dir, sub, path]
            if traced:
                span_file = os.path.join(tmp, f"spans{index}-{sub}.json")
                cmds.append(([sys.executable, os.path.join(HERE, "worker.py"), "cli",
                              span_file, str(len(traced_times)), "--"] + argv, span_file))
            else:
                cmds.append(([sys.executable, "-m", "scatchan.cli"] + argv, None))
        start = perf_counter()
        codes = [subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                timeout=CHILD_TIMEOUT_S).returncode for cmd, _ in cmds]
        elapsed = perf_counter() - start
        problems = [f"{sub} exited with code {c}" for sub, c in zip(("run", "verify"), codes) if c]
        csv_path = os.path.join(out_dir, f"{sc['name']}.csv")
        if os.path.exists(csv_path):
            with open(csv_path, "rb") as fh:
                csv_bytes = fh.read()
            try:
                problems += ops.fig2_check(sc, csv_bytes, rng)
            except Exception as exc:  # an output the checks cannot read fails them
                problems.append(f"check raised {type(exc).__name__}: {exc}")
            sha = hashlib.sha256(csv_bytes).hexdigest()
            if shas.setdefault(sc["name"], sha) != sha:
                problems.append(f"{sc['name']}: CSV bytes differ between two ops")
        else:
            problems.append(f"no CSV written for {sc['name']}")
        if traced:
            if len(traced_times) < need:
                bytes_written.append(_dir_bytes(out_dir))
            for _, span_file in cmds:
                with open(span_file, encoding="utf-8") as fh:
                    dump = json.load(fh)
                base = len(spans)
                spans.extend((n, s, e, p + base if p >= 0 else -1, o)
                             for n, s, e, p, o in dump["spans"])
                counts.extend(dump["counts"])
                for module, n in dump["errors"].items():
                    errors[module] = errors.get(module, 0) + n
                import_times.append(dump["import_s"])
        shutil.rmtree(out_dir, ignore_errors=True)
        return elapsed, problems

    _, problems = op(0, False, 0)  # warm-up: file caches and the first CSV hash
    failures += problems
    index = 1
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(traced_times) >= need) or elapsed >= HARD_STOP_S:
            break
        # A traced run alternates untraced and traced ops on one scenario.
        traced = bool(trace) and index % 2 == 0
        elapsed, problems = op(index, traced, (index - 1) // 2 if trace else index - 1)
        if traced:
            traced_times.append(elapsed)
            overheads.append(elapsed / times[-1])  # against its untraced twin
        else:
            times.append(elapsed)
        attempted += 1
        failed += bool(problems)
        failures += problems
        index += 1
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
        "op_count": len(times),
        "op_p50_s": percentile(times, 50),
        "op_p90_s": percentile(times, 90),
        "op_total_s": float(sum(times)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "setup_s": percentile(setups, 50),
        "setups": setups,
        "import_s": percentile(imports, 50),
        "inputs": {"scenarios": [sc for _, sc in scenarios], "csv_sha256": shas},
    }
    if trace:
        layers = tracing.aggregate(spans, counts, errors, len(traced_times),
                                   range(need), {"cli.bytes_written": bytes_written})
        layers["scatchan.import_s"] = percentile(import_times, 50)
        layers["trace.overhead_ratio"] = percentile(overheads, 50)
        result["layers"] = layers
        result["traced_ops"] = len(traced_times)
        with open(os.path.join(OUT, "fig2_run-spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": counts, "errors": errors}, fh)
    return result


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "scatchan", "__init__.py")):
        print(f"error: no scatchan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        machine = machine_record()
        if args.workload == "fig2_run":
            result = run_fig2(args.seed, args.seconds, args.trace, tmp)
        else:
            result = run_worker_workload(args.workload, args.seed, args.seconds, args.trace)
        machine["loadavg_end"] = loadavg()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    item, per_op = ITEM[args.workload]
    if not result["op_count"]:
        result["failures"].append("no untraced op completed")
    result["items_per_s"] = result["op_count"] * per_op / max(result["op_total_s"], 1e-9)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["layers"] if args.trace else result
    if args.trace:
        source["failed_op_ratio"] = result["failed"] / max(result["attempted"], 1)
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in listed}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "inputs": result["inputs"],
              "op_count": result["op_count"], "setups_s": result["setups"],
              "failures": result["failures"], "metrics": metrics}
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("machine " + json.dumps(machine))
    print("inputs " + json.dumps(result["inputs"]))
    print(f"ops {result['op_count']} timed (p90 has {result['op_count'] // 10} beyond it)")
    for message in result["failures"]:
        print(f"FAILED {message}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{item}_per_s = {result['items_per_s']:.6g} 1/s")
    print(json.dumps({"correct": result["failed"] == 0 and not result["failures"],
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
