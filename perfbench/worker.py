"""Benchmark-side processes that load scatchan.

``worker.py serve WORKLOAD SEED SECONDS [SPANS]``
    A warm worker for crosscheck_dense and compose_mix (a bare import probe
    for fig2_run).  It imports scatchan, draws its warm-up inputs, runs the
    warm-up ops and prints a ``ready`` line; it then waits for ``go`` (run the
    timed phase and print one JSON result line) or ``exit`` on stdin.  With
    SPANS, every other op is traced and the spans are written to SPANS.

``worker.py cli SPANS OP -- ARGV...``
    The traced twin of ``python -m scatchan.cli ARGV...``: it installs the
    tracer's wrappers, calls ``scatchan.cli.main(ARGV)`` and writes its spans
    to SPANS.

Only one worker runs at a time, as one client: an op starts when the
previous one has finished.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

WARMUP_OPS = {"fig2_run": 0, "crosscheck_dense": 1, "compose_mix": 40}
# Traced ops whose call counts are reported; fixed so that two traced runs of
# one seed count exactly the same work.
COUNT_OPS = {"crosscheck_dense": 4, "compose_mix": 200}
MAX_SPANS = 200_000  # past this, the traced run goes on with untraced ops only
HARD_STOP_S = 150.0  # ends the timed phase even if COUNT_OPS is not reached


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def _jobs(workload, seed, stream=None):
    import inputs
    cls = inputs.CrosscheckJobs if workload == "crosscheck_dense" else inputs.ComposeJobs
    return cls(seed) if stream is None else cls(seed, stream)


def _run_op(workload, job, rng, failures, tr=None):
    """Time one op (traced by ``tr`` if given), then check it outside the
    timer and the trace; returns (seconds, ok, series oracle ran)."""
    import ops
    op = ops.crosscheck_op if workload == "crosscheck_dense" else ops.compose_op
    if tr is not None:
        tr.install()
    start = perf_counter()
    try:
        out = op(job)
    except Exception as exc:  # a raising op is a failed op, not a crash
        if len(failures) < 5:
            failures.append(f"{type(exc).__name__}: {exc}")
        return perf_counter() - start, False, False
    finally:
        elapsed = perf_counter() - start
        if tr is not None:
            tr.uninstall()
    try:
        if workload == "crosscheck_dense":
            problems, series = ops.crosscheck_check(job, out, rng), False
        else:
            problems, series = ops.compose_check(job, out)
    except Exception as exc:  # an output the checks cannot read fails them
        problems, series = [f"check raised {type(exc).__name__}: {exc}"], False
    if len(failures) < 5:
        failures.extend(problems)
    return elapsed, not problems, series


def serve(workload, seed, seconds, spans_path):
    start = perf_counter()
    import scatchan  # noqa: F401  (the import a user pays for)
    import_s = perf_counter() - start
    if workload == "fig2_run":
        import scatchan.cli  # noqa: F401
    gen_s = 0.0
    if WARMUP_OPS[workload]:
        import numpy as np
        t = perf_counter()
        warm = _jobs(workload, seed, stream=9)
        jobs = [next(warm) for _ in range(WARMUP_OPS[workload])]
        rng = np.random.default_rng([seed, 9])
        gen_s = perf_counter() - t
        for job in jobs:
            _run_op(workload, job, rng, [])
    print(json.dumps({"ready": True, "import_s": import_s, "gen_s": gen_s}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return
    print(json.dumps(timed_phase(workload, seed, seconds, spans_path)), flush=True)


def timed_phase(workload, seed, seconds, spans_path):
    import numpy as np

    import inputs
    import tracer as tracing
    jobs = _jobs(workload, seed)
    rng = np.random.default_rng([seed, 4])
    failures: list = []
    times, traced_times, overheads = [], [], []
    attempted = failed = series_checks = 0
    tr = tracing.Tracer() if spans_path else None
    need = COUNT_OPS[workload] if tr else 0
    start = perf_counter()
    deadline = start + seconds
    while True:
        now = perf_counter()
        if (now >= deadline and len(traced_times) >= need) or now - start >= HARD_STOP_S:
            break
        # A traced run gives every job twice, untraced then traced, so that
        # trace.overhead_ratio compares like with like.
        traced = tr is not None and attempted % 2 == 1 and len(tr.spans) < MAX_SPANS
        if traced:
            tr.op = len(traced_times)
        else:
            job = next(jobs)
        elapsed, ok, series = _run_op(workload, job, rng, failures, tr if traced else None)
        if traced:
            traced_times.append(elapsed)
            overheads.append(elapsed / times[-1])  # against its untraced twin
        else:
            times.append(elapsed)
        attempted += 1
        failed += not ok
        series_checks += series
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "op_count": len(times),
        "op_p50_s": percentile(times, 50),
        "op_p90_s": percentile(times, 90),
        "op_total_s": float(sum(times)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if workload == "compose_mix":
        result["inputs"] = {"kind_counts": jobs.counts, "series_checks": series_checks}
        missing = [kind for kind, n in jobs.counts.items() if not n]
        if missing:
            failures.append(f"job kinds never drawn: {missing}")
    else:
        result["inputs"] = {"bases": jobs.bases, "grid_points": inputs.CROSSCHECK_GRID}
    if tr is not None:
        n_count = min(need, len(traced_times))
        layers = tracing.aggregate(tr.spans, [[o, k, n] for (o, k), n in tr.counts.items()],
                                   tr.errors, len(traced_times), range(n_count),
                                   {"cli.bytes_written": []})  # the CLI writes nothing here
        layers["trace.overhead_ratio"] = percentile(overheads, 50)
        result["layers"] = layers
        result["traced_ops"] = len(traced_times)
        tr.dump(spans_path)
    return result


def traced_cli(spans_path, op, argv):
    start = perf_counter()
    import scatchan  # noqa: F401
    import_s = perf_counter() - start
    from scatchan import cli
    import tracer as tracing
    tr = tracing.Tracer()
    tr.op = op
    tr.install()
    try:
        code = cli.main(argv)
    finally:
        tr.uninstall()
        tr.dump(spans_path, {"import_s": import_s})
    return code


def main(argv):
    if argv[:1] == ["serve"] and len(argv) in (4, 5):
        serve(argv[1], int(argv[2]), float(argv[3]), argv[4] if len(argv) == 5 else None)
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 4 and argv[3] == "--":
        return traced_cli(argv[1], int(argv[2]), argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
