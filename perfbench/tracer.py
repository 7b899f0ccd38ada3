"""Spans around the calls into each scatchan module, installed from outside.

The modules import each other with ``from .x import y``, so a call from
``graph`` into ``composer.star`` goes through the name ``graph.star``.  The
tracer therefore rebinds every name a module calls through (``graph.star``,
``physics.contract``, ``composer.svd``, ...) to a wrapper that records a span
(name, start, end, parent span, op id) and then calls the original.  Names a
later version of the program no longer has are skipped, not fatal.

Spans stay in memory until :func:`aggregate` turns them into per-layer
metrics; self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from time import perf_counter

MODULES = ("cli", "physics", "graph", "composer", "smatrix", "numerics",
           "channel", "capacity")

# (module, attribute path in that module, span name).  A span name is
# "<module that owns the code>.<function>".
BINDINGS = (
    ("cli", "_cmd_run", "cli.run"),
    ("cli", "_cmd_verify", "cli.verify"),
    ("cli", "svg_line_plot", "cli.svg_line_plot"),
    ("cli", "contract", "graph.contract"),
    ("cli", "unitarity_defect", "smatrix.unitarity_defect"),
    ("physics", "energy_sweep", "physics.energy_sweep"),
    ("physics", "pipeline_m", "physics.pipeline_m"),
    ("physics", "SweepTable.to_csv", "physics.to_csv"),
    ("physics", "contract", "graph.contract"),
    ("physics", "transmission_operator", "channel.transmission_operator"),
    ("graph", "contract", "graph.contract"),
    ("graph", "validate", "graph.validate"),
    ("graph", "star", "composer.star"),
    ("composer", "star", "composer.star"),
    ("composer", "star_via_series", "composer.star_via_series"),
    ("composer", "loop_matrix", "composer.loop_matrix"),
    ("composer", "pad_to_homogeneous", "composer.pad_to_homogeneous"),
    ("composer", "extract_physical", "composer.extract_physical"),
    ("composer", "svd", "numerics.svd"),
    ("composer", "unitarity_defect", "smatrix.unitarity_defect"),
    ("smatrix", "as_matrix", "numerics.as_matrix"),
    ("smatrix", "unitarity_defect", "smatrix.unitarity_defect"),
    ("smatrix", "ScatteringMatrix.permuted", "smatrix.permuted"),
    ("numerics", "as_matrix", "numerics.as_matrix"),
    ("numerics", "svd", "numerics.svd"),
    ("channel", "as_matrix", "numerics.as_matrix"),
    ("channel", "transmission_operator", "channel.transmission_operator"),
    ("channel", "ErasureChannel.__init__", "channel.erasure_channel"),
    ("channel", "kraus_set", "channel.kraus_set"),
    ("capacity", "as_matrix", "numerics.as_matrix"),
    ("capacity", "capacity_bounds", "capacity.capacity_bounds"),
)

# Per-layer metrics computed from the spans.
TIME_METRICS = {  # metric -> (span name, self time?)
    "cli.run_s": ("cli.run", False),
    "cli.verify_s": ("cli.verify", False),
    "cli.svg_s": ("cli.svg_line_plot", False),
    "physics.to_csv_s": ("physics.to_csv", False),
    "physics.energy_sweep_s": ("physics.energy_sweep", False),
    "physics.energy_sweep_self_s": ("physics.energy_sweep", True),
    "physics.pipeline_m_s": ("physics.pipeline_m", False),
    "physics.pipeline_m_self_s": ("physics.pipeline_m", True),
    "graph.contract_s": ("graph.contract", False),
    "graph.contract_self_s": ("graph.contract", True),
    "graph.validate_s": ("graph.validate", False),
    "composer.star_s": ("composer.star", False),
    "composer.star_self_s": ("composer.star", True),
    "composer.star_via_series_s": ("composer.star_via_series", False),
    "smatrix.unitarity_defect_s": ("smatrix.unitarity_defect", False),
    "smatrix.permuted_s": ("smatrix.permuted", False),
    "numerics.svd_s": ("numerics.svd", False),
    "channel.erasure_channel_s": ("channel.erasure_channel", False),
    "channel.kraus_set_s": ("channel.kraus_set", False),
    "capacity.capacity_bounds_s": ("capacity.capacity_bounds", False),
}
CALL_METRICS = {
    "cli.svg_calls": "cli.svg_line_plot",
    "physics.pipeline_m_calls": "physics.pipeline_m",
    "graph.contract_calls": "graph.contract",
    "composer.star_calls": "composer.star",
    "smatrix.unitarity_defect_calls": "smatrix.unitarity_defect",
    "smatrix.permuted_calls": "smatrix.permuted",
    "numerics.svd_calls": "numerics.svd",
    "numerics.as_matrix_calls": "numerics.as_matrix",
    "capacity.capacity_bounds_calls": "capacity.capacity_bounds",
}


def _resolve(module, path):
    *parents, attr = path.split(".")
    for name in parents:
        module = getattr(module, name, None)
    return module, attr


class Tracer:
    """Records spans and counters for the op currently marked by ``op``.

    ``install`` rebinds the names in :data:`BINDINGS`; ``uninstall`` puts the
    originals back.  Only calls made while installed are recorded.
    """

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: dict = {}  # (op id, counter) -> int
        self.errors = {m: 0 for m in MODULES}
        self.op = 0
        self.kernel_sv_tol = 1e-10
        self._local = threading.local()  # .stack: open (span index, name)
        self._bindings: list = []

    def _count(self, key, n=1):
        k = (self.op, key)
        self.counts[k] = self.counts.get(k, 0) + n

    # Counters measured at the boundary from a call's arguments or result;
    # getattr keeps them harmless if a later signature differs.
    def _before_star(self, args):
        specs = [getattr(s, "spec", None) for s in args[:2]]
        if not all(getattr(spec, "homogeneous", True) for spec in specs):
            self._count("star_padded")

    def _before_sweep(self, args):
        if len(args) >= 2:
            self._count("sweep_points", int(getattr(args[1], "size", len(args[1]))))

    def _before_pipeline(self, args):
        if any(name == "physics.energy_sweep" for _, name in self._local.stack):
            self._count("pipeline_in_sweep")

    def _after_svd(self, result):
        sing = result[1]
        if sing.size and not sing[-1] >= self.kernel_sv_tol:
            self._count("svd_singular")

    def _after_loop(self, result):
        self._count("loop_matrices")
        self._count("loop_dim_sum", int(result.shape[0]))

    def _wrap(self, fn, name, before=None, after=None):
        spans = self.spans
        errors = self.errors
        module = name.split(".", 1)[0]
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append((index, name))
            if before is not None:
                before(args)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[module] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _plan(self):
        """(owner, attribute, original, wrapper) for every traced name."""
        composer = importlib.import_module("scatchan.composer")
        self.kernel_sv_tol = getattr(composer, "KERNEL_SV_TOL", 1e-10)
        before = {
            "composer.star": self._before_star,
            "physics.energy_sweep": self._before_sweep,
            "physics.pipeline_m": self._before_pipeline,
        }
        plan = []
        for mod_name, path, span in BINDINGS:
            owner, attr = _resolve(importlib.import_module(f"scatchan.{mod_name}"), path)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            after = None
            if span == "composer.loop_matrix":
                after = self._after_loop
            elif span == "numerics.svd" and mod_name == "composer":
                after = self._after_svd  # only the loop SVDs of star
            wrapper = self._wrap(original, span, before.get(span), after)
            plan.append((owner, attr, original, wrapper))
        return plan

    def install(self):
        """Rebind every traced name in the imported scatchan modules."""
        if not self._bindings:
            self._bindings = self._plan()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    def dump(self, path, extra=None):
        """Write the spans (and ``extra`` fields) out as one JSON object."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": self.spans,
                "counts": [[op, key, n] for (op, key), n in self.counts.items()],
                "errors": self.errors,
                **(extra or {}),
            }, fh)


def aggregate(spans, counts, errors, n_ops, count_ops, extra_counts=None):
    """Per-layer metrics per op from recorded spans.

    Times are averaged over all ``n_ops`` traced ops; calls and ratios over
    the ops in ``count_ops`` only, a fixed set so that two traced runs of one
    seed report identical counts.  ``extra_counts`` maps metric -> values
    measured by the caller for the ``count_ops`` (bytes written).
    """
    n_time = max(n_ops, 1)
    n_count = max(len(count_ops), 1)
    count_ops = set(count_ops)
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    total, self_time, calls = {}, {}, {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child[i]
        if op in count_ops:
            calls[name] = calls.get(name, 0) + 1
    counter = {}
    for op, key, n in counts:
        if op in count_ops:
            counter[key] = counter.get(key, 0) + n

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for metric, (span, is_self) in TIME_METRICS.items():
        out[metric] = (self_time if is_self else total).get(span, 0.0) / n_time
    for metric, span in CALL_METRICS.items():
        out[metric] = calls.get(span, 0) / n_count
    out["physics.crosscheck_ratio"] = ratio(
        counter.get("pipeline_in_sweep", 0), 2 * counter.get("sweep_points", 0))
    stars = calls.get("composer.star", 0)
    out["composer.padded_ratio"] = ratio(counter.get("star_padded", 0), stars)
    out["composer.singular_loop_ratio"] = ratio(counter.get("svd_singular", 0), stars)
    out["composer.loop_dim_mean"] = ratio(
        counter.get("loop_dim_sum", 0), counter.get("loop_matrices", 0))
    for metric, values in (extra_counts or {}).items():
        out[metric] = sum(values) / n_count
    for module, n in errors.items():
        out[f"{module}.errors"] = n
    return out
