"""Per-call span means for the ROADMAP baseline rows.

    python3 perfbench/baseline.py

Reads the span dumps that traced runs leave in ``.perfbench_out/`` and
prints the mean duration per call of ``pipeline_m`` (single and double
barrier, told apart by the number of ``star`` calls under them),
``contract`` of the double-barrier graph, ``to_csv``, ``svg_line_plot`` and
``energy_sweep``.  The numbers carry the tracer's overhead.
"""

from __future__ import annotations

import json
import os
import sys

OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   ".perfbench_out")


def rows(spans):
    stars_under = [0] * len(spans)
    for name, _, _, parent, _ in spans:
        if name == "composer.star":
            while parent >= 0:  # credit every ancestor
                stars_under[parent] += 1
                parent = spans[parent][3]
    table: dict = {}

    def add(label, span):
        total, n = table.get(label, (0.0, 0))
        table[label] = (total + span[2] - span[1], n + 1)

    for i, span in enumerate(spans):
        name = span[0]
        if name == "physics.pipeline_m":
            add(f"pipeline_m {'double' if stars_under[i] == 2 else 'single'}", span)
        elif name == "graph.contract" and stars_under[i] == 2:
            add("contract (double barrier)", span)
        elif name in ("physics.to_csv", "cli.svg_line_plot", "physics.energy_sweep"):
            add(name.split(".", 1)[1], span)
    return table


def main() -> int:
    found = False
    for workload in ("fig2_run", "crosscheck_dense"):
        path = os.path.join(OUT, f"{workload}-spans.json")
        if not os.path.exists(path):
            continue
        found = True
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        for label, (total, n) in sorted(rows(spans).items()):
            print(f"{workload:17s} {label:27s} {1e3 * total / n:9.3f} ms/call  ({n} calls)")
    if not found:
        print("no span dumps; run a workload with --trace 1 first", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
