"""Scenario-driven batch runner.

Subcommands:
  run <scenario.json>     evaluate a scenario, emit CSV and SVG into --out
  verify <scenario.json>  run the oracle cross-checks, print one
                          "name: residual" line per named check

Exit codes: 0 success, 2 malformed scenario or unreadable file, 3 numerical
consistency failure.  ``verify`` has one gate: it exits 3, naming the first
failing check on stderr, if any residual is not within VERIFY_TOL (a NaN
residual fails).  Output bytes are deterministic for identical inputs.
--threads is accepted for compatibility; sweeps run in one thread.
Importing this module sets OPENBLAS_NUM_THREADS=1 unless the variable is
already set, so the CLI runs numpy's BLAS in one thread; a plain ``import
scatchan`` leaves it alone.  Run as ``python -m scatchan.cli``, the process
skips the interpreter's teardown once the command has finished.
"""

from __future__ import annotations

import os

# One OpenBLAS thread unless the caller set a count: no matrix here is larger
# than 18x18, too small to repay the thread pool each process would start.
# It must be set before numpy loads; ``import scatchan`` does not load it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import sys

import numpy as np

from . import channel, composer, physics
from .errors import InvalidInputError, ScatchanError, SeriesDivergentError
from .graph import QuantumGraph, contract
from .numerics import max_abs, whole_number
from .smatrix import ScatteringMatrix, unitarity_defect

VERIFY_TOL = 1e-9
MAX_GRID_POINTS = 10**6

# ---------------------------------------------------------------------------
# SVG emission (hand-rolled: deterministic bytes, no plotting dependency)

_SVG_W, _SVG_H = 900, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_COLORS = ("#1f5fa8", "#c23b22", "#2e8540", "#8a5fa8")


def _ticks(lo: float, hi: float, n: int = 5):
    raw = np.linspace(lo, hi, n)
    return [float(t) for t in raw]


def svg_line_plot(x, curves, title, xlabel, ylabel, shade_mask=None) -> str:
    """Polyline plot as an SVG 1.1 string.

    ``curves`` is a list of (label, y-array); ``shade_mask`` marks x-ranges
    to highlight (contiguous True runs become shaded bands).  Each curve is
    drawn through its pixel-column envelope: per run of samples in one pixel
    column, the first, the last, and the first lowest and highest samples.
    """
    from html import escape  # here, not at module level: verify never draws

    x = np.asarray(x, dtype=float)
    title, xlabel, ylabel = escape(title), escape(xlabel), escape(ylabel)
    x_lo, x_hi = float(x[0]), float(x[-1])
    y_lo = min(float(np.min(y)) for _, y in curves)
    y_hi = max(float(np.max(y)) for _, y in curves)
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw = _SVG_W - _ML - _MR
    ph = _SVG_H - _MT - _MB

    def px(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return _MT + (y_hi - v) / (y_hi - y_lo) * ph

    xs = px(x)
    col = np.clip(np.floor(xs - _ML), 0, pw - 1)
    new_col = np.concatenate(([True], col[1:] != col[:-1]))
    starts = np.flatnonzero(new_col)
    ends = np.append(starts[1:], len(x)) - 1
    run_of = np.cumsum(new_col) - 1

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]

    if shade_mask is not None:
        mask = np.asarray(shade_mask, dtype=bool)
        edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
        for a, b in zip(edges[::2], edges[1::2]):
            x0, x1 = px(x[a]), px(x[min(b, len(x) - 1)])
            parts.append(
                f'<rect x="{x0:.2f}" y="{_MT}" width="{max(x1 - x0, 0.5):.2f}" '
                f'height="{ph}" fill="#f5c6c6" fill-opacity="0.6"/>'
            )

    # axes + ticks
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="black"/>'
    )
    for t in _ticks(x_lo, x_hi):
        xx = px(t)
        parts.append(f'<line x1="{xx:.2f}" y1="{_MT + ph}" x2="{xx:.2f}" '
                     f'y2="{_MT + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{xx:.2f}" y="{_MT + ph + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{t:.3g}</text>')
    for t in _ticks(y_lo, y_hi):
        yy = py(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{yy:.2f}" x2="{_ML}" '
                     f'y2="{yy:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{yy + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">{t:.3g}</text>')
    parts.append(f'<text x="{_ML + pw // 2}" y="{_SVG_H - 10}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="18" y="{_MT + ph // 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {_MT + ph // 2})">{ylabel}</text>')

    for i, (label, y) in enumerate(curves):
        color = _COLORS[i % len(_COLORS)]
        y = np.asarray(y, dtype=float)
        keep = np.zeros(len(x), dtype=bool)
        keep[starts] = keep[ends] = True
        for extreme in (np.minimum, np.maximum):
            hit = np.flatnonzero(y == extreme.reduceat(y, starts)[run_of])
            keep[hit[np.unique(run_of[hit], return_index=True)[1]]] = True
        ys = py(np.clip(y[keep], y_lo, y_hi))
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(xs[keep].tolist(), ys.tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        ly = _MT + 18 + 16 * i
        parts.append(f'<line x1="{_ML + pw - 150}" y1="{ly - 4}" '
                     f'x2="{_ML + pw - 125}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{_ML + pw - 120}" y="{ly}" '
                     f'font-family="sans-serif" font-size="12">{escape(label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Scenario handling


def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"scenario is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read scenario: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInputError(f"scenario must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in SCENARIO_KINDS:
        raise InvalidInputError(f"unknown scenario kind: {kind!r}")
    name = obj.setdefault("name", os.path.splitext(os.path.basename(path))[0])
    if (not isinstance(name, str) or name in ("", ".", "..") or "\x00" in name
            or name != os.path.basename(name)):
        raise InvalidInputError(f"scenario name must be a plain file name, got {name!r}")
    return obj


def _sweep_inputs(sc: dict):
    """The arguments (base, grid, cross_check_every) of :func:`physics.energy_sweep`."""
    try:
        grid = sc.get("grid", {})
        start = float(grid.get("start", 0.005))
        stop = float(grid.get("stop", 2.0))
        points = whole_number(grid.get("points", 20000), "grid points", 2, MAX_GRID_POINTS)
        every = whole_number(sc.get("cross_check_every", 100), "cross_check_every")
        params = {key: float(sc[key]) for key in ("half_width", "separation")}
        params.update((key, float(sc.get(key, 0.0))) for key in ("epsilon", "eta"))
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"non-numeric scenario field: {exc}") from exc
    if not (np.isfinite(stop) and 0 < start < stop):
        raise InvalidInputError(f"bad grid range ({start}, {stop})")
    # energy_ratio is a placeholder; the sweep substitutes per-point values
    base = physics.BarrierParams(energy_ratio=start, **params)
    return base, np.linspace(start, stop, points), every


def _write(out_dir: str, filename: str, text: str) -> str:
    """Write one artifact (LF line ends) into ``out_dir``; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def run_barrier_sweep(sc: dict, out_dir: str) -> list[str]:
    table = physics.energy_sweep(*_sweep_inputs(sc))
    name = sc["name"]
    emitted = [_write(out_dir, f"{name}.csv", table.to_csv())]
    plots = (
        ("transmission", "Transmission probabilities", "transmission probability", [
            ("p up, double", table.p_up_double),
            ("p down, double", table.p_dn_double),
            ("p up, single", table.p_up_single),
            ("p down, single", table.p_dn_single),
        ]),
        ("capacity", "Capacity bounds", "qubits per use", [
            ("Q low, double", table.q_low_double),
            ("Q up, double", table.q_up_double),
            ("Q low, single", table.q_low_single),
            ("Q up, single", table.q_up_single),
        ]),
    )
    for suffix, title, ylabel, curves in plots:
        svg = svg_line_plot(table.energy, curves, f"{title} ({name})", "E / V0",
                            ylabel, shade_mask=table.superactivated)
        emitted.append(_write(out_dir, f"{name}_{suffix}.svg", svg))
    return emitted


def run_graph_contract(sc: dict, out_dir: str) -> list[str]:
    s_g = contract(QuantumGraph.from_json(sc["graph"]))
    return [_write(out_dir, f"{sc['name']}_global.json", _json_text(s_g.to_json()))]


def _star_inputs(sc: dict):
    s1 = ScatteringMatrix.from_json(sc["s1"])
    s2 = ScatteringMatrix.from_json(sc["s2"])
    wiring = composer.Wiring.from_json(sc["wiring"]) if "wiring" in sc else None
    return s2, s1, wiring


def run_star_demo(sc: dict, out_dir: str) -> list[str]:
    result = composer.star(*_star_inputs(sc))
    return [_write(out_dir, f"{sc['name']}_star.json", _json_text(result.to_json()))]


# ---------------------------------------------------------------------------
# Verification: each ``verify_*`` returns its named checks, (name, residual)
# pairs; ``_cmd_verify`` prints them and gates every residual on VERIFY_TOL.


def _series_check(s2, s1, wiring=None) -> tuple[str, float]:
    """Star against the geometric series where ``star_via_series``
    converges; otherwise the kernel decoupling residual of the loop, under a
    name that says why the series was skipped."""
    try:
        series = composer.star_via_series(s2, s1, wiring, tol=1e-14)
    except SeriesDivergentError as exc:
        return (f"kernel decoupling (geometric series route skipped: {exc})",
                composer.kernel_decoupling_check(s2, s1, wiring).max_residual)
    return "star/series gap", max_abs(composer.star(s2, s1, wiring).matrix - series.matrix)


def verify_barrier_sweep(sc: dict, out) -> list[tuple[str, float]]:
    """Closed-form vs pipeline, series vs star, unitarity, CPTP."""
    base, grid, _ = _sweep_inputs(sc)
    sample = grid[:: max(1, len(grid) // 64)]
    gap = physics.pipeline_gap(base, sample, physics.closed_form_amplitudes(base, sample))
    checks = [(f"closed form checked against the pipeline at {sample.size} of "
               f"{grid.size} grid points", float(np.max(gap)))]

    e_mid = float(sample[len(sample) // 2])
    b1 = physics.barrier_smatrix(base, e_mid)
    checks.append(_series_check(physics.translated_barrier(b1, base.separation, e_mid), b1))

    s_g = physics.barrier_lines(base, e_mid)["double"]
    checks.append(("double-barrier unitarity defect", unitarity_defect(s_g.matrix)))

    ch = channel.ErasureChannel(channel.transmission_operator(s_g, 1, 4))
    comp = sum(k.conj().T @ k for k in channel.kraus_set(ch))
    checks.append(("Kraus completeness", max_abs(comp - np.eye(ch.d))))
    lowest = np.min(np.linalg.eigvalsh(channel.choi(ch)))
    checks.append(("Choi negativity", float(np.maximum(-lowest, 0.0))))
    return checks


def verify_graph_contract(sc: dict, out) -> list[tuple[str, float]]:
    s_g = contract(QuantumGraph.from_json(sc["graph"]))
    return [("global S unitarity defect", unitarity_defect(s_g.matrix))]


def verify_star_demo(sc: dict, out) -> list[tuple[str, float]]:
    """Star vs geometric series (or the kernel decoupling of a loop the
    series cannot sum), unitarity, and the expected transmission if given;
    prints the transmission block."""
    s2, s1, wiring = _star_inputs(sc)
    direct = composer.star(s2, s1, wiring)
    checks = [_series_check(s2, s1, wiring),
              ("star unitarity defect", unitarity_defect(direct.matrix))]
    trans = direct.block("R", "L")
    print(f"transmission block:\n{np.array_str(trans, precision=12)}", file=out)
    if "expected_transmission" in sc:
        gap = abs(abs(trans[0, 0]) - float(sc["expected_transmission"]))
        checks.append(("|transmission| deviation from expected", gap))
    return checks


# Each scenario kind: (run into an output directory, verify into named checks).
SCENARIO_KINDS = {
    "barrier-sweep": (run_barrier_sweep, verify_barrier_sweep),
    "graph-contract": (run_graph_contract, verify_graph_contract),
    "star-demo": (run_star_demo, verify_star_demo),
}


# ---------------------------------------------------------------------------
# Entry point


def _cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    run, _ = SCENARIO_KINDS[sc["kind"]]
    for path in run(sc, args.out):
        print(path)
    return 0


def _cmd_verify(args) -> int:
    sc = load_scenario(args.scenario)
    _, verify = SCENARIO_KINDS[sc["kind"]]
    checks = verify(sc, sys.stdout)
    for name, residual in checks:
        print(f"{name}: {residual:.3e}")
    for name, residual in checks:
        if not residual <= VERIFY_TOL:  # a NaN fails too
            print(f"FAIL: {name}: {residual:.3e} exceeds {VERIFY_TOL:.0e}", file=sys.stderr)
            return 3
    print("all residuals within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scatchan",
        description="Scattering-network channel simulator",
    )
    parser.add_argument("--out", default="./out", help="output directory")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility; sweeps run in one thread",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario, emit CSV/SVG")
    p_run.add_argument("scenario")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="run oracle cross-checks")
    p_ver.add_argument("scenario")
    p_ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScatchanError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    # Skip the interpreter's teardown (freeing every module and array): flush
    # what the command printed and end the process with its code.
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
