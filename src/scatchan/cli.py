"""Scenario-driven batch runner.

Commands:
  run <scenario.json>     evaluate a scenario, emit CSV and SVG into --out
  verify <scenario.json>  run the oracle cross-checks, print one
                          "name: residual" line per named check

The scenario format is read and written in one section of this module:
the number parsers ``whole_number`` and ``real_number``, the readers
``read_scattering``, ``read_wiring`` and ``read_graph``, and the writer
``scattering_json``; the library modules never see JSON.

Exit codes: 0 success, 2 malformed scenario, unreadable scenario file or
unwritable output, 3 numerical consistency failure.  ``verify`` has one
gate: it exits 3, naming the first failing check on stderr, if any residual
is not within VERIFY_TOL (a NaN residual fails).  Output bytes are
deterministic for identical inputs.
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
import dataclasses
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import channel, composer, physics
from .errors import InvalidInputError, ScatchanError, SeriesDivergentError
from .graph import QuantumGraph, contract
from .numerics import max_abs
from .smatrix import PortSpec, ScatteringMatrix, unitarity_defect

VERIFY_TOL = 1e-9
MAX_GRID_POINTS = 10**6

# ---------------------------------------------------------------------------
# SVG emission (hand-rolled: deterministic bytes, no plotting dependency)

_SVG_W, _SVG_H = 900, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_COLORS = ("#1f5fa8", "#c23b22", "#2e8540", "#8a5fa8")


def svg_line_plot(x, curves, title, xlabel, ylabel, shade_mask) -> str:
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
    for t in np.linspace(x_lo, x_hi, 5).tolist():
        xx = px(t)
        parts.append(f'<line x1="{xx:.2f}" y1="{_MT + ph}" x2="{xx:.2f}" '
                     f'y2="{_MT + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{xx:.2f}" y="{_MT + ph + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{t:.3g}</text>')
    for t in np.linspace(y_lo, y_hi, 5).tolist():
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
# The scenario format: one reader of each object, one writer


@contextmanager
def _decoding(problem: str):
    """Report a KeyError, TypeError, ValueError, OverflowError or
    AttributeError met while decoding as ``InvalidInputError("<problem>: ...")``."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{problem}: {exc}") from exc


def whole_number(value, name: str, least: float = 0, most: float = math.inf) -> int:
    """A whole-number field of a JSON document (not a bool) in [``least``,
    ``most``]: the one parser of counts, ids and slots, so that 1.7 or
    ``true`` is rejected rather than truncated."""
    try:
        n = float(value)
    except (TypeError, ValueError, OverflowError):
        n = math.nan
    if isinstance(value, bool) or not n.is_integer() or not least <= n <= most:
        raise InvalidInputError(
            f"{name} must be a whole number in [{least}, {most}], got {value!r}")
    return int(value) if isinstance(value, int) else int(n)


def real_number(value, name: str) -> float:
    """A real-number field of a JSON document: ``true`` is rejected, not read as 1."""
    if isinstance(value, bool):
        raise InvalidInputError(f"{name} must be a number, got {value!r}")
    return float(value)


@_decoding("malformed scattering matrix")
def read_scattering(obj) -> ScatteringMatrix:
    """``{"spec": {<four slot counts>, "dim" (default 1)}, "matrix": {"rows": n,
    "cols": m, "data": [[re, im], ...]}}`` (row-major), gated on unitarity."""
    counts = obj["spec"]
    spec = PortSpec(*(whole_number(counts[key], key)
                      for key in ("left_in", "left_out", "right_in", "right_out")),
                    whole_number(counts.get("dim", 1), "dim", 1))
    literal = obj["matrix"]
    rows, cols = whole_number(literal["rows"], "rows"), whole_number(literal["cols"], "cols")
    entries = [complex(re, im) for re, im in literal["data"]]
    if len(entries) != rows * cols:
        raise InvalidInputError(
            f"matrix literal has {len(entries)} entries, expected {rows * cols}")
    return ScatteringMatrix(np.array(entries, dtype=complex).reshape(rows, cols), spec)


@_decoding("malformed wiring")
def read_wiring(obj) -> composer.Wiring:
    """``{"s1_to_s2": [[slot, slot], ...], "s2_to_s1": [...]}``."""
    return composer.Wiring(*(
        tuple((whole_number(a, "wiring slot"), whole_number(b, "wiring slot"))
              for a, b in obj[key])
        for key in ("s1_to_s2", "s2_to_s1")
    ))


@_decoding("malformed graph")
def read_graph(obj) -> QuantumGraph:
    """``{"vertices": [{"id": .., "smatrix": ..}, ...], "edges": [[port, port], ...]}``
    with "dangling_in" and "dangling_out" lists of ports; a port is [vertex id, slot]."""
    def vertex_id(v):
        return whole_number(v, "vertex id", -math.inf)

    def port(p):
        vid, slot = p
        return vertex_id(vid), whole_number(slot, "slot")

    vertices = [(vertex_id(v["id"]), read_scattering(v["smatrix"])) for v in obj["vertices"]]
    edges = [(port(a), port(b)) for a, b in obj["edges"]]
    din = [port(p) for p in obj["dangling_in"]]
    dout = [port(p) for p in obj["dangling_out"]]
    return QuantumGraph.build(vertices, edges, din, dout)


def scattering_json(s: ScatteringMatrix) -> dict:
    """The document of one scattering matrix, which :func:`read_scattering`
    reads back exactly."""
    rows, cols = s.matrix.shape
    data = [[float(z.real), float(z.imag)] for z in s.matrix.ravel()]
    return {"spec": dataclasses.asdict(s.spec),
            "matrix": {"rows": rows, "cols": cols, "data": data}}


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
    if not isinstance(kind, str) or kind not in SCENARIO_KINDS:
        raise InvalidInputError(f"unknown scenario kind: {kind!r}")
    name = obj.setdefault("name", os.path.splitext(os.path.basename(path))[0])
    if (not isinstance(name, str) or name in ("", ".", "..") or "\x00" in name
            or name != os.path.basename(name)):
        raise InvalidInputError(f"scenario name must be a plain file name, got {name!r}")
    return obj


def _field(sc: dict, key: str):
    """The required field ``key`` of a scenario; a missing one is malformed
    input, reported by name."""
    try:
        return sc[key]
    except KeyError:
        raise InvalidInputError(f"{sc['kind']} scenario has no field {key!r}") from None


def _sweep_inputs(sc: dict):
    """The arguments (base, grid, cross_check_every) of :func:`physics.energy_sweep`."""
    params = {key: _field(sc, key) for key in ("half_width", "separation")}
    with _decoding("non-numeric scenario field"):
        grid = sc.get("grid", {})
        start = real_number(grid.get("start", 0.005), "grid start")
        stop = real_number(grid.get("stop", 2.0), "grid stop")
        points = whole_number(grid.get("points", 20000), "grid points", 2, MAX_GRID_POINTS)
        every = whole_number(sc.get("cross_check_every", 100), "cross_check_every")
        params.update((key, sc.get(key, 0.0)) for key in ("epsilon", "eta"))
        params = {key: real_number(value, key) for key, value in params.items()}
    if not (np.isfinite(stop) and 0 < start < stop):
        raise InvalidInputError(f"bad grid range ({start}, {stop})")
    # energy_ratio is a placeholder; the sweep substitutes per-point values
    base = physics.BarrierParams(energy_ratio=start, **params)
    return base, np.linspace(start, stop, points), every


def _write(out_dir: str, filename: str, content) -> str:
    """Write one artifact into ``out_dir``: ``content`` is its text, as UTF-8,
    or a function that writes it to a binary file; returns its path."""
    path = os.path.join(out_dir, filename)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "wb") as fh:
            if isinstance(content, str):
                fh.write(content.encode("utf-8"))
            else:
                content(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc
    return path


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def run_barrier_sweep(sc: dict, out_dir: str) -> list[str]:
    table = physics.energy_sweep(*_sweep_inputs(sc))
    name = sc["name"]
    emitted = [_write(out_dir, f"{name}.csv", table.to_csv)]
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
    s_g = contract(read_graph(_field(sc, "graph")))
    return [_write(out_dir, f"{sc['name']}_global.json", _json_text(scattering_json(s_g)))]


def _star_inputs(sc: dict):
    s1 = read_scattering(_field(sc, "s1"))
    s2 = read_scattering(_field(sc, "s2"))
    wiring = read_wiring(sc["wiring"]) if "wiring" in sc else None
    return s2, s1, wiring


def run_star_demo(sc: dict, out_dir: str) -> list[str]:
    result = composer.star(*_star_inputs(sc))
    return [_write(out_dir, f"{sc['name']}_star.json", _json_text(scattering_json(result)))]


# ---------------------------------------------------------------------------
# Verification: each ``verify_*`` returns its named checks, (name, residual)
# pairs; ``_cmd_verify`` prints them and gates every residual on VERIFY_TOL.


def _series_check(direct, s2, s1, wiring=None) -> tuple[str, float]:
    """``direct``, the star of the pair, against the geometric series where
    ``star_via_series`` converges; otherwise the kernel decoupling residual
    of the loop, under a name that says why the series was skipped."""
    try:
        series = composer.star_via_series(s2, s1, wiring, tol=1e-14)
    except SeriesDivergentError as exc:
        return (f"kernel decoupling (geometric series route skipped: {exc})",
                composer.kernel_decoupling_check(s2, s1, wiring)[1])
    return "star/series gap", max_abs(direct.matrix - series.matrix)


def verify_barrier_sweep(sc: dict, out) -> list[tuple[str, float]]:
    """Closed-form vs pipeline, series vs star, unitarity, CPTP."""
    base, grid, _ = _sweep_inputs(sc)
    sample = grid[:: max(1, len(grid) // 64)]
    gap = physics.pipeline_gap(base, sample, physics.closed_form_amplitudes(base, sample))
    checks = [(f"closed form checked against the pipeline at {sample.size} of "
               f"{grid.size} grid points", float(np.max(gap)))]

    e_mid = float(sample[len(sample) // 2])
    b1 = physics.barrier_smatrix(base, e_mid)
    b2 = physics.translated_barrier(b1, base.separation, e_mid)
    checks.append(_series_check(composer.star(b2, b1), b2, b1))

    s_g = physics.barrier_lines(base, e_mid)["double"]
    checks.append(("double-barrier unitarity defect", unitarity_defect(s_g.matrix)))

    ch = channel.ErasureChannel(channel.transmission_operator(s_g, 1, 4))
    comp = sum(k.conj().T @ k for k in channel.kraus_set(ch))
    checks.append(("Kraus completeness", max_abs(comp - np.eye(ch.d))))
    lowest = np.min(np.linalg.eigvalsh(channel.choi(ch)))
    checks.append(("Choi negativity", float(np.maximum(-lowest, 0.0))))
    return checks


def verify_graph_contract(sc: dict, out) -> list[tuple[str, float]]:
    s_g = contract(read_graph(_field(sc, "graph")))
    return [("global S unitarity defect", unitarity_defect(s_g.matrix))]


def verify_star_demo(sc: dict, out) -> list[tuple[str, float]]:
    """Star vs geometric series (or the kernel decoupling of a loop the
    series cannot sum), unitarity, and the expected transmission if given;
    prints the transmission block."""
    s2, s1, wiring = _star_inputs(sc)
    with _decoding("non-numeric expected_transmission"):
        expected = (real_number(sc["expected_transmission"], "expected_transmission")
                    if "expected_transmission" in sc else None)
    direct = composer.star(s2, s1, wiring)
    trans = direct.block("R", "L")
    if expected is not None and trans.size == 0:
        raise InvalidInputError("expected_transmission given for an empty transmission block")
    checks = [_series_check(direct, s2, s1, wiring),
              ("star unitarity defect", unitarity_defect(direct.matrix))]
    print(f"transmission block:\n{np.array_str(trans, precision=12)}", file=out)
    if expected is not None:
        gap = abs(abs(trans[0, 0]) - expected)
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
    parser.add_argument("command", choices=("run", "verify"),
                        help="run: emit CSV/SVG; verify: run oracle cross-checks")
    parser.add_argument("scenario", help="scenario JSON file")
    args = parser.parse_args(argv)
    try:
        return (_cmd_run if args.command == "run" else _cmd_verify)(args)
    except InvalidInputError as exc:
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
