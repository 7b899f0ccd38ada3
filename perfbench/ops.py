"""One op of each workload, and the checks of its outputs.

Ops call scatchan only through module attributes (``physics.energy_sweep``),
so the tracer's rebinding reaches them.  Checks run outside the op timer.
Every gate is written ``not (x <= tol)`` so that a NaN residual fails it.
"""

from __future__ import annotations

import numpy as np

from scatchan import capacity, channel, composer, graph, physics, smatrix

MATCH_TOL = 1e-9  # closed form against |pipeline_m|^2
UNITARITY_TOL = 1e-9
SERIES_TOL = 1e-8
KRAUS_TOL = 1e-10
SERIES_NORM = 0.9  # loop norm below which star_via_series converges in time
SAMPLE_POINTS = 4

PROB_COLUMNS = ("p_up_single", "p_dn_single", "p_up_double", "p_dn_double")


def _barrier(base: dict, energy: float):
    return physics.BarrierParams(
        energy, base["epsilon"], base["half_width"], base["separation"], base["eta"])


def _defect(m) -> float:
    m = np.asarray(m)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1])), initial=0.0))


def _pipeline_probs(base: dict, energy: float) -> np.ndarray:
    """|pipeline_m|^2 on the spin diagonal: p_up/p_dn single, then double."""
    p = _barrier(base, float(energy))
    single = np.abs(np.diag(physics.pipeline_m(p, double=False))) ** 2
    double = np.abs(np.diag(physics.pipeline_m(p, double=True))) ** 2
    return np.concatenate([single, double])


def check_table(base: dict, columns: dict, rows, failures: list):
    """Gates shared by the CLI's CSV and energy_sweep's table: probabilities
    in [0, 1], ordered bounds, the superactivation flag, and sampled rows
    against the graph-contraction pipeline."""
    probs = np.stack([columns[c] for c in PROB_COLUMNS])
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        failures.append("probability outside [0, 1]")
    for cfg in ("single", "double"):
        if not np.all(columns[f"q_low_{cfg}"] <= columns[f"q_up_{cfg}"]):
            failures.append(f"q_low_{cfg} > q_up_{cfg}")
    expected = (columns["q_low_double"] > 0) & (columns["q_up_single"] <= 0)
    if not np.array_equal(np.asarray(columns["superactivated"], dtype=bool), expected):
        failures.append("superactivated flag disagrees with the bounds")
    worst = 0.0
    for i in rows:
        gap = np.max(np.abs(_pipeline_probs(base, columns["energy"][i]) - probs[:, i]))
        worst = np.maximum(worst, gap)
    if not worst <= MATCH_TOL:
        failures.append(f"table vs |pipeline_m|^2 gap {worst:.3e}")


def crosscheck_op(job: dict):
    base = job["base"]
    return physics.energy_sweep(
        _barrier(base, 1.0), job["grid"], cross_check_every=1)


def crosscheck_check(job: dict, table, rng) -> list:
    failures: list = []
    columns = {c: getattr(table, c) for c in PROB_COLUMNS + (
        "q_low_single", "q_up_single", "q_low_double", "q_up_double",
        "superactivated")}
    columns["energy"] = table.energy
    if not np.array_equal(table.energy, job["grid"]):
        failures.append("sweep energies differ from the grid")
    rows = rng.choice(len(job["grid"]), SAMPLE_POINTS, replace=False)
    check_table(job["base"], columns, rows, failures)
    return failures


def fig2_check(scenario: dict, csv_bytes: bytes, rng) -> list:
    """Check one CSV written by ``scatchan run``; returns the failures."""
    failures: list = []
    lines = csv_bytes.decode("ascii").splitlines()
    header = lines[0].split(",")
    if header != list(physics.SweepTable.CSV_COLUMNS):
        return [f"unexpected CSV header {header}"]
    n = scenario["grid"]["points"]
    if len(lines) - 1 != n:
        return [f"CSV has {len(lines) - 1} rows, expected {n}"]
    data = np.array([line.split(",") for line in lines[1:]], dtype=float)
    columns = {name: data[:, j] for j, name in enumerate(
        ("energy",) + tuple(header[1:]))}
    # The CSV rounds E to 12 digits; resonances are sharp enough that the
    # pipeline must be evaluated at the scenario's exact grid point.
    grid = np.linspace(scenario["grid"]["start"], scenario["grid"]["stop"], n)
    gap = float(np.max(np.abs(columns["energy"] - grid) / grid))
    if not gap <= 1e-11:
        failures.append(f"CSV energies differ from the grid by {gap:.3e}")
    columns["energy"] = grid
    rows = rng.choice(n, SAMPLE_POINTS, replace=False)
    check_table(scenario, columns, rows, failures)
    return failures


def compose_op(job: dict):
    """One composition job and the channel it induces."""
    d = job["d"]

    def scatterer(matrix, counts):
        return smatrix.ScatteringMatrix(matrix, smatrix.PortSpec(*counts, d))

    if job["kind"] == "ring_contract":
        vertices = [(i + 1, scatterer(m, (1, 1, 1, 1)))
                    for i, m in enumerate(job["vertices"])]
        g = graph.QuantumGraph.build(
            vertices=vertices,
            internal_edges=[((1, 1), (2, 1)), ((2, 1), (3, 1)), ((3, 1), (1, 1))],
            dangling_in=[(1, 0), (2, 0), (3, 0)],
            dangling_out=[(1, 0), (2, 0), (3, 0)],
        )
        result = graph.contract(g, order=job["order"])
        m = channel.transmission_operator(result, 1, 2)
        pair = None
    else:
        pair = [scatterer(m, counts) for m, counts in job["pair"]]
        wiring = composer.Wiring(*job["wiring"]) if job["wiring"] else None
        result = composer.star(pair[0], pair[1], wiring)
        m = channel.transmission_operator(result, 1, result.spec.left_out + 1)
    ch = channel.ErasureChannel(m)
    kraus = channel.kraus_set(ch)
    bounds = capacity.capacity_bounds(m, d) if d >= 2 else None
    return {"result": result, "pair": pair, "kraus": kraus, "bounds": bounds}


def compose_check(job: dict, out: dict) -> tuple[list, bool]:
    """Returns (failures, whether the series oracle ran)."""
    failures: list = []
    defect = _defect(out["result"].matrix)
    if not defect <= UNITARITY_TOL:
        failures.append(f"{job['kind']}: unitarity defect {defect:.3e}")
    series_ran = False
    if out["pair"] is not None:
        s2, s1 = out["pair"]
        wiring = composer.Wiring(*job["wiring"]) if job["wiring"] else None
        # The wiring permutes s2's slots, which leaves this bound unchanged.
        loop_norm = (np.linalg.norm(s2.block("L", "L"), 2)
                     * np.linalg.norm(s1.block("R", "R"), 2))
        if loop_norm <= SERIES_NORM:
            series = composer.star_via_series(s2, s1, wiring, tol=1e-14)
            gap = float(np.max(np.abs(series.matrix - out["result"].matrix)))
            if not gap <= SERIES_TOL:
                failures.append(f"{job['kind']}: star vs series gap {gap:.3e}")
            series_ran = True
    d = job["d"]
    completeness = sum(k.conj().T @ k for k in out["kraus"]) - np.eye(d)
    worst = float(np.max(np.abs(completeness)))
    if not worst <= KRAUS_TOL:
        failures.append(f"{job['kind']}: Kraus completeness {worst:.3e}")
    bounds = out["bounds"]
    if bounds is not None and not bounds.q_low <= bounds.q_up:
        failures.append(f"{job['kind']}: q_low > q_up")
    return failures, series_ran
