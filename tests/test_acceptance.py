"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (visible with ``pytest -s`` or in the captured output of a failure).
Residuals are accumulated with ``np.maximum``/``np.minimum``, which carry a
NaN into the result; the builtin ``max(0.0, nan)`` would drop it.
"""

import time
from importlib.resources import files

import numpy as np

from scatchan import capacity, channel, cli, physics
from scatchan.composer import star, star_via_series
from scatchan.graph import contract
from scatchan.numerics import max_abs, operator_norm
from scatchan.smatrix import s_to_t, t_to_s, unitarity_defect

from conftest import (
    bounded_loop_smatrix,
    random_contraction,
    random_density,
    random_smatrix,
    singular_loop_pair,
)
from test_graph import three_vertex_graph

HALF_WIDTH_REF = 0.06 * np.sqrt(20)
SEPARATION_REF = 10 * np.sqrt(20)


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_star_unitarity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    singular_cases = 0
    for i in range(500):
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        if i % 20 == 0:
            s2, s1 = singular_loop_pair(rng, k, d)
            singular_cases += 1
        else:
            s1, s2 = random_smatrix(rng, k, d), random_smatrix(rng, k, d)
        g = star(s2, s1)
        worst = np.maximum(worst, unitarity_defect(g.matrix))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst < 1e-9 and singular_cases >= 20 and elapsed < 10.0,
        f"max unitarity defect {worst:.2e} over 500 pairs "
        f"({singular_cases} singular-loop), {elapsed:.1f}s",
    )


def test_criterion_2_oracle_triangle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        s1 = bounded_loop_smatrix(rng, k, d)
        s2 = bounded_loop_smatrix(rng, k, d)
        assert operator_norm(s2.block("L", "L") @ s1.block("R", "R")) <= 0.9
        a = star(s2, s1).matrix
        b = star_via_series(s2, s1, tol=1e-14).matrix
        c = t_to_s(s_to_t(s2) @ s_to_t(s1), d).matrix
        worst = np.max([worst, max_abs(a - b), max_abs(b - c), max_abs(a - c)])
    _report(2, worst < 1e-8, f"max pairwise route disagreement {worst:.2e}")


def test_criterion_3_contraction_order_independence():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10):
        g = three_vertex_graph(rng, d=2)
        a = contract(g, order=[(1, 2), (1, 3)])
        b = contract(g, order=[(1, 3), (1, 2)])
        worst = np.maximum(worst, max_abs(a.matrix - b.matrix))
    _report(3, worst < 1e-9, f"max order disagreement {worst:.2e}")


def test_criterion_4_channel_cptp():
    rng = np.random.default_rng(104)
    worst_kraus, worst_choi, worst_trace = 0.0, 0.0, 0.0
    for _ in range(200):
        d = int(rng.integers(2, 5))
        ch = channel.ErasureChannel(random_contraction(rng, d))
        ops = channel.kraus_set(ch)
        total = sum(k.conj().T @ k for k in ops)
        worst_kraus = np.maximum(worst_kraus, max_abs(total - np.eye(d)))
        j = channel.choi(ch)
        worst_choi = np.minimum(worst_choi, np.min(np.linalg.eigvalsh(j)))
        rho = random_density(rng, d)
        worst_trace = np.maximum(
            worst_trace, abs(np.trace(channel.apply(ch, rho)) - 1.0)
        )
    ok = worst_kraus < 1e-10 and worst_choi >= -1e-10 and worst_trace < 1e-12
    _report(
        4, ok,
        f"kraus {worst_kraus:.2e}, choi min eig {worst_choi:.2e}, "
        f"trace dev {worst_trace:.2e} over 200 channels",
    )


def test_criterion_5_capacity_values_and_data_processing():
    rng = np.random.default_rng(105)
    spot = (
        capacity.erasure_capacity(1.0, 2) == 1.0
        and capacity.erasure_capacity(0.5, 2) == 0.0
        and capacity.erasure_capacity(0.75, 2) == 0.5
    )
    ordered = True
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        b = capacity.capacity_bounds(random_contraction(rng, d), d)
        ordered = ordered and b.q_low <= b.q_up
    dpi = True
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        slack = capacity.check_data_processing(random_contraction(rng, d),
                                               random_contraction(rng, d))
        dpi = dpi and slack <= 1e-12
    _report(
        5, spot and ordered and dpi,
        f"spot values {'ok' if spot else 'BAD'}, 1000 bound orderings "
        f"{'ok' if ordered else 'BAD'}, 1000 data-processing checks "
        f"{'ok' if dpi else 'BAD'}",
    )


def test_criterion_6_flux_conservation():
    worst = 0.0
    for eps in (0.0, 0.1):
        for height in (1.0 + eps, 1.0 - eps):
            energies = np.linspace(0.001, 5.0, 100000)
            # pin the barrier-top boundary energy onto the grid
            energies = np.unique(np.concatenate([energies, [height]]))
            r, t = physics.barrier_coefficients(energies, height, HALF_WIDTH_REF)
            worst = np.maximum(worst, max_abs(np.abs(r) ** 2 + np.abs(t) ** 2 - 1.0))
    _report(6, worst < 1e-10, f"max flux defect {worst:.2e} over 1e5-point grids")


def test_criterion_7_closed_form_vs_pipeline():
    t0 = time.perf_counter()
    energies = np.linspace(0.005, 2.0, 10000)
    worst = 0.0
    for eps in (0.0, 0.1):
        for eta in (0.0, 0.1):
            base = physics.BarrierParams(1.0, eps, HALF_WIDTH_REF, SEPARATION_REF, eta)
            amp = physics.closed_form_amplitudes(base, energies)
            worst = np.maximum(worst, np.max(physics.pipeline_gap(base, energies, amp)))
    elapsed = time.perf_counter() - t0
    _report(
        7,
        worst < 1e-9 and elapsed < 60.0,
        f"max closed-form/pipeline gap {worst:.2e} over 4x10^4 energies, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_resonant_tunneling():
    base = physics.BarrierParams(0.5, 0.0, HALF_WIDTH_REF, SEPARATION_REF, 0.0)
    grid = np.linspace(1e-5, 1.0 - 1e-9, 100000)

    def double_p(es):
        amp = physics.closed_form_amplitudes(base, np.atleast_1d(es))
        return np.abs(amp["double"][:, 0]) ** 2

    def single_p(es):
        amp = physics.closed_form_amplitudes(base, np.atleast_1d(es))
        return np.abs(amp["single"][:, 0]) ** 2

    p_grid = double_p(grid)
    i_max = int(np.argmax(p_grid))
    grid_ok = p_grid[i_max] >= 0.9999
    # zoom onto the resonance to evaluate the capacity at the peak
    lo = grid[max(i_max - 1, 0)]
    hi = grid[min(i_max + 1, len(grid) - 1)]
    for _ in range(40):
        zoom = np.linspace(lo, hi, 30)
        pz = double_p(zoom)
        j = int(np.argmax(pz))
        lo, hi = zoom[max(j - 1, 0)], zoom[min(j + 1, len(zoom) - 1)]
    e_res = 0.5 * (lo + hi)
    p_res = float(double_p(e_res)[0])
    q_res = capacity.erasure_capacity(min(p_res, 1.0), 2)
    p_single = float(single_p(e_res)[0])
    ok = grid_ok and abs(q_res - 1.0) < 1e-6 and p_single < p_res
    _report(
        8, ok,
        f"double-barrier peak p={p_res:.9f} at E/V0={e_res:.6f} "
        f"(grid max {p_grid[i_max]:.6f}), Q={q_res:.9f}, "
        f"single p={p_single:.4f}",
    )


def test_criterion_9_superactivation_windows():
    grid = np.linspace(0.005, 2.0, 20000)
    counts = {}
    for eps in (0.0, 0.1):
        base = physics.BarrierParams(0.5, eps, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
        table = physics.energy_sweep(base, grid, cross_check_every=5000)
        counts[eps] = int(np.sum(table.superactivated))
    ok = counts[0.0] > 0 and counts[0.1] > 0
    _report(
        9, ok,
        f"superactivation windows: {counts[0.0]} grid points (eps=0), "
        f"{counts[0.1]} grid points (eps=0.1)",
    )


def test_criterion_10_determinism(tmp_path):
    scenario = str(files("scatchan") / "scenarios" / "fig2_eps0.json")
    outputs = []
    for i, threads in enumerate((1, 1, 4)):
        out = tmp_path / f"run{i}"
        rc = cli.main(["--out", str(out), "--threads", str(threads), "run", scenario])
        assert rc == 0
        outputs.append((out / "fig2_eps0.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(
        10, ok,
        f"byte-identical CSV across repeat runs and thread counts 1/4 "
        f"({len(outputs[0])} bytes)",
    )
