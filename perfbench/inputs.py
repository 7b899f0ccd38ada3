"""Seeded inputs for the three benchmark workloads.

Everything here is drawn from ``numpy.random.default_rng`` streams keyed by
the workload seed, so one seed always gives the same scenarios, grids and
composition jobs.  Nothing in this module imports scatchan: the program only
ever sees the JSON scenario files and the matrices built here.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Shipped fig2 geometry (src/scatchan/scenarios/fig2_eps0.json).
HALF_WIDTH = 0.2683281572999748
SEPARATION = 44.7213595499958
GRID_POINTS = 20000

FIG2_SCENARIOS = 8  # few enough that every scenario repeats within a run
CROSSCHECK_GRID = 200

# Job kinds of compose_mix, one block of ten shuffled per ten jobs, so every
# kind holds its exact share (40/20/20/20 %) of every ten consecutive jobs.
MIX_BLOCK = ("homogeneous",) * 4 + ("dishomogeneous",) * 2 + (
    "singular_loop",) * 2 + ("ring_contract",) * 2
KINDS = tuple(dict.fromkeys(MIX_BLOCK))
RING_ORDERS = (((1, 2), (1, 3)), ((1, 3), (1, 2)), ((2, 3), (1, 2)))


def draw_barriers(rng, n: int) -> list[dict]:
    """n barrier parameter sets around fig2_eps0/fig2_eps01: epsilon and eta
    in [0, 0.2], half-width and separation within 10% of the shipped values.

    Each parameter is stratified (one draw in each n-th of its range, in a
    random order), so that every seed covers each range evenly.
    """
    def strata(lo, hi):
        return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n

    eps, eta = strata(0.0, 0.2), strata(0.0, 0.2)
    half_width = HALF_WIDTH * strata(0.9, 1.1)
    separation = SEPARATION * strata(0.9, 1.1)
    return [{"epsilon": float(eps[i]), "eta": float(eta[i]),
             "half_width": float(half_width[i]), "separation": float(separation[i])}
            for i in range(n)]


def fig2_scenarios(seed: int, directory: str) -> list[tuple[str, dict]]:
    """Write the fig2_run scenarios as JSON files; returns (path, scenario)."""
    out = []
    for i, params in enumerate(draw_barriers(np.random.default_rng([seed, 1]), FIG2_SCENARIOS)):
        sc = {"kind": "barrier-sweep", "name": f"sweep{i}", **params,
              "grid": {"start": 0.005, "stop": 2.0, "points": GRID_POINTS}}
        path = os.path.join(directory, f"sweep{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sc, fh, indent=1, sort_keys=True)
        out.append((path, sc))
    return out


class CrosscheckJobs:
    """Endless stream of (base parameters, sorted 200-point grid) jobs.

    Op cost differs from one base to another, so every op draws a fresh
    base: a small cycled pool would split op times into a few clusters and
    put the median on the edge between two of them.
    """

    def __init__(self, seed: int, stream: int = 2):
        self.rng = np.random.default_rng([seed, stream])
        self.bases: list[dict] = []

    def __next__(self) -> dict:
        base = draw_barriers(self.rng, 1)[0]
        self.bases.append(base)
        while True:
            # (0.005, 2.0], strictly increasing as energy_sweep requires
            grid = np.sort(2.0 - self.rng.uniform(0.0, 1.995, CROSSCHECK_GRID))
            if np.all(np.diff(grid) > 0):
                return {"base": base, "grid": grid}


def random_unitary(rng, n):
    """Haar unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bounded_loop_unitary(rng, m, cmax=0.9):
    """Unitary of size 2m whose reflection blocks have norm <= cmax
    (cosine-sine construction), so a pair of them is contractive."""
    c = rng.uniform(0.0, cmax, size=m)
    s = np.sqrt(1.0 - c * c)
    core = np.block([[np.diag(c), np.diag(s)], [np.diag(s), -np.diag(c)]])
    z = np.zeros((m, m))
    u = np.block([[random_unitary(rng, m), z], [z, random_unitary(rng, m)]])
    v = np.block([[random_unitary(rng, m), z], [z, random_unitary(rng, m)]])
    return u @ core @ v


def singular_loop_pair(rng, k, d):
    """Unitary pair whose loop matrix S2^LL S1^RR has an exact eigenvalue 1:
    s1 fully reflects one right mode with phase e^{i beta}, s2 one left mode
    with e^{-i beta}; everything else is Haar."""
    n = 2 * k * d
    beta = rng.uniform(0, 2 * np.pi)

    def embed(phase, idx):
        out = np.zeros((n, n), dtype=complex)
        out[idx, idx] = phase
        rest = [j for j in range(n) if j != idx]
        out[np.ix_(rest, rest)] = random_unitary(rng, n - 1)
        return out

    m1 = embed(np.exp(1j * beta), k * d)
    return embed(np.exp(-1j * beta), 0), m1


def _dishomogeneous_specs(rng):
    """Slot counts (left_in, left_out, right_in, right_out) in 1..3 for a
    composable pair with in/out balance and at least one unequal group."""
    while True:
        li1, ri1, ro1, ri2 = (int(x) for x in rng.integers(1, 4, size=4))
        lo1 = li1 + ri1 - ro1
        ro2 = ro1 + ri2 - ri1
        s1, s2 = (li1, lo1, ri1, ro1), (ro1, ri1, ri2, ro2)
        if 1 <= lo1 <= 3 and 1 <= ro2 <= 3 and len(set(s1 + s2)) > 1:
            return s1, s2


def _random_wiring(rng, k):
    return (tuple(zip(range(k), (int(x) for x in rng.permutation(k)))),
            tuple(zip(range(k), (int(x) for x in rng.permutation(k)))))


class ComposeJobs:
    """Endless stream of compose_mix jobs.  Each job holds only raw matrices,
    slot counts and wiring tuples; the op builds the scatchan objects."""

    def __init__(self, seed: int, stream: int = 3):
        self.rng = np.random.default_rng([seed, stream])
        self.block: list[str] = []
        self.counts = {kind: 0 for kind in KINDS}

    def __next__(self) -> dict:
        rng = self.rng
        if not self.block:
            self.block = [MIX_BLOCK[i] for i in rng.permutation(len(MIX_BLOCK))]
        kind = self.block.pop()
        self.counts[kind] += 1
        d = int(rng.integers(1, 4))
        job = {"kind": kind, "d": d, "wiring": None}
        if kind == "homogeneous":
            k = int(rng.integers(1, 4))
            if rng.random() < 0.5:
                mats = [bounded_loop_unitary(rng, k * d) for _ in range(2)]
            else:
                mats = [random_unitary(rng, 2 * k * d) for _ in range(2)]
            job["pair"] = [(mats[0], (k, k, k, k)), (mats[1], (k, k, k, k))]
            job["wiring"] = _random_wiring(rng, k)
        elif kind == "dishomogeneous":
            s1, s2 = _dishomogeneous_specs(rng)
            job["pair"] = [(random_unitary(rng, (s2[0] + s2[2]) * d), s2),
                           (random_unitary(rng, (s1[0] + s1[2]) * d), s1)]
        elif kind == "singular_loop":
            k = int(rng.integers(1, 4))
            m2, m1 = singular_loop_pair(rng, k, d)
            job["pair"] = [(m2, (k, k, k, k)), (m1, (k, k, k, k))]
        else:
            job["vertices"] = [random_unitary(rng, 2 * d) for _ in range(3)]
            job["order"] = RING_ORDERS[int(rng.integers(len(RING_ORDERS)))]
        return job
