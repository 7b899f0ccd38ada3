"""Concrete scattering models: spin-dependent square barriers, a point-like
loss scatterer, and the resonant double-barrier line they form.

Dimensionless convention: energies in units of the barrier scale V0,
lengths in units of 1/k0 with k0 = sqrt(2 m V0)/hbar.  A particle with
energy ratio Et sees wavenumber k = sqrt(Et); inside a barrier of relative
height h the decay constant is kappa = sqrt(h - Et), continued to
i*sqrt(Et - h) above the top.  One complex code path covers both regimes.

Both routes to the transmission operator run on a whole energy grid at
once: the closed form (:func:`closed_form_amplitudes`) and the graph
pipeline (:func:`pipeline_amplitudes`), which contracts stacks of scattering
matrices with one entry per energy.  :func:`closed_form_m` and
:func:`pipeline_m` are their one-point calls.  The barrier-line builders
(:func:`barrier_smatrix`, :func:`translated_barrier`,
:func:`barrier_graphs`) take a grid or a single energy: one matrix for a
scalar, a stack for a 1-D grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .capacity import PROB_CLAMP_TOL, CapacityBounds, detect_superactivation
from .channel import transmission_operator
from .errors import InternalConsistencyError, InvalidInputError
from .graph import QuantumGraph, contract
from .smatrix import PortSpec, ScatteringMatrix

PIPELINE_MATCH_TOL = 1e-9
RESONANT_DENOM_FLOOR = 1e-14


@dataclass(frozen=True)
class BarrierParams:
    """Dimensionless parameters of the two-barrier line."""

    energy_ratio: float  # E / V0
    epsilon: float = 0.0  # spin asymmetry of the barrier height
    half_width: float = 0.1  # a, in units of 1/k0
    separation: float = 0.0  # w, in units of 1/k0
    eta: float = 0.0  # deflection probability of the loss scatterer

    def __post_init__(self):
        bad = [f.name for f in fields(self) if not math.isfinite(getattr(self, f.name))]
        if bad:
            raise InvalidInputError(f"non-finite barrier parameters: {', '.join(bad)}")
        if not self.energy_ratio > 0:
            raise InvalidInputError(f"energy ratio must be positive, got {self.energy_ratio}")
        if not self.half_width > 0:
            raise InvalidInputError(f"half width must be positive, got {self.half_width}")
        if self.separation < 0:
            raise InvalidInputError(f"separation must be nonnegative, got {self.separation}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidInputError(f"epsilon out of [0, 1]: {self.epsilon}")
        if not 0.0 <= self.eta <= 1.0:
            raise InvalidInputError(f"eta out of [0, 1]: {self.eta}")


def _sinhc(x):
    """sinh(x)/x with a series fallback near zero (complex-safe)."""
    x = np.asarray(x, dtype=complex)
    small = np.abs(x) < 1e-6
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)
    return out


def barrier_coefficients(energy_ratio, height, half_width):
    """Reflection and transmission amplitudes of one square barrier.

    ``height`` is the relative barrier height (1 + eps or 1 - eps);
    vectorized over ``energy_ratio`` and ``height`` (broadcast together).
    Returns (refl, trans).
    """
    et = np.asarray(energy_ratio, dtype=float)
    if np.any(et <= 0):
        raise InvalidInputError("energy ratios must be positive")
    a = half_width
    k = np.sqrt(et)
    kappa = np.sqrt(np.asarray(height - et, dtype=complex))
    # g = sinh(2 a kappa) / kappa, finite across the barrier-top energy.
    g = 2.0 * a * _sinhc(2.0 * a * kappa)
    kappa_sq = height - et
    denom = np.cosh(2.0 * a * kappa) - 0.5j * (k * k - kappa_sq) / k * g
    trans = np.exp(-2j * k * a) / denom
    refl = -0.5j * (k * k + kappa_sq) / k * g * trans
    return refl, trans


def barrier_smatrix(base: BarrierParams, energies) -> ScatteringMatrix:
    """The 4x4 spin-resolved barrier scatterer (d=2, one slot per side) of
    ``base``'s epsilon and half width at each energy: one matrix for a
    scalar, a stack for a 1-D grid."""
    energies = np.asarray(energies, dtype=float)
    refl, trans = barrier_coefficients(
        energies[..., None], np.array([1.0 + base.epsilon, 1.0 - base.epsilon]),
        base.half_width,
    )
    # [[R, T], [T, R]] with R = diag(r_up, r_dn) and T = diag(t_up, t_dn)
    matrix = np.zeros(energies.shape + (4, 4), dtype=complex)
    i = np.arange(4)
    matrix[..., i, i] = np.concatenate((refl, refl), axis=-1)
    matrix[..., i, (i + 2) % 4] = np.concatenate((trans, trans), axis=-1)
    return ScatteringMatrix(matrix, PortSpec(1, 1, 1, 1, 2))


def translated_barrier(s1: ScatteringMatrix, separation: float, energies) -> ScatteringMatrix:
    """Second barrier: the first one shifted by the separation w, which
    multiplies the reflection blocks by exp(+-i phi) with phi = 2 k w, at
    each energy of ``s1``'s stack."""
    phi = (2.0 * np.sqrt(np.asarray(energies, dtype=float)) * separation)[..., None, None]
    d = s1.spec.dim
    matrix = np.array(s1.matrix)
    matrix[..., :d, :d] *= np.exp(1j * phi)
    matrix[..., d:, d:] *= np.exp(-1j * phi)
    return ScatteringMatrix(matrix, s1.spec)


@lru_cache(maxsize=32)
def loss_smatrix(eta: float) -> ScatteringMatrix:
    """Point-like spin- and energy-independent scatterer that deflects the
    particle off the line with probability eta (8x8, d=2).

    Cached: the matrix is immutable and independent of energy.
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidInputError(f"eta out of [0, 1]: {eta}")
    rt_e = np.sqrt(eta)
    rt_t = np.sqrt(1.0 - eta)
    pattern = np.array(
        [
            [0.0, 0.0, rt_e, rt_t],
            [0.0, 0.0, -rt_t, rt_e],
            [rt_e, -rt_t, 0.0, 0.0],
            [rt_t, rt_e, 0.0, 0.0],
        ]
    )
    return ScatteringMatrix(np.kron(pattern, np.eye(2)), PortSpec(2, 2, 2, 2, 2))


def barrier_graphs(base: BarrierParams, energies) -> dict:
    """The barrier lines of ``base`` at each energy (one graph of matrices
    for a scalar, of stacks for a 1-D grid), sharing one barrier stack.

    ``single``: barrier followed by the loss scatterer, Bob on the
    continuing-line output.  ``double``: barrier, loss scatterer and the
    translated second barrier, Bob past the second barrier.  Alice is on
    port 1 and Bob on port 4 of both.
    """
    barrier = barrier_smatrix(base, energies)
    loss = loss_smatrix(base.eta).broadcast_to(np.shape(energies))
    second = translated_barrier(barrier, base.separation, energies)
    single = QuantumGraph.build(
        vertices=[(1, barrier), (2, loss)],
        internal_edges=[((1, 1), (2, 0)), ((2, 0), (1, 1))],
        dangling_in=[(1, 0), (2, 1), (2, 2), (2, 3)],
        dangling_out=[(1, 0), (2, 1), (2, 2), (2, 3)],
    )
    double = QuantumGraph.build(
        vertices=[(1, barrier), (2, loss), (3, second)],
        internal_edges=[
            ((1, 1), (2, 0)),
            ((2, 0), (1, 1)),
            ((2, 3), (3, 0)),
            ((3, 0), (2, 3)),
        ],
        dangling_in=[(1, 0), (2, 1), (2, 2), (3, 1)],
        dangling_out=[(1, 0), (2, 1), (2, 2), (3, 1)],
    )
    return {"single": single, "double": double}


def pipeline_amplitudes(base: BarrierParams, energies) -> dict:
    """Transmission operators computed through graph contraction on an
    energy grid; the independent cross-check for
    :func:`closed_form_amplitudes`.

    Keys ``single`` and ``double``, each a stack of 2x2 operators (spin up
    first), one per energy; the whole operator is kept, so a spurious
    spin-mixing entry shows in a comparison with the diagonal closed form.
    Both graphs come from one :func:`barrier_graphs` call, so the barrier
    stack is built and checked once, and each graph is contracted once for
    the whole grid.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1:
        raise InvalidInputError("energies must be a 1-D sequence")
    return {
        cfg: transmission_operator(contract(g), in_port=1, out_port=4)
        for cfg, g in barrier_graphs(base, energies).items()
    }


def pipeline_m(p: BarrierParams, double: bool) -> np.ndarray:
    """Transmission operator through graph contraction at one energy; the
    one-point call of :func:`pipeline_amplitudes` for one configuration
    (the other is not contracted), mirroring :func:`closed_form_m`."""
    g = barrier_graphs(p, [p.energy_ratio])["double" if double else "single"]
    return transmission_operator(contract(g), in_port=1, out_port=4)[0]


@dataclass(frozen=True)
class SweepTable:
    """Per-energy transmission probabilities, capacity bounds for the
    single- and double-barrier configurations, and the SA flag."""

    energy: np.ndarray
    p_up_single: np.ndarray
    p_dn_single: np.ndarray
    p_up_double: np.ndarray
    p_dn_double: np.ndarray
    q_low_single: np.ndarray
    q_up_single: np.ndarray
    q_low_double: np.ndarray
    q_up_double: np.ndarray
    superactivated: np.ndarray

    CSV_COLUMNS = (
        "E_over_V0",
        "p_up_single", "p_dn_single", "p_up_double", "p_dn_double",
        "q_low_single", "q_up_single", "q_low_double", "q_up_double",
        "superactivated",
    )

    def to_csv(self) -> str:
        row = ",".join(["%.12e"] * (len(self.CSV_COLUMNS) - 1) + ["%d"])
        table = np.column_stack([getattr(self, f.name) for f in fields(self)])
        lines = [",".join(self.CSV_COLUMNS)]
        lines.extend(row % tuple(cells) for cells in table.tolist())
        return "\n".join(lines) + "\n"


def closed_form_amplitudes(base: BarrierParams, energies) -> dict:
    """Closed-form spin amplitudes of both configurations on an energy grid.

    Keys ``single_up``, ``single_dn`` (barrier-then-loss) and ``double_up``,
    ``double_dn`` (the resonant double-barrier line with its Fabry-Perot
    denominator).  Raises InternalConsistencyError where that denominator
    falls below RESONANT_DENOM_FLOOR or a probability |m|^2 exceeds
    1 + PROB_CLAMP_TOL: there the closed form has lost its accuracy, and no
    value is returned.
    """
    energies = np.asarray(energies, dtype=float)
    rt = np.sqrt(1.0 - base.eta)
    phi = 2.0 * np.sqrt(energies) * base.separation
    out = {}
    for label, height in (("up", 1.0 + base.epsilon), ("dn", 1.0 - base.epsilon)):
        r, t = barrier_coefficients(energies, height, base.half_width)
        denom = 1.0 - (1.0 - base.eta) * r * r * np.exp(1j * phi)
        size = np.abs(denom)
        if not np.all(size >= RESONANT_DENOM_FLOOR):
            i = int(np.argmin(size))  # the first NaN, if any
            raise InternalConsistencyError(
                f"resonant denominator {size[i]:.3e} below "
                f"{RESONANT_DENOM_FLOOR:.0e} at E/V0={energies[i]:.6f}"
            )
        out[f"single_{label}"] = rt * t
        out[f"double_{label}"] = rt * t * t / denom
    # Gated as a probability, on the bound erasure_capacity enforces.
    worst = np.max(np.abs(np.stack(list(out.values())))) ** 2
    if not worst <= 1.0 + PROB_CLAMP_TOL:
        raise InternalConsistencyError(
            f"closed-form transmission probability {worst:.12f} exceeds unity")
    return out


def closed_form_operators(amp: dict, cfg: str) -> np.ndarray:
    """The diagonal 2x2 transmission operators of configuration ``cfg``
    ('single' or 'double') from :func:`closed_form_amplitudes`, stacked
    like :func:`pipeline_amplitudes`."""
    up = amp[f"{cfg}_up"]
    out = np.zeros(up.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = up
    out[..., 1, 1] = amp[f"{cfg}_dn"]
    return out


def closed_form_m(p: BarrierParams, double: bool) -> np.ndarray:
    """Closed-form transmission operator at one energy; mirrors
    :func:`pipeline_m`."""
    amp = closed_form_amplitudes(p, [p.energy_ratio])
    return closed_form_operators(amp, "double" if double else "single")[0]


def energy_sweep(
    base: BarrierParams,
    grid,
    cross_check_every: int = 100,
) -> SweepTable:
    """Sweep the energy grid in one vectorized closed-form pass.

    Every ``cross_check_every``-th grid point is recomputed through the
    graph-contraction pipeline, all of them in one batched
    :func:`pipeline_amplitudes` call; a gap above PIPELINE_MATCH_TOL (or a
    NaN) raises InternalConsistencyError, as does a closed form that fails
    its own resonance-floor or unit-amplitude check.  ``cross_check_every=0``
    skips the pipeline.
    """
    energies = np.asarray(grid, dtype=float)
    if energies.ndim != 1 or energies.size < 1:
        raise InvalidInputError("energy grid must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(energies) & (energies > 0)):
        raise InvalidInputError("energy grid must be finite and positive")
    if not np.all(np.diff(energies) > 0):
        raise InvalidInputError("energy grid must be strictly increasing")

    amp = closed_form_amplitudes(base, energies)
    p_up_s = np.abs(amp["single_up"]) ** 2
    p_dn_s = np.abs(amp["single_dn"]) ** 2
    p_up_d = np.abs(amp["double_up"]) ** 2
    p_dn_d = np.abs(amp["double_dn"]) ** 2
    # Diagonal operators: |m_up|^2 and |m_dn|^2 are the singular probabilities.
    single, double = (
        CapacityBounds(np.stack((np.minimum(up, dn), np.maximum(up, dn)), axis=-1), 2)
        for up, dn in ((p_up_s, p_dn_s), (p_up_d, p_dn_d))
    )

    if cross_check_every > 0:
        pick = slice(None, None, cross_check_every)
        checked = energies[pick]
        piped = pipeline_amplitudes(base, checked)
        picked = {key: value[pick] for key, value in amp.items()}
        for cfg in ("single", "double"):
            closed = closed_form_operators(picked, cfg)
            gap = np.max(np.abs(piped[cfg] - closed), axis=(-2, -1))
            bad = np.flatnonzero(~(gap <= PIPELINE_MATCH_TOL))
            if bad.size:
                i = bad[0]
                raise InternalConsistencyError(
                    f"closed-form/pipeline mismatch {gap[i]:.3e} at "
                    f"E/V0={checked[i]:.6f} (double={cfg == 'double'})"
                )

    return SweepTable(
        energies, p_up_s, p_dn_s, p_up_d, p_dn_d,
        single.q_low, single.q_up, double.q_low, double.q_up,
        detect_superactivation(double, single),
    )
