"""Concrete scattering models: spin-dependent square barriers, a point-like
loss scatterer, and the resonant double-barrier line they form.

Dimensionless convention: energies in units of the barrier scale V0,
lengths in units of 1/k0 with k0 = sqrt(2 m V0)/hbar.  A particle with
energy ratio Et sees wavenumber k = sqrt(Et); inside a barrier of relative
height h the decay constant is kappa = sqrt(h - Et), continued to
i*sqrt(Et - h) above the top.  One complex code path covers both regimes.

Both routes to the transmission operator run on a whole energy grid at
once and return the keys ``single`` and ``double``: the graph pipeline
(:func:`pipeline_amplitudes`) contracts stacks of scattering matrices, one
per energy, in chunks of at most PIPELINE_CHUNK energies; the closed form
(:func:`closed_form_amplitudes`) gives the diagonals of its operators, and
:func:`pipeline_gap` is the one comparison of the two.  The pipeline builds
the double line as the paper's resonant concatenation: the contracted single
line (barrier, then loss scatterer) star-merged with the second barrier.
:func:`pipeline_m` is the pipeline's one-point call.  The barrier-line
builders (:func:`barrier_smatrix`, :func:`translated_barrier`,
:func:`barrier_lines`) take a grid or a single energy: one matrix for a
scalar, a stack for a 1-D grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .capacity import PROB_CLAMP_TOL, CapacityBounds, detect_superactivation
from .channel import transmission_operator
from .errors import InternalConsistencyError, InvalidInputError, NonUnitaryError
from .graph import QuantumGraph, contract
from .numerics import max_abs
from .smatrix import UNITARITY_TOL, PortSpec, ScatteringMatrix

PIPELINE_MATCH_TOL = 1e-9
PIPELINE_CHUNK = 2048  # energies per contraction in pipeline_amplitudes
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


def _spin_coefficients(base: BarrierParams, energies: np.ndarray):
    """:func:`barrier_coefficients` of ``base`` at each energy for the spin
    heights 1 + eps and 1 - eps, along a new last axis (spin up first)."""
    return barrier_coefficients(
        energies[..., None], np.array([1.0 + base.epsilon, 1.0 - base.epsilon]), base.half_width)


def barrier_smatrix(base: BarrierParams, energies) -> ScatteringMatrix:
    """The 4x4 spin-resolved barrier scatterer (d=2, one slot per side) of
    ``base``'s epsilon and half width at each energy: one matrix for a
    scalar, a stack for a 1-D grid.  The unitarity gate runs on the
    amplitudes: S^dag S - 1 has the entries |r|^2 + |t|^2 - 1 and
    2 Re(conj(r) t) for each spin."""
    energies = np.asarray(energies, dtype=float)
    refl, trans = _spin_coefficients(base, energies)
    if not (np.all(np.isfinite(refl)) and np.all(np.isfinite(trans))):
        raise InvalidInputError("barrier amplitudes contain NaN or Inf entries")
    defect = max_abs(np.stack((np.abs(refl) ** 2 + np.abs(trans) ** 2 - 1.0,
                               2.0 * (refl.conj() * trans).real)))
    if not defect <= UNITARITY_TOL:
        raise NonUnitaryError(
            f"max |S^dag S - 1| = {defect:.3e} exceeds {UNITARITY_TOL:.0e}")
    # [[R, T], [T, R]] with R = diag(r_up, r_dn) and T = diag(t_up, t_dn):
    # row-major entries 0, 5 and 10, 15 hold R, entries 2, 7 and 8, 13 hold T
    matrix = np.zeros(energies.shape + (16,), dtype=complex)
    matrix[..., 0:10:5] = matrix[..., 10::5] = refl
    matrix[..., 2:8:5] = matrix[..., 8:14:5] = trans
    return ScatteringMatrix._trusted(matrix.reshape(energies.shape + (4, 4)),
                                     PortSpec(1, 1, 1, 1, 2))


def translated_barrier(s1: ScatteringMatrix, separation: float, energies) -> ScatteringMatrix:
    """Second barrier: the first one shifted by the separation w, which
    multiplies the reflection blocks by exp(+-i phi) with phi = 2 k w, at
    each energy of ``s1``'s stack.  The result is D S1 D with the unitary
    D = diag(exp(i phi/2), exp(-i phi/2)), so it stays unitary and only the
    phases are checked; ``energies`` must have the shape of that stack."""
    if np.shape(energies) != s1.matrix.shape[:-2]:
        raise InvalidInputError(f"energies of shape {np.shape(energies)} do not match "
                                f"the barrier stack of shape {s1.matrix.shape[:-2]}")
    phi = 2.0 * np.sqrt(np.asarray(energies, dtype=float)) * separation
    if not np.all(np.isfinite(phi)):
        raise InvalidInputError("translation phase contains NaN or Inf entries")
    # One out-of-place product of the (..., 2, d, 2, d) view of the stack and
    # the phase pattern [[exp(i phi), 1], [1, exp(-i phi)]] of its blocks.
    d, shape = s1.spec.dim, s1.matrix.shape
    phase = np.exp(1j * phi[..., None, None, None, None] * np.diag([1.0, -1.0])[:, None, :, None])
    matrix = (s1.matrix.reshape(shape[:-2] + (2, d, 2, d)) * phase).reshape(shape)
    return ScatteringMatrix._trusted(matrix, s1.spec)


def loss_smatrix(eta: float) -> ScatteringMatrix:
    """Point-like spin- and energy-independent scatterer that deflects the
    particle off the line with probability eta (8x8, d=2)."""
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


def barrier_lines(base: BarrierParams, energies) -> dict:
    """The global scattering matrices of ``base``'s barrier lines at each
    energy (one matrix for a scalar, a stack for a 1-D grid), built on one
    barrier stack.

    ``single``: barrier followed by the loss scatterer, Bob on the
    continuing-line output.  ``double``: the single line's resonant
    concatenation with the translated second barrier, one merge on top of
    the contracted single line, Bob past the second barrier.  Alice is on
    port 1 and Bob on port 4 of both.
    """
    barrier = barrier_smatrix(base, energies)
    loss = loss_smatrix(base.eta)
    loss = ScatteringMatrix._trusted(
        np.broadcast_to(loss.matrix, np.shape(energies) + loss.matrix.shape), loss.spec)
    ports = [(1, 0), (2, 1), (2, 2), (2, 3)]
    single = contract(QuantumGraph.build(
        vertices=[(1, barrier), (2, loss)],
        internal_edges=[((1, 1), (2, 0)), ((2, 0), (1, 1))],
        dangling_in=ports, dangling_out=ports,
    ))
    ports = [(1, 0), (1, 1), (1, 2), (2, 1)]
    double = contract(QuantumGraph.build(
        vertices=[(1, single), (2, translated_barrier(barrier, base.separation, energies))],
        internal_edges=[((1, 3), (2, 0)), ((2, 0), (1, 3))],
        dangling_in=ports, dangling_out=ports,
    ))
    return {"single": single, "double": double}


def pipeline_amplitudes(base: BarrierParams, energies) -> dict:
    """Transmission operators computed through graph contraction on an
    energy grid; the independent cross-check for
    :func:`closed_form_amplitudes`.

    Keys ``single`` and ``double``, each a stack of 2x2 operators (spin up
    first), one per energy; the whole operator is kept, so a spurious
    spin-mixing entry shows in a comparison with the diagonal closed form.
    Both lines come from one :func:`barrier_lines` call: one barrier stack,
    one merge for the single line and one more for the double line.  A grid
    longer than PIPELINE_CHUNK runs in chunks of at most that many
    energies, which bounds the memory of the stacks; the rows do not depend
    on the chunking.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1:
        raise InvalidInputError("energies must be a 1-D sequence")
    if energies.size > PIPELINE_CHUNK:
        parts = [pipeline_amplitudes(base, chunk) for chunk in
                 np.array_split(energies, -(-energies.size // PIPELINE_CHUNK))]
        return {cfg: np.concatenate([part[cfg] for part in parts]) for cfg in parts[0]}
    return {
        cfg: transmission_operator(s, in_port=1, out_port=4)
        for cfg, s in barrier_lines(base, energies).items()
    }


def pipeline_m(p: BarrierParams, double: bool) -> np.ndarray:
    """Transmission operator through graph contraction at one energy; the
    one-point call of :func:`pipeline_amplitudes` (which contracts both
    lines)."""
    return pipeline_amplitudes(p, [p.energy_ratio])["double" if double else "single"][0]


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

    def to_csv(self) -> str:
        """One header line, then per energy the nine float columns as
        ``%.12e`` and the flag as 0 or 1, byte-identical to formatting each
        cell with ``%`` (see :mod:`scatchan.csvtext`)."""
        from .csvtext import csv_text  # loaded only by processes that write a CSV

        values = np.column_stack([getattr(self, f.name) for f in fields(self)[:-1]])
        return csv_text(self.CSV_COLUMNS, values, self.superactivated)


# The CSV header: the field names, with the energy column named E_over_V0.
SweepTable.CSV_COLUMNS = ("E_over_V0", *(f.name for f in fields(SweepTable)[1:]))


def closed_form_amplitudes(base: BarrierParams, energies) -> dict:
    """Closed-form spin amplitudes of both configurations on an energy grid.

    Keys ``single`` (barrier-then-loss) and ``double`` (the resonant
    double-barrier line with its Fabry-Perot denominator): the diagonals of
    the :func:`pipeline_amplitudes` operators, shape ``energies.shape + (2,)``,
    spin up first.  Raises InternalConsistencyError where that denominator
    falls below RESONANT_DENOM_FLOOR or a probability |m|^2 exceeds
    1 + PROB_CLAMP_TOL: there the closed form has lost its accuracy, and no
    value is returned.
    """
    energies = np.asarray(energies, dtype=float)
    r, t = _spin_coefficients(base, energies)
    phi = 2.0 * np.sqrt(energies) * base.separation
    denom = 1.0 - (1.0 - base.eta) * r * r * np.exp(1j * phi)[..., None]
    size = np.abs(denom)
    if not np.all(size >= RESONANT_DENOM_FLOOR):
        i = int(np.argmin(size))  # the first NaN, if any
        raise InternalConsistencyError(
            f"resonant denominator {size.flat[i]:.3e} below "
            f"{RESONANT_DENOM_FLOOR:.0e} at E/V0={energies.flat[i // 2]:.6f}"
        )
    single = np.sqrt(1.0 - base.eta) * t
    out = {"single": single, "double": single * t / denom}
    # Gated as a probability, on the bound erasure_capacity enforces.
    worst = np.max(np.abs(np.stack(list(out.values())))) ** 2
    if not worst <= 1.0 + PROB_CLAMP_TOL:
        raise InternalConsistencyError(
            f"closed-form transmission probability {worst:.12f} exceeds unity")
    return out


def pipeline_gap(base: BarrierParams, energies, closed: dict) -> np.ndarray:
    """The closed form checked against the graph pipeline: at each energy,
    the largest entry gap, over both lines, between the operators of
    :func:`pipeline_amplitudes` and the diagonal operators of ``closed``
    (:func:`closed_form_amplitudes` at the same energies).  A NaN on either
    side stays NaN."""
    piped = pipeline_amplitudes(base, energies)
    return np.maximum(*(
        np.max(np.abs(piped[cfg] - closed[cfg][..., None] * np.eye(2)), axis=(-2, -1))
        for cfg in ("single", "double")
    ))


def energy_sweep(
    base: BarrierParams,
    grid,
    cross_check_every: int = 100,
) -> SweepTable:
    """Sweep the energy grid in one vectorized closed-form pass.

    Every ``cross_check_every``-th grid point is checked against the
    graph-contraction pipeline by one :func:`pipeline_gap` call on exactly
    the closed-form values the table holds; a gap above PIPELINE_MATCH_TOL
    (or a NaN) raises InternalConsistencyError, as does a closed form that
    fails its own resonance-floor or unit-amplitude check.
    ``cross_check_every=0`` skips the pipeline; a negative or non-integer
    stride raises InvalidInputError.
    """
    if not isinstance(cross_check_every, numbers.Integral) or cross_check_every < 0:
        raise InvalidInputError(
            f"cross_check_every must be a whole number >= 0, got {cross_check_every!r}")
    energies = np.asarray(grid, dtype=float)
    if energies.ndim != 1 or energies.size < 1:
        raise InvalidInputError("energy grid must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(energies) & (energies > 0)):
        raise InvalidInputError("energy grid must be finite and positive")
    if not np.all(np.diff(energies) > 0):
        raise InvalidInputError("energy grid must be strictly increasing")

    closed = closed_form_amplitudes(base, energies)
    p = {cfg: np.abs(a) ** 2 for cfg, a in closed.items()}
    # Diagonal operators: |m_up|^2 and |m_dn|^2 are the singular probabilities.
    single, double = (
        CapacityBounds(np.stack((np.minimum(*p[cfg].T), np.maximum(*p[cfg].T)), axis=-1), 2)
        for cfg in ("single", "double")
    )

    if cross_check_every > 0:
        checked = energies[::cross_check_every]
        gap = pipeline_gap(base, checked, {cfg: a[::cross_check_every]
                                           for cfg, a in closed.items()})
        bad = np.flatnonzero(~(gap <= PIPELINE_MATCH_TOL))
        if bad.size:
            i = bad[0]
            raise InternalConsistencyError(
                f"closed-form/pipeline mismatch {gap[i]:.3e} at E/V0={checked[i]:.6f}")

    return SweepTable(
        energies, *p["single"].T, *p["double"].T,
        single.q_low, single.q_up, double.q_low, double.q_up,
        detect_superactivation(double, single),
    )
