"""Quantum-capacity bounds for erasure-type channels and superactivation
detection.

For a uniform transmission probability p the capacity is exactly
max{0, (2p - 1) log2 d}; in the state-dependent case only the bounds built
from the smallest and largest singular probabilities are reported.  All but
:func:`check_data_processing` also take a stack of operators, row by row;
that check takes one operator per factor and returns the signed slack of the
data-processing inequality, a float that is at most 0 when it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .numerics import as_matrix, as_single_matrix

PROB_CLAMP_TOL = 1e-10


def erasure_capacity(p, d: int):
    """Quantum capacity of the standard erasure channel with delivery
    probability p on a d-dimensional system; elementwise on an array of p."""
    if d < 2:
        raise InvalidInputError(f"internal dimension must be >= 2, got {d}")
    p = np.asarray(p, dtype=float)
    ok = (p >= -PROB_CLAMP_TOL) & (p <= 1.0 + PROB_CLAMP_TOL)
    if not ok.all():  # a NaN fails too
        raise InvalidInputError(f"probability out of range: {p[~ok].flat[0]}")
    # clipping below at 0 would change nothing: 2p - 1 < 0 there
    return np.maximum(0.0, (2.0 * np.minimum(p, 1.0) - 1.0) * math.log2(d))


def singular_probabilities(m) -> np.ndarray:
    """Squared singular values of the transmission operator, ascending
    along the last axis."""
    p = np.linalg.svd(as_matrix(m), compute_uv=False)[..., ::-1] ** 2
    if p.size and p.max() > 1.0 + PROB_CLAMP_TOL:
        raise InvalidInputError(
            f"M^dag M has eigenvalue {p.max():.12f} > 1; not a valid transmission operator"
        )
    return np.minimum(p, 1.0)


@dataclass(frozen=True, eq=False)  # fields hold arrays
class CapacityBounds:
    """Ascending singular probabilities ``p`` (a stack: one row each) and the
    bounds they give: ``q_low`` from the smallest, ``q_up`` from the largest."""

    p: np.ndarray
    d: int
    q_low: np.ndarray = field(init=False)
    q_up: np.ndarray = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim == 0 or p.shape[-1] == 0 or not (p[..., 1:] >= p[..., :-1]).all():
            raise InvalidInputError("singular probabilities must be nonempty and ascending")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q_low", erasure_capacity(p[..., 0], self.d))
        object.__setattr__(self, "q_up", erasure_capacity(p[..., -1], self.d))


def capacity_bounds(m, d: int) -> CapacityBounds:
    """Bounds on the quantum capacity of the channel induced by M."""
    return CapacityBounds(singular_probabilities(m), d)


def check_data_processing(m1, m2) -> float:
    """The slack p_max(M2 M1) - min(p_max(M1), p_max(M2)) of the
    data-processing inequality: at most 0 when the composed channel is no
    less noisy than either factor."""
    p1 = singular_probabilities(m1)
    p2 = singular_probabilities(m2)
    p21 = singular_probabilities(as_single_matrix(m2) @ as_single_matrix(m1))
    return float(p21[-1] - min(p1[-1], p2[-1]))


def detect_superactivation(resonant: CapacityBounds, direct: CapacityBounds):
    """Certified superactivation, elementwise on stacks: the resonant channel
    provably has positive capacity while the direct one provably has zero."""
    if resonant.d != direct.d:
        raise InvalidInputError(
            f"dimension mismatch: {resonant.d} vs {direct.d}"
        )
    return (resonant.q_low > 0.0) & (direct.q_up <= 0.0)
