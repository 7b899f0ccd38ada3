"""Quantum-capacity bounds for erasure-type channels and superactivation
detection.

For a uniform transmission probability p the capacity is exactly
max{0, (2p - 1) log2 d}; in the state-dependent case only the bounds built
from the smallest and largest singular probabilities are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .numerics import as_single_matrix

PROB_CLAMP_TOL = 1e-10


def erasure_capacity(p: float, d: int) -> float:
    """Quantum capacity of the standard erasure channel with delivery
    probability p on a d-dimensional system."""
    if d < 2:
        raise InvalidInputError(f"internal dimension must be >= 2, got {d}")
    if not -PROB_CLAMP_TOL <= p <= 1.0 + PROB_CLAMP_TOL:
        raise InvalidInputError(f"probability out of range: {p}")
    p = min(max(p, 0.0), 1.0)
    return max(0.0, (2.0 * p - 1.0) * math.log2(d))


def singular_probabilities(m) -> np.ndarray:
    """Squared singular values of the transmission operator, ascending."""
    mat = as_single_matrix(m)
    s = np.linalg.svd(mat, compute_uv=False)
    p = np.sort(s) ** 2
    if p.size and p[-1] > 1.0 + PROB_CLAMP_TOL:
        raise InvalidInputError(
            f"M^dag M has eigenvalue {p[-1]:.12f} > 1; not a valid transmission operator"
        )
    return np.clip(p, 0.0, 1.0)


@dataclass(frozen=True)
class CapacityBounds:
    """Ascending singular probabilities with the derived capacity bounds."""

    p: tuple
    d: int
    q_low: float
    q_up: float

    def __post_init__(self):
        if list(self.p) != sorted(self.p):
            raise InvalidInputError("singular probabilities must be ascending")
        if not 0.0 <= self.q_low <= self.q_up <= math.log2(self.d) + 1e-12:
            raise InvalidInputError(
                f"bounds out of order: q_low={self.q_low}, q_up={self.q_up}"
            )


def capacity_bounds(m, d: int) -> CapacityBounds:
    """Bounds on the quantum capacity of the channel induced by M."""
    p = singular_probabilities(m)
    if p.size == 0:
        raise InvalidInputError("empty transmission operator")
    return CapacityBounds(
        tuple(float(x) for x in p),
        d,
        erasure_capacity(float(p[0]), d),
        erasure_capacity(float(p[-1]), d),
    )


@dataclass(frozen=True)
class DataProcessingReport:
    """p_max of the composed operator against its factors."""

    p_max_composed: float
    p_max_first: float
    p_max_second: float

    @property
    def holds(self) -> bool:
        return self.p_max_composed <= min(self.p_max_first, self.p_max_second) + 1e-12

    def bound(self, d: int) -> tuple[float, float]:
        """(q_up of the composition, min of the factor q_ups)."""
        return (
            erasure_capacity(self.p_max_composed, d),
            min(erasure_capacity(self.p_max_first, d),
                erasure_capacity(self.p_max_second, d)),
        )


def check_data_processing(m1, m2, d: int) -> DataProcessingReport:
    """Verify the composed channel is no less noisy than either factor."""
    p1 = singular_probabilities(m1)
    p2 = singular_probabilities(m2)
    p21 = singular_probabilities(as_single_matrix(m2) @ as_single_matrix(m1))
    return DataProcessingReport(float(p21[-1]), float(p1[-1]), float(p2[-1]))


def detect_superactivation(resonant: CapacityBounds, direct: CapacityBounds) -> bool:
    """Certified superactivation: the resonant channel provably has
    positive capacity while the direct one provably has zero."""
    if resonant.d != direct.d:
        raise InvalidInputError(
            f"dimension mismatch: {resonant.d} vs {direct.d}"
        )
    return resonant.q_low > 0.0 and direct.q_up <= 0.0
