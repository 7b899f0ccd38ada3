"""Property tests of star's output-first unitarity gate.

Hypothesis draws the structure of each case (pair family, slot counts,
internal dimension, which factor is damped and by how much) and a seed for
the Haar-random unitaries behind it.  Runs are derandomized and keep no
example database, so the suite stays reproducible.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from scatchan.composer import star
from scatchan.smatrix import ScatteringMatrix, unitarity_defect

from conftest import (
    dishomogeneous_singular_loop_pair,
    random_dishomogeneous_pair,
    random_smatrix,
    singular_loop_pair,
)

PROPERTY_SETTINGS = settings(
    max_examples=60, derandomize=True, database=None, deadline=None
)


@st.composite
def unitary_pairs(draw):
    """A unitary pair (s2, s1): homogeneous, dishomogeneous, or with an
    exactly singular loop (homogeneous or dishomogeneous)."""
    family = draw(st.sampled_from(
        ("homogeneous", "dishomogeneous", "singular", "dishomogeneous singular")
    ))
    d = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "homogeneous":
        k = draw(st.integers(1, 3))
        return random_smatrix(rng, k, d), random_smatrix(rng, k, d)
    if family == "dishomogeneous":
        return random_dishomogeneous_pair(rng, d)
    if family == "singular":
        return singular_loop_pair(rng, draw(st.integers(1, 2)), d)
    return dishomogeneous_singular_loop_pair(rng, d)


@PROPERTY_SETTINGS
@given(unitary_pairs())
def test_unitary_pairs_pass_the_gate(pair):
    s2, s1 = pair
    assert unitarity_defect(star(s2, s1).matrix) <= 1e-9


@PROPERTY_SETTINGS
@given(unitary_pairs(), st.floats(0.1, 0.99), st.booleans())
def test_damped_unchecked_input_returns(pair, c, damp_s1):
    s2, s1 = pair
    if damp_s1:
        s1 = ScatteringMatrix(c * s1.matrix, s1.spec, check=False)
    else:
        s2 = ScatteringMatrix(c * s2.matrix, s2.spec, check=False)
    # Light entering the damped factor keeps at most c^2 of its power, so
    # the output fails the gate, and the damped input excuses it.
    assert unitarity_defect(star(s2, s1).matrix) > 1e-3
