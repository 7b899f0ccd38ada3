"""Property tests of star's unitarity gate and of the unitarity contract:
every scattering matrix the public API builds is unitary.

Hypothesis draws the structure of each case (pair family, slot counts,
internal dimension, which factor is damped and by how much) and a seed for
the Haar-random unitaries behind it.  Runs are derandomized and keep no
example database, so the suite stays reproducible.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scatchan import composer
from scatchan.composer import pad_to_homogeneous, star, star_via_padding
from scatchan.errors import InternalConsistencyError
from scatchan.graph import QuantumGraph, contract
from scatchan.smatrix import (
    UNITARITY_TOL, PortSpec, ScatteringMatrix, s_to_t, t_to_s, unitarity_defect,
)

from conftest import (
    bounded_loop_smatrix,
    dishomogeneous_singular_loop_pair,
    random_dishomogeneous_pair,
    random_smatrix,
    random_unitary,
    singular_loop_pair,
    unchecked_smatrix,
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
def test_damped_unchecked_input_raises(pair, c, damp_s1):
    s2, s1 = pair
    if damp_s1:
        s1 = unchecked_smatrix(c * s1.matrix, s1.spec)
    else:
        s2 = unchecked_smatrix(c * s2.matrix, s2.spec)
    # Light entering the damped factor keeps at most c^2 of its power, so
    # the output fails the gate, which raises after its one measurement.
    with mock.patch.object(composer, "unitarity_defect", wraps=unitarity_defect) as gate:
        with pytest.raises(InternalConsistencyError, match="unitarity defect"):
            star(s2, s1)
    assert gate.call_count == 1


def ring(rng, n, d):
    """``n`` random unitary vertices in a ring: out-slot 2 of vertex i feeds
    in-slot 1 of vertex i+1 and out-slot 1 of vertex i+1 feeds in-slot 2 of
    vertex i (cyclically), and slot 0 of every vertex dangles."""
    vertices = [(i, ScatteringMatrix(random_unitary(rng, 3 * d), PortSpec(1, 1, 2, 2, d)))
                for i in range(n)]
    edges = [edge for i in range(n) for j in [(i + 1) % n]
             for edge in (((i, 2), (j, 1)), ((j, 1), (i, 2)))]
    ports = [(i, 0) for i in range(n)]
    return QuantumGraph.build(vertices, edges, ports, ports)


@PROPERTY_SETTINGS
@given(unitary_pairs(), st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_every_public_route_builds_a_unitary_matrix(pair, seed, n):
    s2, s1 = pair
    rng = np.random.default_rng(seed)
    d, spec = s1.spec.dim, s1.spec
    h2, h1 = bounded_loop_smatrix(rng, 1, d), bounded_loop_smatrix(rng, 1, d)
    k = max(spec.left_in, spec.left_out, spec.right_in, spec.right_out)
    built = {
        "ScatteringMatrix": ScatteringMatrix(s1.matrix, spec),
        "permuted": s1.permuted(rng.permutation(spec.total_in).tolist(),
                                rng.permutation(spec.total_out).tolist()),
        "t_to_s": t_to_s(s_to_t(h2) @ s_to_t(h1), d),
        "pad_to_homogeneous": pad_to_homogeneous(s1, k + int(rng.integers(0, 2))),
        "star": star(s2, s1),
        "star_via_padding": star_via_padding(s2, s1),
        "contract": contract(ring(rng, n, d)),
    }
    for route, s in built.items():
        assert unitarity_defect(s.matrix) <= UNITARITY_TOL, route
