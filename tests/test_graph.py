import numpy as np
import pytest

from scatchan import graph
from scatchan.channel import transmission_operator
from scatchan.composer import star, star_via_series
from scatchan.errors import InternalConsistencyError, InvalidInputError
from scatchan.graph import QuantumGraph, contract, validate
from scatchan.numerics import max_abs
from scatchan.smatrix import PortSpec, ScatteringMatrix, unitarity_defect

from conftest import random_smatrix, random_unitary, unchecked_smatrix

SWAP2 = ScatteringMatrix(
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), PortSpec(1, 1, 1, 1, 1)
)


def two_vertex_loop(s1, s2):
    """Two scatterers joined by a pair of internal edges; the outer slots
    stay dangling."""
    return QuantumGraph.build(
        vertices=[(1, s1), (2, s2)],
        internal_edges=[((1, 1), (2, 0)), ((2, 0), (1, 1))],
        dangling_in=[(1, 0), (2, 1)],
        dangling_out=[(1, 0), (2, 1)],
    )


def three_vertex_graph(rng, d=1):
    """Three vertices in a ring with three dangling inputs and outputs."""
    v1 = ScatteringMatrix(random_unitary(rng, 2 * d), PortSpec(1, 1, 1, 1, d))
    v2 = ScatteringMatrix(random_unitary(rng, 2 * d), PortSpec(1, 1, 1, 1, d))
    v3 = ScatteringMatrix(random_unitary(rng, 3 * d), PortSpec(2, 2, 1, 1, d))
    return QuantumGraph.build(
        vertices=[(1, v1), (2, v2), (3, v3)],
        internal_edges=[
            ((1, 0), (2, 0)),  # v1 -> v2
            ((2, 1), (3, 1)),  # v2 -> v3
            ((1, 1), (3, 0)),  # v1 -> v3
            ((3, 2), (1, 1)),  # v3 -> v1
        ],
        dangling_in=[(1, 0), (2, 1), (3, 2)],
        dangling_out=[(2, 0), (3, 0), (3, 1)],
    )


class TestValidate:
    def test_two_vertex_loop_ok(self):
        assert validate(two_vertex_loop(SWAP2, SWAP2)) == []

    def test_unbalanced_vertex_unrepresentable(self):
        # a 2-in / 1-out vertex cannot even be described by a port spec
        with pytest.raises(InvalidInputError):
            PortSpec(2, 1, 0, 0, 1)

    def test_slot_wired_twice(self):
        g = QuantumGraph.build(
            vertices=[(1, SWAP2), (2, SWAP2)],
            internal_edges=[((1, 1), (2, 0)), ((1, 1), (2, 1))],
            dangling_in=[(1, 0), (1, 1), (2, 0), (2, 1)],
            dangling_out=[(1, 0), (2, 0), (2, 1)],
        )
        problems = validate(g)
        assert any("used by both" in p for p in problems)

    def test_self_loop_rejected(self):
        g = QuantumGraph.build(
            vertices=[(1, SWAP2)],
            internal_edges=[((1, 1), (1, 1))],
            dangling_in=[(1, 0)],
            dangling_out=[(1, 0)],
        )
        assert any("self-loop" in p for p in validate(g))

    def test_unclaimed_slot(self):
        g = QuantumGraph.build(
            vertices=[(1, SWAP2)],
            internal_edges=[],
            dangling_in=[(1, 0)],
            dangling_out=[(1, 0), (1, 1)],
        )
        problems = validate(g)
        assert any("neither wired nor dangling" in p for p in problems)

    def test_unknown_vertex(self):
        g = QuantumGraph.build(
            vertices=[(1, SWAP2)],
            internal_edges=[((1, 1), (9, 0))],
            dangling_in=[(1, 0), (1, 1)],
            dangling_out=[(1, 0)],
        )
        assert any("unknown vertex 9" in p for p in validate(g))


class TestRejectedTopologies:
    """Each topology check reached through :func:`contract`, which raises
    with the list of violations."""

    @staticmethod
    def unwired(vertices, dangling_in, dangling_out):
        return QuantumGraph.build(vertices, [], dangling_in, dangling_out)

    def test_duplicate_vertex_ids(self):
        g = self.unwired([(1, SWAP2), (1, SWAP2)], [(1, 0), (1, 1)], [(1, 0), (1, 1)])
        with pytest.raises(InvalidInputError, match="duplicate vertex ids"):
            contract(g)

    def test_vertices_disagree_on_dim(self):
        rng = np.random.default_rng(21)
        g = two_vertex_loop(SWAP2, random_smatrix(rng, 1, 2))
        with pytest.raises(InvalidInputError, match="disagree on internal dimension"):
            contract(g)

    def test_no_vertices(self):
        g = self.unwired([], [], [])
        assert validate(g) == ["graph has no vertices"]
        with pytest.raises(InvalidInputError, match="graph has no vertices"):
            contract(g)

    def test_vertex_without_ports(self):
        empty = ScatteringMatrix(np.zeros((0, 0)), PortSpec(0, 0, 0, 0, 1))
        g = self.unwired([(1, SWAP2), (2, empty)], [(1, 0), (1, 1)], [(1, 0), (1, 1)])
        with pytest.raises(InvalidInputError, match="vertex 2 has no ports at all"):
            contract(g)

    def test_slot_out_of_range(self):
        g = self.unwired([(1, SWAP2)], [(1, 0), (1, 5)], [(1, 0), (1, 1)])
        with pytest.raises(InvalidInputError, match="slot 5 out of range on vertex 1"):
            contract(g)

    def test_unclaimed_out_slot(self):
        g = self.unwired([(1, SWAP2)], [(1, 0), (1, 1)], [(1, 0)])
        with pytest.raises(InvalidInputError,
                           match=r"out-slot \(1, 1\) is neither wired nor dangling"):
            contract(g)

    def test_order_names_unavailable_vertex(self):
        g = two_vertex_loop(SWAP2, SWAP2)
        with pytest.raises(InvalidInputError, match=r"contraction pair \(1, 9\) not available"):
            contract(g, order=[(1, 9)])

    def test_order_pairs_vertex_with_itself(self):
        g = two_vertex_loop(SWAP2, SWAP2)
        with pytest.raises(InvalidInputError, match="cannot contract vertex 1 with itself"):
            contract(g, order=[(1, 1)])

    def test_order_leaves_components_unmerged(self):
        g = three_vertex_graph(np.random.default_rng(22))
        with pytest.raises(InvalidInputError, match="left 2 components unmerged"):
            contract(g, order=[(1, 2)])


class TestContract:
    def test_single_vertex_is_identity_operation(self):
        rng = np.random.default_rng(20)
        s = random_smatrix(rng, 2, 1)
        g = QuantumGraph.build(
            vertices=[(7, s)],
            internal_edges=[],
            dangling_in=[(7, 0), (7, 1), (7, 2), (7, 3)],
            dangling_out=[(7, 0), (7, 1), (7, 2), (7, 3)],
        )
        assert max_abs(contract(g).matrix - s.matrix) == 0.0

    def test_single_vertex_respects_dangling_order(self):
        rng = np.random.default_rng(21)
        s = random_smatrix(rng, 1, 1)
        g = QuantumGraph.build(
            vertices=[(1, s)],
            internal_edges=[],
            dangling_in=[(1, 1), (1, 0)],
            dangling_out=[(1, 0), (1, 1)],
        )
        got = contract(g)
        assert max_abs(transmission_operator(got, 1, 1) - transmission_operator(s, 2, 1)) == 0.0

    def test_two_vertex_loop_matches_series_oracle(self):
        rng = np.random.default_rng(22)
        s1 = random_smatrix(rng, 1, 2)
        s2 = random_smatrix(rng, 1, 2)
        g_mat = contract(two_vertex_loop(s1, s2))
        assert unitarity_defect(g_mat.matrix) < 1e-9
        hop = s2.block("L", "L") @ s1.block("R", "R")
        if np.linalg.norm(hop, 2) < 1.0:
            oracle = star_via_series(s2, s1, tol=1e-15)
            assert max_abs(g_mat.matrix - oracle.matrix) < 1e-10

    def test_three_vertex_order_independence(self):
        rng = np.random.default_rng(23)
        g = three_vertex_graph(rng, d=2)
        a = contract(g, order=[(1, 2), (1, 3)])
        b = contract(g, order=[(1, 3), (1, 2)])
        assert max_abs(a.matrix - b.matrix) < 1e-9
        assert unitarity_defect(a.matrix) < 1e-9

    def test_all_orders_agree_four_vertices(self):
        rng = np.random.default_rng(24)
        # chain of four scatterers with back-reflections
        vs = [random_smatrix(rng, 1, 1) for _ in range(4)]
        g = QuantumGraph.build(
            vertices=list(enumerate(vs, start=1)),
            internal_edges=[
                ((i, 1), (i + 1, 0)) for i in range(1, 4)
            ] + [
                ((i + 1, 0), (i, 1)) for i in range(1, 4)
            ],
            dangling_in=[(1, 0), (4, 1)],
            dangling_out=[(1, 0), (4, 1)],
        )
        ref = contract(g)
        assert unitarity_defect(ref.matrix) < 1e-9
        for order in (
            [(1, 2), (3, 4), (1, 3)],
            [(2, 3), (1, 2), (1, 4)],
            [(3, 4), (2, 3), (1, 2)],
        ):
            assert max_abs(contract(g, order=order).matrix - ref.matrix) < 1e-9

    def test_invalid_graph_rejected(self):
        g = QuantumGraph.build(
            vertices=[(1, SWAP2)],
            internal_edges=[],
            dangling_in=[(1, 0)],
            dangling_out=[(1, 0), (1, 1)],
        )
        with pytest.raises(InvalidInputError):
            contract(g)

    def test_invalid_graph_rejected_on_every_call(self):
        g = QuantumGraph.build(
            vertices=[(1, SWAP2)],
            internal_edges=[],
            dangling_in=[(1, 0)],
            dangling_out=[(1, 0), (1, 1)],
        )
        for _ in range(2):
            with pytest.raises(InvalidInputError):
                contract(g)


class TestCompiledPlan:
    def test_topology_compiled_once(self):
        rng = np.random.default_rng(25)
        graph._compile.cache_clear()
        for _ in range(3):
            s1, s2 = random_smatrix(rng, 1, 2), random_smatrix(rng, 1, 2)
            got = contract(two_vertex_loop(s1, s2))
            # fresh numbers through the cached plan, not a stale result
            assert max_abs(got.matrix - star(s2, s1).matrix) < 1e-12
        info = graph._compile.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_order_is_part_of_the_topology(self):
        rng = np.random.default_rng(26)
        g = three_vertex_graph(rng, d=1)
        graph._compile.cache_clear()
        a = contract(g, order=[(1, 2), (1, 3)])
        b = contract(g, order=[(1, 3), (1, 2)])
        assert graph._compile.cache_info().misses == 2
        assert max_abs(a.matrix - b.matrix) < 1e-9

    def test_cached_plan_does_not_carry_verification(self):
        rng = np.random.default_rng(27)
        s1, s2 = random_smatrix(rng, 1, 1), random_smatrix(rng, 1, 1)
        assert unitarity_defect(contract(two_vertex_loop(s1, s2)).matrix) <= 1e-9
        # Same topology, but a corrupted local matrix that was never checked.
        # The plan skips no gate: the merge's output gate raises.
        bad = unchecked_smatrix(0.5 * s2.matrix, s2.spec)
        with pytest.raises(InternalConsistencyError, match="unitarity defect"):
            contract(two_vertex_loop(s1, bad))
