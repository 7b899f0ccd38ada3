"""Quantum-graph data model and contraction to the global scattering matrix.

Vertices carry local scattering matrices; slots are addressed flat
(0..k-1, left group then right group of the vertex matrix).  Internal
edges identify an out-slot of one vertex with an in-slot of another; every
remaining slot must appear in the ordered dangling lists.  Edges carry no
propagation phase: free propagation is modeled as an explicit vertex.
Vertex matrices may be stacks of equal leading shape (one matrix per energy,
say); contraction then yields the stack of global matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .composer import star
from .errors import InvalidInputError
from .smatrix import PortSpec, ScatteringMatrix, slot_permutation_index

Port = tuple[int, int]  # (vertex id, flat slot index)


@dataclass(frozen=True)
class QuantumGraph:
    vertices: tuple  # of (vertex id, ScatteringMatrix)
    internal_edges: tuple  # of ((vid, out_slot), (vid, in_slot))
    dangling_in: tuple  # ordered (vid, in_slot) ports, labels 1..N
    dangling_out: tuple  # ordered (vid, out_slot) ports, labels 1..N

    @classmethod
    def build(cls, vertices, internal_edges, dangling_in, dangling_out):
        return cls(
            tuple((int(v), s) for v, s in vertices),
            tuple((tuple(a), tuple(b)) for a, b in internal_edges),
            tuple(tuple(p) for p in dangling_in),
            tuple(tuple(p) for p in dangling_out),
        )


def validate(g: QuantumGraph) -> list[str]:
    """Check all graph invariants; returns the list of violations (empty
    when the graph is valid)."""
    return _topology_problems(
        tuple((vid, s.spec) for vid, s in g.vertices),
        g.internal_edges, g.dangling_in, g.dangling_out,
    )


def _topology_problems(vertex_specs, internal_edges, dangling_in, dangling_out):
    """The checks of :func:`validate`, which depend on the vertex port
    specs and the wiring only, never on the matrix entries."""
    errors: list[str] = []
    if not vertex_specs:
        errors.append("graph has no vertices")
    specs = dict(vertex_specs)
    if len(specs) != len(vertex_specs):
        errors.append("duplicate vertex ids")

    dims = {spec.dim for spec in specs.values()}
    if len(dims) > 1:
        errors.append(f"vertices disagree on internal dimension: {sorted(dims)}")

    for vid, spec in specs.items():
        if spec.total_in == 0:
            errors.append(f"vertex {vid} has no ports at all")

    if len(dangling_in) != len(dangling_out):
        errors.append(
            f"{len(dangling_in)} dangling in-ports vs "
            f"{len(dangling_out)} dangling out-ports"
        )

    seen_out: dict[Port, str] = {}
    seen_in: dict[Port, str] = {}

    def claim(table, port, use, kind):
        vid, slot = port
        if vid not in specs:
            errors.append(f"{use} references unknown vertex {vid}")
            return
        spec = specs[vid]
        limit = spec.total_out if kind == "out" else spec.total_in
        if not 0 <= slot < limit:
            errors.append(f"{use} references slot {slot} out of range on vertex {vid}")
            return
        if port in table:
            errors.append(f"{kind}-slot {port} used by both {table[port]} and {use}")
        else:
            table[port] = use

    for src, dst in internal_edges:
        if src[0] == dst[0]:
            errors.append(
                f"self-loop on vertex {src[0]}; model it as two vertices"
            )
        claim(seen_out, src, f"edge {src}->{dst}", "out")
        claim(seen_in, dst, f"edge {src}->{dst}", "in")
    for i, port in enumerate(dangling_in):
        claim(seen_in, port, f"dangling_in[{i}]", "in")
    for i, port in enumerate(dangling_out):
        claim(seen_out, port, f"dangling_out[{i}]", "out")

    for vid, spec in specs.items():
        for slot in range(spec.total_in):
            if (vid, slot) not in seen_in:
                errors.append(f"in-slot ({vid}, {slot}) is neither wired nor dangling")
        for slot in range(spec.total_out):
            if (vid, slot) not in seen_out:
                errors.append(f"out-slot ({vid}, {slot}) is neither wired nor dangling")
    return errors


def _merge_ports(a_in, a_out, b_in, b_out, edges, d: int):
    """Slot bookkeeping of one star merge of super-vertex ``a`` (left
    factor) with ``b``, given their remaining in/out ports and the graph's
    internal edges.

    Returns the reindexing and port spec of each factor and the merged
    in/out ports.  A wired edge's ports leave every port list, so no later
    merge matches that edge again.
    """
    a_out_set, a_in_set = set(a_out), set(a_in)
    b_out_set, b_in_set = set(b_out), set(b_in)
    fwd = [(src, dst) for src, dst in edges if src in a_out_set and dst in b_in_set]
    bwd = [(src, dst) for src, dst in edges if src in b_out_set and dst in a_in_set]

    a_ext_in = [p for p in a_in if p not in {dst for _, dst in bwd}]
    a_ext_out = [p for p in a_out if p not in {src for src, _ in fwd}]
    b_ext_in = [p for p in b_in if p not in {dst for _, dst in fwd}]
    b_ext_out = [p for p in b_out if p not in {src for src, _ in bwd}]

    # Permute a: external slots first, interface slots last in edge order.
    a_index = slot_permutation_index(
        [a_in.index(p) for p in a_ext_in] + [a_in.index(dst) for _, dst in bwd],
        [a_out.index(p) for p in a_ext_out] + [a_out.index(src) for src, _ in fwd],
        d,
    )
    a_spec = PortSpec(len(a_ext_in), len(a_ext_out), len(bwd), len(fwd), d)

    # Permute b: interface slots first, in the same edge order as a's.
    b_index = slot_permutation_index(
        [b_in.index(dst) for _, dst in fwd] + [b_in.index(p) for p in b_ext_in],
        [b_out.index(src) for src, _ in bwd] + [b_out.index(p) for p in b_ext_out],
        d,
    )
    b_spec = PortSpec(len(fwd), len(bwd), len(b_ext_in), len(b_ext_out), d)
    return (a_index, a_spec, b_index, b_spec,
            a_ext_in + b_ext_in, a_ext_out + b_ext_out)


@lru_cache(maxsize=64)
def _compile(vertex_specs, internal_edges, dangling_in, dangling_out, order):
    """Validate one graph topology and precompute every merge.

    Returns ``(steps, root, final_index, final_spec)``.  Each step is a
    tuple ``(left, right, keep, a_index, a_spec, b_index, b_spec)``: vertex
    ``left`` reindexed by ``a_index`` under ``a_spec`` is the left factor of
    a star merge with ``right`` (``b_index``, ``b_spec``), stored as ``keep``.
    The last super-vertex ``root`` is then reordered onto the dangling labels.

    The arguments hold everything validation and slot bookkeeping depend on
    (vertex ids with their port specs, the wiring, the order), so the plan
    is cached on them.
    """
    problems = _topology_problems(vertex_specs, internal_edges, dangling_in, dangling_out)
    if problems:
        raise InvalidInputError("invalid graph: " + "; ".join(problems))

    d = vertex_specs[0][1].dim
    ports = {
        vid: ([(vid, j) for j in range(spec.total_in)],
              [(vid, j) for j in range(spec.total_out)])
        for vid, spec in vertex_specs
    }

    if order is None:
        ids = sorted(ports)
        order = [(ids[0], ids[i]) for i in range(1, len(ids))]

    steps = []
    for ia, ib in order:
        if ia not in ports or ib not in ports:
            raise InvalidInputError(f"contraction pair ({ia}, {ib}) not available")
        if ia == ib:
            raise InvalidInputError(f"cannot contract vertex {ia} with itself")
        (a_in, a_out), (b_in, b_out) = ports[ia], ports[ib]
        a_index, a_spec, b_index, b_spec, m_in, m_out = _merge_ports(
            a_in, a_out, b_in, b_out, internal_edges, d
        )
        keep = min(ia, ib)
        steps.append((ia, ib, keep, a_index, a_spec, b_index, b_spec))
        del ports[max(ia, ib)]
        ports[keep] = (m_in, m_out)

    if len(ports) != 1:
        raise InvalidInputError(
            f"contraction order left {len(ports)} components unmerged"
        )
    # No edge is left: the merge that first joins an edge's two vertices wires it.
    root, (final_in, final_out) = next(iter(ports.items()))

    n = len(dangling_in)
    final_index = slot_permutation_index(
        [final_in.index(p) for p in dangling_in],
        [final_out.index(p) for p in dangling_out],
        d,
    )
    return tuple(steps), root, final_index, PortSpec(n, n, 0, 0, d)


def contract(g: QuantumGraph, order=None) -> ScatteringMatrix:
    """Contract the graph to its global scattering matrix.

    Row/column blocks follow the dangling label order.  ``order`` is an
    optional sequence of vertex-id pairs; a merged super-vertex keeps the
    smaller id.  Default order: ascending vertex id, pairwise.

    The topology is validated and its merges are precompiled once, then
    reused for every graph of the same topology.  The plan depends only on
    port specs, so it contracts vertex stacks (one matrix per energy of a
    sweep) in one pass as well.
    """
    steps, root, final_index, final_spec = _compile(
        tuple((vid, s.spec) for vid, s in g.vertices),
        g.internal_edges,
        g.dangling_in,
        g.dangling_out,
        None if order is None else tuple(tuple(pair) for pair in order),
    )
    live = dict(g.vertices)
    for left, right, keep, a_index, a_spec, b_index, b_spec in steps:
        a, b = live.pop(left), live.pop(right)
        live[keep] = star(b._reindexed(b_index, b_spec), a._reindexed(a_index, a_spec))
    return live[root]._reindexed(final_index, final_spec)
