"""Redheffer star product of scattering matrices.

Composition convention: ``star(s2, s1)`` glues the right side of ``s1`` to
the left side of ``s2``; right-out slots of s1 feed left-in slots of s2 and
left-out slots of s2 feed right-in slots of s1.  Every pair, dishomogeneous
(unequal slot counts per group) or not, is composed directly: the outer
blocks may be rectangular, the loop matrix is always square.  The loop
inverse is the Moore-Penrose pseudo-inverse, so perfectly resonant
(singular loop) configurations stay well defined: one batched LU inverse
serves every loop it certifies as regular, where it equals the
pseudo-inverse, and the SVD pseudo-inverse serves the rest.  The
Kostrykin-Schrader decoupling check runs only when the physical loop is
singular.  The paper's padding with fictitious identity-routed edges, each
of which pins a loop eigenvalue at exactly 1, is kept as an oracle
(:func:`star_via_padding`): a factor is padded as the direct sum S + 1
moved into place by :meth:`~scatchan.smatrix.ScatteringMatrix.permuted`,
and the physical block is extracted by the inverse permutation and a block
slice.

Every function here takes one scattering matrix or two stacks of equal
leading shape (one matrix per energy of a sweep, say) through the same code:
blocks are sliced on the last two axes, one batched interface product gives
both the loop matrices and the assembly's cross terms, only the rows the LU
inverse cannot certify are decomposed by SVD (every row, when LU meets an
exact zero pivot in one), and the kernel check runs only on the rows whose
loop is singular.  A gate on a stack measures its worst row, so one bad
row fails the whole stack.

:func:`star` gates every result on unitarity, one measurement a call, and
raises when the gate fails.  Results are C-ordered stacks, as are the
operands graph contraction passes in (or broadcasts of one C-ordered
matrix), and the assembly adds its round trips in one contiguous pass; the
barrier scatterers of :mod:`scatchan.physics` are gated on their amplitudes
before they are stacked.

Memory: a merge of two stacks writes its interface product, its round-trip
term and its gate's temporaries to per-thread
:func:`~scatchan.numerics.workspace` buffers (about five stacks of the
largest shape the thread has merged), so a sweep of merges faults in no
fresh pages.  Every result and loop inverse is a fresh array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DecouplingViolationError,
    InternalConsistencyError,
    InvalidInputError,
    SeriesDivergentError,
)
from .numerics import (
    DEFAULT_REL_TOL, max_abs, operator_norm, pseudo_inverse, workspace,
)
from .smatrix import PortSpec, ScatteringMatrix, unitarity_defect

KERNEL_SV_TOL = 1e-10
DECOUPLING_TOL = 1e-8
RESULT_UNITARITY_TOL = 1e-6
SERIES_SQUARINGS = 64


@dataclass(frozen=True)
class Wiring:
    """Slot identification between two scatterers.

    ``s1_to_s2`` pairs (s1 right-out slot, s2 left-in slot); ``s2_to_s1``
    pairs (s2 left-out slot, s1 right-in slot).  The interface groups must
    be wired completely; dangling slots belong in the outer (left of s1,
    right of s2) groups.
    """

    s1_to_s2: tuple = ()
    s2_to_s1: tuple = ()


def _validate_pair(s2: ScatteringMatrix, s1: ScatteringMatrix,
                   wiring: Wiring | None = None) -> ScatteringMatrix:
    """Check that ``s2 * s1`` is defined; returns ``s2`` with the wiring
    applied (``s2`` itself when there is none)."""
    if s1.matrix.shape[:-2] != s2.matrix.shape[:-2]:
        raise InvalidInputError(
            f"stack shapes differ: {s1.matrix.shape[:-2]} vs {s2.matrix.shape[:-2]}"
        )
    if s1.spec.dim != s2.spec.dim:
        raise InvalidInputError(
            f"internal dimensions differ: {s1.spec.dim} vs {s2.spec.dim}"
        )
    if s1.spec.right_out != s2.spec.left_in:
        raise InvalidInputError(
            f"s1 has {s1.spec.right_out} right-out slots but s2 has "
            f"{s2.spec.left_in} left-in slots"
        )
    if s1.spec.right_in != s2.spec.left_out:
        raise InvalidInputError(
            f"s1 has {s1.spec.right_in} right-in slots but s2 has "
            f"{s2.spec.left_out} left-out slots"
        )
    return s2 if wiring is None else _apply_wiring(s2, s1, wiring)


def _pairing(pairs, n: int, name: str) -> list:
    """The far slots of (near slot, far slot) ``pairs`` in near-slot order;
    raises unless the sorted pairs list every near slot 0..n-1 once and
    their far slots form a permutation."""
    pairs = sorted(pairs)
    if [a for a, _ in pairs] != list(range(n)) or sorted(b for _, b in pairs) != list(range(n)):
        raise InvalidInputError(f"{name} wiring is not a bijection on interface slots")
    return [b for _, b in pairs]


def _apply_wiring(s2: ScatteringMatrix, s1: ScatteringMatrix, wiring: Wiring):
    """Permute s2's interface slots so the wiring becomes the identity."""
    m12, m21 = s1.spec.right_out, s1.spec.right_in
    in_slots = _pairing(wiring.s1_to_s2, m12, "s1_to_s2")
    out_slots = _pairing([(r, l) for l, r in wiring.s2_to_s1], m21, "s2_to_s1")
    return s2.permuted(in_slots + list(range(m12, s2.spec.total_in)),
                       out_slots + list(range(m21, s2.spec.total_out)))


def _interface_product(s2: ScatteringMatrix, s1: ScatteringMatrix):
    """S2^{.,L} S1^{R,.}, the one matmul through the interface of a merge,
    [S2_LL S1_RL, S2_LL S1_RR; S2_RL S1_RL, S2_RL S1_RR], and its loop block
    S2_LL S1_RR."""
    d = s1.spec.dim
    a, b = s2.matrix[..., :s2.spec.left_in * d], s1.matrix[..., s1.spec.left_out * d:, :]
    prod = np.matmul(a, b, out=workspace("interface", a.shape[:-1] + b.shape[-1:]))
    return prod, prod[..., :s2.spec.left_out * d, s1.spec.left_in * d:]


def _result_spec(s2: ScatteringMatrix, s1: ScatteringMatrix) -> PortSpec:
    """Port partition of ``s2 * s1``: s1's left groups, s2's right groups."""
    return PortSpec(s1.spec.left_in, s1.spec.left_out,
                    s2.spec.right_in, s2.spec.right_out, s1.spec.dim)


def _assemble(s2: ScatteringMatrix, s1: ScatteringMatrix, linv: np.ndarray,
              prod: np.ndarray):
    """Star-product block assembly given a resolved loop inverse and the
    :func:`_interface_product`; the blocks may be rectangular."""
    spec = _result_spec(s2, s1)
    d = spec.dim
    lo1, li1 = s1.spec.left_out * d, s1.spec.left_in * d
    lo2, li2 = s2.spec.left_out * d, s2.spec.left_in * d
    m1, m2 = s1.matrix, s2.matrix
    # y = direct + feed @ linv @ drive, with drive the amplitudes that the
    # outer inputs send into s1's right-in slots before any round trip, and
    # feed what one amplitude there contributes to the outer outputs.
    drive = np.concatenate((prod[..., :lo2, :li1], m2[..., :lo2, li2:]), axis=-1)
    feed = np.concatenate((m1[..., :lo1, li1:], prod[..., lo2:, li1:]), axis=-2)
    # The direct part is copied block by block and the round trips are added
    # in one contiguous pass: an in-place add on a strided block makes numpy
    # allocate an iteration buffer for each operand.
    matrix = np.empty(prod.shape[:-2] + (spec.out_dim, spec.in_dim), dtype=complex)
    matrix[..., :lo1, :li1] = m1[..., :lo1, :li1]
    matrix[..., :lo1, li1:] = 0.0
    matrix[..., lo1:, :li1] = prod[..., lo2:, :li1]
    matrix[..., lo1:, li1:] = m2[..., lo2:, li2:]
    matrix += np.matmul(feed, linv @ drive, out=workspace("round_trip", matrix.shape))
    return ScatteringMatrix._trusted(matrix, spec)


def _padded_slots(spec: PortSpec, k: int):
    """Positions of the physical in- and out-slots of ``spec`` among the
    2*k slots of its padding to k slots per group: each group keeps its
    physical slots first."""
    return ([*range(spec.left_in), *range(k, k + spec.right_in)],
            [*range(spec.left_out), *range(k, k + spec.right_out)])


def _to_front(slots, n: int) -> list:
    """The permutation of range(n) that lists ``slots`` first, then the rest."""
    return slots + [p for p in range(n) if p not in slots]


def pad_to_homogeneous(s: ScatteringMatrix, target_k: int) -> ScatteringMatrix:
    """Embed into a 2*target_k-slot homogeneous scatterer.

    The direct sum S + 1, with one identity routing the fictitious in-slots
    one-to-one onto the fictitious out-slots, is permuted so that the
    fictitious slots follow the physical slots of each group.
    """
    spec = s.spec
    counts = (spec.left_in, spec.left_out, spec.right_in, spec.right_out)
    if target_k < max(counts):
        raise InvalidInputError(
            f"target_k={target_k} smaller than largest group count {max(counts)}"
        )
    k, n = target_k, 2 * target_k * spec.dim
    out = np.zeros(s.matrix.shape[:-2] + (n, n), dtype=complex)
    out[..., :spec.out_dim, :spec.in_dim] = s.matrix
    out[..., spec.out_dim:, spec.in_dim:] = np.eye(n - spec.in_dim)
    # Direct-sum slot i goes to padded position _to_front(...)[i].
    phys_in, phys_out = _padded_slots(spec, k)
    return ScatteringMatrix._trusted(out, PortSpec(k, k, k, k, spec.dim)).permuted(
        np.argsort(_to_front(phys_in, 2 * k)), np.argsort(_to_front(phys_out, 2 * k)))


def extract_physical(
    s_bar: ScatteringMatrix,
    in_slots,
    out_slots,
    spec: PortSpec,
) -> ScatteringMatrix:
    """Pull out the physical sub-block after a padded composition.

    ``in_slots``/``out_slots`` are the flat physical slot indices of
    ``s_bar``; ``spec`` is the port partition of the physical result.
    The physical slots are permuted to the front and the leading block is
    returned.  Raises when physical and fictitious slots fail to decouple.
    """
    in_slots, out_slots = list(in_slots), list(out_slots)
    if len(in_slots) != spec.total_in or len(out_slots) != spec.total_out:
        raise InvalidInputError("physical slot labels do not match result spec")
    if spec.dim != s_bar.spec.dim:
        raise InvalidInputError(f"result spec has dim {spec.dim}, s_bar dim {s_bar.spec.dim}")
    m = s_bar.permuted(_to_front(in_slots, s_bar.spec.total_in),
                       _to_front(out_slots, s_bar.spec.total_out)).matrix
    rows, cols = len(out_slots) * s_bar.spec.dim, len(in_slots) * s_bar.spec.dim
    cross = np.maximum(max_abs(m[..., :rows, cols:]), max_abs(m[..., rows:, :cols]))
    if not cross <= DECOUPLING_TOL:
        raise DecouplingViolationError(
            f"physical/fictitious cross-coupling {cross:.3e} exceeds "
            f"{DECOUPLING_TOL:.0e}"
        )
    return ScatteringMatrix._trusted(m[..., :rows, :cols].copy(), spec)


def _kernel_residual(kmat, s2, s1, i) -> float:
    """The largest Kostrykin-Schrader decoupling residual of row ``i`` of
    the pair (``()`` for one matrix) over the columns of the kernel basis
    ``kmat`` (NaN if any residual is: the array max keeps a NaN)."""
    kc = kmat.conj()
    return float(np.concatenate((
        np.linalg.norm(s1.block("L", "R")[i] @ kmat, axis=0),
        np.linalg.norm(s2.block("R", "L")[i] @ (s1.block("R", "R")[i] @ kmat), axis=0),
        np.linalg.norm(s2.block("L", "R")[i].T @ kc, axis=0),
        np.linalg.norm((s2.block("L", "L")[i] @ s1.block("R", "L")[i]).T @ kc, axis=0),
    )).max())


def _loop_inverse(s2: ScatteringMatrix, s1: ScatteringMatrix, hop: np.ndarray):
    """Inverse of the loop matrix 1 - hop (of every row of a stack), the
    dimension of its kernel summed over the rows, and the largest decoupling
    residual of that kernel: ``(linv, 0, 0.0)`` when every row is regular.
    A batched LU inverse serves each row it certifies: sigma_min >
    KERNEL_SV_TOL and cond_2 < 1 / DEFAULT_REL_TOL, so it is the
    pseudo-inverse (a NaN or Inf fails).  The rest take the SVD
    pseudo-inverse, and its singular rows the kernel check.  When LU meets
    an exact zero pivot in any row, the whole stack stays NaN and so
    uncertified: every row takes the SVD."""
    loop = np.eye(hop.shape[-1]) - hop
    try:
        linv = np.linalg.inv(loop)
    except np.linalg.LinAlgError:
        linv = np.full_like(loop, np.nan)
    inv_norm = np.linalg.norm(linv, axis=(-2, -1))
    regular = (inv_norm * KERNEL_SV_TOL < 1) & (
        np.linalg.norm(loop, axis=(-2, -1)) * inv_norm * DEFAULT_REL_TOL < 1)
    if regular.all():
        return linv, 0, 0.0
    n, rows = loop.shape[-1], np.flatnonzero(~regular)
    linv = linv.reshape(-1, n, n)
    linv[rows], sing, v = pseudo_inverse(loop.reshape(-1, n, n)[rows])
    kernel_dim, residual = 0, 0.0
    for j in np.flatnonzero(sing[:, -1] < KERNEL_SV_TOL):
        kmat = v[j][:, sing[j] < KERNEL_SV_TOL]
        kernel_dim += kmat.shape[1]
        # np.maximum keeps a NaN residual; the builtin max could drop it.
        residual = np.maximum(residual, _kernel_residual(
            kmat, s2, s1, np.unravel_index(rows[j], regular.shape)))
    return linv.reshape(loop.shape), kernel_dim, float(residual)


def kernel_decoupling_check(
    s2: ScatteringMatrix, s1: ScatteringMatrix, wiring: Wiring | None = None
) -> tuple[int, float]:
    """Verify that loop-kernel modes are invisible from all dangling ports:
    the kernel dimension of the loop (summed over the rows of a stack) and
    the worst Kostrykin-Schrader residual of its kernel (0.0 for an empty
    kernel, NaN if any residual is)."""
    s2 = _validate_pair(s2, s1, wiring)
    return _loop_inverse(s2, s1, _interface_product(s2, s1)[1])[1:]


def star(
    s2: ScatteringMatrix,
    s1: ScatteringMatrix,
    wiring: Wiring | None = None,
) -> ScatteringMatrix:
    """Redheffer star product ``s2 * s1``.

    Homogeneous and dishomogeneous pairs alike are composed directly by the
    block formula (no padding).  A regular merge costs one interface
    matmul, one LU inverse of the loop and two assembly matmuls; a loop
    the LU inverse cannot certify regular takes the SVD pseudo-inverse, and
    whenever it is (near-)singular the Kostrykin-Schrader decoupling
    conditions are verified rather than assumed.  A result that fails the
    unitarity gate (a NaN fails it) raises.  Stacks are composed row by row
    in one pass; every gate takes the worst row.
    """
    s2 = _validate_pair(s2, s1, wiring)

    prod, hop = _interface_product(s2, s1)
    linv, _, residual = _loop_inverse(s2, s1, hop)
    if not residual < DECOUPLING_TOL:  # a NaN fails too
        sigma = np.linalg.norm(np.eye(hop.shape[-1]) - hop, -2, axis=(-2, -1)).min()
        raise InternalConsistencyError(
            f"loop 1 - S2^{{L,L}} S1^{{R,R}} is (near-)singular, smallest singular "
            f"value {sigma:.3e}, but kernel modes couple to the output ports "
            f"(residual {residual:.3e})")
    result = _assemble(s2, s1, linv, prod)
    defect = unitarity_defect(result.matrix)
    if not defect <= RESULT_UNITARITY_TOL:  # a NaN fails too
        raise InternalConsistencyError(f"star of unitary inputs has unitarity defect {defect:.3e}")
    return result


def star_via_padding(
    s2: ScatteringMatrix,
    s1: ScatteringMatrix,
    wiring: Wiring | None = None,
) -> ScatteringMatrix:
    """Star product by the paper's padded construction: pad both factors
    to k_bar slots per group, compose them homogeneously with :func:`star`,
    and extract the physical block.  The oracle for dishomogeneous pairs."""
    s2 = _validate_pair(s2, s1, wiring)
    k_bar = max(
        s1.spec.left_in, s1.spec.left_out, s1.spec.right_in, s1.spec.right_out,
        s2.spec.left_in, s2.spec.left_out, s2.spec.right_in, s2.spec.right_out,
    )
    bar_g = star(pad_to_homogeneous(s2, k_bar), pad_to_homogeneous(s1, k_bar))
    spec = _result_spec(s2, s1)
    return extract_physical(bar_g, *_padded_slots(spec, k_bar), spec)


def star_via_series(
    s2: ScatteringMatrix,
    s1: ScatteringMatrix,
    wiring: Wiring | None = None,
    tol: float = 1e-14,
) -> ScatteringMatrix:
    """Star product with the loop inverse resummed as a geometric series.

    Independent of the LU and pseudo-inverse loop inverse of :func:`star`;
    serves as its oracle on the contractive domain.  The series is summed
    by squaring, (1 - H)^-1 = prod_j (1 + H^(2^j)), up to the first factor
    with max|H^(2^j)| < ``tol``, which leaves out H^(2^(j+1)) (1 - H)^-1; a
    loop that does not get there within SERIES_SQUARINGS squarings
    (2^SERIES_SQUARINGS terms) raises rather than return a partial sum.
    """
    s2 = _validate_pair(s2, s1, wiring)
    prod, hop = _interface_product(s2, s1)
    if operator_norm(hop) >= 1.0:
        raise SeriesDivergentError(
            "geometric series diverges: ||S2^{L,L} S1^{R,R}|| >= 1"
        )
    linv, power = np.eye(hop.shape[-1]) + hop, hop
    for _ in range(SERIES_SQUARINGS):
        power = power @ power
        linv = linv + linv @ power
        if max_abs(power) < tol:
            return _assemble(s2, s1, linv, prod)
    raise SeriesDivergentError(
        f"geometric series not below {tol:.0e} after {SERIES_SQUARINGS} squarings"
    )
