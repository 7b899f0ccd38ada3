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
(:func:`star_via_padding`).

Every function here takes one scattering matrix or two stacks of equal
leading shape (one matrix per energy of a sweep, say) through the same code:
blocks are sliced on the last two axes, one batched interface product gives
both the loop matrices and the assembly's cross terms, only the rows the LU
inverse cannot certify are decomposed by SVD, and the kernel check runs
only on the rows whose loop is singular.  A gate on a stack measures its
worst row, so one bad row fails the whole stack.

:func:`star` gates every result on unitarity and measures its inputs only
when that gate fails, so a successful call makes one measurement.  Results
are C-ordered stacks, as are the operands graph contraction passes in (or
broadcasts of one C-ordered matrix), and the assembly adds its round trips
in one contiguous pass; the barrier scatterers of :mod:`scatchan.physics`
are gated on their amplitudes before they are stacked.

Memory: a merge of two stacks writes its interface product, its round-trip
term and its gate's temporaries to per-thread
:func:`~scatchan.numerics.workspace` buffers (about five stacks of the
largest shape the thread has merged), so a sweep of merges faults in no
fresh pages.  Every result and loop inverse is a fresh array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DecouplingViolationError,
    InternalConsistencyError,
    InvalidInputError,
    SeriesDivergentError,
)
from .numerics import (
    DEFAULT_REL_TOL, max_abs, operator_norm, pseudo_inverse, whole_number, workspace,
)
from .smatrix import UNITARITY_TOL, PortSpec, ScatteringMatrix, unitarity_defect

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

    s1_to_s2: tuple = field(default_factory=tuple)
    s2_to_s1: tuple = field(default_factory=tuple)

    @classmethod
    def from_json(cls, obj: dict) -> "Wiring":
        try:
            return cls(*(
                tuple((whole_number(a, "wiring slot"), whole_number(b, "wiring slot"))
                      for a, b in obj[key])
                for key in ("s1_to_s2", "s2_to_s1")
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed wiring: {exc}") from exc


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


def _apply_wiring(s2: ScatteringMatrix, s1: ScatteringMatrix, wiring: Wiring):
    """Permute s2's interface slots so the wiring becomes the identity."""
    m12, m21 = s1.spec.right_out, s1.spec.right_in
    fwd = dict(wiring.s1_to_s2)
    bwd = dict(wiring.s2_to_s1)
    if sorted(fwd) != list(range(m12)) or sorted(fwd.values()) != list(range(m12)):
        raise InvalidInputError("s1_to_s2 wiring is not a bijection on interface slots")
    rev = {r: l for l, r in wiring.s2_to_s1}
    if sorted(rev) != list(range(m21)) or sorted(rev.values()) != list(range(m21)):
        raise InvalidInputError("s2_to_s1 wiring is not a bijection on interface slots")
    in_slots = [fwd[q] for q in range(m12)] + list(
        range(m12, s2.spec.total_in)
    )
    out_slots = [rev[q] for q in range(m21)] + list(
        range(m21, s2.spec.total_out)
    )
    return s2.permuted(in_slots, out_slots)


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


def pad_to_homogeneous(s: ScatteringMatrix, target_k: int) -> ScatteringMatrix:
    """Embed into a 2*target_k-slot homogeneous scatterer.

    Fictitious in-slots are routed one-to-one onto fictitious out-slots via
    identity blocks, appended after the physical slots of each group.
    """
    spec = s.spec
    counts = (spec.left_in, spec.left_out, spec.right_in, spec.right_out)
    if target_k < max(counts):
        raise InvalidInputError(
            f"target_k={target_k} smaller than largest group count {max(counts)}"
        )
    if spec.homogeneous and spec.left_in == target_k:
        return s
    d = spec.dim
    k = target_k
    out = np.zeros(s.matrix.shape[:-2] + (2 * k * d, 2 * k * d), dtype=complex)

    # Padded flat positions of the original slots.
    phys_in = list(range(spec.left_in)) + [k + j for j in range(spec.right_in)]
    phys_out = list(range(spec.left_out)) + [k + j for j in range(spec.right_out)]
    rows = np.concatenate(
        [np.arange(p * d, (p + 1) * d) for p in phys_out]
    ) if phys_out else np.array([], dtype=int)
    cols = np.concatenate(
        [np.arange(p * d, (p + 1) * d) for p in phys_in]
    ) if phys_in else np.array([], dtype=int)
    out[(Ellipsis, *np.ix_(rows, cols))] = s.matrix

    fict_in = list(range(spec.left_in, k)) + [k + j for j in range(spec.right_in, k)]
    fict_out = list(range(spec.left_out, k)) + [k + j for j in range(spec.right_out, k)]
    for p_in, p_out in zip(fict_in, fict_out):
        out[..., p_out * d:(p_out + 1) * d, p_in * d:(p_in + 1) * d] = np.eye(d)

    return ScatteringMatrix._trusted(out, PortSpec(k, k, k, k, d))


def extract_physical(
    s_bar: ScatteringMatrix,
    in_slots,
    out_slots,
    spec: PortSpec,
) -> ScatteringMatrix:
    """Pull out the physical sub-block after a padded composition.

    ``in_slots``/``out_slots`` are the flat physical slot indices of
    ``s_bar``; ``spec`` is the port partition of the physical result.
    Raises when physical and fictitious slots fail to decouple.
    """
    d = s_bar.spec.dim
    in_slots, out_slots = list(in_slots), list(out_slots)
    if len(in_slots) != spec.total_in or len(out_slots) != spec.total_out:
        raise InvalidInputError("physical slot labels do not match result spec")
    cols = np.concatenate([np.arange(p * d, (p + 1) * d) for p in in_slots])
    rows = np.concatenate([np.arange(p * d, (p + 1) * d) for p in out_slots])
    col_mask = np.ones(s_bar.spec.in_dim, dtype=bool)
    col_mask[cols] = False
    row_mask = np.ones(s_bar.spec.out_dim, dtype=bool)
    row_mask[rows] = False
    fict_cols = np.flatnonzero(col_mask)
    fict_rows = np.flatnonzero(row_mask)
    m = s_bar.matrix
    cross = np.maximum(
        max_abs(m[(Ellipsis, *np.ix_(rows, fict_cols))]),
        max_abs(m[(Ellipsis, *np.ix_(fict_rows, cols))]),
    )
    if not cross <= DECOUPLING_TOL:
        raise DecouplingViolationError(
            f"physical/fictitious cross-coupling {cross:.3e} exceeds "
            f"{DECOUPLING_TOL:.0e}"
        )
    return ScatteringMatrix._trusted(m[(Ellipsis, *np.ix_(rows, cols))], spec)


@dataclass(frozen=True)
class KernelDecouplingReport:
    """Residuals of the Kostrykin-Schrader decoupling conditions, one
    4-tuple per loop-kernel vector (over all rows of a stack)."""

    kernel_dim: int
    residuals: tuple

    @property
    def max_residual(self) -> float:
        flat = [r for quad in self.residuals for r in quad]
        # np.max keeps a NaN residual; the builtin max could drop it.
        return float(np.max(flat)) if flat else 0.0

    @property
    def ok(self) -> bool:
        # Written so that a NaN residual fails.
        return all(r < DECOUPLING_TOL for quad in self.residuals for r in quad)


def _kernel_residuals(kmat, s2, s1) -> tuple:
    """Decoupling residual 4-tuples, one per column of the kernel basis."""
    kc = kmat.conj()
    r1 = np.linalg.norm(s1.block("L", "R") @ kmat, axis=0)
    r2 = np.linalg.norm(s2.block("R", "L") @ (s1.block("R", "R") @ kmat), axis=0)
    r3 = np.linalg.norm(s2.block("L", "R").T @ kc, axis=0)
    r4 = np.linalg.norm((s2.block("L", "L") @ s1.block("R", "L")).T @ kc, axis=0)
    return tuple(
        (float(a), float(b), float(c), float(e))
        for a, b, c, e in zip(r1, r2, r3, r4)
    )


def _loop_inverse(s2: ScatteringMatrix, s1: ScatteringMatrix, hop: np.ndarray):
    """Inverse of the loop matrix 1 - hop (of every row of a stack) and the
    decoupling report of its kernel.  A batched LU inverse serves each row it
    certifies: sigma_min > KERNEL_SV_TOL and cond_2 < 1 / DEFAULT_REL_TOL, so
    it is the pseudo-inverse (a NaN or Inf fails).  The rest take the SVD
    pseudo-inverse, and its singular rows the kernel check.  A row on which
    LU meets an exact zero pivot (det, from the same factorization, is 0 or
    NaN) stays NaN and so uncertified; the other rows keep their LU inverse."""
    loop = np.eye(hop.shape[-1]) - hop
    try:
        linv = np.linalg.inv(loop)
    except np.linalg.LinAlgError:
        linv = np.full_like(loop, np.nan)
        lu = np.linalg.det(loop) != 0
        if lu.any():  # never for one matrix, whose one row just failed
            linv[lu] = np.linalg.inv(loop[lu])
    inv_norm = np.linalg.norm(linv, axis=(-2, -1))
    regular = (inv_norm * KERNEL_SV_TOL < 1) & (
        np.linalg.norm(loop, axis=(-2, -1)) * inv_norm * DEFAULT_REL_TOL < 1)
    if regular.all():
        return linv, KernelDecouplingReport(0, ())
    n, rows = loop.shape[-1], np.flatnonzero(~regular)
    linv = linv.reshape(-1, n, n)
    linv[rows], sing, v = pseudo_inverse(loop.reshape(-1, n, n)[rows])
    kernel_dim, residuals = 0, ()
    for j in np.flatnonzero(sing[:, -1] < KERNEL_SV_TOL):
        i = np.unravel_index(rows[j], regular.shape)
        kmat = v[j][:, sing[j] < KERNEL_SV_TOL]
        kernel_dim += kmat.shape[1]
        residuals += _kernel_residuals(kmat, s2.row(i), s1.row(i))
    return linv.reshape(loop.shape), KernelDecouplingReport(kernel_dim, residuals)


def kernel_decoupling_check(
    s2: ScatteringMatrix, s1: ScatteringMatrix, wiring: Wiring | None = None
) -> KernelDecouplingReport:
    """Verify that loop-kernel modes are invisible from all dangling ports."""
    s2 = _validate_pair(s2, s1, wiring)
    return _loop_inverse(s2, s1, _interface_product(s2, s1)[1])[1]


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
    conditions are verified rather than assumed.  The output is gated on unitarity first; only when that gate
    fails (a NaN fails it too) are the inputs measured, and the call raises
    unless one of them is itself non-unitary.  Stacks are composed row by
    row in one pass; every measurement takes the worst row.
    """
    s2 = _validate_pair(s2, s1, wiring)

    prod, hop = _interface_product(s2, s1)
    linv, report = _loop_inverse(s2, s1, hop)
    if not report.ok:
        raise InternalConsistencyError(
            "loop matrix is singular but kernel modes couple to the "
            f"output ports (residual {report.max_residual:.3e}); "
            "inputs are not unitary"
        )
    result = _assemble(s2, s1, linv, prod)
    defect = unitarity_defect(result.matrix)
    if not defect <= RESULT_UNITARITY_TOL and not any(
        unitarity_defect(s.matrix) > UNITARITY_TOL for s in (s1, s2)
    ):
        raise InternalConsistencyError(
            f"star of unitary inputs has unitarity defect {defect:.3e}"
        )
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
    in_slots = list(range(spec.left_in)) + [k_bar + j for j in range(spec.right_in)]
    out_slots = list(range(spec.left_out)) + [k_bar + j for j in range(spec.right_out)]
    return extract_physical(bar_g, in_slots, out_slots, spec)


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
    if hop.shape[-1] and operator_norm(hop) >= 1.0:
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
