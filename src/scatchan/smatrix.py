"""Scattering-matrix types with block access; transfer-matrix conversion.

Slot ordering convention (fixed repo-wide): left-group slots first, then
right-group slots; each slot is a contiguous block of ``dim`` internal
amplitudes.  In-slots index columns, out-slots index rows.

A ``ScatteringMatrix`` holds one matrix or a stack of matrices along leading
axes (one per energy of a sweep, say), all under one port partition; block
access and reindexing act on the last two axes.  Stacks are C-ordered (the
matrix axes innermost): reindexing gathers into that layout in one
``np.take``, and a relabelling that moves no slot shares the array.  The
unitarity gate of a stack writes its temporaries to the thread's workspace
and allocates nothing.  A transfer matrix is one plain 2-D array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConversionUnavailableError, InvalidInputError, NonUnitaryError
from .numerics import as_matrix, workspace

UNITARITY_TOL = 1e-8
CONDITION_CUTOFF = 1e8


@dataclass(frozen=True)
class PortSpec:
    """Port partition of a scatterer: slot counts per group and the
    internal dimension carried by every slot."""

    left_in: int
    left_out: int
    right_in: int
    right_out: int
    dim: int = 1

    def __post_init__(self):
        counts = (self.left_in, self.left_out, self.right_in, self.right_out)
        if any(c < 0 for c in counts):
            raise InvalidInputError(f"negative slot count in {self}")
        if self.dim < 1:
            raise InvalidInputError(f"internal dimension must be >= 1, got {self.dim}")
        if self.left_in + self.right_in != self.left_out + self.right_out:
            raise InvalidInputError(
                f"total in-slots ({self.left_in + self.right_in}) must equal "
                f"total out-slots ({self.left_out + self.right_out})"
            )

    @property
    def total_in(self) -> int:
        return self.left_in + self.right_in

    @property
    def total_out(self) -> int:
        return self.left_out + self.right_out

    @property
    def in_dim(self) -> int:
        return self.total_in * self.dim

    @property
    def out_dim(self) -> int:
        return self.total_out * self.dim

    @property
    def homogeneous(self) -> bool:
        return self.left_in == self.left_out == self.right_in == self.right_out


def unitarity_defect(matrix: np.ndarray) -> float:
    """Entrywise max-norm of S^dag S - 1 (square matrices only); of a
    stack, that of its worst row (NaN if any entry is).  The conjugate, the
    Gram matrix and its modulus are :func:`~scatchan.numerics.workspace`
    arrays; 1 is taken off the Gram diagonal in place (every n+1-th entry of
    each C-ordered n x n row)."""
    m = np.asarray(matrix)
    conj = np.conjugate(m, out=workspace("gate_conj", m.shape, m.dtype))
    n = m.shape[-1]
    gram = np.matmul(conj.swapaxes(-1, -2), m,
                     out=workspace("gate_gram", m.shape[:-2] + (n, n), m.dtype))
    gram.reshape(gram.shape[:-2] + (n * n,))[..., :: n + 1] -= 1
    modulus = np.abs(gram, out=workspace("gate_abs", gram.shape, gram.real.dtype))
    return float(modulus.max(initial=0.0))


class ScatteringMatrix:
    """A scattering matrix together with its port partition.

    Immutable after construction; the underlying array is write-locked.
    Every instance the public API builds is unitary: the constructor and
    :func:`t_to_s` reject a matrix (a stack: any row) whose unitarity defect
    exceeds ``UNITARITY_TOL``, and the other routes permute, pad or
    star-compose unitary matrices.
    """

    def __init__(self, matrix, spec: PortSpec):
        m = as_matrix(matrix).copy()
        if m.shape[-2:] != (spec.out_dim, spec.in_dim):
            raise InvalidInputError(
                f"matrix shape {m.shape} does not match spec "
                f"({spec.out_dim}, {spec.in_dim})"
            )
        defect = unitarity_defect(m)
        if not defect <= UNITARITY_TOL:  # a NaN fails too
            raise NonUnitaryError(
                f"max |S^dag S - 1| = {defect:.3e} exceeds {UNITARITY_TOL:.0e}"
            )
        m.flags.writeable = False
        self.matrix = m
        self.spec = spec

    def block(self, out_group: str, in_group: str) -> np.ndarray:
        """The rectangular sub-block mapping ``in_group`` to ``out_group``,
        groups named 'L' or 'R'."""
        d = self.spec.dim
        if out_group == "L":
            rows = slice(0, self.spec.left_out * d)
        elif out_group == "R":
            rows = slice(self.spec.left_out * d, self.spec.out_dim)
        else:
            raise InvalidInputError(f"unknown out group {out_group!r}")
        if in_group == "L":
            cols = slice(0, self.spec.left_in * d)
        elif in_group == "R":
            cols = slice(self.spec.left_in * d, self.spec.in_dim)
        else:
            raise InvalidInputError(f"unknown in group {in_group!r}")
        return self.matrix[..., rows, cols]

    @classmethod
    def _trusted(cls, matrix: np.ndarray, spec: PortSpec) -> "ScatteringMatrix":
        """Wrap a complex array that its caller guarantees unitary, unchecked."""
        obj = object.__new__(cls)
        matrix.flags.writeable = False
        obj.matrix = matrix
        obj.spec = spec
        return obj

    def _reindexed(self, index, spec: PortSpec) -> "ScatteringMatrix":
        """Rows/columns picked by a precomputed slot-permutation index
        (see :func:`slot_permutation_index`), under ``spec``: a C-ordered
        array gathered in one ``np.take``, or for ``None`` the same array
        relabelled."""
        m = self.matrix
        if index is not None:
            m = m.reshape(m.shape[:-2] + (index.size,)).take(index, axis=-1)
        return ScatteringMatrix._trusted(m, spec)

    def permuted(self, in_slots, out_slots) -> "ScatteringMatrix":
        """Reorder slots; ``in_slots``/``out_slots`` are flat permutations."""
        if sorted(in_slots) != list(range(self.spec.total_in)):
            raise InvalidInputError("in_slots is not a permutation")
        if sorted(out_slots) != list(range(self.spec.total_out)):
            raise InvalidInputError("out_slots is not a permutation")
        index = slot_permutation_index(in_slots, out_slots, self.spec.dim)
        return self._reindexed(index, self.spec)

    def __repr__(self):
        return f"ScatteringMatrix(spec={self.spec})"


def slot_permutation_index(in_slots, out_slots, dim: int) -> np.ndarray | None:
    """Flat element index that reorders the slots of a matrix or of every
    row of a stack (``np.take`` on its row-major entries): row block i of
    the result is out-slot ``out_slots[i]``, column block j is in-slot
    ``in_slots[j]``.  Both are permutations, so the source has as many
    columns as the result; ``None`` when neither moves a slot."""
    in_slots, out_slots = list(in_slots), list(out_slots)
    if in_slots == sorted(in_slots) and out_slots == sorted(out_slots):
        return None

    def expand(slots):
        slots = np.asarray(slots, dtype=np.intp).reshape(-1, 1)
        return (slots * dim + np.arange(dim)).ravel()

    cols = expand(in_slots)
    index = expand(out_slots)[:, None] * cols.size + cols
    index.flags.writeable = False  # compiled contraction plans share it
    return index


def _checked_inverse(block: np.ndarray, what: str) -> np.ndarray:
    if block.size == 0:
        raise ConversionUnavailableError(f"{what} is empty")
    s = np.linalg.svd(block, compute_uv=False)
    if s[0] == 0.0 or s[0] / max(s[-1], np.finfo(float).tiny) >= CONDITION_CUTOFF:
        raise ConversionUnavailableError(
            f"{what} is singular or ill-conditioned (cond >= {CONDITION_CUTOFF:.0e})"
        )
    return np.linalg.inv(block)


def s_to_t(s: ScatteringMatrix) -> np.ndarray:
    """The transfer matrix of one homogeneous scattering matrix: the 2h x 2h
    array (h = k * dim) that maps the left amplitudes (A_left, B_left) to
    the right ones (B_right, A_right), in the blocks [[BA, BB], [AA, AB]]."""
    if not s.spec.homogeneous or s.matrix.ndim != 2:
        raise InvalidInputError("s_to_t needs one matrix with equal left/right port groups")
    s_ll, s_lr = s.block("L", "L"), s.block("L", "R")
    s_rl, s_rr = s.block("R", "L"), s.block("R", "R")
    inv_lr = _checked_inverse(s_lr, "S^{L,R}")
    return np.block([[s_rl - s_rr @ inv_lr @ s_ll, s_rr @ inv_lr],
                     [-inv_lr @ s_ll, inv_lr]])


def t_to_s(t, dim: int) -> ScatteringMatrix:
    """Inverse of :func:`s_to_t`: the homogeneous scattering matrix, with
    ``dim`` internal amplitudes per slot, of one 2h x 2h transfer matrix
    whose half-size h is a multiple of ``dim``."""
    t = as_matrix(t)
    n = t.shape[-1]
    if t.shape != (n, n) or dim < 1 or n % (2 * dim):
        raise InvalidInputError(
            f"transfer matrix of shape {t.shape} is not 2h x 2h with h a multiple of dim {dim}")
    h = n // 2
    t_ba, t_bb, t_aa = t[:h, :h], t[:h, h:], t[h:, :h]
    inv_ab = _checked_inverse(t[h:, h:], "T^{A,B}")
    s = np.block([[-inv_ab @ t_aa, inv_ab],
                  [t_ba - t_bb @ inv_ab @ t_aa, t_bb @ inv_ab]])
    k = h // dim
    return ScatteringMatrix(s, PortSpec(k, k, k, k, dim))
