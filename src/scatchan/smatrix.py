"""Scattering- and transfer-matrix types with block access and conversion.

Slot ordering convention (fixed repo-wide): left-group slots first, then
right-group slots; each slot is a contiguous block of ``dim`` internal
amplitudes.  In-slots index columns, out-slots index rows.

A ``ScatteringMatrix`` holds one matrix or a stack of matrices along leading
axes (one per energy of a sweep, say), all under one port partition; block
access and reindexing act on the last two axes.  Stacks are C-ordered (the
matrix axes innermost): reindexing gathers into that layout in one
``np.take``, and a relabelling that moves no slot shares the array.  The
unitarity gate of a stack writes its temporaries to the thread's workspace
and allocates nothing.  Transfer matrices stay 2-D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConversionUnavailableError, InvalidInputError, NonUnitaryError
from .numerics import as_matrix, matrix_from_json, matrix_to_json, whole_number, workspace

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

    def to_json(self) -> dict:
        return {
            "left_in": self.left_in,
            "left_out": self.left_out,
            "right_in": self.right_in,
            "right_out": self.right_out,
            "dim": self.dim,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PortSpec":
        try:
            counts = [whole_number(obj[key], key)
                      for key in ("left_in", "left_out", "right_in", "right_out")]
            return cls(*counts, whole_number(obj.get("dim", 1), "dim", 1))
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed port spec: {exc}") from exc


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
    The checked constructor rejects a square matrix (for a stack: any row)
    whose unitarity defect exceeds ``UNITARITY_TOL``.
    """

    def __init__(self, matrix, spec: PortSpec, check: bool = True):
        m = as_matrix(matrix).copy()
        if m.shape[-2:] != (spec.out_dim, spec.in_dim):
            raise InvalidInputError(
                f"matrix shape {m.shape} does not match spec "
                f"({spec.out_dim}, {spec.in_dim})"
            )
        if check and m.shape[-2] == m.shape[-1]:
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

    def slot_block(self, out_slot: int, in_slot: int) -> np.ndarray:
        """The dim x dim sub-block for a single (out-slot, in-slot) pair,
        slots indexed flat across left-then-right groups."""
        d = self.spec.dim
        if not (0 <= out_slot < self.spec.total_out and 0 <= in_slot < self.spec.total_in):
            raise InvalidInputError(f"slot pair ({out_slot}, {in_slot}) out of range")
        return self.matrix[..., out_slot * d:(out_slot + 1) * d, in_slot * d:(in_slot + 1) * d]

    @classmethod
    def _trusted(cls, matrix: np.ndarray, spec: PortSpec) -> "ScatteringMatrix":
        """Wrap an internally produced complex array without re-validation."""
        obj = object.__new__(cls)
        matrix.flags.writeable = False
        obj.matrix = matrix
        obj.spec = spec
        return obj

    def row(self, i) -> "ScatteringMatrix":
        """Matrix ``i`` of a stack."""
        return ScatteringMatrix._trusted(self.matrix[i], self.spec)

    def broadcast_to(self, lead: tuple) -> "ScatteringMatrix":
        """This matrix repeated along leading axes of shape ``lead`` (a
        read-only view)."""
        shape = tuple(lead) + self.matrix.shape[-2:]
        return ScatteringMatrix._trusted(np.broadcast_to(self.matrix, shape), self.spec)

    def reindexed(self, index, spec: PortSpec) -> "ScatteringMatrix":
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
        return self.reindexed(index, self.spec)

    def to_json(self) -> dict:
        return {"spec": self.spec.to_json(), "matrix": matrix_to_json(self.matrix)}

    @classmethod
    def from_json(cls, obj: dict) -> "ScatteringMatrix":
        try:
            spec = PortSpec.from_json(obj["spec"])
            matrix = matrix_from_json(obj["matrix"])
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed scattering matrix: {exc}") from exc
        return cls(matrix, spec)

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


@dataclass(frozen=True)
class TransferMatrix:
    """Left<->right amplitude map equivalent to a homogeneous S-matrix.

    Maps (A_left, B_left) to (B_right, A_right); ``half`` is the k*d size
    of each of the four blocks.
    """

    matrix: np.ndarray
    half: int
    dim: int = 1

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape != (2 * self.half, 2 * self.half):
            raise InvalidInputError(
                f"transfer matrix shape {m.shape} does not match half-size {self.half}"
            )
        object.__setattr__(self, "matrix", m)

    def block(self, name: str) -> np.ndarray:
        h = self.half
        blocks = {
            "BA": self.matrix[:h, :h],
            "BB": self.matrix[:h, h:],
            "AA": self.matrix[h:, :h],
            "AB": self.matrix[h:, h:],
        }
        try:
            return blocks[name]
        except KeyError:
            raise InvalidInputError(f"unknown transfer block {name!r}") from None

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        if self.half != other.half or self.dim != other.dim:
            raise InvalidInputError("transfer matrices of different size")
        return TransferMatrix(self.matrix @ other.matrix, self.half, self.dim)


def _checked_inverse(block: np.ndarray, what: str) -> np.ndarray:
    if block.size == 0:
        raise ConversionUnavailableError(f"{what} is empty")
    s = np.linalg.svd(block, compute_uv=False)
    if s[0] == 0.0 or s[0] / max(s[-1], np.finfo(float).tiny) >= CONDITION_CUTOFF:
        raise ConversionUnavailableError(
            f"{what} is singular or ill-conditioned (cond >= {CONDITION_CUTOFF:.0e})"
        )
    return np.linalg.inv(block)


def s_to_t(s: ScatteringMatrix) -> TransferMatrix:
    """Convert a homogeneous scattering matrix to its transfer matrix."""
    if not s.spec.homogeneous or s.matrix.ndim != 2:
        raise InvalidInputError("s_to_t needs one matrix with equal left/right port groups")
    s_ll, s_lr = s.block("L", "L"), s.block("L", "R")
    s_rl, s_rr = s.block("R", "L"), s.block("R", "R")
    inv_lr = _checked_inverse(s_lr, "S^{L,R}")
    h = s_ll.shape[0]
    t = np.empty((2 * h, 2 * h), dtype=complex)
    t[:h, :h] = s_rl - s_rr @ inv_lr @ s_ll
    t[:h, h:] = s_rr @ inv_lr
    t[h:, :h] = -inv_lr @ s_ll
    t[h:, h:] = inv_lr
    return TransferMatrix(t, h, s.spec.dim)


def t_to_s(t: TransferMatrix) -> ScatteringMatrix:
    """Inverse of :func:`s_to_t`."""
    inv_ab = _checked_inverse(t.block("AB"), "T^{A,B}")
    t_aa, t_ba, t_bb = t.block("AA"), t.block("BA"), t.block("BB")
    h = t.half
    s = np.empty((2 * h, 2 * h), dtype=complex)
    s[:h, :h] = -inv_ab @ t_aa
    s[:h, h:] = inv_ab
    s[h:, :h] = t_ba - t_bb @ inv_ab @ t_aa
    s[h:, h:] = t_bb @ inv_ab
    k = h // t.dim
    return ScatteringMatrix(s, PortSpec(k, k, k, k, t.dim), check=False)
