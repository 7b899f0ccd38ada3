"""Dense complex-matrix kernels used by every other module.

All matrices are plain ``numpy.ndarray`` of dtype complex128.  The kernels
that composition uses (:func:`as_matrix`, :func:`svd`,
:func:`pseudo_inverse`) take one matrix or a stack of matrices along leading
axes, decomposed row by row.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import InvalidInputError

DEFAULT_REL_TOL = 1e-12

_workspace = threading.local()


def workspace(slot: str, shape: tuple, dtype=complex) -> np.ndarray | None:
    """A C-ordered, uninitialized array of ``shape`` and ``dtype`` on this
    thread's scratch buffer ``slot``, to pass as a ufunc's ``out``; ``None``
    (the ufunc allocates) for one matrix, which this call would only slow.

    Each slot's buffer grows to the largest stack it has seen and is then
    reused, so that the allocator does not return its pages to the kernel
    and fault them in again on the next call.  The next request for the
    same slot overwrites the array: a caller lets it go before that, and
    never returns it.  Threads never share a buffer.
    """
    if len(shape) < 3:
        return None
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buffers = _workspace.__dict__
    buf = buffers.get(slot)
    if buf is None or buf.nbytes < nbytes:
        # complex128 items keep every view aligned for any numeric dtype.
        buf = buffers[slot] = np.empty(-(-nbytes // 16), dtype=np.complex128)
    return np.ndarray(shape, dtype, buffer=buf)


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite complex matrix, or a stack of matrices along
    leading axes (``ndim >= 2``)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2:
        raise InvalidInputError(f"expected a matrix or a stack, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix contains NaN or Inf entries")
    return m


def as_single_matrix(a) -> np.ndarray:
    """:func:`as_matrix` for consumers that take one 2-D matrix, never a
    stack."""
    m = as_matrix(a)
    if m.ndim != 2:
        raise InvalidInputError(f"expected one 2-D matrix, got shape {m.shape}")
    return m


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition A = U diag(sigma) V^dag.

    Returns (U, sigma, V) with sigma nonnegative and sorted descending,
    U and V unitary.  Note the third factor is V, not V^dag.  A stack is
    decomposed row by row.
    """
    m = as_matrix(a)
    u, s, vh = np.linalg.svd(m)
    return u, s, vh.conj().swapaxes(-1, -2)


def pseudo_inverse(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moore-Penrose pseudo-inverse via one SVD.

    Singular values below DEFAULT_REL_TOL * sigma_max (of each row of a
    stack) are treated as exactly zero.  Returns (A^+, sigma, V) with sigma
    and V as from :func:`svd`, so a caller can read the kernel of A without
    a second decomposition.
    """
    u, s, v = svd(a)
    k = s.shape[-1]
    keep = s > DEFAULT_REL_TOL * s[..., :1]
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    pinv = (v[..., :k] * inv_s[..., None, :]) @ u[..., :k].conj().swapaxes(-1, -2)
    return pinv, s, v


def operator_norm(a) -> float:
    """Largest singular value (induced 2-norm); of a stack, the largest
    over its rows."""
    m = as_matrix(a)
    if min(m.shape[-2:]) == 0:
        return 0.0
    return float(np.max(np.linalg.svd(m, compute_uv=False)))


def max_abs(a) -> float:
    """Entrywise max-norm; the residual measure used throughout the tests."""
    m = np.asarray(a)
    if m.size == 0:
        return 0.0
    return float(np.abs(m).max())
