"""Dense complex-matrix kernels used by every other module.

All matrices are plain ``numpy.ndarray`` of dtype complex128.  The kernels
that composition uses (:func:`as_matrix`, :func:`svd`,
:func:`pseudo_inverse`) take one matrix or a stack of matrices along leading
axes, decomposed row by row.  The JSON literal form used across the repo is
``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with row-major data.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

DEFAULT_REL_TOL = 1e-12


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


def whole_number(value, name: str, least: float = 0, most: float = math.inf) -> int:
    """A whole-number field of a JSON document (not a bool) in [``least``,
    ``most``]: the one parser of counts, ids and slots, so that 1.7 or
    ``true`` is rejected rather than truncated."""
    try:
        n = float(value)
    except (TypeError, ValueError, OverflowError):
        n = math.nan
    if isinstance(value, bool) or not n.is_integer() or not least <= n <= most:
        raise InvalidInputError(
            f"{name} must be a whole number in [{least}, {most}], got {value!r}")
    return int(value) if isinstance(value, int) else int(n)


def matrix_to_json(a) -> dict:
    """Serialize to the repo-wide matrix literal."""
    m = as_single_matrix(a)
    data = [[float(z.real), float(z.imag)] for z in m.ravel()]
    return {"rows": m.shape[0], "cols": m.shape[1], "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the repo-wide matrix literal."""
    try:
        rows, cols, data = (whole_number(obj["rows"], "rows"),
                            whole_number(obj["cols"], "cols"), obj["data"])
        entries = [complex(re, im) for re, im in data]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed matrix literal: {exc}") from exc
    if len(entries) != rows * cols:
        raise InvalidInputError(
            f"matrix literal has {len(entries)} entries, expected {rows * cols}"
        )
    return as_matrix(np.array(entries, dtype=complex).reshape(rows, cols))
