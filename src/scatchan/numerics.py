"""Dense complex-matrix kernels used by every other module.

All matrices are plain ``numpy.ndarray`` of dtype complex128.  The JSON
literal form used across the repo is
``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with row-major data.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

DEFAULT_REL_TOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise InvalidInputError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix contains NaN or Inf entries")
    return m


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition A = U diag(sigma) V^dag.

    Returns (U, sigma, V) with sigma nonnegative and sorted descending,
    U and V unitary.  Note the third factor is V, not V^dag.
    """
    m = as_matrix(a)
    u, s, vh = np.linalg.svd(m)
    return u, s, vh.conj().T


def pseudo_inverse(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moore-Penrose pseudo-inverse via one SVD.

    Singular values below DEFAULT_REL_TOL * sigma_max are treated as exactly
    zero.  Returns (A^+, sigma, V) with sigma and V as from :func:`svd`, so
    a caller can read the kernel of A without a second decomposition.
    """
    u, s, v = svd(a)
    k = s.size
    cutoff = DEFAULT_REL_TOL * s[0] if k else 0.0
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (v[:, :k] * inv_s) @ u[:, :k].conj().T, s, v


def operator_norm(a) -> float:
    """Largest singular value (induced 2-norm)."""
    m = as_matrix(a)
    if min(m.shape) == 0:
        return 0.0
    return float(np.linalg.norm(m, ord=2))


def max_abs(a) -> float:
    """Entrywise max-norm; the residual measure used throughout the tests."""
    m = np.asarray(a)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m)))


def matrix_to_json(a) -> dict:
    """Serialize to the repo-wide matrix literal."""
    m = as_matrix(a)
    data = [[float(z.real), float(z.imag)] for z in m.ravel()]
    return {"rows": m.shape[0], "cols": m.shape[1], "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the repo-wide matrix literal."""
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed matrix literal: {exc}") from exc
    if len(data) != rows * cols:
        raise InvalidInputError(
            f"matrix literal has {len(data)} entries, expected {rows * cols}"
        )
    flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    return as_matrix(flat.reshape(rows, cols))
