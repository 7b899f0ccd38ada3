"""Port-to-port erasure channels induced by a global scattering matrix.

The channel delivers M rho M^dag on the internal space and routes the
complementary weight to an orthogonal flag ("no particle") state realized
as one appended basis dimension, giving (d+1)x(d+1) outputs.  Channels
take one transmission operator, the d x d block of the global matrix
between two ports; a stack of them is rejected.
"""

from __future__ import annotations

import numpy as np

from .capacity import PROB_CLAMP_TOL
from .errors import InvalidInputError
from .numerics import as_single_matrix
from .smatrix import ScatteringMatrix


def transmission_operator(
    s_g: ScatteringMatrix, in_port: int, out_port: int
) -> np.ndarray:
    """The d x d block of the global S-matrix connecting the sender's
    in-port to the receiver's out-port (a stack of blocks for a stacked
    S-matrix), a view of the matrix.  Ports are 1-based dangling labels.
    """
    d = s_g.spec.dim
    if not 1 <= in_port <= s_g.spec.total_in:
        raise InvalidInputError(f"unknown in-port {in_port}")
    if not 1 <= out_port <= s_g.spec.total_out:
        raise InvalidInputError(f"unknown out-port {out_port}")
    return s_g.matrix[..., (out_port - 1) * d:out_port * d, (in_port - 1) * d:in_port * d]


class ErasureChannel:
    """State-dependent erasure channel G_M with flag index d."""

    def __init__(self, m_op):
        m = as_single_matrix(m_op)
        if m.shape[0] != m.shape[1]:
            raise InvalidInputError(f"transmission operator must be square, got {m.shape}")
        self.d = m.shape[0]
        gram_defect = np.eye(self.d) - m.conj().T @ m
        evals, evecs = np.linalg.eigh((gram_defect + gram_defect.conj().T) / 2)
        lowest = np.min(evals, initial=0.0)  # NaN if any eigenvalue is
        # lambda_min(1 - M^dag M) >= -tol exactly when sigma_max(M)^2 <= 1 + tol.
        if not lowest >= -PROB_CLAMP_TOL:
            raise InvalidInputError(
                f"1 - M^dag M has eigenvalue {lowest:.3e}; M is not a contraction"
            )
        # Clamp tiny negative eigenvalues before the square root.
        evals = np.clip(evals, 0.0, None)
        self._sqrt_defect = (evecs * np.sqrt(evals)) @ evecs.conj().T
        m = m.copy()
        m.flags.writeable = False
        self.m_op = m

    def __repr__(self):
        return f"ErasureChannel(d={self.d})"


def apply(ch: ErasureChannel, rho) -> np.ndarray:
    """Apply the channel to a d x d density matrix, returning the
    (d+1)x(d+1) output with the erasure weight on the flag diagonal."""
    r = as_single_matrix(rho)
    if r.shape != (ch.d, ch.d):
        raise InvalidInputError(
            f"state has shape {r.shape}, channel expects ({ch.d}, {ch.d})"
        )
    m = ch.m_op
    out = np.zeros((ch.d + 1, ch.d + 1), dtype=complex)
    out[:ch.d, :ch.d] = m @ r @ m.conj().T
    out[ch.d, ch.d] = np.trace(r) - np.trace(out[:ch.d, :ch.d])
    return out


def kraus_set(ch: ErasureChannel) -> list[np.ndarray]:
    """Kraus operators mapping the d-dim input to the (d+1)-dim flagged
    output: K0 embeds M, K^a = |flag><a| sqrt(1 - M^dag M)."""
    d = ch.d
    ops = []
    k0 = np.zeros((d + 1, d), dtype=complex)
    k0[:d, :] = ch.m_op
    ops.append(k0)
    for a in range(d):
        ka = np.zeros((d + 1, d), dtype=complex)
        ka[d, :] = ch._sqrt_defect[a, :]
        ops.append(ka)
    return ops


def choi(ch: ErasureChannel) -> np.ndarray:
    """Choi matrix (channel tensor identity on the normalized maximally
    entangled projector); output factor first."""
    d = ch.d
    j = np.zeros(((d + 1) * d, (d + 1) * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            e_ab = np.zeros((d, d), dtype=complex)
            e_ab[a, b] = 1.0
            j += np.kron(apply(ch, e_ab), e_ab) / d
    return j


def compose(ch2: ErasureChannel, ch1: ErasureChannel) -> ErasureChannel:
    """Flag-absorbing composition: G_{M2} after G_{M1} = G_{M2 M1}."""
    if ch1.d != ch2.d:
        raise InvalidInputError(
            f"channel dimensions differ: {ch1.d} vs {ch2.d}"
        )
    return ErasureChannel(ch2.m_op @ ch1.m_op)
