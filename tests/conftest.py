"""Shared generators for randomized tests, and the test-only oracles.

All randomness is seeded at the call site; nothing here owns global state.
"""

import numpy as np

from scatchan.channel import ErasureChannel, kraus_set
from scatchan.numerics import as_single_matrix, max_abs
from scatchan.smatrix import PortSpec, ScatteringMatrix


def random_unitary(rng, n):
    """Haar-ish unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_smatrix(rng, k, d):
    """Random homogeneous unitary scatterer with k slots per group."""
    return ScatteringMatrix(random_unitary(rng, 2 * k * d), PortSpec(k, k, k, k, d))


def bounded_loop_smatrix(rng, k, d, cmax=0.9):
    """Unitary scatterer whose reflection blocks have operator norm <= cmax.

    Built from the cosine-sine decomposition
    [[U1,0],[0,U2]] [[C,S],[S,-C]] [[V1,0],[0,V2]] with cos values drawn
    below cmax, so products of two reflection blocks stay contractive and
    both transmission blocks stay well conditioned.
    """
    m = k * d
    c = rng.uniform(0.0, cmax, size=m)
    s = np.sqrt(1.0 - c * c)
    core = np.block([[np.diag(c), np.diag(s)], [np.diag(s), -np.diag(c)]])
    u = np.block([
        [random_unitary(rng, m), np.zeros((m, m))],
        [np.zeros((m, m)), random_unitary(rng, m)],
    ])
    v = np.block([
        [random_unitary(rng, m), np.zeros((m, m))],
        [np.zeros((m, m)), random_unitary(rng, m)],
    ])
    return ScatteringMatrix(u @ core @ v, PortSpec(k, k, k, k, d))


def singular_loop_pair(rng, k, d):
    """Unitary pair whose loop matrix is exactly singular.

    s1 fully reflects one right mode with phase e^{i beta} and s2 fully
    reflects one left mode with phase e^{-i beta}; the phases cancel in
    S2^{L,L} S1^{R,R}, pinning one loop eigenvalue at 1.  Everything else
    is generic.
    """
    n = 2 * k * d
    beta = rng.uniform(0, 2 * np.pi)

    def embed(phase, idx):
        out = np.zeros((n, n), dtype=complex)
        out[idx, idx] = phase
        rest = [j for j in range(n) if j != idx]
        out[np.ix_(rest, rest)] = random_unitary(rng, n - 1)
        return out

    s1 = ScatteringMatrix(embed(np.exp(1j * beta), k * d), PortSpec(k, k, k, k, d))
    s2 = ScatteringMatrix(embed(np.exp(-1j * beta), 0), PortSpec(k, k, k, k, d))
    return s2, s1


def dishomogeneous_specs(rng):
    """Slot counts (left_in, left_out, right_in, right_out) of a composable
    pair (s2, s1) in which not all group counts are equal.

    The interface counts (s1's right groups, s2's left groups) are at least
    one; an outer out-group may be empty.
    """
    while True:
        li1, ri1, ro1, ri2 = (int(x) for x in rng.integers(1, 4, size=4))
        lo1 = li1 + ri1 - ro1
        ro2 = ro1 + ri2 - ri1
        spec1, spec2 = (li1, lo1, ri1, ro1), (ro1, ri1, ri2, ro2)
        if lo1 >= 0 and ro2 >= 0 and len(set(spec1 + spec2)) > 1:
            return spec2, spec1


def random_dishomogeneous_pair(rng, d):
    """Random unitary pair (s2, s1) with unequal slot counts per group."""
    spec2, spec1 = dishomogeneous_specs(rng)
    s1 = ScatteringMatrix(random_unitary(rng, (spec1[0] + spec1[2]) * d), PortSpec(*spec1, d))
    s2 = ScatteringMatrix(random_unitary(rng, (spec2[0] + spec2[2]) * d), PortSpec(*spec2, d))
    return s2, s1


def dishomogeneous_singular_loop_pair(rng, d):
    """Dishomogeneous unitary pair whose physical loop matrix is exactly
    singular.

    s1 sends its first right-in amplitude only to its first right-out
    amplitude, with phase e^{i beta}; s2 sends its first left-in amplitude
    only to its first left-out amplitude, with phase e^{-i beta}.  The round
    trip closes on itself, pinning one eigenvalue of S2^{L,L} S1^{R,R} at 1.
    Everything else is generic.
    """
    spec2, spec1 = dishomogeneous_specs(rng)
    beta = rng.uniform(0, 2 * np.pi)

    def embed(n, phase, row, col):
        out = np.zeros((n, n), dtype=complex)
        out[row, col] = phase
        rows = [j for j in range(n) if j != row]
        cols = [j for j in range(n) if j != col]
        out[np.ix_(rows, cols)] = random_unitary(rng, n - 1)
        return out

    n1 = (spec1[0] + spec1[2]) * d
    n2 = (spec2[0] + spec2[2]) * d
    s1 = ScatteringMatrix(
        embed(n1, np.exp(1j * beta), spec1[1] * d, spec1[0] * d), PortSpec(*spec1, d)
    )
    s2 = ScatteringMatrix(embed(n2, np.exp(-1j * beta), 0, 0), PortSpec(*spec2, d))
    return s2, s1


def random_contraction(rng, d, p_max=1.0):
    """Random M with M^dag M <= 1: unitaries around clipped singular values."""
    sv = rng.uniform(0.0, p_max, size=d)
    return random_unitary(rng, d) @ np.diag(np.sqrt(sv)) @ random_unitary(rng, d)


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def is_density(rho, tol=1e-12):
    """Hermitian, unit trace, and positive semidefinite within tolerance."""
    m = as_single_matrix(rho)
    if m.shape[0] != m.shape[1]:
        return False
    if max_abs(m - m.conj().T) > tol:
        return False
    if abs(np.trace(m) - 1.0) > tol:
        return False
    return float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2))) >= -1e-10


def apply_via_kraus(ch: ErasureChannel, rho):
    """The channel applied through its Kraus set: the oracle for
    :func:`scatchan.channel.apply`."""
    r = as_single_matrix(rho)
    out = np.zeros((ch.d + 1, ch.d + 1), dtype=complex)
    for k in kraus_set(ch):
        out += k @ r @ k.conj().T
    return out


def choi_partial_trace_out(j, d):
    """Trace out the (d+1)-dim output factor of a Choi matrix."""
    t = as_single_matrix(j).reshape(d + 1, d, d + 1, d)
    return np.einsum("aiaj->ij", t)
