import numpy as np
import pytest

from scatchan.channel import (
    ErasureChannel,
    apply,
    choi,
    compose,
    kraus_set,
    transmission_operator,
)
from scatchan.errors import InvalidInputError
from scatchan.numerics import max_abs
from scatchan.smatrix import PortSpec, ScatteringMatrix

from conftest import (
    apply_via_kraus,
    choi_partial_trace_out,
    is_density,
    random_contraction,
    random_density,
    random_unitary,
)

SWAP_D2 = ScatteringMatrix(
    np.block([
        [np.zeros((2, 2)), np.eye(2)],
        [np.eye(2), np.zeros((2, 2))],
    ]),
    PortSpec(1, 1, 1, 1, 2),
)
REFLECTOR_D2 = ScatteringMatrix(np.eye(4), PortSpec(1, 1, 1, 1, 2))


class TestTransmissionOperator:
    def test_swap_transmits_identity(self):
        m = transmission_operator(SWAP_D2, in_port=1, out_port=2)
        assert max_abs(m - np.eye(2)) == 0.0

    def test_reflector_transmits_nothing(self):
        m = transmission_operator(REFLECTOR_D2, in_port=1, out_port=2)
        assert max_abs(m) == 0.0

    def test_unknown_port(self):
        with pytest.raises(InvalidInputError):
            transmission_operator(SWAP_D2, in_port=1, out_port=5)
        with pytest.raises(InvalidInputError, match="unknown in-port 0"):
            transmission_operator(SWAP_D2, in_port=0, out_port=2)


def test_channel_rejects_a_non_square_operator():
    with pytest.raises(InvalidInputError, match="must be square"):
        ErasureChannel(np.zeros((2, 3)))


def test_channel_rejects_a_stack():
    with pytest.raises(InvalidInputError):
        ErasureChannel(np.stack([np.eye(2), 0.5 * np.eye(2), np.zeros((2, 2))]))


class TestApply:
    def test_identity_m_keeps_state(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 2)
        out = apply(ErasureChannel(np.eye(2)), rho)
        assert max_abs(out[:2, :2] - rho) < 1e-14
        assert abs(out[2, 2]) < 1e-14

    def test_zero_m_erases_everything(self):
        rng = np.random.default_rng(1)
        out = apply(ErasureChannel(np.zeros((2, 2))), random_density(rng, 2))
        assert out[2, 2] == pytest.approx(1.0)
        assert max_abs(out[:2, :2]) < 1e-14

    def test_uniform_m_is_standard_erasure(self):
        rng = np.random.default_rng(2)
        p = 0.7
        rho = random_density(rng, 3)
        out = apply(ErasureChannel(np.sqrt(p) * np.eye(3)), rho)
        assert max_abs(out[:3, :3] - p * rho) < 1e-14
        assert out[3, 3] == pytest.approx(1 - p)

    def test_trace_preserved_and_valid_density(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            ch = ErasureChannel(random_contraction(rng, d))
            out = apply(ch, random_density(rng, d))
            assert abs(np.trace(out) - 1.0) < 1e-12
            assert is_density(out, tol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            apply(ErasureChannel(np.eye(2)), np.eye(3) / 3)

    def test_non_contraction_rejected(self):
        with pytest.raises(InvalidInputError):
            ErasureChannel(1.5 * np.eye(2))

    def test_overflowing_gram_is_rejected(self):
        # M^dag M overflows, so 1 - M^dag M has NaN eigenvalues: the gate
        # must fail on them, not compare them away.
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InvalidInputError, match="eigenvalue nan"):
            ErasureChannel(np.array([[1e200, 1e200], [1e200, -1e200]]))


class TestKraus:
    def test_unitary_m(self):
        rng = np.random.default_rng(4)
        u = random_unitary(rng, 2)
        ops = kraus_set(ErasureChannel(u))
        assert max_abs(ops[0][:2, :] - u) < 1e-12
        for k in ops[1:]:
            assert max_abs(k) < 1e-7

    def test_zero_m(self):
        ops = kraus_set(ErasureChannel(np.zeros((2, 2))))
        assert max_abs(ops[0]) == 0.0
        for a, k in enumerate(ops[1:]):
            expect = np.zeros((3, 2))
            expect[2, a] = 1.0
            assert max_abs(k - expect) < 1e-12

    def test_completeness_and_apply_equivalence(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            ch = ErasureChannel(random_contraction(rng, d))
            ops = kraus_set(ch)
            total = sum(k.conj().T @ k for k in ops)
            assert max_abs(total - np.eye(d)) < 1e-10
            for _ in range(5):
                rho = random_density(rng, d)
                assert max_abs(apply(ch, rho) - apply_via_kraus(ch, rho)) < 1e-12


class TestChoi:
    def test_identity_m(self):
        j = choi(ErasureChannel(np.eye(2)))
        # maximally entangled projector on the unflagged block
        psi = np.zeros(6, dtype=complex)
        psi[0 * 2 + 0] = psi[1 * 2 + 1] = 1 / np.sqrt(2)  # |out i> x |in i>
        expected = np.outer(psi, psi.conj())
        assert max_abs(j - expected) < 1e-12

    def test_zero_m(self):
        j = choi(ErasureChannel(np.zeros((2, 2))))
        flag = np.zeros((3, 3))
        flag[2, 2] = 1.0
        assert max_abs(j - np.kron(flag, np.eye(2) / 2)) < 1e-12

    def test_positive_and_trace_preserving(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            j = choi(ErasureChannel(random_contraction(rng, d)))
            assert max_abs(j - j.conj().T) < 1e-12
            assert float(np.min(np.linalg.eigvalsh(j))) >= -1e-10
            reduced = choi_partial_trace_out(j, d)
            assert max_abs(reduced - np.eye(d) / d) < 1e-12


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(7)
        ch = ErasureChannel(random_contraction(rng, 2))
        out = compose(ErasureChannel(np.eye(2)), ch)
        assert max_abs(out.m_op - ch.m_op) == 0.0

    def test_zero_absorbs(self):
        rng = np.random.default_rng(8)
        ch = ErasureChannel(random_contraction(rng, 2))
        out = compose(ch, ErasureChannel(np.zeros((2, 2))))
        assert max_abs(out.m_op) == 0.0

    def test_sequential_equivalence(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            ch1 = ErasureChannel(random_contraction(rng, 2))
            ch2 = ErasureChannel(random_contraction(rng, 2))
            rho = random_density(rng, 2)
            combined = apply(compose(ch2, ch1), rho)
            # flag-consistent sequential application: feed the surviving
            # block through ch2, accumulate erased weight on the flag
            step1 = apply(ch1, rho)
            step2 = apply(ch2, step1[:2, :2])
            step2[2, 2] += step1[2, 2]
            assert max_abs(combined - step2) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            compose(ErasureChannel(np.eye(2)), ErasureChannel(np.eye(3)))


def test_unitary_covariance():
    rng = np.random.default_rng(10)
    m = random_contraction(rng, 3)
    u1, u2 = random_unitary(rng, 3), random_unitary(rng, 3)
    conj = ErasureChannel(u2 @ m @ u1)
    base = ErasureChannel(m)
    u2_ext = np.eye(4, dtype=complex)
    u2_ext[:3, :3] = u2
    for _ in range(10):
        rho = random_density(rng, 3)
        lhs = apply(conj, rho)
        rhs = u2_ext @ apply(base, u1 @ rho @ u1.conj().T) @ u2_ext.conj().T
        assert max_abs(lhs - rhs) < 1e-12
