import numpy as np
import pytest

from scatchan.errors import InvalidInputError
from scatchan.numerics import (
    as_matrix,
    max_abs,
    pseudo_inverse,
    svd,
    workspace,
)

from conftest import random_unitary


def test_svd_identity():
    _, sigma, _ = svd(np.eye(2))
    assert np.allclose(sigma, [1.0, 1.0])


def test_svd_diagonal():
    _, sigma, _ = svd(np.diag([3.0, 0.0]))
    assert np.allclose(sigma, [3.0, 0.0])


def test_svd_reconstruction_random():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, sigma, v = svd(a)
    assert max_abs(u @ np.diag(sigma) @ v.conj().T - a) < 1e-12 * sigma[0]
    assert np.all(np.diff(sigma) <= 0)
    assert max_abs(u.conj().T @ u - np.eye(4)) < 1e-12
    assert max_abs(v.conj().T @ v - np.eye(4)) < 1e-12


def test_svd_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        svd(np.array([[np.nan, 0], [0, 1]]))


def test_pinv_zero_matrix():
    assert max_abs(pseudo_inverse(np.zeros((3, 2)))[0]) == 0.0


def test_pinv_diagonal():
    assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0]))[0], np.diag([0.5, 0.0]))


def test_pinv_of_unitary_is_adjoint():
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 5)
    assert max_abs(pseudo_inverse(u)[0] - u.conj().T) < 1e-12


def test_pinv_returns_its_svd():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    a = b @ b.conj().T  # rank 2: the returned V also spans the kernel
    _, sigma, v = pseudo_inverse(a)
    _, sigma_ref, v_ref = svd(a)
    assert np.array_equal(sigma, sigma_ref) and np.array_equal(v, v_ref)


@pytest.mark.parametrize("shape", [(2, 2), (5, 3), (3, 5), (12, 12)])
def test_penrose_identities(shape):
    rng = np.random.default_rng(shape[0] * 31 + shape[1])
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ap = pseudo_inverse(a)[0]
    assert max_abs(a @ ap @ a - a) < 1e-10
    assert max_abs(ap @ a @ ap - ap) < 1e-10
    assert max_abs((a @ ap).conj().T - a @ ap) < 1e-10
    assert max_abs((ap @ a).conj().T - ap @ a) < 1e-10


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        as_matrix([[1.0, np.inf]])


def test_as_matrix_rejects_a_vector():
    with pytest.raises(InvalidInputError, match="ndim=1"):
        as_matrix([1.0, 0.0])


class TestWorkspace:
    def test_slot_is_reused_and_grows(self):
        a = workspace("test_slot", (4, 3, 3))
        assert a.shape == (4, 3, 3) and a.dtype == complex
        assert a.flags.c_contiguous and a.flags.aligned and a.flags.writeable
        b = workspace("test_slot", (2, 3, 3), float)
        assert b.dtype == float and np.shares_memory(a, b)
        c = workspace("test_slot", (40, 3, 3))
        assert not np.shares_memory(a, c)
        assert np.shares_memory(c, workspace("test_slot", (4, 3, 3)))
        assert not np.shares_memory(c, workspace("other_test_slot", (4, 3, 3)))

    def test_one_matrix_is_left_to_the_allocator(self):
        assert workspace("test_slot", (8, 8)) is None

    def test_threads_get_their_own_buffers(self):
        import threading

        mine = workspace("test_slot", (4, 3, 3))
        theirs = []
        t = threading.Thread(target=lambda: theirs.append(workspace("test_slot", (4, 3, 3))))
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
        assert not np.shares_memory(mine, theirs[0])
