import numpy as np
import pytest

from scatchan import smatrix
from scatchan.channel import transmission_operator
from scatchan.errors import (
    ConversionUnavailableError,
    InvalidInputError,
    NonUnitaryError,
)
from scatchan.numerics import max_abs
from scatchan.smatrix import (
    PortSpec,
    ScatteringMatrix,
    s_to_t,
    slot_permutation_index,
    t_to_s,
    unitarity_defect,
)

from conftest import random_smatrix, random_unitary

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SPEC11 = PortSpec(1, 1, 1, 1, 1)


def beamsplitter(theta):
    r, t = 1j * np.sin(theta), np.cos(theta)
    return ScatteringMatrix(np.array([[r, t], [t, r]]), SPEC11)


class TestPortSpec:
    def test_counts_and_dims(self):
        spec = PortSpec(2, 1, 1, 2, 3)
        assert spec.total_in == spec.total_out == 3
        assert spec.in_dim == spec.out_dim == 9
        assert not spec.homogeneous

    def test_rejects_unbalanced(self):
        with pytest.raises(InvalidInputError):
            PortSpec(2, 1, 0, 0, 1)

    def test_rejects_negative_count(self):
        with pytest.raises(InvalidInputError, match="negative slot count"):
            PortSpec(1, 1, -1, -1, 1)

    def test_rejects_bad_dim(self):
        with pytest.raises(InvalidInputError):
            PortSpec(1, 1, 1, 1, 0)


class TestConstruction:
    def test_swap_valid(self):
        s = ScatteringMatrix(SWAP, SPEC11)
        assert unitarity_defect(s.matrix) < 1e-14

    def test_full_reflector_valid(self):
        ScatteringMatrix(np.eye(2), SPEC11)

    def test_nonunitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            ScatteringMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]), SPEC11)

    def test_nan_defect_rejected(self, monkeypatch):
        monkeypatch.setattr(smatrix, "unitarity_defect", lambda m: float("nan"))
        with pytest.raises(NonUnitaryError, match="nan"):
            ScatteringMatrix(SWAP, SPEC11)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            ScatteringMatrix(np.eye(3), SPEC11)

    def test_matrix_is_write_locked(self):
        s = ScatteringMatrix(SWAP, SPEC11)
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 5.0


class TestBlocks:
    def test_swap_blocks(self):
        s = ScatteringMatrix(SWAP, SPEC11)
        assert np.allclose(s.block("L", "L"), [[0.0]])
        assert np.allclose(s.block("R", "L"), [[1.0]])

    def test_reflector_lr_block(self):
        s = ScatteringMatrix(np.eye(2), SPEC11)
        assert np.allclose(s.block("L", "R"), [[0.0]])

    @pytest.mark.parametrize("out_group, in_group, problem", [
        ("X", "L", "unknown out group 'X'"),
        ("R", "X", "unknown in group 'X'"),
    ], ids=["out", "in"])
    def test_unknown_group_rejected(self, out_group, in_group, problem):
        with pytest.raises(InvalidInputError, match=problem):
            ScatteringMatrix(SWAP, SPEC11).block(out_group, in_group)

    def test_transmission_block(self):
        rng = np.random.default_rng(0)
        s = random_smatrix(rng, 2, 2)
        assert max_abs(transmission_operator(s, 2, 4) - s.matrix[6:8, 2:4]) == 0.0

    def test_permuted_moves_slots(self):
        rng = np.random.default_rng(1)
        s = random_smatrix(rng, 2, 1)
        p = s.permuted([1, 0, 2, 3], [0, 1, 3, 2])
        assert max_abs(transmission_operator(p, 1, 4) - transmission_operator(s, 2, 3)) == 0.0

    def test_permuted_rejects_a_non_permutation(self):
        s = random_smatrix(np.random.default_rng(1), 2, 1)
        with pytest.raises(InvalidInputError, match="out_slots is not a permutation"):
            s.permuted([0, 1, 2, 3], [0, 1, 1, 3])

    def test_slot_permutation_index_matches_permuted(self):
        rng = np.random.default_rng(4)
        s = random_smatrix(rng, 2, 2)
        index = slot_permutation_index([3, 1, 0, 2], [2, 0, 3, 1], 2)
        got = s.reindexed(index, s.spec)
        assert max_abs(got.matrix - s.permuted([3, 1, 0, 2], [2, 0, 3, 1]).matrix) == 0.0
        assert max_abs(transmission_operator(got, 1, 1) - transmission_operator(s, 4, 3)) == 0.0


class TestReindexed:
    """Reindexing is one gather into a C-ordered array, with the values of
    the ``np.ix_`` form; an identity relabels without copying."""

    IN_SLOTS, OUT_SLOTS = [3, 1, 0, 2], [2, 0, 3, 1]

    def ix_form(self, m, dim=2):
        def expand(slots):
            return np.concatenate([np.arange(p * dim, (p + 1) * dim) for p in slots])
        return m[(Ellipsis, *np.ix_(expand(self.OUT_SLOTS), expand(self.IN_SLOTS)))]

    @pytest.mark.parametrize("case", ["matrix", "stack", "broadcast stack"])
    def test_c_ordered_and_equal_to_ix_form(self, case):
        rng = np.random.default_rng(6)
        one = random_smatrix(rng, 2, 2)
        s = {
            "matrix": one,
            "stack": ScatteringMatrix._trusted(
                np.stack([random_smatrix(rng, 2, 2).matrix for _ in range(5)]), one.spec),
            "broadcast stack": ScatteringMatrix._trusted(
                np.broadcast_to(one.matrix, (3, 5) + one.matrix.shape), one.spec),
        }[case]
        index = slot_permutation_index(self.IN_SLOTS, self.OUT_SLOTS, 2)
        got = s.reindexed(index, s.spec).matrix
        assert got.flags.c_contiguous
        assert np.array_equal(got, self.ix_form(s.matrix))

    def test_identity_relabels_without_a_copy(self):
        one = random_smatrix(np.random.default_rng(7), 2, 1)
        s = ScatteringMatrix._trusted(np.broadcast_to(one.matrix, (4,) + one.matrix.shape), one.spec)
        assert slot_permutation_index(range(4), range(4), 1) is None
        spec = PortSpec(1, 3, 3, 1, 1)
        got = s.reindexed(None, spec)
        assert got.spec == spec and got.matrix is s.matrix


class TestUnitarityDefect:
    @pytest.mark.parametrize("shape", [(4, 4), (6, 3, 3), (2, 5, 8, 8), (3, 1, 2, 2)])
    def test_bit_identical_to_the_explicit_form(self, shape):
        rng = np.random.default_rng(8)
        n = shape[-1]
        m = rng.standard_normal(shape[:-2] + (n, n)) + 1j * rng.standard_normal(shape[:-2] + (n, n))
        explicit = max_abs(m.conj().swapaxes(-1, -2) @ m - np.eye(n))
        assert unitarity_defect(m) == explicit
        u = np.stack([random_unitary(rng, n) for _ in range(3)])
        assert unitarity_defect(u) == max_abs(u.conj().swapaxes(-1, -2) @ u - np.eye(n))

    def test_nan_row_gives_nan(self):
        rng = np.random.default_rng(9)
        u = np.stack([random_unitary(rng, 4) for _ in range(3)])
        u[1, 2, 0] = np.nan
        assert np.isnan(unitarity_defect(u))
        assert unitarity_defect(u[[0, 2]]) < 1e-14

    def test_nan_in_one_matrix_gives_nan(self):
        u = random_unitary(np.random.default_rng(10), 4)
        u[2, 1] = np.nan
        assert np.isnan(unitarity_defect(u))

    def test_workspace_reuse_across_shapes(self):
        """Stacks that grow and shrink the gate's workspace buffers each get
        the defect of the explicit form, and their entries stay as given."""
        rng = np.random.default_rng(11)
        for shape in [(3, 4, 4), (40, 8, 8), (5, 2, 2), (2, 3, 8, 8), (1, 0, 0)]:
            n = shape[-1]
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            kept = m.copy()
            explicit = max_abs(m.conj().swapaxes(-1, -2) @ m - np.eye(n))
            assert unitarity_defect(m) == explicit
            assert np.array_equal(m, kept)


class TestConversion:
    def test_swap_to_transfer_is_identity(self):
        t = s_to_t(ScatteringMatrix(SWAP, SPEC11))
        assert max_abs(t - np.eye(2)) < 1e-14

    def test_reflector_unconvertible(self):
        with pytest.raises(ConversionUnavailableError):
            s_to_t(ScatteringMatrix(np.eye(2), SPEC11))

    def test_beamsplitter_unimodular(self):
        t = s_to_t(beamsplitter(np.pi / 4))
        assert abs(np.linalg.det(t)) == pytest.approx(1.0, abs=1e-10)

    def test_identity_transfer_to_swap(self):
        s = t_to_s(np.eye(2, dtype=complex), 1)
        assert max_abs(s.matrix - SWAP) < 1e-14

    def test_roundtrip_random(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = random_smatrix(rng, 2, 1)
            try:
                t = s_to_t(s)
            except ConversionUnavailableError:
                continue
            back = t_to_s(t, 1)
            assert max_abs(back.matrix - s.matrix) < 1e-9
            assert abs(abs(np.linalg.det(t)) - 1.0) < 1e-8

    def test_roundtrip_keeps_the_dim(self):
        s = random_smatrix(np.random.default_rng(10), 1, 2)
        back = t_to_s(s_to_t(s), 2)
        assert back.spec == s.spec
        assert max_abs(back.matrix - s.matrix) < 1e-9

    def test_singular_ab_block_unconvertible(self):
        # T^{A,B} = 0 cannot be inverted back to an S-matrix
        t = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ConversionUnavailableError):
            t_to_s(t, 1)

    def test_portless_scatterer_unconvertible(self):
        s = ScatteringMatrix(np.zeros((0, 0)), PortSpec(0, 0, 0, 0, 1))
        with pytest.raises(ConversionUnavailableError, match="is empty"):
            s_to_t(s)

    @pytest.mark.parametrize("t, dim", [
        (np.stack([np.eye(2)] * 3), 1),
        (np.eye(4)[:, :2], 1),
        (np.eye(3), 1),
        (np.eye(6), 2),  # half-size 3
    ], ids=["stack", "not-square", "odd-size", "dim-does-not-divide"])
    def test_transfer_shape_guard(self, t, dim):
        with pytest.raises(InvalidInputError, match="is not 2h x 2h"):
            t_to_s(t, dim)

    def test_dishomogeneous_rejected(self):
        rng = np.random.default_rng(2)
        s = ScatteringMatrix(random_unitary(rng, 4), PortSpec(2, 1, 0, 1, 2))
        with pytest.raises(InvalidInputError):
            s_to_t(s)
