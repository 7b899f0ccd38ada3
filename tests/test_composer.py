import numpy as np
import pytest

from scatchan import composer, numerics
from scatchan.composer import (
    Wiring,
    kernel_decoupling_check,
    pad_to_homogeneous,
    extract_physical,
    star,
    star_via_padding,
    star_via_series,
)
from scatchan.errors import (
    DecouplingViolationError,
    InternalConsistencyError,
    InvalidInputError,
    SeriesDivergentError,
)
from scatchan.numerics import max_abs, operator_norm, pseudo_inverse
from scatchan.smatrix import PortSpec, ScatteringMatrix, s_to_t, t_to_s, unitarity_defect

from conftest import (
    bounded_loop_smatrix,
    dishomogeneous_singular_loop_pair,
    dishomogeneous_specs,
    random_dishomogeneous_pair,
    random_smatrix,
    random_unitary,
    singular_loop_pair,
    unchecked_smatrix,
)

SPEC11 = PortSpec(1, 1, 1, 1, 1)
SWAP = ScatteringMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), SPEC11)


def beamsplitter(theta):
    r, t = 1j * np.sin(theta), np.cos(theta)
    return ScatteringMatrix(np.array([[r, t], [t, r]]), SPEC11)


def phase_reflector(alpha, beta):
    return ScatteringMatrix(np.diag([np.exp(1j * alpha), np.exp(1j * beta)]), SPEC11)


def loop_matrix(s2, s1):
    """The loop matrix 1 - S2_LL S1_RR that star inverts, formed from its
    interface product."""
    hop = composer._interface_product(s2, s1)[1]
    return np.eye(hop.shape[-1]) - hop


class TestLoopMatrix:
    def test_swap_pair(self):
        assert np.allclose(loop_matrix(SWAP, SWAP), [[1.0]])

    def test_full_reflectors(self):
        assert np.allclose(
            loop_matrix(ScatteringMatrix(np.eye(2), SPEC11),
                        ScatteringMatrix(np.eye(2), SPEC11)),
            [[0.0]],
        )

    def test_beamsplitter_pair(self):
        bs = beamsplitter(np.pi / 4)
        assert np.allclose(loop_matrix(bs, bs), [[1.5]])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError):
            composer._validate_pair(random_smatrix(rng, 2, 1), SWAP)

    def test_internal_dimensions_must_agree(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InvalidInputError, match="internal dimensions differ"):
            composer._validate_pair(random_smatrix(rng, 1, 2), SWAP)

    def test_right_in_must_match_left_out(self):
        rng = np.random.default_rng(2)
        s2 = ScatteringMatrix(random_unitary(rng, 3), PortSpec(1, 2, 2, 1, 1))
        with pytest.raises(InvalidInputError, match="1 right-in slots but s2 has 2 left-out"):
            composer._validate_pair(s2, SWAP)


class TestStar:
    def test_swap_star_swap(self):
        g = star(SWAP, SWAP)
        assert max_abs(g.matrix - SWAP.matrix) < 1e-14

    def test_reflector_passthrough_on_singular_loop(self):
        a1, b1, a2, b2 = 0.3, 1.1, -1.1, 2.2  # a2 + b1 = 0 makes the loop singular
        g = star(phase_reflector(a2, b2), phase_reflector(a1, b1))
        expected = np.diag([np.exp(1j * a1), np.exp(1j * b2)])
        assert max_abs(g.matrix - expected) < 1e-12

    def test_beamsplitter_amplitudes(self):
        bs = beamsplitter(np.pi / 4)
        g = star(bs, bs)
        assert g.block("R", "L")[0, 0] == pytest.approx(1 / 3, abs=1e-12)
        assert g.block("L", "L")[0, 0] == pytest.approx(1j * 2 * np.sqrt(2) / 3, abs=1e-12)
        # oracle: geometric-series route
        series = star_via_series(bs, bs, tol=1e-14)
        assert max_abs(g.matrix - series.matrix) < 1e-12

    def test_wiring_permutation(self):
        rng = np.random.default_rng(5)
        s1 = random_smatrix(rng, 2, 1)
        s2 = random_smatrix(rng, 2, 1)
        crossed = Wiring(((0, 1), (1, 0)), ((0, 1), (1, 0)))
        direct = star(s2.permuted([1, 0, 2, 3], [1, 0, 2, 3]), s1)
        assert max_abs(star(s2, s1, crossed).matrix - direct.matrix) < 1e-12

    def test_bad_wiring_rejected(self):
        rng = np.random.default_rng(6)
        s1 = random_smatrix(rng, 2, 1)
        s2 = random_smatrix(rng, 2, 1)
        with pytest.raises(InvalidInputError):
            star(s2, s1, Wiring(((0, 0), (1, 0)), ((0, 0), (1, 1))))


def near_resonant_pair():
    """Beam splitters whose loop S2_LL S1_RR is 0.999: the term-by-term
    series would need about 32000 terms to reach 1e-14."""
    bs = beamsplitter(np.arcsin(np.sqrt(0.999)))
    return ScatteringMatrix(np.diag([-1.0, 1.0]) @ bs.matrix, SPEC11), bs


class TestSeries:
    def test_near_resonant_loop_converges(self):
        s2, s1 = near_resonant_pair()
        assert np.allclose(composer._interface_product(s2, s1)[1], 0.999)
        assert max_abs(star_via_series(s2, s1, tol=1e-14).matrix - star(s2, s1).matrix) < 1e-12

    def test_exhausted_squaring_budget_raises(self, monkeypatch):
        monkeypatch.setattr(composer, "SERIES_SQUARINGS", 2)
        with pytest.raises(SeriesDivergentError, match="after 2 squarings"):
            star_via_series(*near_resonant_pair(), tol=1e-14)

    def test_swap_series(self):
        g = star_via_series(SWAP, SWAP)
        assert max_abs(g.matrix - SWAP.matrix) < 1e-14

    def test_empty_loop(self):
        # Two phases from a left in-slot to a right out-slot: s1 has no
        # right in-slot, so the loop is empty and the series is just 1.
        spec = PortSpec(1, 0, 0, 1, 1)
        s1 = ScatteringMatrix(np.array([[np.exp(0.3j)]]), spec)
        s2 = ScatteringMatrix(np.array([[np.exp(1.1j)]]), spec)
        g = star_via_series(s2, s1)
        assert g.spec == spec
        assert max_abs(g.matrix - star(s2, s1).matrix) == 0.0
        assert max_abs(g.matrix - np.exp(1.4j)) < 1e-15

    def test_full_reflectors_diverge(self):
        refl = ScatteringMatrix(np.eye(2), SPEC11)
        with pytest.raises(SeriesDivergentError):
            star_via_series(refl, refl)

    def test_agrees_with_star_on_contractive_domain(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s1 = bounded_loop_smatrix(rng, 2, 1)
            s2 = bounded_loop_smatrix(rng, 2, 1)
            assert operator_norm(s2.block("L", "L") @ s1.block("R", "R")) <= 0.81
            a = star(s2, s1)
            b = star_via_series(s2, s1, tol=1e-14)
            assert max_abs(a.matrix - b.matrix) < 1e-12


class TestPadding:
    def test_homogeneous_unchanged(self):
        rng = np.random.default_rng(10)
        s = random_smatrix(rng, 2, 2)
        padded = pad_to_homogeneous(s, 2)
        assert padded.spec == s.spec
        assert np.array_equal(padded.matrix, s.matrix)

    def test_pure_transmission_pads_to_antidiagonal(self):
        amp = np.exp(0.4j)
        s = unchecked_smatrix(np.array([[amp]]), PortSpec(1, 0, 0, 1, 1))
        padded = pad_to_homogeneous(s, 1)
        assert max_abs(padded.matrix - np.array([[0, 1], [amp, 0]])) < 1e-15

    def test_padded_matrix_unitary(self):
        rng = np.random.default_rng(11)
        s = ScatteringMatrix(random_unitary(rng, 6), PortSpec(2, 1, 1, 2, 2))
        padded = pad_to_homogeneous(s, 3)
        assert unitarity_defect(padded.matrix) < 1e-12

    def test_target_too_small(self):
        rng = np.random.default_rng(12)
        s = random_smatrix(rng, 2, 1)
        with pytest.raises(InvalidInputError):
            pad_to_homogeneous(s, 1)


class TestExtraction:
    def test_feed_forward_reduces_to_direct_product(self):
        rng = np.random.default_rng(13)
        a = np.exp(1j * rng.uniform(0, 2 * np.pi))
        b = np.exp(1j * rng.uniform(0, 2 * np.pi))
        s1 = unchecked_smatrix(np.array([[a]]), PortSpec(1, 0, 0, 1, 1))
        s2 = unchecked_smatrix(np.array([[b]]), PortSpec(1, 0, 0, 1, 1))
        g = star(s2, s1)
        assert g.spec == PortSpec(1, 0, 0, 1, 1)
        assert g.matrix[0, 0] == pytest.approx(b * a, abs=1e-14)

    def test_block_diagonal_extraction(self):
        rng = np.random.default_rng(14)
        phys = random_unitary(rng, 2)
        s_bar = ScatteringMatrix(
            np.block([
                [phys, np.zeros((2, 2))],
                [np.zeros((2, 2)), np.eye(2)],
            ]),
            PortSpec(2, 2, 2, 2, 1),
        )
        got = extract_physical(s_bar, [0, 1], [0, 1], PortSpec(1, 1, 1, 1, 1))
        assert max_abs(got.matrix - phys) == 0.0

    def test_cross_coupling_detected(self):
        m = np.eye(4, dtype=complex)
        m[0, 3] = 1e-3
        s_bar = unchecked_smatrix(m, PortSpec(2, 2, 2, 2, 1))
        with pytest.raises(DecouplingViolationError):
            extract_physical(s_bar, [0, 1], [0, 1], PortSpec(1, 1, 1, 1, 1))


class TestSlotLabels:
    """Wiring pairs and extraction labels that do not name each slot once
    are input errors, rejected before any slot moves."""

    @pytest.mark.parametrize("compose", [star, star_via_series, star_via_padding])
    def test_conflicting_wiring_pairs_rejected(self, compose):
        rng = np.random.default_rng(7)
        s1, s2 = random_smatrix(rng, 2, 1), random_smatrix(rng, 2, 1)
        conflicting = Wiring(((0, 1), (0, 0), (1, 1)), ((0, 0), (1, 1)))
        with pytest.raises(InvalidInputError, match="s1_to_s2 wiring is not a bijection"):
            compose(s2, s1, conflicting)

    @pytest.mark.parametrize("in_slots", [[0, 0], [0, 7]], ids=["repeated", "out-of-range"])
    def test_extraction_labels_must_name_distinct_slots(self, in_slots):
        s_bar = ScatteringMatrix(np.eye(4), PortSpec(2, 2, 2, 2, 1))
        with pytest.raises(InvalidInputError, match="in_slots is not a permutation"):
            extract_physical(s_bar, in_slots, [0, 1], SPEC11)

    def test_extraction_label_count_must_match_spec(self):
        s_bar = ScatteringMatrix(np.eye(4), PortSpec(2, 2, 2, 2, 1))
        with pytest.raises(InvalidInputError, match="do not match result spec"):
            extract_physical(s_bar, [0], [0, 1], SPEC11)

    def test_extraction_spec_must_keep_the_dim(self):
        s_bar = ScatteringMatrix(np.eye(4), PortSpec(1, 1, 1, 1, 2))
        with pytest.raises(InvalidInputError, match="result spec has dim 1, s_bar dim 2"):
            extract_physical(s_bar, [0, 1], [0, 1], SPEC11)


class TestDirectVersusPadded:
    """The direct rectangular-block composition against the paper's padded
    construction (pad_to_homogeneous, homogeneous star, extract_physical)."""

    @staticmethod
    def count_kernel_checks(monkeypatch):
        calls = []
        original = composer._kernel_residual

        def counted(kmat, s2, s1, i):
            calls.append(kmat.shape[1])
            return original(kmat, s2, s1, i)

        monkeypatch.setattr(composer, "_kernel_residual", counted)
        return calls

    @staticmethod
    def assert_agree(s2, s1, wiring=None):
        direct = star(s2, s1, wiring)
        padded = star_via_padding(s2, s1, wiring)
        assert direct.spec == padded.spec
        assert unitarity_defect(direct.matrix) < 1e-9
        assert unitarity_defect(padded.matrix) < 1e-9
        assert max_abs(direct.matrix - padded.matrix) <= 1e-12

    def test_random_pairs(self, monkeypatch):
        rng = np.random.default_rng(30)
        for _ in range(100):
            d = int(rng.integers(1, 3))
            s2, s1 = random_dishomogeneous_pair(rng, d)
            assert not (s1.spec.homogeneous and s2.spec.homogeneous)
            assert loop_matrix(s2, s1).shape == (s1.spec.right_in * d,) * 2
            calls = self.count_kernel_checks(monkeypatch)
            star(s2, s1)
            assert calls == []  # a generic physical loop is regular
            monkeypatch.undo()
            self.assert_agree(s2, s1)

    def test_random_pairs_with_wiring(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            s2, s1 = random_dishomogeneous_pair(rng, int(rng.integers(1, 3)))
            m12, m21 = s1.spec.right_out, s1.spec.right_in
            wiring = Wiring(
                tuple(zip(range(m12), (int(x) for x in rng.permutation(m12)))),
                tuple(zip((int(x) for x in rng.permutation(m21)), range(m21))),
            )
            self.assert_agree(s2, s1, wiring)

    def test_singular_physical_loop(self, monkeypatch):
        rng = np.random.default_rng(32)
        for _ in range(50):
            d = int(rng.integers(1, 3))
            s2, s1 = dishomogeneous_singular_loop_pair(rng, d)
            assert not (s1.spec.homogeneous and s2.spec.homogeneous)
            kernel_dim, residual = kernel_decoupling_check(s2, s1)
            assert kernel_dim >= 1
            assert residual < 1e-8
            calls = self.count_kernel_checks(monkeypatch)
            star(s2, s1)
            assert calls and calls[0] >= 1
            monkeypatch.undo()
            self.assert_agree(s2, s1)


def count_measurements(monkeypatch):
    """Record the shape of every matrix ``composer.unitarity_defect`` measures."""
    measured = []
    original = composer.unitarity_defect

    def counted(m):
        measured.append(m.shape)
        return original(m)

    monkeypatch.setattr(composer, "unitarity_defect", counted)
    return measured


class TestVerifiedInputs:
    """Checked at construction or not, no input is measured: a star makes
    one measurement, of its output, whether the gate passes or fails."""

    def test_verified_inputs_only_gate_the_output(self, monkeypatch):
        rng = np.random.default_rng(40)
        s1, s2 = random_smatrix(rng, 2, 1), random_smatrix(rng, 2, 1)
        measured = count_measurements(monkeypatch)
        g = star(s2, s1)
        assert measured == [g.matrix.shape]
        monkeypatch.undo()
        assert unitarity_defect(g.matrix) <= 1e-9

    def test_unchecked_inputs_are_not_measured(self, monkeypatch):
        rng = np.random.default_rng(41)
        spec = PortSpec(2, 2, 2, 2, 1)
        # Unitary unchecked inputs: the output gate passes on its own.
        s1 = unchecked_smatrix(random_unitary(rng, 4), spec)
        s2 = unchecked_smatrix(random_unitary(rng, 4), spec)
        measured = count_measurements(monkeypatch)
        g = star(s2, s1)
        assert measured == [g.matrix.shape]
        monkeypatch.undo()
        assert unitarity_defect(g.matrix) <= 1e-9
        # A non-unitary unchecked input fails the output gate, which
        # raises after its one measurement.
        bad = unchecked_smatrix(0.5 * random_unitary(rng, 4), spec)
        measured = count_measurements(monkeypatch)
        with pytest.raises(InternalConsistencyError, match="unitarity defect"):
            star(bad, s1)
        assert measured == [(4, 4)]


class TestOutputGate:
    """A non-unitary input fails the output gate, and the call raises
    without measuring any input."""

    def test_nonunitary_input_fails_the_output_gate(self, monkeypatch):
        rng = np.random.default_rng(42)
        spec = PortSpec(1, 1, 1, 1, 2)
        bad = unchecked_smatrix(0.5 * random_unitary(rng, 4), spec)
        good = random_smatrix(rng, 1, 2)
        measured = count_measurements(monkeypatch)
        with pytest.raises(InternalConsistencyError, match="unitarity defect"):
            star(bad, good)
        # The output gate's one measurement, then the raise.
        assert measured == [(4, 4)]


def stacked(rows, build=ScatteringMatrix):
    """One ScatteringMatrix, made by ``build``, holding the matrices of
    ``rows`` along a leading axis; all rows share the first row's spec."""
    return build(np.stack([r.matrix for r in rows]), rows[0].spec)


def row_of(s, i):
    """Matrix ``i`` of the stack ``s``, wrapped unchecked."""
    return ScatteringMatrix._trusted(s.matrix[i], s.spec)


def dishomogeneous_rows(rng, d, n):
    """``n`` random unitary pairs (s2, s1) sharing one dishomogeneous spec."""
    spec2, spec1 = dishomogeneous_specs(rng)

    def draw(spec):
        return ScatteringMatrix(random_unitary(rng, (spec[0] + spec[2]) * d), PortSpec(*spec, d))

    return [(draw(spec2), draw(spec1)) for _ in range(n)]


class TestStacks:
    """A stack along a leading axis goes through the same code as one
    matrix and gives, row by row, what one matrix gives."""

    @staticmethod
    def assert_rowwise(pairs):
        s2 = stacked([p[0] for p in pairs])
        s1 = stacked([p[1] for p in pairs])
        got = star(s2, s1)
        assert got.matrix.shape == (len(pairs),) + star(*pairs[0]).matrix.shape
        assert unitarity_defect(got.matrix) <= 1e-9
        for i, (r2, r1) in enumerate(pairs):
            assert max_abs(got.matrix[i] - star(r2, r1).matrix) <= 1e-13
        return got

    def test_homogeneous_pairs(self):
        rng = np.random.default_rng(50)
        for k, d in ((1, 1), (1, 2), (2, 2), (3, 1)):
            self.assert_rowwise(
                [(random_smatrix(rng, k, d), random_smatrix(rng, k, d)) for _ in range(6)]
            )

    def test_dishomogeneous_pairs(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            self.assert_rowwise(dishomogeneous_rows(rng, int(rng.integers(1, 3)), 5))

    def test_oracles_take_stacks(self):
        rng = np.random.default_rng(56)
        pairs = [(bounded_loop_smatrix(rng, 2, 1), bounded_loop_smatrix(rng, 2, 1))
                 for _ in range(5)]
        s2, s1 = stacked([p[0] for p in pairs]), stacked([p[1] for p in pairs])
        assert max_abs(star_via_series(s2, s1, tol=1e-14).matrix - star(s2, s1).matrix) < 1e-8
        pairs = dishomogeneous_rows(rng, 2, 4)
        s2, s1 = stacked([p[0] for p in pairs]), stacked([p[1] for p in pairs])
        assert max_abs(star_via_padding(s2, s1).matrix - star(s2, s1).matrix) <= 1e-12

    def test_singular_loop_rows_among_regular_ones(self, monkeypatch):
        rng = np.random.default_rng(52)
        pairs = [singular_loop_pair(rng, 2, 2) if i % 2 else
                 (random_smatrix(rng, 2, 2), random_smatrix(rng, 2, 2))
                 for i in range(6)]
        self.assert_rowwise(pairs)
        rowwise = [kernel_decoupling_check(*p) for p in pairs]
        s2, s1 = stacked([p[0] for p in pairs]), stacked([p[1] for p in pairs])
        calls = TestDirectVersusPadded.count_kernel_checks(monkeypatch)
        kernel_dim, residual = kernel_decoupling_check(s2, s1)
        # One kernel check per singular row, none for the regular ones.
        assert calls == [k for k, _ in rowwise if k]
        assert kernel_dim == sum(k for k, _ in rowwise) >= 3
        assert residual == max(r for _, r in rowwise)
        assert residual < 1e-8

    def test_one_coupling_kernel_row_fails_the_stack(self):
        rng = np.random.default_rng(53)
        good2, good1 = singular_loop_pair(rng, 1, 1)
        # A non-unitary pair with loop 1 - 1*1 = 0 whose kernel mode leaks
        # out through s1's left-right block.
        bad1 = unchecked_smatrix(np.array([[0.0, 1.0], [1.0, 1.0]]), SPEC11)
        bad2 = ScatteringMatrix(np.eye(2), SPEC11)
        s2 = stacked([good2, bad2, good2])
        s1 = stacked([good1, bad1, good1], build=unchecked_smatrix)
        with pytest.raises(InternalConsistencyError, match="kernel modes couple"):
            star(s2, s1)
        star(stacked([good2]), stacked([good1]))  # the good rows alone compose

    def test_stack_shapes_must_agree(self):
        rng = np.random.default_rng(54)
        rows = [random_smatrix(rng, 1, 1) for _ in range(3)]
        with pytest.raises(InvalidInputError, match="stack shapes differ"):
            star(stacked(rows), rows[0])


def count_svds(monkeypatch):
    """Record the shape of every stack ``numerics.svd`` decomposes."""
    shapes = []
    original = numerics.svd

    def counted(a):
        shapes.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(numerics, "svd", counted)
    return shapes


class TestHybridLoopInverse:
    """Loops certified regular are inverted by LU alone; the rest take the
    SVD pseudo-inverse and, where singular, the kernel check."""

    @staticmethod
    def regular_stacks(rng):
        for k, d in ((1, 1), (1, 2), (2, 2), (3, 1)):
            pairs = [(random_smatrix(rng, k, d), random_smatrix(rng, k, d)) for _ in range(6)]
            yield stacked([p[0] for p in pairs]), stacked([p[1] for p in pairs])
        for _ in range(5):
            pairs = dishomogeneous_rows(rng, int(rng.integers(1, 3)), 4)
            yield stacked([p[0] for p in pairs]), stacked([p[1] for p in pairs])

    def test_regular_stacks_take_no_svd(self, monkeypatch):
        shapes = count_svds(monkeypatch)
        for s2, s1 in self.regular_stacks(np.random.default_rng(60)):
            star(s2, s1)
            star(row_of(s2, 0), row_of(s1, 0))
        assert shapes == []

    def test_lu_inverse_is_the_pseudo_inverse_on_regular_rows(self):
        for s2, s1 in self.regular_stacks(np.random.default_rng(61)):
            hop = composer._interface_product(s2, s1)[1]
            linv, kernel_dim, residual = composer._loop_inverse(s2, s1, hop)
            assert (kernel_dim, residual) == (0, 0.0)
            assert max_abs(linv - pseudo_inverse(loop_matrix(s2, s1))[0]) <= 1e-13

    def test_mixed_stack_checks_each_singular_row_once(self, monkeypatch):
        rng = np.random.default_rng(62)
        pairs = [singular_loop_pair(rng, 2, 2) if i % 3 == 1 else
                 (random_smatrix(rng, 2, 2), random_smatrix(rng, 2, 2))
                 for i in range(9)]
        s2, s1 = stacked([p[0] for p in pairs]), stacked([p[1] for p in pairs])
        rowwise = [star(*p).matrix for p in pairs]
        kernels = TestDirectVersusPadded.count_kernel_checks(monkeypatch)
        shapes = count_svds(monkeypatch)
        got = star(s2, s1)
        assert len(kernels) == 3 and min(kernels) >= 1
        # LU meets a zero pivot on the singular rows, so every row takes
        # the SVD; the kernel check still runs on the singular rows alone.
        assert shapes == [(9, 4, 4)]
        monkeypatch.undo()
        for i, row in enumerate(rowwise):
            assert max_abs(got.matrix[i] - row) <= 1e-13
        assert max_abs(got.matrix - star_via_padding(s2, s1).matrix) <= 1e-12

    @pytest.mark.parametrize("detuning, kernel_dim", [(1e-11, 1), (1e-9, 0)])
    def test_certificate_follows_the_kernel_threshold(self, monkeypatch, detuning, kernel_dim):
        # Rows 1 and 3 have the loop 1 - e^{i detuning}, whose one singular
        # value is ~detuning, on either side of KERNEL_SV_TOL; LU inverts it
        # without a zero pivot, so only the certificate sends it to the SVD.
        rng = np.random.default_rng(64)
        near = (phase_reflector(0.4 + detuning, 0.9), phase_reflector(0.2, -0.4))
        pairs = [near if i in (1, 3) else (random_smatrix(rng, 1, 1), random_smatrix(rng, 1, 1))
                 for i in range(5)]
        s2, s1 = stacked([p[0] for p in pairs]), stacked([p[1] for p in pairs])
        rowwise = [star(*p).matrix for p in pairs]
        shapes = count_svds(monkeypatch)
        assert kernel_decoupling_check(s2, s1)[0] == 2 * kernel_dim
        assert shapes == [(2, 1, 1)] * kernel_dim  # the uncertified rows alone
        got = star(s2, s1)
        monkeypatch.undo()
        for i, row in enumerate(rowwise):
            assert max_abs(got.matrix[i] - row) <= 1e-13
        assert max_abs(rowwise[1] - np.diag([np.exp(0.2j), np.exp(0.9j)])) < 1e-12

    @staticmethod
    def loop_inverse(loop):
        """``_loop_inverse`` of the 2x2 loop ``loop`` between two identity
        scatterers (whose blocks only the kernel check reads)."""
        s = ScatteringMatrix._trusted(np.eye(4, dtype=complex), PortSpec(1, 1, 1, 1, 2))
        return composer._loop_inverse(s, s, np.eye(2) - loop)

    def test_certificate_bounds_the_condition_number(self):
        # sigma_min = 1e-9 clears KERNEL_SV_TOL, but cond_2 = 1e13 is past the
        # pseudo-inverse cutoff, which drops that singular value.
        linv, kernel_dim, _ = self.loop_inverse(np.diag([1e4, 1e-9]).astype(complex))
        assert kernel_dim == 0
        assert max_abs(linv - np.diag([1e-4, 0.0])) <= 1e-13

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_infinite_loop_with_finite_lu_inverse_is_rejected(self):
        loop = np.diag([np.inf, 1.0]).astype(complex)
        assert np.all(np.isfinite(np.linalg.inv(loop)))
        with pytest.raises(InvalidInputError, match="NaN or Inf"):
            self.loop_inverse(loop)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_loop_is_rejected(self, bad):
        rng = np.random.default_rng(63)
        rows = [random_smatrix(rng, 1, 2) for _ in range(4)]
        broken = np.stack([r.matrix for r in rows])
        broken[2, 2, 3] = bad  # an entry of s1's right-right block
        s1 = ScatteringMatrix._trusted(broken, rows[0].spec)
        s2 = stacked(rows[::-1])
        with pytest.raises(InvalidInputError, match="NaN or Inf"):
            star(s2, s1)
        with pytest.raises(InvalidInputError, match="NaN or Inf"):
            star(row_of(s2, 2), row_of(s1, 2))


def test_nan_output_defect_fails_the_gate(monkeypatch):
    rng = np.random.default_rng(55)
    s1, s2 = random_smatrix(rng, 1, 2), random_smatrix(rng, 1, 2)
    monkeypatch.setattr(composer, "unitarity_defect", lambda m: float("nan"))
    with pytest.raises(InternalConsistencyError, match="unitarity defect nan"):
        star(s2, s1)


class TestKernelDecoupling:
    def test_aligned_reflectors(self):
        assert kernel_decoupling_check(
            phase_reflector(-0.7, 0.2), phase_reflector(0.1, 0.7)
        ) == (1, 0.0)

    def test_nan_residual_is_not_dropped(self):
        # The loop 1 - 1*1 = 0 has a one-dimensional kernel; s1's left-right
        # block sends that mode out as NaN, while the other three residuals
        # are 0, 0 and 1.
        s1 = ScatteringMatrix._trusted(np.array([[0.0, np.nan], [1.0, 1.0]], dtype=complex),
                                       SPEC11)
        s2 = ScatteringMatrix(np.eye(2), SPEC11)
        kernel_dim, residual = kernel_decoupling_check(s2, s1)
        assert kernel_dim == 1
        assert np.isnan(residual)
        with pytest.raises(InternalConsistencyError, match="residual nan"):
            star(s2, s1)

    def test_swap_pair_empty_kernel(self):
        assert kernel_decoupling_check(SWAP, SWAP) == (0, 0.0)

    def test_engineered_singular_pairs(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            s2, s1 = singular_loop_pair(rng, 2, 2)
            kernel_dim, residual = kernel_decoupling_check(s2, s1)
            assert kernel_dim >= 1
            assert residual < 1e-8
            g = star(s2, s1)
            assert unitarity_defect(g.matrix) < 1e-9


def test_transfer_route_equivalence():
    rng = np.random.default_rng(16)
    for _ in range(10):
        s1 = bounded_loop_smatrix(rng, 2, 1)
        s2 = bounded_loop_smatrix(rng, 2, 1)
        via_t = t_to_s(s_to_t(s2) @ s_to_t(s1), 1)
        assert max_abs(star(s2, s1).matrix - via_t.matrix) < 1e-8


def test_star_is_not_commutative():
    rng = np.random.default_rng(17)
    s1 = random_smatrix(rng, 1, 2)
    s2 = random_smatrix(rng, 1, 2)
    gap = max_abs(star(s2, s1).matrix - star(s1, s2).matrix)
    assert gap > 0.1


def workspace_buffers():
    """Every buffer this thread's merge workspace holds."""
    return list(numerics._workspace.__dict__.values())


class TestWorkspace:
    """Stacked merges write their temporaries to per-thread workspace
    buffers; nothing they return may live there."""

    @staticmethod
    def stacks(seed, rows=6, k=2, d=2):
        rng = np.random.default_rng(seed)
        pairs = [(bounded_loop_smatrix(rng, k, d), bounded_loop_smatrix(rng, k, d))
                 for _ in range(rows)]
        return stacked([p[0] for p in pairs]), stacked([p[1] for p in pairs])

    def test_consecutive_merges_return_independent_results(self):
        first = star(*self.stacks(60))
        kept = first.matrix.copy()
        second = star(*self.stacks(61))
        assert second.matrix.shape == first.matrix.shape
        assert np.array_equal(first.matrix, kept)
        assert not np.shares_memory(first.matrix, second.matrix)
        assert not np.array_equal(first.matrix, second.matrix)

    def test_nothing_returned_lives_in_a_workspace_buffer(self):
        s2, s1 = self.stacks(62)
        rng = np.random.default_rng(63)
        pairs = [singular_loop_pair(rng, 1, 2) for _ in range(3)]
        singular = stacked([p[0] for p in pairs]), stacked([p[1] for p in pairs])
        outputs = [star(s2, s1).matrix, star(*singular).matrix, loop_matrix(s2, s1),
                   star_via_series(s2, s1).matrix, star_via_padding(s2, s1).matrix]
        for pair in ((s2, s1), singular):
            outputs.append(composer._loop_inverse(
                *pair, composer._interface_product(*pair)[1])[0])
        buffers = workspace_buffers()
        assert len(buffers) >= 5
        for out in outputs:
            assert not any(np.shares_memory(out, buf) for buf in buffers)

    def test_series_keeps_its_interface_product_through_its_loop(self, monkeypatch):
        s2, s1 = self.stacks(64, k=1, d=2)
        d = s1.spec.dim
        fresh = s2.matrix[..., :s2.spec.left_in * d] @ s1.matrix[..., s1.spec.left_out * d:, :]
        assemble = composer._assemble
        seen = []

        def checked(s2, s1, linv, prod):
            assert any(np.shares_memory(prod, buf) for buf in workspace_buffers())
            seen.append(np.array_equal(prod, fresh))
            return assemble(s2, s1, linv, prod)

        monkeypatch.setattr(composer, "_assemble", checked)
        series = star_via_series(s2, s1, tol=1e-14)
        monkeypatch.undo()
        assert seen == [True]
        assert max_abs(series.matrix - star(s2, s1).matrix) < 1e-12

    def test_threads_compose_as_they_would_serially(self):
        import sys
        import threading

        jobs = [self.stacks(70 + j, rows=8 + 40 * j, k=1 + j % 2) for j in range(4)]
        serial = [star(*job).matrix for job in jobs]
        results = [[] for _ in jobs]
        start = threading.Barrier(len(jobs))

        def compose(j):
            start.wait(timeout=30)
            for _ in range(25):
                results[j].append(star(*jobs[j]).matrix)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=compose, args=(j,)) for j in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for j, got in enumerate(results):
            assert len(got) == 25
            assert all(np.array_equal(m, serial[j]) for m in got)
