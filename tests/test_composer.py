import numpy as np
import pytest

from scatchan import composer
from scatchan.composer import (
    Wiring,
    kernel_decoupling_check,
    loop_matrix,
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
from scatchan.numerics import max_abs, operator_norm
from scatchan.smatrix import PortSpec, ScatteringMatrix, s_to_t, t_to_s, unitarity_defect

from conftest import (
    bounded_loop_smatrix,
    dishomogeneous_singular_loop_pair,
    dishomogeneous_specs,
    random_dishomogeneous_pair,
    random_smatrix,
    random_unitary,
    singular_loop_pair,
)

SPEC11 = PortSpec(1, 1, 1, 1, 1)
SWAP = ScatteringMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), SPEC11)


def beamsplitter(theta):
    r, t = 1j * np.sin(theta), np.cos(theta)
    return ScatteringMatrix(np.array([[r, t], [t, r]]), SPEC11)


def phase_reflector(alpha, beta):
    return ScatteringMatrix(np.diag([np.exp(1j * alpha), np.exp(1j * beta)]), SPEC11)


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
            loop_matrix(random_smatrix(rng, 2, 1), SWAP)


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


class TestSeries:
    def test_swap_series(self):
        g = star_via_series(SWAP, SWAP)
        assert max_abs(g.matrix - SWAP.matrix) < 1e-14

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
        assert pad_to_homogeneous(s, 2) is s

    def test_pure_transmission_pads_to_antidiagonal(self):
        amp = np.exp(0.4j)
        s = ScatteringMatrix(
            np.array([[amp]]), PortSpec(1, 0, 0, 1, 1), check=False
        )
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
        s1 = ScatteringMatrix(np.array([[a]]), PortSpec(1, 0, 0, 1, 1), check=False)
        s2 = ScatteringMatrix(np.array([[b]]), PortSpec(1, 0, 0, 1, 1), check=False)
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
        s_bar = ScatteringMatrix(m, PortSpec(2, 2, 2, 2, 1), check=False)
        with pytest.raises(DecouplingViolationError):
            extract_physical(s_bar, [0, 1], [0, 1], PortSpec(1, 1, 1, 1, 1))


class TestDirectVersusPadded:
    """The direct rectangular-block composition against the paper's padded
    construction (pad_to_homogeneous, homogeneous star, extract_physical)."""

    @staticmethod
    def count_kernel_checks(monkeypatch):
        calls = []
        original = composer._kernel_residuals

        def counted(kmat, s2, s1):
            calls.append(kmat.shape[1])
            return original(kmat, s2, s1)

        monkeypatch.setattr(composer, "_kernel_residuals", counted)
        return calls

    @staticmethod
    def assert_agree(s2, s1, wiring=None):
        direct = star(s2, s1, wiring)
        padded = star_via_padding(s2, s1, wiring)
        assert direct.spec == padded.spec
        # Both passed the output gate of star; the direct result is verified.
        assert direct.verified
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
            report = kernel_decoupling_check(s2, s1)
            assert report.kernel_dim >= 1
            assert report.max_residual < 1e-8
            calls = self.count_kernel_checks(monkeypatch)
            star(s2, s1)
            assert calls and calls[0] >= 1
            monkeypatch.undo()
            self.assert_agree(s2, s1)


class TestVerifiedInputs:
    """Inputs carrying the verified bit are not measured again; all others
    are, and the gate on each output stays."""

    @staticmethod
    def count_measurements(monkeypatch):
        measured = []
        original = composer.unitarity_defect

        def counted(m):
            measured.append(m.shape)
            return original(m)

        monkeypatch.setattr(composer, "unitarity_defect", counted)
        return measured

    def test_verified_inputs_only_gate_the_output(self, monkeypatch):
        rng = np.random.default_rng(40)
        s1, s2 = random_smatrix(rng, 2, 1), random_smatrix(rng, 2, 1)
        assert s1.verified and s2.verified
        measured = self.count_measurements(monkeypatch)
        g = star(s2, s1)
        assert measured == [g.matrix.shape]
        assert g.verified

    def test_unchecked_inputs_are_measured(self, monkeypatch):
        rng = np.random.default_rng(41)
        spec = PortSpec(2, 2, 2, 2, 1)
        s1 = ScatteringMatrix(random_unitary(rng, 4), spec, check=False)
        s2 = ScatteringMatrix._trusted(random_unitary(rng, 4), spec)
        assert not s1.verified and not s2.verified
        measured = self.count_measurements(monkeypatch)
        g = star(s2, s1)
        assert len(measured) == 3  # both inputs, then the output gate
        assert g.verified

    def test_nonunitary_unchecked_input_stays_unverified(self):
        rng = np.random.default_rng(42)
        spec = PortSpec(1, 1, 1, 1, 2)
        bad = ScatteringMatrix(0.5 * random_unitary(rng, 4), spec, check=False)
        good = random_smatrix(rng, 1, 2)
        # Were the bit to leak onto the non-unitary input, the output gate
        # would run on a non-unitary result and raise.
        g = star(bad, good)
        assert not g.verified
        assert unitarity_defect(g.matrix) > 1e-3
        h = star(random_smatrix(rng, 1, 2), g)
        assert not h.verified


def stacked(rows, check=True):
    """One ScatteringMatrix holding the matrices of ``rows`` along a leading
    axis; all rows share the first row's spec."""
    return ScatteringMatrix(np.stack([r.matrix for r in rows]), rows[0].spec, check=check)


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
        assert got.verified
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
        calls = []
        original = composer._kernel_residuals

        def counted(kmat, s2, s1):
            calls.append(kmat.shape[1])
            return original(kmat, s2, s1)

        monkeypatch.setattr(composer, "_kernel_residuals", counted)
        merged = kernel_decoupling_check(s2, s1)
        # One kernel check per singular row, none for the regular ones.
        assert calls == [r.kernel_dim for r in rowwise if r.kernel_dim]
        assert merged.kernel_dim == sum(r.kernel_dim for r in rowwise) >= 3
        assert merged.residuals == sum((r.residuals for r in rowwise), ())
        assert merged.max_residual < 1e-8

    def test_one_coupling_kernel_row_fails_the_stack(self):
        rng = np.random.default_rng(53)
        good2, good1 = singular_loop_pair(rng, 1, 1)
        # A non-unitary pair with loop 1 - 1*1 = 0 whose kernel mode leaks
        # out through s1's left-right block.
        bad1 = ScatteringMatrix(np.array([[0.0, 1.0], [1.0, 1.0]]), SPEC11, check=False)
        bad2 = ScatteringMatrix(np.eye(2), SPEC11)
        s2 = stacked([good2, bad2, good2])
        s1 = stacked([good1, bad1, good1], check=False)
        with pytest.raises(InternalConsistencyError, match="kernel modes couple"):
            star(s2, s1)
        star(stacked([good2]), stacked([good1]))  # the good rows alone compose

    def test_stack_shapes_must_agree(self):
        rng = np.random.default_rng(54)
        rows = [random_smatrix(rng, 1, 1) for _ in range(3)]
        with pytest.raises(InvalidInputError, match="stack shapes differ"):
            star(stacked(rows), rows[0])


def test_nan_output_defect_fails_the_gate(monkeypatch):
    rng = np.random.default_rng(55)
    s1, s2 = random_smatrix(rng, 1, 2), random_smatrix(rng, 1, 2)
    assert s1.verified and s2.verified
    monkeypatch.setattr(composer, "unitarity_defect", lambda m: float("nan"))
    with pytest.raises(InternalConsistencyError, match="unitarity defect nan"):
        star(s2, s1)


class TestKernelDecoupling:
    def test_aligned_reflectors(self):
        report = kernel_decoupling_check(
            phase_reflector(-0.7, 0.2), phase_reflector(0.1, 0.7)
        )
        assert report.kernel_dim == 1
        assert report.max_residual == 0.0

    def test_nan_residual_is_not_dropped(self):
        report = composer.KernelDecouplingReport(1, ((0.0, np.nan, 0.0, 0.0),))
        assert np.isnan(report.max_residual)
        assert not report.ok

    def test_swap_pair_empty_kernel(self):
        report = kernel_decoupling_check(SWAP, SWAP)
        assert report.kernel_dim == 0
        assert report.residuals == ()

    def test_engineered_singular_pairs(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            s2, s1 = singular_loop_pair(rng, 2, 2)
            report = kernel_decoupling_check(s2, s1)
            assert report.kernel_dim >= 1
            assert report.max_residual < 1e-8
            g = star(s2, s1)
            assert unitarity_defect(g.matrix) < 1e-9


def test_transfer_route_equivalence():
    rng = np.random.default_rng(16)
    for _ in range(10):
        s1 = bounded_loop_smatrix(rng, 2, 1)
        s2 = bounded_loop_smatrix(rng, 2, 1)
        via_t = t_to_s(s_to_t(s2) @ s_to_t(s1))
        assert max_abs(star(s2, s1).matrix - via_t.matrix) < 1e-8


def test_star_is_not_commutative():
    rng = np.random.default_rng(17)
    s1 = random_smatrix(rng, 1, 2)
    s2 = random_smatrix(rng, 1, 2)
    gap = max_abs(star(s2, s1).matrix - star(s1, s2).matrix)
    assert gap > 0.1


def test_wiring_json_roundtrip():
    w = Wiring(((0, 1), (1, 0)), ((0, 0), (1, 1)))
    assert Wiring.from_json(w.to_json()) == w
