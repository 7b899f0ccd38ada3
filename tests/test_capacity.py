import numpy as np
import pytest

from scatchan.capacity import (
    CapacityBounds,
    capacity_bounds,
    check_data_processing,
    detect_superactivation,
    erasure_capacity,
    singular_probabilities,
)
from scatchan.errors import InvalidInputError

from conftest import random_contraction, random_unitary


class TestErasureCapacity:
    def test_spot_values(self):
        assert erasure_capacity(1.0, 2) == 1.0
        assert erasure_capacity(0.5, 2) == 0.0
        assert erasure_capacity(0.75, 4) == pytest.approx(1.0)

    def test_zero_below_half(self):
        for p in np.linspace(0.0, 0.5, 11):
            assert erasure_capacity(float(p), 2) == 0.0

    def test_strictly_increasing_above_half(self):
        ps = np.linspace(0.5, 1.0, 21)
        qs = [erasure_capacity(float(p), 3) for p in ps]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_range_checks(self):
        with pytest.raises(InvalidInputError):
            erasure_capacity(1.2, 2)
        with pytest.raises(InvalidInputError):
            erasure_capacity(0.5, 1)


class TestSingularProbabilities:
    def test_diagonal(self):
        p = singular_probabilities(np.diag([np.sqrt(0.9), np.sqrt(0.2)]))
        assert p == pytest.approx([0.2, 0.9])

    def test_zero(self):
        assert singular_probabilities(np.zeros((2, 2))) == pytest.approx([0.0, 0.0])

    def test_unitary_invariance(self):
        rng = np.random.default_rng(0)
        m = np.diag([np.sqrt(0.9), np.sqrt(0.2)])
        u, v = random_unitary(rng, 2), random_unitary(rng, 2)
        p = singular_probabilities(u @ m @ v)
        assert p == pytest.approx([0.2, 0.9], abs=1e-12)

    def test_expanding_operator_rejected(self):
        with pytest.raises(InvalidInputError):
            singular_probabilities(2.0 * np.eye(2))


class TestCapacityBounds:
    def test_split_spectrum(self):
        b = capacity_bounds(np.diag([np.sqrt(0.9), np.sqrt(0.2)]), 2)
        assert b.q_low == 0.0
        assert b.q_up == pytest.approx(0.8)

    def test_uniform_collapse(self):
        b = capacity_bounds(np.sqrt(0.8) * np.eye(2), 2)
        assert b.q_low == pytest.approx(b.q_up)
        assert b.q_up == pytest.approx(0.6)

    def test_zero_operator(self):
        b = capacity_bounds(np.zeros((2, 2)), 2)
        assert (b.q_low, b.q_up) == (0.0, 0.0)

    def test_ordering_invariant_enforced(self):
        with pytest.raises(InvalidInputError):
            CapacityBounds((0.9, 0.2), 2)

    def test_random_bounds_ordered(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            b = capacity_bounds(random_contraction(rng, d), d)
            assert 0.0 <= b.q_low <= b.q_up <= np.log2(d) + 1e-12

    def test_monotonicity_in_p(self):
        for p_lo, p_hi in [(0.55, 0.6), (0.7, 0.9), (0.4, 0.8)]:
            assert erasure_capacity(p_lo, 2) <= erasure_capacity(p_hi, 2)


class TestDataProcessing:
    def test_scalar_pair(self):
        r = check_data_processing(
            np.sqrt(0.8) * np.eye(2), np.sqrt(0.8) * np.eye(2), 2
        )
        assert r.p_max_composed == pytest.approx(0.64)
        assert r.holds

    def test_unitary_factor_neutral(self):
        rng = np.random.default_rng(2)
        m1 = random_contraction(rng, 3)
        u = random_unitary(rng, 3)
        r = check_data_processing(m1, u, 3)
        assert r.p_max_composed == pytest.approx(r.p_max_first, abs=1e-12)

    def test_random_compositions(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            r = check_data_processing(
                random_contraction(rng, d), random_contraction(rng, d), d
            )
            assert r.holds
            q_comp = erasure_capacity(r.p_max_composed, d)
            q_factor_min = min(erasure_capacity(r.p_max_first, d),
                               erasure_capacity(r.p_max_second, d))
            assert q_comp <= q_factor_min + 1e-12


class TestSuperactivation:
    def test_certified(self):
        res = CapacityBounds((0.66,), 2)
        direct = CapacityBounds((0.4,), 2)
        assert detect_superactivation(res, direct)

    def test_not_certified_when_resonant_zero(self):
        res = CapacityBounds((0.5,), 2)
        direct = CapacityBounds((0.4,), 2)
        assert not detect_superactivation(res, direct)

    def test_not_certified_when_direct_possibly_positive(self):
        res = CapacityBounds((0.66,), 2)
        direct = CapacityBounds((0.3, 0.56), 2)
        assert not detect_superactivation(res, direct)

    def test_dimension_mismatch(self):
        res = CapacityBounds((0.66,), 2)
        direct = CapacityBounds((0.4,), 4)
        with pytest.raises(InvalidInputError):
            detect_superactivation(res, direct)


class TestStacks:
    def test_stack_equals_row_by_row(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            ms = np.stack([random_contraction(rng, d) for _ in range(50)])
            b = capacity_bounds(ms, d)
            rows = [capacity_bounds(m, d) for m in ms]
            assert b.p.shape == (50, d)
            assert np.array_equal(b.p, [r.p for r in rows])
            assert np.array_equal(b.q_low, [r.q_low for r in rows])
            assert np.array_equal(b.q_up, [r.q_up for r in rows])

    def test_superactivation_elementwise(self):
        res = CapacityBounds([[0.66], [0.5], [0.66]], 2)
        direct = CapacityBounds([[0.4], [0.4], [0.56]], 2)
        assert detect_superactivation(res, direct).tolist() == [True, False, False]

    @pytest.mark.parametrize("call", [
        lambda: erasure_capacity(np.array([0.7, np.nan]), 2),
        lambda: CapacityBounds(np.array([[0.3], [np.nan]]), 2),
        lambda: CapacityBounds(np.array([[0.2, np.nan]]), 2),
        lambda: capacity_bounds(np.array([np.eye(2), [[0.5, 0.0], [0.0, np.nan]]]), 2),
    ])
    def test_nan_rejected(self, call):
        with pytest.raises(InvalidInputError):
            call()
