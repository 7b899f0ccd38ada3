import io
import json
import re
from importlib.resources import files

import numpy as np
import pytest

from scatchan import cli, graph, physics
from scatchan.capacity import capacity_bounds, detect_superactivation
from scatchan.composer import KERNEL_SV_TOL
from scatchan.errors import InternalConsistencyError, InvalidInputError, NonUnitaryError
from scatchan.numerics import max_abs
from scatchan.physics import (
    PIPELINE_MATCH_TOL,
    BarrierParams,
    barrier_coefficients,
    barrier_lines,
    barrier_smatrix,
    closed_form_amplitudes,
    energy_sweep,
    loss_smatrix,
    pipeline_amplitudes,
    pipeline_m,
    translated_barrier,
)
from scatchan.graph import contract, validate
from scatchan.smatrix import UNITARITY_TOL, PortSpec, ScatteringMatrix, unitarity_defect

HALF_WIDTH_REF = 0.06 * np.sqrt(20)
SEPARATION_REF = 10 * np.sqrt(20)


def stepwise_transmission(energy_ratio, height, half_width):
    """Independent oracle: plane-wave interface matching across the
    piecewise-constant potential, via numerically multiplied 2x2 transfer
    matrices (no closed-form barrier formula involved)."""
    k = np.sqrt(complex(energy_ratio))
    q = np.sqrt(complex(energy_ratio - height))

    def d_matrix(kappa, x):
        return np.array([
            [np.exp(1j * kappa * x), np.exp(-1j * kappa * x)],
            [1j * kappa * np.exp(1j * kappa * x), -1j * kappa * np.exp(-1j * kappa * x)],
        ])

    x0, x1 = 0.0, 2 * half_width
    t_total = (
        np.linalg.inv(d_matrix(k, x1)) @ d_matrix(q, x1)
        @ np.linalg.inv(d_matrix(q, x0)) @ d_matrix(k, x0)
    )
    refl = -t_total[1, 0] / t_total[1, 1]
    trans = t_total[0, 0] + t_total[0, 1] * refl
    return complex(refl), complex(trans)


class TestBarrierParams:
    def test_ranges(self):
        with pytest.raises(InvalidInputError):
            BarrierParams(0.0)
        with pytest.raises(InvalidInputError):
            BarrierParams(1.0, epsilon=1.5)
        with pytest.raises(InvalidInputError):
            BarrierParams(1.0, eta=-0.1)
        with pytest.raises(InvalidInputError):
            BarrierParams(1.0, half_width=0.0)
        with pytest.raises(InvalidInputError, match="separation must be nonnegative"):
            BarrierParams(1.0, separation=-1)


class TestBarrierCoefficients:
    def test_matches_stepwise_oracle(self):
        # the oracle places the barrier on [0, 2a]; the closed form
        # references the barrier center, shifting the reflection phase
        # by exp(-2ika).  (q = 0 exactly is outside the oracle's domain.)
        for et in [0.05, 0.3, 0.7, 0.999, 1.001, 1.5, 3.0, 50.0]:
            r, t = barrier_coefficients(et, 1.0, HALF_WIDTH_REF)
            r_o, t_o = stepwise_transmission(et, 1.0, HALF_WIDTH_REF)
            k = np.sqrt(et)
            assert abs(complex(t) - t_o) < 1e-10
            assert abs(complex(r) - r_o * np.exp(-2j * k * HALF_WIDTH_REF)) < 1e-10

    def test_rejects_zero_energy(self):
        with pytest.raises(InvalidInputError, match="energy ratios must be positive"):
            barrier_coefficients([0.5, 0.0], 1.0, HALF_WIDTH_REF)

    def test_barrier_top_limit(self):
        # at E = barrier height the amplitude reduces to exp(-2ika)/(1 - iak)
        a = 0.3
        k = 1.0
        _, t = barrier_coefficients(1.0, 1.0, a)
        assert complex(t) == pytest.approx(np.exp(-2j * k * a) / (1 - 1j * a * k), abs=1e-12)

    def test_continuity_across_barrier_top(self):
        a = HALF_WIDTH_REF
        _, t_below = barrier_coefficients(1.0 - 1e-9, 1.0, a)
        _, t_at = barrier_coefficients(1.0, 1.0, a)
        _, t_above = barrier_coefficients(1.0 + 1e-9, 1.0, a)
        assert abs(complex(t_below) - complex(t_at)) < 1e-8
        assert abs(complex(t_above) - complex(t_at)) < 1e-8

    def test_flux_conservation_grid(self):
        energies = np.linspace(0.001, 5.0, 20000)
        for eps in (0.0, 0.1):
            for height in (1.0 + eps, 1.0 - eps):
                r, t = barrier_coefficients(energies, height, HALF_WIDTH_REF)
                flux = np.abs(r) ** 2 + np.abs(t) ** 2
                assert max_abs(flux - 1.0) < 1e-10

    def test_high_energy_transparency(self):
        _, t = barrier_coefficients(100.0, 1.0, HALF_WIDTH_REF)
        assert abs(complex(t)) ** 2 > 0.99


class TestBarrierSmatrix:
    def test_eps0_spin_blocks_equal(self):
        s = barrier_smatrix(BarrierParams(0.4, epsilon=0.0, half_width=0.2), 0.4)
        assert s.matrix[0, 0] == s.matrix[1, 1]
        assert s.matrix[0, 2] == s.matrix[1, 3]

    def test_unitary(self):
        for et in (0.3, 0.9, 1.1, 2.5):
            s = barrier_smatrix(BarrierParams(et, epsilon=0.1, half_width=0.2), et)
            assert unitarity_defect(s.matrix) < 1e-10


class TestBarrierGate:
    """barrier_smatrix gates its amplitudes instead of measuring the stack it
    fills, and translated_barrier checks only its phases."""

    BASE = BarrierParams(1.0, 0.1, HALF_WIDTH_REF, SEPARATION_REF, 0.1)

    def patched(self, monkeypatch, edit):
        original = physics.barrier_coefficients
        monkeypatch.setattr(physics, "barrier_coefficients",
                            lambda *args: edit(*original(*args)))

    def test_scaled_transmission_is_non_unitary(self, monkeypatch):
        self.patched(monkeypatch, lambda r, t: (r, t * (1 + 1e-7)))
        with pytest.raises(NonUnitaryError):
            barrier_smatrix(self.BASE, np.linspace(0.5, 2.0, 50))

    def test_dephased_transmission_is_non_unitary(self, monkeypatch):
        # |t| is kept, so only the cross term 2 Re(conj(r) t) shows the defect.
        self.patched(monkeypatch, lambda r, t: (r, t * np.exp(1e-3j)))
        with pytest.raises(NonUnitaryError):
            barrier_smatrix(self.BASE, np.linspace(0.5, 2.0, 50))

    def test_nan_amplitudes_are_invalid(self, monkeypatch):
        def poisoned(r, t):
            r = r.copy()
            r[3, 1] = np.nan
            return r, t
        self.patched(monkeypatch, poisoned)
        with pytest.raises(InvalidInputError):
            barrier_smatrix(self.BASE, np.linspace(0.5, 2.0, 50))

    def test_full_measurement_on_the_dense_grid(self):
        energies = np.linspace(0.005, 2.0, 20000)
        barrier = barrier_smatrix(self.BASE, energies)
        assert unitarity_defect(barrier.matrix) <= UNITARITY_TOL
        shifted = translated_barrier(barrier, self.BASE.separation, energies)
        assert unitarity_defect(shifted.matrix) <= UNITARITY_TOL
        assert barrier.matrix.flags.c_contiguous and shifted.matrix.flags.c_contiguous

    def test_non_finite_phase_is_invalid(self):
        barrier = barrier_smatrix(self.BASE, [0.5, 0.6])
        with pytest.raises(InvalidInputError):
            translated_barrier(barrier, np.nan, [0.5, 0.6])


class TestTranslatedBarrier:
    def test_zero_separation_is_identity(self):
        p = BarrierParams(0.5, half_width=0.2, separation=0.0)
        s1 = barrier_smatrix(p, 0.5)
        s2 = translated_barrier(s1, p.separation, 0.5)
        assert max_abs(s2.matrix - s1.matrix) == 0.0

    def test_half_wave_flips_reflection_sign(self):
        et = 0.49
        w = (np.pi / 2) / np.sqrt(et)
        p = BarrierParams(et, half_width=0.2, separation=w)
        s1 = barrier_smatrix(p, et)
        s2 = translated_barrier(s1, w, et)
        assert max_abs(s2.block("L", "L") + s1.block("L", "L")) < 1e-12
        assert max_abs(s2.block("R", "L") - s1.block("R", "L")) == 0.0

    def test_unitarity_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = BarrierParams(
                float(rng.uniform(0.05, 3.0)),
                epsilon=float(rng.uniform(0, 0.5)),
                half_width=float(rng.uniform(0.05, 1.0)),
                separation=float(rng.uniform(0, 50.0)),
            )
            s2 = translated_barrier(
                barrier_smatrix(p, p.energy_ratio), p.separation, p.energy_ratio
            )
            assert unitarity_defect(s2.matrix) < 1e-10

    @pytest.mark.parametrize("energies", [0.5, [0.5, 0.6], np.full((5, 1), 0.5)],
                             ids=["scalar", "shorter", "2-D"])
    def test_energies_must_match_the_stack(self, energies):
        s1 = barrier_smatrix(BarrierParams(0.5, half_width=0.2), np.linspace(0.1, 0.9, 5))
        with pytest.raises(InvalidInputError, match=r"barrier stack of shape \(5,\)"):
            translated_barrier(s1, 3.0, energies)


class TestLossScatterer:
    def test_eta_one_is_full_deflection(self):
        s = loss_smatrix(1.0)
        pattern = np.zeros((4, 4))
        pattern[0, 2] = pattern[1, 3] = pattern[2, 0] = pattern[3, 1] = 1.0
        assert max_abs(s.matrix - np.kron(pattern, np.eye(2))) == 0.0

    def test_eta_zero_is_antisymmetric_transmission(self):
        s = loss_smatrix(0.0)
        expected = np.array([
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ])
        assert max_abs(s.matrix - np.kron(expected, np.eye(2))) == 0.0

    def test_generic_eta_unitary(self):
        assert unitarity_defect(loss_smatrix(0.1).matrix) < 1e-15

    def test_range_check(self):
        with pytest.raises(InvalidInputError):
            loss_smatrix(1.5)


class TestClosedForms:
    def test_eta_one_kills_transmission(self):
        p = BarrierParams(0.5, half_width=0.2, separation=1.0, eta=1.0)
        closed = closed_form_amplitudes(p, [p.energy_ratio])
        assert max_abs(closed["single"]) == 0.0
        assert max_abs(closed["double"]) == 0.0

    def test_high_energy_lossless_single(self):
        p = BarrierParams(200.0, half_width=HALF_WIDTH_REF, eta=0.0)
        m_up = closed_form_amplitudes(p, [p.energy_ratio])["single"][0, 0]
        assert abs(m_up) ** 2 > 0.99

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_matches_pipeline(self, eps, eta):
        for et in (0.11, 0.47, 0.93, 1.31):
            p = BarrierParams(et, eps, HALF_WIDTH_REF, SEPARATION_REF, eta)
            closed = closed_form_amplitudes(p, [et])
            assert max_abs(pipeline_m(p, False) - np.diag(closed["single"][0])) < 1e-9
            assert max_abs(pipeline_m(p, True) - np.diag(closed["double"][0])) < 1e-9

    def test_returns_the_pipelines_diagonals(self):
        base = BarrierParams(1.0, 0.1, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
        energies = np.linspace(0.005, 2.0, 50)
        closed = closed_form_amplitudes(base, energies)
        piped = pipeline_amplitudes(base, energies)
        assert closed.keys() == piped.keys()
        point = closed_form_amplitudes(base, energies[7:8])
        for cfg in ("single", "double"):
            assert closed[cfg].shape == np.diagonal(piped[cfg], axis1=-2, axis2=-1).shape
            assert np.array_equal(point[cfg][0], closed[cfg][7])

    def test_lossless_resonance_peak(self):
        energies = np.linspace(0.01, 0.99, 30000)
        _, t = barrier_coefficients(energies, 1.0, HALF_WIDTH_REF)
        r, _ = barrier_coefficients(energies, 1.0, HALF_WIDTH_REF)
        phi = 2 * np.sqrt(energies) * SEPARATION_REF
        m = t * t / (1 - r * r * np.exp(1j * phi))
        assert np.max(np.abs(m) ** 2) > 0.999

    def test_transmission_monotone_in_eta(self):
        for et in (0.3, 0.8, 1.2):
            probs = []
            for eta in np.linspace(0.0, 1.0, 21):
                p = BarrierParams(et, 0.0, HALF_WIDTH_REF, SEPARATION_REF, float(eta))
                m_up = closed_form_amplitudes(p, [et])["double"][0, 0]
                probs.append(abs(m_up) ** 2)
            assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))


class TestPipelineAmplitudes:
    def test_matches_the_one_point_call(self):
        base = BarrierParams(1.0, 0.1, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
        energies = np.linspace(0.005, 2.0, 200)
        piped = pipeline_amplitudes(base, energies)
        for cfg, double in (("single", False), ("double", True)):
            assert piped[cfg].shape == (200, 2, 2)
            for i, e in enumerate(energies):
                p = BarrierParams(float(e), 0.1, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
                assert max_abs(piped[cfg][i] - pipeline_m(p, double)) <= 1e-13

    def test_rejects_a_2d_grid(self):
        base = BarrierParams(1.0, 0.1, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
        with pytest.raises(InvalidInputError, match="1-D"):
            pipeline_amplitudes(base, np.linspace(0.1, 0.9, 6).reshape(2, 3))

    def test_coupled_near_singular_loop_is_named(self):
        # A lossless a = 8 line at a resonance peak where one barrier's |t|^2
        # is about 1e-13: the double line's loop falls below KERNEL_SV_TOL
        # and its near-kernel couples out.  Both barriers pass their own
        # gate, so the message names the loop, not the inputs.
        base = BarrierParams(0.09, 0.0, 8.0, 44.7213595499958, 0.0)
        with pytest.raises(InternalConsistencyError, match="kernel modes couple") as err:
            pipeline_amplitudes(base, [0.09391547278333241])
        message = str(err.value)
        assert message.startswith("loop 1 - S2^{L,L} S1^{R,R} is (near-)singular")
        assert "residual" in message and "inputs are not unitary" not in message
        sigma = float(re.search(r"smallest singular value (\S+),", message).group(1))
        assert 0.0 <= sigma < KERNEL_SV_TOL

    def test_builds_the_barrier_stack_once(self, monkeypatch):
        built = []
        original = physics.barrier_coefficients

        def counted(*args):
            built.append(np.shape(args[0]))
            return original(*args)

        monkeypatch.setattr(physics, "barrier_coefficients", counted)
        base = BarrierParams(1.0, 0.1, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
        pipeline_amplitudes(base, np.linspace(0.1, 0.9, 7))
        assert built == [(7, 1)]

    def test_chunked_grid_matches_one_call(self, monkeypatch):
        base = BarrierParams(1.0, 0.1, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
        energies = np.linspace(0.005, 2.0, 200)
        whole = pipeline_amplitudes(base, energies)
        built = []
        original = physics.barrier_coefficients

        def counted(*args):
            built.append(np.shape(args[0]))
            return original(*args)

        monkeypatch.setattr(physics, "barrier_coefficients", counted)
        monkeypatch.setattr(physics, "PIPELINE_CHUNK", 64)
        chunked = pipeline_amplitudes(base, energies)
        assert built == [(50, 1)] * 4
        for cfg in ("single", "double"):
            assert np.array_equal(chunked[cfg], whole[cfg])


class TestPipelineGraphs:
    """barrier_lines contracts the single line, then the double line as the
    single line's resonant concatenation with the second barrier."""

    BASE = BarrierParams(1.0, 0.1, HALF_WIDTH_REF, SEPARATION_REF, 0.1)

    @staticmethod
    def contracted_graphs(monkeypatch):
        """Record every graph ``physics`` contracts."""
        graphs = []
        original = physics.contract

        def recorded(g, *args, **kwargs):
            graphs.append(g)
            return original(g, *args, **kwargs)

        monkeypatch.setattr(physics, "contract", recorded)
        return graphs

    def test_graphs_validate(self, monkeypatch):
        graphs = self.contracted_graphs(monkeypatch)
        barrier_lines(self.BASE, 0.5)
        assert [len(g.vertices) for g in graphs] == [2, 2]
        assert [validate(g) for g in graphs] == [[], []]

    def test_contracted_global_matrix_unitary(self):
        for energies in (0.7, np.linspace(0.005, 2.0, 50)):
            for s in barrier_lines(self.BASE, energies).values():
                assert s.spec == PortSpec(4, 4, 0, 0, 2)
                assert s.matrix.shape == np.shape(energies) + (8, 8)
                assert unitarity_defect(s.matrix) < 1e-9

    def test_graphs_share_one_barrier_stack(self, monkeypatch):
        shifted = []
        original = physics.translated_barrier

        def recorded(s1, *args):
            shifted.append(s1)
            return original(s1, *args)

        monkeypatch.setattr(physics, "translated_barrier", recorded)
        graphs = self.contracted_graphs(monkeypatch)
        lines = barrier_lines(self.BASE, np.linspace(0.1, 0.9, 7))
        single, double = (dict(g.vertices) for g in graphs)
        assert len(shifted) == 1 and shifted[0] is single[1]
        assert single[1].matrix.shape == (7, 4, 4)
        assert double[1] is lines["single"]

    def test_merges_take_the_vertex_stacks_uncopied(self, monkeypatch):
        # The plans of both lines keep every slot where it is, so each merge
        # works on the vertex arrays themselves, and the lines come out
        # C-ordered.
        operands = []
        original = graph.star

        def recorded(s2, s1, *args):
            operands.append((s2.matrix, s1.matrix))
            return original(s2, s1, *args)

        monkeypatch.setattr(graph, "star", recorded)
        graphs = self.contracted_graphs(monkeypatch)
        lines = barrier_lines(self.BASE, np.linspace(0.1, 0.9, 7))
        assert len(graphs) == len(operands) == 2
        for g, (s2, s1) in zip(graphs, operands):
            vertices = dict(g.vertices)
            assert s1 is vertices[1].matrix and s2 is vertices[2].matrix
        assert all(s.matrix.flags.c_contiguous for s in lines.values())

    def test_double_line_is_the_three_vertex_contraction(self):
        # The double line contracted from scratch (barrier, loss scatterer,
        # second barrier) is the oracle for the concatenation.
        energies = np.linspace(0.005, 2.0, 200)
        barrier = barrier_smatrix(self.BASE, energies)
        loss = loss_smatrix(self.BASE.eta)
        ports = [(1, 0), (2, 1), (2, 2), (3, 1)]
        three = graph.QuantumGraph.build(
            vertices=[
                (1, barrier),
                (2, ScatteringMatrix._trusted(np.broadcast_to(
                    loss.matrix, energies.shape + loss.matrix.shape), loss.spec)),
                (3, translated_barrier(barrier, self.BASE.separation, energies)),
            ],
            internal_edges=[((1, 1), (2, 0)), ((2, 0), (1, 1)),
                            ((2, 3), (3, 0)), ((3, 0), (2, 3))],
            dangling_in=ports, dangling_out=ports,
        )
        double = barrier_lines(self.BASE, energies)["double"]
        assert double.spec == PortSpec(4, 4, 0, 0, 2)
        assert np.array_equal(double.matrix, contract(three).matrix)

    def test_pipeline_makes_two_merges(self, monkeypatch):
        merges = []
        original = graph.star

        def counted(s2, s1, *args):
            merges.append(s1.matrix.shape[:-2])
            return original(s2, s1, *args)

        monkeypatch.setattr(graph, "star", counted)
        pipeline_amplitudes(self.BASE, np.linspace(0.1, 0.9, 7))
        assert merges == [(7,), (7,)]
        merges.clear()
        pipeline_m(BarrierParams(0.47, 0.1, HALF_WIDTH_REF, SEPARATION_REF, 0.1), True)
        assert merges == [(1,), (1,)]


class TestEnergySweep:
    GRID = np.linspace(0.05, 1.5, 400)

    def test_eps0_bounds_collapse(self):
        base = BarrierParams(0.5, 0.0, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
        table = energy_sweep(base, self.GRID, cross_check_every=100)
        assert max_abs(table.q_low_single - table.q_up_single) == 0.0
        assert max_abs(table.q_low_double - table.q_up_double) == 0.0

    def test_invalid_grids(self):
        base = BarrierParams(0.5, 0.0, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
        with pytest.raises(InvalidInputError):
            energy_sweep(base, [0.2, 0.1])
        with pytest.raises(InvalidInputError):
            energy_sweep(base, [-0.1, 0.5])
        with pytest.raises(InvalidInputError):
            energy_sweep(base, [])

    @pytest.mark.parametrize("every", [-1, 2.5])
    def test_invalid_cross_check_stride(self, every):
        base = BarrierParams(0.5, 0.0, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
        with pytest.raises(InvalidInputError, match="cross_check_every must be a whole number"):
            energy_sweep(base, self.GRID, cross_check_every=every)

    def test_zero_stride_skips_the_pipeline(self, monkeypatch):
        def no_pipeline(*args):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(physics, "pipeline_gap", no_pipeline)
        base = BarrierParams(0.5, 0.0, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
        assert energy_sweep(base, self.GRID, cross_check_every=0).energy.size == 400

    def test_csv_format(self):
        # fig2_eps0 geometry on a grid that holds both flag values
        base = BarrierParams(0.5, 0.0, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
        table = energy_sweep(base, np.linspace(0.005, 0.1, 400), cross_check_every=0)
        csv = io.BytesIO()
        table.to_csv(csv)
        lines = csv.getvalue().decode("ascii").splitlines()
        assert lines[0] == (
            "E_over_V0,p_up_single,p_dn_single,p_up_double,p_dn_double,"
            "q_low_single,q_up_single,q_low_double,q_up_double,superactivated"
        )
        assert len(lines) == 401
        float_re = re.compile(r"-?\d\.\d{12}e[+-]\d{2,3}$")
        columns = (
            table.energy, table.p_up_single, table.p_dn_single,
            table.p_up_double, table.p_dn_double, table.q_low_single,
            table.q_up_single, table.q_low_double, table.q_up_double,
        )
        flags = []
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert len(cells) == 10
            for cell, column in zip(cells[:9], columns):
                assert float_re.match(cell), cell
                assert cell == "%.12e" % column[i]
            assert cells[9] == ("1" if table.superactivated[i] else "0")
            flags.append(cells[9])
        assert flags.count("1") == 34 and flags.count("0") == 366

    @pytest.mark.parametrize("name, flagged", [("fig2_eps0.json", 80), ("fig2_eps01.json", 62)])
    def test_capacity_columns_match_pipeline_svd(self, name, flagged):
        # The sweep's gate bounds each entry of pipeline - closed form by
        # eps = PIPELINE_MATCH_TOL.  By Weyl's inequality each singular value
        # of a 2x2 operator then moves by <= 2 eps, each singular probability
        # by <= 4 eps and each capacity bound, (2p - 1) log2 2, by <= 8 eps.
        sc = json.loads((files("scatchan") / "scenarios" / name).read_text())
        base, grid, every = cli._sweep_inputs(sc)
        table = energy_sweep(base, grid, cross_check_every=every)
        chunks = [pipeline_amplitudes(base, e) for e in np.array_split(grid, 10)]
        single, double = (capacity_bounds(np.concatenate([c[cfg] for c in chunks]), 2)
                          for cfg in ("single", "double"))
        tol = 8 * PIPELINE_MATCH_TOL
        assert max_abs(single.q_low - table.q_low_single) <= tol
        assert max_abs(single.q_up - table.q_up_single) <= tol
        assert max_abs(double.q_low - table.q_low_double) <= tol
        assert max_abs(double.q_up - table.q_up_double) <= tol
        # The flag jumps at 2p = 1; compare it where both probabilities it
        # reads are further than the bound gap from 1/2.
        p_low_double = np.minimum(table.p_up_double, table.p_dn_double)
        p_up_single = np.maximum(table.p_up_single, table.p_dn_single)
        clear = (np.abs(2 * p_low_double - 1) > tol) & (np.abs(2 * p_up_single - 1) > tol)
        flags = detect_superactivation(double, single)
        assert np.array_equal(flags[clear], table.superactivated[clear])
        assert np.count_nonzero(table.superactivated) == flagged

    def test_sa_flag_matches_bound_logic(self):
        base = BarrierParams(0.5, 0.0, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
        table = energy_sweep(base, self.GRID, cross_check_every=0)
        expected = (table.q_low_double > 0.0) & (table.q_up_single <= 0.0)
        assert np.array_equal(table.superactivated, expected)


# Tuned onto the first resonance at E/V0=0.5: |1 - r^2 e^{i phi}| ~ 7e-15,
# below RESONANT_DENOM_FLOOR; the closed form there gives |m|^2 ~ 1.11.
OPAQUE = {
    "kind": "barrier-sweep", "epsilon": 0, "eta": 0, "half_width": 12,
    "separation": 21.77855853092082, "cross_check_every": 0,
    "grid": {"start": 0.4, "stop": 0.5, "points": 2},
}


class TestLoudFailures:
    """The closed form and the gates raise instead of passing bad numbers."""

    def test_resonance_floor_raises(self, tmp_path):
        p = BarrierParams(0.5, 0.0, 12.0, OPAQUE["separation"], 0.0)
        with pytest.raises(InternalConsistencyError, match="resonant denominator"):
            closed_form_amplitudes(p, [p.energy_ratio])
        with pytest.raises(InternalConsistencyError, match="resonant denominator"):
            energy_sweep(p, [0.4, 0.5], cross_check_every=0)
        path = tmp_path / "opaque.json"
        path.write_text(json.dumps(OPAQUE))
        assert cli.main(["--out", str(tmp_path / "out"), "run", str(path)]) == 3
        assert not (tmp_path / "out" / "opaque.csv").exists()

    @pytest.mark.parametrize("field, value", [
        ("half_width", float("inf")),
        ("separation", float("nan")),
        ("grid", {"start": 0.1, "stop": float("inf"), "points": 5}),
        ("half_width", "abc"),
        ("grid", {"points": "many"}),
        ("grid", [0.1, 0.9, 5]),
        ("grid", {"start": 0.1, "stop": 0.9, "points": float("inf")}),
        ("grid", {"start": 0.1, "stop": 0.9, "points": 2.7}),
        ("grid", {"start": 0.1, "stop": 0.9, "points": True}),
        ("cross_check_every", "abc"),
        ("cross_check_every", -1),
        # Rejected by the bound check alone; neither grid is ever built.
        ("grid", {"start": 0.1, "stop": 0.9, "points": 1e300}),
        ("grid", {"start": 0.1, "stop": 0.9, "points": cli.MAX_GRID_POINTS + 1}),
    ])
    def test_nonfinite_scenario_exits_2(self, tmp_path, capsys, field, value):
        scenario = {
            "kind": "barrier-sweep", "epsilon": 0.1, "eta": 0.1,
            "half_width": HALF_WIDTH_REF, "separation": SEPARATION_REF,
            "cross_check_every": 0,
            "grid": {"start": 0.1, "stop": 0.9, "points": 5},
        }
        scenario[field] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(scenario))
        assert cli.main(["--out", str(tmp_path / "out"), "run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_probability_above_the_capacity_bound_is_inconsistent(
            self, monkeypatch, tmp_path):
        # A lossless, reflectionless barrier with t^2 = 1 + 8e-11: the double
        # amplitude t^2 passes 1 + PROB_CLAMP_TOL, its probability does not.
        def overshooting(energies, height, half_width):
            t = np.full(np.shape(energies), np.sqrt(1.0 + 8e-11), dtype=complex)
            return np.zeros_like(t), t

        monkeypatch.setattr(physics, "barrier_coefficients", overshooting)
        base = BarrierParams(0.5, 0.0, HALF_WIDTH_REF, SEPARATION_REF, 0.0)
        with pytest.raises(InternalConsistencyError, match="probability"):
            energy_sweep(base, np.linspace(0.1, 0.9, 5), cross_check_every=0)
        path = tmp_path / "overshoot.json"
        path.write_text(json.dumps({**OPAQUE, "half_width": HALF_WIDTH_REF}))
        assert cli.main(["--out", str(tmp_path / "out"), "run", str(path)]) == 3
        assert not (tmp_path / "out").exists()

    def test_nan_pipeline_fails_the_gates(self, monkeypatch, capsys):
        def nan_pipeline(base, energies):
            nan = np.full((len(energies), 2, 2), np.nan)
            return {"single": nan, "double": nan}

        monkeypatch.setattr(physics, "pipeline_amplitudes", nan_pipeline)
        base = BarrierParams(0.5, 0.0, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
        with pytest.raises(InternalConsistencyError, match="mismatch nan"):
            energy_sweep(base, np.linspace(0.1, 0.9, 5), cross_check_every=1)
        scenario = str(files("scatchan") / "scenarios" / "fig2_eps0.json")
        assert cli.main(["verify", scenario]) == 3
        assert capsys.readouterr().err == (
            "FAIL: closed form checked against the pipeline at 65 of 20000 grid points: "
            "nan exceeds 1e-09\n")

    def test_pipeline_gap_keeps_one_nan_entry(self):
        base = BarrierParams(0.5, 0.1, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
        energies = np.linspace(0.1, 0.9, 5)
        closed = closed_form_amplitudes(base, energies)
        closed["single"][2, 1] = np.nan
        gap = physics.pipeline_gap(base, energies, closed)
        assert np.isnan(gap[2])
        assert np.all(np.delete(gap, 2) <= PIPELINE_MATCH_TOL)

    def test_spin_mixing_in_one_line_fails_the_gates(self, monkeypatch, capsys):
        # The pipeline equals the closed form except for one off-diagonal
        # entry of the double line.
        def mixing_pipeline(base, energies):
            piped = {cfg: a[..., None] * np.eye(2)
                     for cfg, a in closed_form_amplitudes(base, energies).items()}
            piped["double"][:, 0, 1] += 1e-6
            return piped

        monkeypatch.setattr(physics, "pipeline_amplitudes", mixing_pipeline)
        base = BarrierParams(0.5, 0.0, HALF_WIDTH_REF, SEPARATION_REF, 0.1)
        with pytest.raises(InternalConsistencyError, match="mismatch 1.000e-06"):
            energy_sweep(base, np.linspace(0.1, 0.9, 5), cross_check_every=1)
        scenario = str(files("scatchan") / "scenarios" / "fig2_eps0.json")
        assert cli.main(["verify", scenario]) == 3
        assert capsys.readouterr().err == (
            "FAIL: closed form checked against the pipeline at 65 of 20000 grid points: "
            "1.000e-06 exceeds 1e-09\n")
