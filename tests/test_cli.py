import hashlib
import json
import re
import xml.etree.ElementTree as ET
from importlib.resources import files

import numpy as np
import pytest

from scatchan import cli, composer, physics
from scatchan.smatrix import PortSpec, ScatteringMatrix

from conftest import random_smatrix
from test_composer import near_resonant_pair

SCENARIOS = files("scatchan") / "scenarios"


def scenario_path(name):
    return str(SCENARIOS / name)


def small_sweep(tmp_path, **overrides):
    sc = json.loads((SCENARIOS / "fig2_eps0.json").read_text())
    sc["grid"]["points"] = 300
    sc.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sc))
    return str(path)


# The named checks of verify, in the order it prints them.
SWEEP_CHECKS = ["closed form checked against the pipeline at 65 of 20000 grid points",
                "star/series gap", "double-barrier unitarity defect", "Kraus completeness",
                "Choi negativity"]
STAR_DEMO_CHECKS = ["star/series gap", "star unitarity defect",
                    "|transmission| deviation from expected"]


def pair_graph(s1, s2):
    """A graph-contract scenario: two 1x1-port vertices wired in a loop."""
    return {
        "kind": "graph-contract",
        "name": "pair",
        "graph": {
            "vertices": [
                {"id": 1, "smatrix": s1.to_json()},
                {"id": 2, "smatrix": s2.to_json()},
            ],
            "edges": [[[1, 1], [2, 0]], [[2, 0], [1, 1]]],
            "dangling_in": [[1, 0], [2, 1]],
            "dangling_out": [[1, 0], [2, 1]],
        },
    }


class TestRun:
    def test_star_demo(self, tmp_path, capsys):
        rc = cli.main(["--out", str(tmp_path), "run", scenario_path("star_demo.json")])
        assert rc == 0
        out = json.loads((tmp_path / "star_demo_star.json").read_text())
        m = out["matrix"]["data"]
        assert m[2][0] == pytest.approx(1 / 3)  # transmission entry, real part

    def test_barrier_sweep_emits_csv_and_svg(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path), "run", small_sweep(tmp_path)])
        assert rc == 0
        csv_text = (tmp_path / "fig2_eps0.csv").read_text()
        assert csv_text.startswith("E_over_V0,")
        assert len(csv_text.splitlines()) == 301
        for name in ("fig2_eps0_transmission.svg", "fig2_eps0_capacity.svg"):
            root = ET.fromstring((tmp_path / name).read_text())
            assert root.tag.endswith("svg")

    def test_graph_contract(self, tmp_path):
        rng = np.random.default_rng(0)
        s = random_smatrix(rng, 1, 1)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(pair_graph(s, s)))
        rc = cli.main(["--out", str(tmp_path), "run", str(path)])
        assert rc == 0
        assert (tmp_path / "pair_global.json").exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["--out", str(tmp_path), "run", str(tmp_path / "nope.json")]) == 2

    def test_unknown_kind_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        assert cli.main(["--out", str(tmp_path), "run", str(path)]) == 2

    @pytest.mark.parametrize("text", ["[1]", "5", "null", '"barrier-sweep"'])
    def test_non_object_scenario_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "run", str(path)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("unreadable", ["directory", "utf16-bom"])
    def test_unreadable_scenario_exits_2(self, tmp_path, capsys, command, unreadable):
        path = tmp_path / "scenario.json"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe" + json.dumps({"kind": "star-demo"}).encode("utf-16-le"))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read scenario: ")
        assert not out.exists()

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["--out", str(tmp_path), "run", str(path)]) == 2

    def test_corrupted_local_matrix_exits_3(self, tmp_path):
        bad = {
            "spec": PortSpec(1, 1, 1, 1, 1).to_json(),
            "matrix": {"rows": 2, "cols": 2,
                       "data": [[1, 0], [1, 0], [0, 0], [1, 0]]},
        }
        sc = {
            "kind": "graph-contract",
            "name": "broken",
            "graph": {
                "vertices": [{"id": 1, "smatrix": bad}],
                "edges": [],
                "dangling_in": [[1, 0], [1, 1]],
                "dangling_out": [[1, 0], [1, 1]],
            },
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(sc))
        assert cli.main(["--out", str(tmp_path), "run", str(path)]) == 3


    def test_corrupted_vertex_after_same_topology_exits_3(self, tmp_path):
        rng = np.random.default_rng(3)
        sc = pair_graph(random_smatrix(rng, 1, 1), random_smatrix(rng, 1, 1))
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(sc))
        assert cli.main(["--out", str(tmp_path), "run", str(path)]) == 0
        # The same topology again (its contraction plan is now cached), with
        # one local matrix corrupted.
        sc["graph"]["vertices"][1]["smatrix"]["matrix"]["data"][0] = [2.0, 0.0]
        path.write_text(json.dumps(sc))
        assert cli.main(["--out", str(tmp_path), "run", str(path)]) == 3


class TestVerify:
    def test_star_demo(self, tmp_path, capsys):
        rc = cli.main(["--out", str(tmp_path), "verify", scenario_path("star_demo.json")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "transmission" in captured.out
        assert "star/series gap: " in captured.out
        assert "star unitarity defect: " in captured.out
        assert "within tolerance" in captured.out

    @staticmethod
    def star_scenario(tmp_path, s1, s2, **extra):
        spec = PortSpec(1, 1, 1, 1, 1)
        sc = {"kind": "star-demo", "name": "pair",
              "s1": ScatteringMatrix(s1, spec).to_json(),
              "s2": ScatteringMatrix(s2, spec).to_json(), **extra}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(sc))
        return str(path)

    def test_mirror_pair_skips_the_series(self, tmp_path, capsys):
        # Two perfect mirrors: the loop S2_LL S1_RR = 1 is singular, star
        # resolves it by the kernel check, and the series does not converge.
        wiring = {"s1_to_s2": [[0, 0]], "s2_to_s1": [[0, 0]]}
        path = self.star_scenario(tmp_path, np.eye(2), np.eye(2), wiring=wiring)
        assert cli.main(["--out", str(tmp_path), "run", path]) == 0
        capsys.readouterr()
        assert cli.main(["--out", str(tmp_path), "verify", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        skipped = [ln for ln in lines if "geometric series route skipped" in ln]
        assert len(skipped) == 1
        assert skipped[0].startswith("kernel decoupling (")
        assert skipped[0].endswith("): 0.000e+00")
        assert "star unitarity defect: 0.000e+00" in lines

    @pytest.mark.parametrize("factor, route", [
        (np.array([[0.0, 1.0], [1.0, 0.0]]), "star/series gap: "),
        (np.eye(2), "kernel decoupling (geometric series route skipped: "),
    ], ids=["transparent", "mirror"])
    def test_non_unitary_pair_exits_3(self, tmp_path, capsys, factor, route):
        # Scaled by 1 + 2e-9, a defect of ~4e-9: within the 1e-8 gate of
        # the scenario's matrices, beyond verify's 1e-9.
        path = self.star_scenario(tmp_path, (1 + 2e-9) * factor, factor)
        assert cli.main(["--out", str(tmp_path), "verify", path]) == 3
        captured = capsys.readouterr()
        assert route in captured.out
        assert "star unitarity defect: 4.000e-09" in captured.out.splitlines()
        assert "FAIL: star unitarity defect: 4.000e-09" in captured.err

    def test_barrier_sweep(self, tmp_path, capsys):
        rc = cli.main(["--out", str(tmp_path), "verify", small_sweep(tmp_path)])
        assert rc == 0
        # 300 points sampled at stride 300 // 64 = 4
        assert ("closed form checked against the pipeline at 75 of 300 grid points"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("half_width", [10, 20, 80])
    def test_barrier_sweep_with_a_near_resonant_series(self, tmp_path, capsys, half_width):
        # At verify's middle energy the loop norm is 0.989-0.996: thousands
        # of series terms, beyond a term-by-term sum of 1000.
        sc = json.loads((SCENARIOS / "fig2_eps0.json").read_text())
        sc["half_width"] = half_width
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(sc))
        assert cli.main(["--out", str(tmp_path), "verify", str(path)]) == 0
        assert "skipped" not in capsys.readouterr().out

    def test_exhausted_series_budget_is_a_skip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(composer, "SERIES_SQUARINGS", 2)
        skip = "geometric series route skipped: geometric series not below 1e-14 after 2 squarings"
        assert cli.main(["--out", str(tmp_path), "verify", small_sweep(tmp_path)]) == 0
        assert skip in capsys.readouterr().out
        s2, s1 = near_resonant_pair()
        path = self.star_scenario(tmp_path, s1.matrix, s2.matrix)
        assert cli.main(["--out", str(tmp_path), "verify", path]) == 0
        assert skip in capsys.readouterr().out

    def test_wrong_expectation_exits_3(self, tmp_path):
        sc = json.loads((SCENARIOS / "star_demo.json").read_text())
        sc["expected_transmission"] = 0.9
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(sc))
        assert cli.main(["--out", str(tmp_path), "verify", str(path)]) == 3

    @pytest.mark.parametrize("name, checks", [
        ("fig2_eps0.json", SWEEP_CHECKS),
        ("fig2_eps01.json", SWEEP_CHECKS),
        ("lossless.json", SWEEP_CHECKS),
        ("star_demo.json", STAR_DEMO_CHECKS),
    ])
    def test_bundled_scenario_prints_one_line_per_check(self, tmp_path, capsys, name, checks):
        assert cli.main(["--out", str(tmp_path), "verify", scenario_path(name)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "all residuals within tolerance"
        printed = [line.rsplit(": ", 1) for line in lines[-1 - len(checks):-1]]
        assert [check for check, _ in printed] == checks
        assert all(0.0 <= float(residual) <= cli.VERIFY_TOL for _, residual in printed)
        if name == "star_demo.json":
            assert lines[:-1 - len(checks)] == ["transmission block:", "[[0.333333333333+0.j]]"]
        else:
            assert len(lines) == len(checks) + 1

    @pytest.mark.parametrize("kind, index", [
        *(("sweep", i) for i in range(len(SWEEP_CHECKS))),
        *(("star", i) for i in range(len(STAR_DEMO_CHECKS))),
        ("graph", 0),
    ])
    def test_nan_in_any_check_exits_3_and_names_it(self, tmp_path, capsys, monkeypatch,
                                                   kind, index):
        if kind == "sweep":
            path = small_sweep(tmp_path)
        elif kind == "star":
            path = scenario_path("star_demo.json")
        else:
            rng = np.random.default_rng(0)
            path = tmp_path / "graph.json"
            path.write_text(json.dumps(pair_graph(random_smatrix(rng, 1, 1),
                                                  random_smatrix(rng, 1, 1))))
        sc = cli.load_scenario(str(path))
        run, verify = cli.SCENARIO_KINDS[sc["kind"]]
        names = []

        def verify_with_a_nan(sc, out):
            checks = verify(sc, out)
            names.extend(name for name, _ in checks)
            checks[index] = (checks[index][0], float("nan"))
            return checks

        monkeypatch.setitem(cli.SCENARIO_KINDS, sc["kind"], (run, verify_with_a_nan))
        assert cli.main(["--out", str(tmp_path), "verify", str(path)]) == 3
        captured = capsys.readouterr()
        assert f"{names[index]}: nan" in captured.out.splitlines()
        assert "within tolerance" not in captured.out
        assert captured.err == f"FAIL: {names[index]}: nan exceeds 1e-09\n"

    def test_nan_pipeline_gap_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(physics, "pipeline_gap",
                            lambda base, energies, closed: np.full(energies.shape, np.nan))
        assert cli.main(["--out", str(tmp_path), "verify", small_sweep(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "FAIL: closed form checked against the pipeline at 75 of 300 grid points: "
            "nan exceeds 1e-09\n")

    def test_nan_series_gap_exits_3(self, tmp_path, capsys, monkeypatch):
        def nan_series(s2, s1, wiring=None, tol=1e-14):
            direct = composer.star(s2, s1, wiring)
            return ScatteringMatrix._trusted(np.full_like(direct.matrix, np.nan), direct.spec)

        monkeypatch.setattr(composer, "star_via_series", nan_series)
        assert cli.main(["--out", str(tmp_path), "verify", scenario_path("star_demo.json")]) == 3
        assert capsys.readouterr().err == "FAIL: star/series gap: nan exceeds 1e-09\n"


def test_star_subcommand_is_gone(tmp_path, capsys):
    # Two scatterers are composed by a star-demo scenario through ``run``.
    paths = [str(tmp_path / name) for name in ("a.json", "b.json", "w.json")]
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path / "out"), "star", *paths])
    assert exc.value.code == 2
    assert "invalid choice: 'star'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fig2_csv_golden(tmp_path):
    # The paper's figure at 20k points: its bytes and its superactivation rows.
    assert cli.main(["--out", str(tmp_path), "--threads", "1", "run",
                     scenario_path("fig2_eps0.json")]) == 0
    data = (tmp_path / "fig2_eps0.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "653497b8d677691a083590278cafd0aad548a94fc7eff767b5d847d588400b86")
    flags = [line.rsplit(b",", 1)[1] for line in data.splitlines()[1:]]
    assert len(flags) == 20000 and flags.count(b"1") == 80


def test_run_is_deterministic(tmp_path):
    path = small_sweep(tmp_path)
    cli.main(["--out", str(tmp_path / "r1"), "--threads", "1", "run", path])
    cli.main(["--out", str(tmp_path / "r2"), "--threads", "3", "run", path])
    for name in ("fig2_eps0.csv", "fig2_eps0_transmission.svg", "fig2_eps0_capacity.svg"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


class TestScenarioBoundary:
    @pytest.mark.parametrize("name", ["../../x", "sub/x", "", ".", "..", 5, "a\x00b"])
    def test_name_outside_out_dir_exits_2(self, tmp_path, capsys, name):
        path = small_sweep(tmp_path, name=name)
        out = tmp_path / "a" / "b" / "out"
        assert cli.main(["--out", str(out), "run", path]) == 2
        assert "error:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["sweep.json"]

    @pytest.mark.parametrize("kind, keys, value", [
        ("graph", ("graph", "vertices", 0, "id"), "abc"),
        ("graph", ("graph", "vertices", 0, "smatrix", "spec", "left_in"), "one"),
        ("graph", ("graph", "vertices", 0, "smatrix", "matrix", "data", 0), [0, 0, 0]),
        ("graph", ("graph", "edges", 0), [[1, 1], [2, 0], [2, 1]]),
        ("star", ("s1", "matrix", "data", 0), [0, 0, 0]),
        ("star", ("s1", "matrix", "data", 0), ["a", 0]),
        ("star", ("wiring",), {"s1_to_s2": [["x", 0]], "s2_to_s1": [[0, 0]]}),
        ("star", ("wiring",), {"s1_to_s2": [[float("inf"), 0]], "s2_to_s1": [[0, 0]]}),
    ], ids=["vertex-id", "spec-count", "graph-entry", "three-port-edge", "star-entry",
            "star-entry-str", "wiring-slot", "wiring-slot-inf"])
    def test_malformed_json_exits_2(self, tmp_path, capsys, kind, keys, value):
        self.assert_edit_exits_2(tmp_path, capsys, kind, keys, value)

    @pytest.mark.parametrize("kind, keys, value", [
        ("star", ("s1", "spec", "left_in"), 1.7),
        ("star", ("s1", "spec", "dim"), True),
        ("star", ("s1", "matrix", "rows"), 2.5),
        ("star", ("wiring",), {"s1_to_s2": [[0.9, 0]], "s2_to_s1": [[0, 0]]}),
        ("star", ("wiring",), {"s1_to_s2": [[0, 0]], "s2_to_s1": [[0, False]]}),
        ("graph", ("graph", "vertices", 1, "id"), 2.5),
        ("graph", ("graph", "dangling_in", 1, 1), True),
        ("graph", ("graph", "edges", 0, 0, 1), 1.2),
        ("sweep", ("grid", "points"), 300.5),
        ("sweep", ("cross_check_every",), True),
    ], ids=["spec-count", "spec-dim", "matrix-rows", "wiring-slot", "wiring-slot-bool",
            "vertex-id", "dangling-slot-bool", "edge-slot", "grid-points",
            "cross-check-bool"])
    def test_fractional_or_boolean_count_exits_2(self, tmp_path, capsys, kind, keys, value):
        # Each parser of counts, ids and slots rejects these; none truncates.
        self.assert_edit_exits_2(tmp_path, capsys, kind, keys, value)

    @staticmethod
    def assert_edit_exits_2(tmp_path, capsys, kind, keys, value):
        """Run a bundled scenario with one field set to ``value``."""
        if kind == "graph":
            rng = np.random.default_rng(0)
            sc = pair_graph(random_smatrix(rng, 1, 1), random_smatrix(rng, 1, 1))
        elif kind == "star":
            sc = json.loads((SCENARIOS / "star_demo.json").read_text())
        else:
            sc = json.loads((SCENARIOS / "fig2_eps0.json").read_text())
            sc["grid"]["points"] = 300
        target = sc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(sc))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_markup_in_name_is_escaped(self, tmp_path):
        name = "a&b<c"
        assert cli.main(["--out", str(tmp_path), "run", small_sweep(tmp_path, name=name)]) == 0
        for suffix, title in (("transmission", "Transmission probabilities"),
                              ("capacity", "Capacity bounds")):
            root = ET.parse(tmp_path / f"{name}_{suffix}.svg").getroot()
            texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
            assert f"{title} ({name})" in texts


# sha256 of the 300-point small_sweep SVGs as written before the polylines were
# thinned: at most one sample per pixel column, so thinning must keep every byte.
SMALL_SWEEP_SVG_SHA256 = {
    "fig2_eps0_transmission.svg":
        "31e3264555b63e765816efce0718b287bbd9cd271afd158b3821ad34f2cb72ca",
    "fig2_eps0_capacity.svg":
        "d0e0057fa8f19e5d71bed70fc1ccfd3270b835004d45f18f3aa8df507dafc1fe",
}


class TestSvgEnvelope:
    def test_sparse_grid_bytes_unchanged(self, tmp_path):
        assert cli.main(["--out", str(tmp_path), "run", small_sweep(tmp_path)]) == 0
        for name, digest in SMALL_SWEEP_SVG_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_each_column_keeps_first_last_lowest_highest(self):
        # Values rounded to one digit tie often, so the first-index rule shows.
        n = 8000
        x = np.linspace(0.0, 1.0, n)
        y = np.round(np.random.default_rng(4).random(n), 1)
        svg = cli.svg_line_plot(x, [("y", y)], "t", "x", "y")
        points = re.search(r'<polyline points="([^"]*)"', svg).group(1)

        pw = cli._SVG_W - cli._ML - cli._MR
        xs = cli._ML + (x - x[0]) / (x[-1] - x[0]) * pw
        col = np.clip(np.floor(xs - cli._ML), 0, pw - 1)
        kept = set()
        for c in np.unique(col):
            idx = np.flatnonzero(col == c)
            kept |= {idx[0], idx[-1], idx[np.argmin(y[idx])], idx[np.argmax(y[idx])]}
        assert [p.split(",")[0] for p in points.split()] == [
            f"{xs[i]:.2f}" for i in sorted(kept)]

    @pytest.mark.parametrize("columns", [
        ("p_up_double", "p_dn_double", "p_up_single", "p_dn_single"),
        ("q_low_double", "q_up_double", "q_low_single", "q_up_single"),
    ])
    def test_dense_grid_keeps_column_extents(self, columns):
        sc = json.loads((SCENARIOS / "fig2_eps0.json").read_text())
        base, grid, _ = cli._sweep_inputs(sc)
        table = physics.energy_sweep(base, grid, cross_check_every=0)
        curves = [(c, getattr(table, c)) for c in columns]
        svg = cli.svg_line_plot(table.energy, curves, "t", "x", "y",
                                shade_mask=table.superactivated)

        # Reference pixel coordinates of every sample, as the writer maps them.
        pw = cli._SVG_W - cli._ML - cli._MR
        ph = cli._SVG_H - cli._MT - cli._MB
        x = table.energy
        y_lo = min(float(np.min(y)) for _, y in curves)
        y_hi = max(float(np.max(y)) for _, y in curves)
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
        xs = cli._ML + (x - x[0]) / (x[-1] - x[0]) * pw
        col = np.clip(np.floor(xs - cli._ML), 0, pw - 1).astype(int)
        col_of = {f"{v:.2f}": c for v, c in zip(xs, col)}
        assert len(col_of) == len(x)

        polylines = re.findall(r'<polyline points="([^"]*)"', svg)
        assert len(polylines) == len(curves)
        for (_, y), points in zip(curves, polylines):
            ys = np.array([float(f"{v:.2f}")
                           for v in cli._MT + (y_hi - y) / (y_hi - y_lo) * ph])
            pairs = [p.split(",") for p in points.split()]
            got_col = np.array([col_of[a] for a, _ in pairs])
            got_y = np.array([float(b) for _, b in pairs])
            assert np.all(np.diff([float(a) for a, _ in pairs]) > 0)
            assert np.bincount(got_col).max() <= 4
            for c in range(pw):
                full = ys[col == c]
                mine = got_y[got_col == c]
                assert mine.size and (mine.min(), mine.max()) == (full.min(), full.max())

        # Shaded bands come from the full mask, one <rect> per True run.
        mask = table.superactivated
        edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
        expected = []
        for a, b in zip(edges[::2], edges[1::2]):
            x0, x1 = xs[a], xs[min(b, len(x) - 1)]
            expected.append(
                f'<rect x="{x0:.2f}" y="{cli._MT}" width="{max(x1 - x0, 0.5):.2f}" '
                f'height="{ph}" fill="#f5c6c6" fill-opacity="0.6"/>'
            )
        assert expected
        assert [ln for ln in svg.splitlines() if 'fill="#f5c6c6"' in ln] == expected
