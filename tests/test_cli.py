"""CLI: exit codes, report contents, round trips, byte-identical reruns."""

import json
import math
import subprocess
import sys

import pytest

from isingmax.cli import main
from isingmax.model import load_model, parse_model, serialize_model


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def two_vertex_model(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(
        '{"vertices": [{"id": 0, "h": 0.0, "a": 1.0}, {"id": 1, "h": 0.0, "a": 1.0}],'
        ' "edges": [{"u": 0, "v": 1, "beta": 0.3}]}'
    )
    return path


class TestGen:
    def test_file_round_trips_byte_identically(self, tmp_path):
        out = tmp_path / "m.json"
        assert run_cli("gen", "--n", 10, "--seed", 42, "--out", out) == 0
        text = out.read_text()
        model, weights = parse_model(text)
        assert serialize_model(model, weights) == text
        assert model.n == 10

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("gen", "--n", 8, "--seed", 5, "--out", a)
        run_cli("gen", "--n", 8, "--seed", 5, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestSolve:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run_cli("solve", tmp_path / "nope.json", "--radius", 1) == 2
        assert "error" in capsys.readouterr().err

    def test_two_vertex_value(self, two_vertex_model, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("solve", two_vertex_model, "--k", 1, "--radius", 3, "--out", out)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["command"] == "solve"
        assert report["solution"]["global_value"] == pytest.approx(
            1 + math.tanh(0.3), abs=1e-12
        )
        assert report["solution"]["S_hat"] == [0]

    def test_needs_radius_or_delta(self, two_vertex_model):
        assert run_cli("solve", two_vertex_model) == 2

    def test_formula_radius_with_delta(self, two_vertex_model, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("solve", two_vertex_model, "--delta", 0.24, "--out", out)
        assert code == 0
        report = json.loads(out.read_text())
        # formula radius is huge but gets capped at the diameter (1)
        assert report["solution"]["radius_used"] == 1

    def test_capacity_exit_3(self, tmp_path, capsys):
        path = tmp_path / "path.json"
        run_cli("gen", "--n", 12, "--seed", 0, "--out", path)
        assert run_cli("solve", path, "--radius", 6, "--exact-ball-cap", 2) == 3
        assert "capacity" in capsys.readouterr().err

    def test_best_effort_warns_instead(self, tmp_path):
        path = tmp_path / "path.json"
        run_cli("gen", "--n", 12, "--seed", 0, "--out", path)
        out = tmp_path / "report.json"
        code = run_cli("solve", path, "--radius", 6, "--exact-ball-cap", 2,
                       "--best-effort", "--out", out)
        assert code == 0
        report = json.loads(out.read_text())
        assert any("best-effort" in w for w in report["solution"]["diagnostics"]["warnings"])

    def test_byte_identical_reruns(self, tmp_path):
        path = tmp_path / "m.json"
        run_cli("gen", "--n", 10, "--seed", 3, "--out", path)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli("solve", path, "--k", 2, "--radius", 4, "--out", r1)
        run_cli("solve", path, "--k", 2, "--radius", 4, "--out", r2)
        assert r1.read_bytes() == r2.read_bytes()

    def test_config_file_precedence(self, two_vertex_model, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"k": 1, "epsilon": 0.25, "radius": 2}')
        out = tmp_path / "report.json"
        assert run_cli("solve", two_vertex_model, "--config", cfg, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["inputs"]["config"]["epsilon"] == 0.25
        # explicit flag beats the file
        assert run_cli("solve", two_vertex_model, "--config", cfg,
                       "--epsilon", 0.5, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["inputs"]["config"]["epsilon"] == 0.5


class TestOracle:
    def test_guard_without_force(self, tmp_path):
        path = tmp_path / "big.json"
        run_cli("gen", "--n", 17, "--seed", 1, "--out", path)
        assert run_cli("oracle", path, "--k", 1) == 2

    def test_edgeless_full_budget(self, tmp_path):
        path = tmp_path / "iso.json"
        path.write_text(json.dumps({
            "vertices": [{"id": i, "h": 0.0, "a": 1.0} for i in range(3)],
            "edges": [],
        }))
        out = tmp_path / "report.json"
        assert run_cli("oracle", path, "--k", 3, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["solution"]["global_value"] == pytest.approx(3.0, abs=1e-12)

    def test_radius_zero_edgeless_equals_oracle(self, tmp_path):
        path = tmp_path / "iso.json"
        path.write_text(json.dumps({
            "vertices": [{"id": i, "h": 0.1 * i - 0.2, "a": 1.0} for i in range(4)],
            "edges": [],
        }))
        s_out, o_out = tmp_path / "s.json", tmp_path / "o.json"
        assert run_cli("solve", path, "--k", 2, "--radius", 0, "--out", s_out) == 0
        assert run_cli("oracle", path, "--k", 2, "--out", o_out) == 0
        s = json.loads(s_out.read_text())["solution"]
        o = json.loads(o_out.read_text())["solution"]
        assert s["global_value"] == pytest.approx(o["global_value"], abs=1e-12)
        assert s["S_hat"] == o["S_hat"]

    def test_matches_solver_on_seeded_instance(self, tmp_path):
        path = tmp_path / "m.json"
        run_cli("gen", "--n", 12, "--seed", 9, "--out", path)
        s_out, o_out = tmp_path / "s.json", tmp_path / "o.json"
        run_cli("solve", path, "--k", 2, "--radius", 11, "--out", s_out)
        run_cli("oracle", path, "--k", 2, "--out", o_out)
        solver_v = json.loads(s_out.read_text())["solution"]["global_value"]
        oracle_v = json.loads(o_out.read_text())["solution"]["global_value"]
        assert solver_v >= oracle_v - 0.1


class TestCompare:
    def test_csv_schema_and_gap(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run_cli("compare", "--gen", 5, "--n", 10, "--seed", 100,
                       "--k", 2, "--epsilon", 0.1, "--out", out)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "instance_id,n,k,epsilon,r,solver_value,oracle_value,gap,wall_time"
        assert len(lines) == 6
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[7]) <= 0.1  # gap within epsilon
            assert fields[8] == ""  # no timing by default

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("compare", "--gen", 3, "--n", 9, "--seed", 7, "--out", a)
        run_cli("compare", "--gen", 3, "--n", 9, "--seed", 7, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_model_files(self, two_vertex_model, tmp_path):
        out = tmp_path / "cmp.csv"
        assert run_cli("compare", two_vertex_model, "--k", 1, "--out", out) == 0
        line = out.read_text().strip().splitlines()[1]
        assert line.startswith("edge,2,1,")

    def test_nothing_to_do_exits_2(self):
        assert run_cli("compare") == 2


class TestSample:
    def test_runs_and_reports(self, two_vertex_model, tmp_path):
        out = tmp_path / "sample.json"
        code = run_cli("sample", two_vertex_model, "--pin", "0:+1",
                       "--samples", 4000, "--seed", 5, "--out", out)
        assert code == 0
        report = json.loads(out.read_text())
        est = report["estimate"]
        assert abs(est["influence"] - (1 + math.tanh(0.3))) <= 4 * est["stderr"] + 0.05

    def test_byte_identical_reruns(self, tmp_path):
        model = tmp_path / "m.json"
        run_cli("gen", "--n", 10, "--seed", 4, "--out", model)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (r1, r2):
            assert run_cli("sample", model, "--pin", "0:+1,7:-1", "--samples", 500,
                           "--seed", 9, "--out", out) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_diagnostics_only_under_timing(self, tmp_path):
        model = tmp_path / "m.json"
        run_cli("gen", "--n", 10, "--seed", 4, "--out", model)
        plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
        args = ("sample", model, "--pin", "3:+1", "--samples", 200, "--thin", 15, "--seed", 2)
        assert run_cli(*args, "--out", plain) == 0
        assert run_cli(*args, "--timing", "--out", timed) == 0
        plain_report = json.loads(plain.read_text())
        timed_report = json.loads(timed.read_text())
        assert list(plain_report["estimate"]) == ["influence", "stderr"]
        assert "wall_time" not in plain_report
        diagnostics = timed_report["estimate"].pop("diagnostics")
        assert timed_report["estimate"] == plain_report["estimate"]
        burn_in = plain_report["inputs"]["config"]["burn_in"]
        assert diagnostics["sweeps"] == math.ceil(burn_in / 10) + 2 * 200
        assert diagnostics["site_updates"] == 10 * diagnostics["sweeps"]
        assert 0.0 < diagnostics["agree_fraction"] < 1.0

    def test_bad_pin_syntax(self, two_vertex_model):
        assert run_cli("sample", two_vertex_model, "--pin", "0=up") == 2

    def test_low_temperature_warning(self, tmp_path):
        path = tmp_path / "cold.json"
        path.write_text(json.dumps({
            "vertices": [{"id": 0, "h": 0.0, "a": 1.0}, {"id": 1, "h": 0.0, "a": 1.0}],
            "edges": [{"u": 0, "v": 1, "beta": 2.5}],
        }))
        out = tmp_path / "report.json"
        assert run_cli("sample", path, "--pin", "0:+1", "--samples", 100,
                       "--seed", 0, "--out", out) == 0
        report = json.loads(out.read_text())
        assert any("low-temperature" in w for w in report["warnings"])


class TestEstimateMarginal:
    def test_single_vertex_band(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({
            "vertices": [{"id": 0, "h": 0.3, "a": 1.0}], "edges": [],
        }))
        out = tmp_path / "report.json"
        code = run_cli("estimate-marginal", path, "--vertex", 0, "--out", out)
        assert code == 0
        report = json.loads(out.read_text())
        assert 0.2713 <= report["estimate"]["expectation"] <= 0.3113
        assert report["estimate"]["probes"]

    def test_unknown_vertex_exits_2(self, two_vertex_model):
        assert run_cli("estimate-marginal", two_vertex_model, "--vertex", 9) == 2

    def test_local_reports_rerun_identically_with_counts_only_under_timing(self, tmp_path):
        from isingmax import build_gadget, enumerate_connected_clusters, graph_diameter

        model = tmp_path / "m.json"
        run_cli("gen", "--n", 10, "--seed", 3, "--out", model)
        args = ("estimate-marginal", model, "--vertex", 2, "--k", 2, "--solver", "local",
                "--tolerance", 0.05)
        a, b, t = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "t.json"
        assert run_cli(*args, "--out", a) == 0
        assert run_cli(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        est = json.loads(a.read_text())["estimate"]
        assert list(est) == ["expectation", "probability_plus", "probes"]

        assert run_cli(*args, "--timing", "--out", t) == 0
        timed = json.loads(t.read_text())["estimate"]
        assert timed["probes"] == est["probes"]
        diag = timed["diagnostics"]
        probes = len(est["probes"])
        gadget = build_gadget(load_model(model)[0], 2, 2, 0.0).augmented
        clusters = len(enumerate_connected_clusters(gadget, 2, graph_diameter(gadget)))
        # one graph per search; each later probe re-scores its k singletons
        assert diag == {"probes": probes, "cluster_graphs_built": 1,
                        "clusters_scored": clusters + 2 * (probes - 1)}


def test_nonconvergence_exits_4(tmp_path, monkeypatch, capsys):
    from isingmax.errors import ConvergenceError
    from isingmax import cli

    path = tmp_path / "one.json"
    path.write_text('{"vertices": [{"id": 0, "h": 0.0, "a": 1.0}], "edges": []}')

    def boom(*args, **kwargs):
        raise ConvergenceError("did not converge", trace=[])

    monkeypatch.setattr(cli.reduction, "binary_search_marginal", boom)
    assert run_cli("estimate-marginal", path, "--vertex", 0) == 4
    assert "convergence" in capsys.readouterr().err


def test_thread_env_does_not_change_output(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("compare", "--gen", 4, "--n", 9, "--seed", 3, "--out", a)
    monkeypatch.setenv("ISINGMAX_THREADS", "4")
    run_cli("compare", "--gen", 4, "--n", 9, "--seed", 3, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_entry_point_runs_as_module(tmp_path):
    path = tmp_path / "m.json"
    run_cli("gen", "--n", 6, "--seed", 2, "--out", path)
    proc = subprocess.run(
        [sys.executable, "-m", "isingmax.cli", "solve", str(path), "--radius", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "solve"


def test_timing_flag_adds_wall_time(two_vertex_model, tmp_path):
    out = tmp_path / "t.json"
    run_cli("solve", two_vertex_model, "--radius", 1, "--timing", "--out", out)
    report = json.loads(out.read_text())
    assert report["wall_time"] > 0
