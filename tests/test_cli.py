"""Command-line behavior: exit codes, output schemas, reproducibility."""

import csv
import json
import os

import pytest

import energyshed
from energyshed.cli import main

CASE = """
function mpc = tiny
mpc.baseMVA = 100;
mpc.bus = [
    1  3  100.0  0  0  0  1  1  0  345  1  1.06  0.94;
    2  1    0.0  0  0  0  1  1  0  345  1  1.06  0.94;
    3  1    0.0  0  0  0  1  1  0  345  1  1.06  0.94;
];
mpc.branch = [
    1  2  0  0.05  0  0  0  0  0  0  1  -360  360;
    2  3  0  0.05  0  0  0  0  0  0  1  -360  360;
];
"""

PROFILES = """bus,kind,t1,t2
1,load,1.0,1.0
1,gen,0.2,0.2
"""


@pytest.fixture
def scenario_file(tmp_path):
    (tmp_path / "tiny.m").write_text(CASE)
    (tmp_path / "tiny.csv").write_text(PROFILES)
    cfg = {
        "case_file": "tiny.m",
        "profiles_file": "tiny.csv",
        "step_hours": 1.0,
        "partition": [[1]],
        "cap_plus": {"1": 0.3, "3": 10.0},
        "cap_minus": {"3": 10.0},
        "alpha": {"1": 1.0, "2": 1.0, "3": 1.0},
        "beta": {"1": 1.0, "2": 1.0, "3": 1.0},
        "flex_only_at_load_buses": False,
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args, out):
    return main(args + ["--out", str(out)])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestExitCodes:
    def test_validate_ok(self, scenario_file, tmp_path):
        assert run(["validate", "--scenario", scenario_file],
                   tmp_path / "o") == 0
        doc = json.loads((tmp_path / "o" / "validation.json").read_text())
        assert doc == {"ok": True, "violations": []}

    def test_validate_failure(self, scenario_file, tmp_path, capsys):
        cfg = json.loads(open(scenario_file).read())
        cfg["cap_plus"] = {"1": -5.0}
        bad = os.path.join(os.path.dirname(scenario_file), "bad.json")
        with open(bad, "w") as fh:
            json.dump(cfg, fh)
        assert run(["validate", "--scenario", bad], tmp_path / "o") == 2
        doc = json.loads((tmp_path / "o" / "validation.json").read_text())
        assert not doc["ok"]
        assert "negative-budget" in {v["code"] for v in doc["violations"]}
        assert "negative-budget" in capsys.readouterr().err

    def test_missing_scenario(self, tmp_path):
        assert run(["validate", "--scenario", "/no/such.json"],
                   tmp_path / "o") == 2

    def test_missing_required_key(self, scenario_file, tmp_path, capsys):
        cfg = json.loads(open(scenario_file).read())
        del cfg["partition"]
        bad = os.path.join(os.path.dirname(scenario_file), "nopart.json")
        with open(bad, "w") as fh:
            json.dump(cfg, fh)
        assert run(["solve-p1", "--scenario", bad, "--x-min", "0.4"],
                   tmp_path / "o") == 2
        assert "partition" in capsys.readouterr().err
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["exit_code"] == 2

    @pytest.mark.parametrize("floor", ["nan", '{"0": NaN}'],
                             ids=["scalar", "file"])
    def test_non_finite_floor(self, scenario_file, tmp_path, floor):
        if floor.startswith("{"):
            path = tmp_path / "floors.json"
            path.write_text(floor)
            floor = str(path)
        assert run(["solve-p1", "--scenario", scenario_file,
                    "--x-min", floor], tmp_path / "o") == 2

    @pytest.mark.parametrize("floor", ["[0.5]", '{"0": null}', '{"0": "0.4"}'],
                             ids=["list", "null-value", "string-value"])
    def test_malformed_floor_file(self, scenario_file, tmp_path, floor):
        path = tmp_path / "floors.json"
        path.write_text(floor)
        assert run(["solve-p1", "--scenario", scenario_file,
                    "--x-min", str(path)], tmp_path / "o") == 2
        assert (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("profiles", [
        "bus,kind,t1,t2\n1,load,1.0,1.0\n1,gen,nan,0.2\n",
        "bus,kind,t1,t2\n1,load,nan,1.0\n1,gen,0.2,0.2\n",
    ], ids=["gen", "load"])
    def test_non_finite_profile(self, scenario_file, tmp_path, profiles, capsys):
        (tmp_path / "tiny.csv").write_text(profiles)
        assert run(["validate", "--scenario", scenario_file],
                   tmp_path / "o") == 2
        assert "non-finite profile value" in capsys.readouterr().err
        assert (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("key, value, where", [
        ("cap_plus", {"1": None}, "cap_plus: bus 1"),
        ("cap_plus", [1, 2], "cap_plus"),
        ("alpha", {"1": [1, 2]}, "alpha: bus 1"),
        ("export_limits", None, "export_limits"),
        ("partition", [[None]], "partition: shed 0"),
        ("step_hours", None, "step_hours"),
        ("case_file", 5, "case_file"),
        ("flex_only_at_load_buses", "no", "flex_only_at_load_buses"),
        ("flex_only_at_load_buses", 1, "flex_only_at_load_buses"),
        ("flex_only_at_load_buses", None, "flex_only_at_load_buses"),
    ], ids=["null-budget", "list-budget", "list-weight", "null-limits",
            "null-shed-bus", "null-step-hours", "numeric-case-file",
            "string-flex-flag", "int-flex-flag", "null-flex-flag"])
    def test_malformed_scenario(self, scenario_file, tmp_path, capsys,
                                key, value, where):
        cfg = json.loads(open(scenario_file).read())
        cfg[key] = value
        bad = os.path.join(os.path.dirname(scenario_file), "bad.json")
        with open(bad, "w") as fh:
            json.dump(cfg, fh)
        assert run(["validate", "--scenario", bad], tmp_path / "o") == 2
        assert f"error: {where}" in capsys.readouterr().err
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["exit_code"] == 2

    def test_empty_shed(self, scenario_file, tmp_path, capsys):
        cfg = json.loads(open(scenario_file).read())
        cfg["partition"] = [[]]
        bad = os.path.join(os.path.dirname(scenario_file), "bad.json")
        with open(bad, "w") as fh:
            json.dump(cfg, fh)
        assert run(["validate", "--scenario", bad], tmp_path / "o") == 2
        assert "empty-shed" in capsys.readouterr().err
        doc = json.loads((tmp_path / "o" / "validation.json").read_text())
        assert {"code": "empty-shed", "message": "shed 0 has no buses",
                "location": "shed 0"} in doc["violations"]
        assert (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("args", [
        ["design-p4", "--zeta", "nan"],
        ["design-p4", "--zeta", "inf"],
        ["design-p4", "--zeta", "1.0", "--mesh", "nan"],
        ["design-p2", "--epsilon", "inf"],
        ["design-p2", "--epsilon", "0"],
        ["analyze", "--budget-step", "0"],
        ["analyze", "--budget-step", "nan"],
        ["analyze", "--max-budget", "inf"],
        ["analyze", "--max-budget", "-1"],
    ], ids=["zeta-nan", "zeta-inf", "mesh-nan", "epsilon-inf", "epsilon-zero",
            "budget-step-zero", "budget-step-nan", "max-budget-inf",
            "max-budget-negative"])
    def test_bad_numeric_flag(self, scenario_file, tmp_path, capsys, args):
        assert run(args[:1] + ["--scenario", scenario_file] + args[1:],
                   tmp_path / "o") == 2
        assert args[-2].lstrip("-") in capsys.readouterr().err
        assert (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("grid", ["5", "[null]", "[true]"],
                             ids=["number", "null-value", "bool-value"])
    def test_malformed_zeta_grid(self, scenario_file, tmp_path, grid):
        path = tmp_path / "zg.json"
        path.write_text(grid)
        assert run(["pareto", "--scenario", scenario_file,
                    "--zeta-grid", str(path)], tmp_path / "o") == 2
        assert (tmp_path / "o" / "manifest.json").exists()

    def test_empty_profiles(self, scenario_file, tmp_path, capsys):
        (tmp_path / "tiny.csv").write_text("")
        assert run(["validate", "--scenario", scenario_file],
                   tmp_path / "o") == 2
        assert "empty profile file" in capsys.readouterr().err
        assert (tmp_path / "o" / "manifest.json").exists()

    def test_infeasible_floor(self, scenario_file, tmp_path):
        # the linear frontier for bus 1 is 0.5; a floor of 5 cannot be met
        assert run(["solve-p1", "--scenario", scenario_file,
                    "--x-min", "5.0"], tmp_path / "o") == 3

    def test_solve_success(self, scenario_file, tmp_path):
        assert run(["solve-p1", "--scenario", scenario_file,
                    "--x-min", "0.4"], tmp_path / "o") == 0


class TestOutputs:
    def test_manifest_contents(self, scenario_file, tmp_path):
        run(["baseline", "--scenario", scenario_file], tmp_path / "o")
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["command"] == "baseline"
        assert man["exit_code"] == 0
        assert set(man["inputs"]) == {"tiny.json", "tiny.m", "tiny.csv"}
        assert all(len(h) == 64 for h in man["inputs"].values())
        assert {"energyshed", "numpy", "scipy", "python"} <= set(man["versions"])
        assert "report.csv" in man["outputs"]

    def test_manifest_version_matches_pyproject(self, scenario_file, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = os.path.join(os.path.dirname(__file__), os.pardir,
                                 "pyproject.toml")
        with open(pyproject, "rb") as fh:
            version = tomllib.load(fh)["project"]["version"]
        run(["validate", "--scenario", scenario_file], tmp_path / "o")
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert energyshed.__version__ == version
        assert man["versions"]["energyshed"] == version

    def test_p2_trace_schema(self, scenario_file, tmp_path):
        assert run(["design-p2", "--scenario", scenario_file,
                    "--epsilon", "1e-6"], tmp_path / "o") == 0
        rows = read_csv(tmp_path / "o" / "trace.csv")
        assert len(rows) <= 20
        assert set(rows[0]) == {"tau", "feasible"}
        assert {r["feasible"] for r in rows} <= {"true", "false"}
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["tau_star"] == pytest.approx(0.5, abs=2e-6)

    def test_p4_trace_schema(self, scenario_file, tmp_path):
        assert run(["design-p4", "--scenario", scenario_file,
                    "--zeta", "1e6", "--mesh", "0.25"], tmp_path / "o") == 0
        rows = read_csv(tmp_path / "o" / "trace.csv")
        assert set(rows[0]) == {"tau", "f_tau", "cost"}
        floats = [float(r["tau"]) for r in rows]
        assert floats == sorted(floats)
        assert any(r["f_tau"] == "-inf" for r in rows)  # beyond the frontier

    def test_pareto_schema(self, scenario_file, tmp_path):
        grid = tmp_path / "zg.json"
        grid.write_text("[0.01, 100.0]")
        assert run(["pareto", "--scenario", scenario_file, "--mesh", "0.25",
                    "--zeta-grid", str(grid)], tmp_path / "o") == 0
        rows = read_csv(tmp_path / "o" / "front.csv")
        assert [r["zeta"] for r in rows] == ["0.01", "100.0"]
        assert all(float(r["cost_normalized"]) >= 1.0 - 1e-6 for r in rows)

    def test_analyze_schema(self, scenario_file, tmp_path):
        assert run(["analyze", "--scenario", scenario_file,
                    "--budget-step", "0.5", "--max-budget", "1.0"],
                   tmp_path / "o") == 0
        rows = read_csv(tmp_path / "o" / "curves.csv")
        assert set(rows[0]) == {"shed", "budget", "budget_mwh", "max_ratio",
                                "mode"}
        # base ratio 0.2, unit slope in normalized budget
        ratios = [float(r["max_ratio"]) for r in rows]
        assert ratios == pytest.approx([0.2, 0.7, 1.2])

    def test_json_format(self, scenario_file, tmp_path):
        assert run(["baseline", "--scenario", scenario_file,
                    "--format", "json"], tmp_path / "o") == 0
        doc = json.loads((tmp_path / "o" / "report.json").read_text())
        assert "summary" in doc and "report" in doc
        assert doc["summary"]["base_mva"] == 100.0

    def test_x_min_file(self, scenario_file, tmp_path):
        floors = tmp_path / "floors.json"
        floors.write_text('{"0": 0.4}')
        assert run(["solve-p1", "--scenario", scenario_file,
                    "--x-min", str(floors)], tmp_path / "o") == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["min_ratio"] >= 0.4 - 1e-6


class TestReproducibility:
    def test_byte_identical_outputs(self, scenario_file, tmp_path):
        for d in ("a", "b"):
            assert run(["design-p2", "--scenario", scenario_file],
                       tmp_path / d) == 0
        for name in ("trace.csv", "report.csv", "summary.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        ma.pop("timestamp"), mb.pop("timestamp")
        assert ma == mb

    def test_threads_env_fallback(self, scenario_file, tmp_path, monkeypatch):
        monkeypatch.setenv("ESHED_THREADS", "3")
        assert run(["design-p4", "--scenario", scenario_file,
                    "--zeta", "1.0", "--mesh", "0.5"], tmp_path / "o") == 0
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["config"]["threads"] == 3
