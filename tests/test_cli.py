"""Command-line behavior: exit codes, output schemas, reproducibility."""

import csv
import hashlib
import json
import os

import pytest

import energyshed
from energyshed import cli, policy, problems
from energyshed.cli import main
from energyshed.netmodel import load_scenario

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


SCENARIO = {
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


def write_scenario(directory, scenario=SCENARIO):
    """tiny.m, tiny.csv and scenario as tiny.json in directory; the JSON's path."""
    (directory / "tiny.m").write_text(CASE)
    (directory / "tiny.csv").write_text(PROFILES)
    path = directory / "tiny.json"
    path.write_text(json.dumps(scenario))
    return str(path)


@pytest.fixture
def scenario_file(tmp_path):
    return write_scenario(tmp_path)


def run(args, out):
    return main(args + ["--out", str(out)])


def strict_json(path):
    """The parsed file; raises on a bare NaN, Infinity or -Infinity."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token} in {path}")
    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


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

    # json alone would keep the repeated shed's last floor
    @pytest.mark.parametrize("floor", ["[0.5]", '{"0": null}', '{"0": "0.4"}',
                                       '{"0": 0.1, "0": 0.9}'],
                             ids=["list", "null-value", "string-value", "repeated-shed"])
    def test_malformed_floor_file(self, scenario_file, tmp_path, floor):
        path = tmp_path / "floors.json"
        path.write_text(floor)
        assert run(["solve-p1", "--scenario", scenario_file,
                    "--x-min", str(path)], tmp_path / "o") == 2
        assert (tmp_path / "o" / "manifest.json").exists()

    def test_unknown_shed_in_floor_file(self, scenario_file, tmp_path, capsys):
        # every shed has its floor, but two keys name no shed
        path = tmp_path / "floors.json"
        path.write_text('{"0": 0.3, "99": 0.9, "x": 1}')
        assert run(["solve-p1", "--scenario", scenario_file,
                    "--x-min", str(path)], tmp_path / "o") == 2
        assert "unknown shed id(s): ['99', 'x']" in capsys.readouterr().err
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["exit_code"] == 2

    def test_floor_file_missing_shed(self, scenario_file, tmp_path, capsys):
        path = tmp_path / "floors.json"
        path.write_text('{"1": 0.3}')
        assert run(["solve-p1", "--scenario", scenario_file,
                    "--x-min", str(path)], tmp_path / "o") == 2
        assert "x-min file missing shed id(s): [0]" in capsys.readouterr().err
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["exit_code"] == 2

    def test_missing_floor_file(self, scenario_file, tmp_path, capsys):
        # a mistyped path is neither a file nor a number; say which
        assert run(["solve-p1", "--scenario", scenario_file,
                    "--x-min", "missing_floors.json"], tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "'missing_floors.json' is neither an existing file nor a number" in err
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["exit_code"] == 2

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

    @pytest.mark.parametrize("cmd", [["validate"], ["solve-p1", "--x-min", "0.5"]])
    def test_non_finite_case_token(self, scenario_file, tmp_path, capsys, cmd):
        (tmp_path / "tiny.m").write_text(CASE.replace("2  3  0  0.05", "2  3  0  nan"))
        assert run([cmd[0], "--scenario", scenario_file, *cmd[1:]], tmp_path / "o") == 2
        assert "non-finite numeric token 'nan' in mpc.branch (line 11, col 14)" \
            in capsys.readouterr().err
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["exit_code"] == 2

    @pytest.mark.parametrize("cmd", ["validate", "baseline"])
    def test_unknown_case_field_warns(self, scenario_file, tmp_path, capsys, cmd):
        (tmp_path / "tiny.m").write_text(CASE + "mpc.gen = [\n    1  0  0;\n];\n")
        assert run([cmd, "--scenario", scenario_file], tmp_path / "o") == 0
        assert "warning: mpc.gen ignored" in capsys.readouterr().err
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert [w.split()[0] for w in man["warnings"]] == ["mpc.gen"]

    def test_duplicate_shed_bus(self, scenario_file, tmp_path, capsys):
        cfg = json.loads(open(scenario_file).read())
        cfg["partition"] = [[1, 1]]
        bad = os.path.join(os.path.dirname(scenario_file), "bad.json")
        with open(bad, "w") as fh:
            json.dump(cfg, fh)
        assert run(["baseline", "--scenario", bad], tmp_path / "o") == 2
        assert "[duplicate-shed-bus]" in capsys.readouterr().err
        assert (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("key, value, where", [
        ("cap_plus", {"1": None}, "cap_plus: bus 1"),
        ("cap_plus", [1, 2], "cap_plus"),
        ("cap_plus", {"1": [0.3]}, "cap_plus: bus 1 needs 2 values, got 1"),
        ("alpha", {"1": [1, 2]}, "alpha: bus 1"),
        ("export_limits", None, "export_limits"),
        ("partition", [[None]], "partition: shed 0"),
        ("step_hours", None, "step_hours"),
        ("case_file", 5, "case_file"),
        ("flex_only_at_load_buses", "no", "flex_only_at_load_buses"),
        ("flex_only_at_load_buses", 1, "flex_only_at_load_buses"),
        ("flex_only_at_load_buses", None, "flex_only_at_load_buses"),
        ("cap_minus", {"x": 1.0}, "cap_minus: invalid bus id 'x'"),
        # int() reads these as buses 1 and 10: only canonical ids name a bus
        ("cap_plus", {"1": 0.3, "01": 0.0}, "cap_plus: invalid bus id '01'"),
        ("alpha", {"1_0": 99.0}, "alpha: invalid bus id '1_0'"),
        # a misspelled key would otherwise leave every budget, or the limit, at its default
        ("cap_plsu", {"1": 0.3}, "cap_plsu: unknown scenario key"),
        ("export_limits", {"uper": {"1": 0.1}}, "export_limits.uper: unknown key"),
    ], ids=["null-budget", "list-budget", "short-per-step-budget", "list-weight",
            "null-limits",
            "null-shed-bus", "null-step-hours", "numeric-case-file",
            "string-flex-flag", "int-flex-flag", "null-flex-flag",
            "non-integer-bus-id", "zero-padded-bus-id", "underscored-bus-id",
            "misspelled-key", "misspelled-limit-key"])
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

    @pytest.mark.parametrize("old, new, key", [
        ('"cap_plus": {"1": 0.3', '"cap_plus": {"1": 0.3, "1": 0.0', "'1'"),
        ('"step_hours": 1.0', '"step_hours": 1.0, "step_hours": 2.0', "'step_hours'"),
    ], ids=["per-bus", "top-level"])
    def test_repeated_key(self, scenario_file, tmp_path, capsys, old, new, key):
        # json keeps the last value of a repeated key; a scenario rejects it
        text = open(scenario_file).read()
        assert old in text
        with open(scenario_file, "w") as fh:
            fh.write(text.replace(old, new))
        assert run(["baseline", "--scenario", scenario_file], tmp_path / "o") == 2
        assert f"key {key} given twice" in capsys.readouterr().err
        assert strict_json(tmp_path / "o" / "manifest.json")["exit_code"] == 2

    def test_scenario_not_an_object(self, scenario_file, tmp_path, capsys):
        with open(scenario_file, "w") as fh:
            json.dump([SCENARIO], fh)
        assert run(["validate", "--scenario", scenario_file], tmp_path / "o") == 2
        assert "expected a JSON object" in capsys.readouterr().err
        assert strict_json(tmp_path / "o" / "manifest.json")["exit_code"] == 2

    def test_profiles_without_steps(self, scenario_file, tmp_path, capsys):
        (tmp_path / "tiny.csv").write_text("bus,kind\n1,load\n")
        assert run(["validate", "--scenario", scenario_file], tmp_path / "o") == 2
        assert "time grid must have at least one step" in capsys.readouterr().err
        assert strict_json(tmp_path / "o" / "manifest.json")["exit_code"] == 2

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

    @pytest.mark.parametrize("cmd", [["validate"], ["baseline"], ["design-p2"],
                                     ["design-p4", "--zeta", "1"], ["pareto"]],
                             ids=lambda c: c[0])
    def test_no_sheds(self, scenario_file, tmp_path, capsys, cmd):
        # no load and no shed: a located violation, not a failed shed sum
        (tmp_path / "tiny.csv").write_text("bus,kind,t1,t2\n")
        cfg = json.loads(open(scenario_file).read())
        cfg["partition"] = []
        with open(scenario_file, "w") as fh:
            json.dump(cfg, fh)
        assert run([cmd[0], "--scenario", scenario_file, *cmd[1:]], tmp_path / "o") == 2
        assert "validation: [no-sheds] partition has no sheds (partition)" \
            in capsys.readouterr().err
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["exit_code"] == 2

    def test_analyze_names_the_failing_shed(self, scenario_file, tmp_path, capsys):
        # shed 0's generation covers its load: no deficit to analyze
        (tmp_path / "tiny.csv").write_text(PROFILES.replace("gen,0.2,0.2", "gen,1.5,1.5"))
        assert run(["analyze", "--scenario", scenario_file], tmp_path / "o") == 2
        assert "error: shed 0: community must have a pre-flexibility energy deficit" \
            in capsys.readouterr().err
        assert (tmp_path / "o" / "manifest.json").exists()

    def test_analyze_limits_without_export_limits(self, scenario_file, tmp_path, capsys):
        assert run(["analyze", "--scenario", scenario_file, "--mode", "limits"],
                   tmp_path / "o") == 2
        assert "scenario has no export limits" in capsys.readouterr().err
        assert (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("args", [
        ["design-p4", "--zeta", "nan"],
        ["design-p4", "--zeta", "inf"],
        ["design-p4", "--zeta", "1.0", "--mesh", "nan"],
        ["design-p2", "--epsilon", "inf"],
        ["design-p2", "--epsilon", "0"],
        ["design-p2", "--epsilon", "1e-310"],
        ["analyze", "--budget-step", "0"],
        ["analyze", "--budget-step", "nan"],
        ["analyze", "--max-budget", "inf"],
        ["analyze", "--max-budget", "-1"],
        ["design-p4", "--zeta", "1.0", "--threads", "0"],
        ["design-p4", "--zeta", "1.0", "--threads", "-1"],
        ["pareto", "--threads", "0"],
        ["pareto", "--threads", "-1"],
        ["solve-p1", "--x-min", "0.4", "--threads", "0"],
        ["baseline", "--threads", "0"],
        ["validate", "--threads", "-1"],
        ["analyze", "--threads", "0"],
        ["design-p2", "--threads", "-3"],
        # grids of more than a million points: found before numpy builds them
        ["design-p4", "--zeta", "1.0", "--mesh", "1e-9"],
        ["pareto", "--mesh", "1e-13"],
        ["analyze", "--budget-step", "1e-14"],
    ], ids=["zeta-nan", "zeta-inf", "mesh-nan", "epsilon-inf", "epsilon-zero",
            "epsilon-below-float-spacing",
            "budget-step-zero", "budget-step-nan", "max-budget-inf",
            "max-budget-negative", "p4-threads-zero", "p4-threads-negative",
            "pareto-threads-zero", "pareto-threads-negative", "p1-threads-zero",
            "baseline-threads-zero", "validate-threads-negative",
            "analyze-threads-zero", "p2-threads-negative", "p4-mesh-too-fine",
            "pareto-mesh-too-fine", "budget-step-too-fine"])
    def test_bad_numeric_flag(self, scenario_file, tmp_path, capsys, args):
        assert run(args[:1] + ["--scenario", scenario_file] + args[1:],
                   tmp_path / "o") == 2
        assert args[-2].lstrip("-") in capsys.readouterr().err
        strict_json(tmp_path / "o" / "manifest.json")

    @pytest.mark.parametrize("grid", ["5", "[null]", "[true]", "[2.0, 1.0]",
                                      "[-1.0, 1.0]", "[]"],
                             ids=["number", "null-value", "bool-value",
                                  "descending", "negative", "empty"])
    def test_malformed_zeta_grid(self, scenario_file, tmp_path, grid):
        path = tmp_path / "zg.json"
        path.write_text(grid)
        assert run(["pareto", "--scenario", scenario_file,
                    "--zeta-grid", str(path)], tmp_path / "o") == 2
        assert (tmp_path / "o" / "manifest.json").exists()

    def test_bad_zeta_grid_rejected_before_any_solve(self, scenario_file, tmp_path,
                                                     monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(policy, "evaluate_f_tau", lambda *a: calls.append(a))
        monkeypatch.setattr(policy, "solve_qp", lambda *a: calls.append(a))
        path = tmp_path / "zg.json"
        path.write_text("[1.0, 10.0, Infinity]")
        assert run(["pareto", "--scenario", scenario_file, "--mesh", "0.25",
                    "--zeta-grid", str(path)], tmp_path / "o") == 2
        assert "zeta grid" in capsys.readouterr().err
        assert calls == []
        strict_json(tmp_path / "o" / "manifest.json")

    def test_case_file_is_a_directory(self, scenario_file, tmp_path):
        # the manifest hashes only the inputs that are files
        cfg = json.loads(open(scenario_file).read())
        cfg["case_file"] = "."
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run(["validate", "--scenario", str(bad)], tmp_path / "o") == 2
        man = strict_json(tmp_path / "o" / "manifest.json")
        assert set(man["inputs"]) == {"bad.json", "tiny.csv"}

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

    @pytest.mark.parametrize("args", [
        ["solve-p1", "--x-min", "0.4"], ["baseline"], ["design-p2"],
        ["design-p4", "--zeta", "1e6", "--mesh", "0.25"], ["pareto", "--mesh", "0.25"],
    ], ids=lambda a: a[0])
    def test_unconverged_solve(self, scenario_file, tmp_path, monkeypatch, args):
        # every solve ends max_iter: a solver failure on every command
        solve = problems.solve_qp

        def capped(prog):
            sol = solve(prog)
            sol.status = "max_iter"
            return sol

        for mod in (cli, policy, problems):
            monkeypatch.setattr(mod, "solve_qp", capped)
        assert run([args[0], "--scenario", scenario_file, *args[1:]],
                   tmp_path / "o") == 4
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["exit_code"] == 4

    @pytest.mark.parametrize("args", [
        ["design-p4", "--zeta", "1e6", "--mesh", "0.25"], ["pareto", "--mesh", "0.25"],
    ], ids=lambda a: a[0])
    def test_unconverged_floor(self, scenario_file, tmp_path, monkeypatch, capsys, args):
        # floor 0.5, inside [0, 1] and solved by both sweeps, ends max_iter;
        # the baseline and every other floor converge.  The floor solves run
        # one at a time, each built just before it is solved.
        build, solve = problems.build_p1, problems.solve_qp
        floors = []

        def recording(scenario, x_min):
            floors.append(float(x_min))
            return build(scenario, x_min)

        def capped(prog):
            sol = solve(prog)
            if floors[-1] == 0.5:
                sol.status = "max_iter"
            return sol

        monkeypatch.setattr(problems, "build_p1", recording)
        monkeypatch.setattr(problems, "solve_qp", capped)
        assert run([args[0], "--scenario", scenario_file, *args[1:]],
                   tmp_path / "o") == 4
        assert 0.5 in floors and "max_iter" in capsys.readouterr().err
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["exit_code"] == 4


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
        assert man["warnings"] == []
        # a floor file and a zeta grid file are inputs too
        floors, grid = tmp_path / "floors.json", tmp_path / "zg.json"
        floors.write_text('{"0": 0.4}')
        grid.write_text("[0.01, 100.0]")
        for args, extra in ((["solve-p1", "--x-min", str(floors)], floors),
                            (["pareto", "--mesh", "0.25", "--zeta-grid", str(grid)], grid)):
            out = tmp_path / args[0]
            assert run([args[0], "--scenario", scenario_file, *args[1:]], out) == 0
            with_file = json.loads((out / "manifest.json").read_text())["inputs"]
            assert with_file == {**man["inputs"],
                                 extra.name: hashlib.sha256(extra.read_bytes()).hexdigest()}

    def test_inputs_with_one_file_name_keep_both_hashes(self, scenario_file, tmp_path):
        # a floor file named like the scenario, in another directory
        floors = tmp_path / "collide" / "tiny.json"
        floors.parent.mkdir()
        floors.write_text('{"0": 0.4}')
        assert run(["solve-p1", "--scenario", scenario_file, "--x-min", str(floors)],
                   tmp_path / "o") == 0
        inputs = json.loads((tmp_path / "o" / "manifest.json").read_text())["inputs"]
        assert inputs == {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("tiny.json", "tiny.m", "tiny.csv", os.path.join("collide", "tiny.json"))}

    def test_non_finite_values_are_strict_json(self, scenario_file, tmp_path):
        # floors beyond the frontier have f = -inf and cost inf; the JSON
        # files spell them as the CSV does
        assert run(["design-p4", "--scenario", scenario_file, "--zeta", "1e6",
                    "--mesh", "0.25", "--format", "json"], tmp_path / "o") == 0
        rows = strict_json(tmp_path / "o" / "trace.json")["trace"]
        assert {"f_tau": "-inf", "cost": "inf"}.items() <= rows[-1].items()
        strict_json(tmp_path / "o" / "manifest.json")

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

    def test_designs_reach_past_one(self, scenario_file, tmp_path):
        # bus 3 absorbs outside the shed, so both designs search up to the
        # shed's own bound (0.4 + 2 * 2.0) / 2 = 2.2, not 1
        with open(scenario_file) as fh:
            cfg = json.load(fh)
        cfg["cap_plus"]["1"] = 2.0
        with open(scenario_file, "w") as fh:
            json.dump(cfg, fh)
        assert run(["design-p2", "--scenario", scenario_file], tmp_path / "p2") == 0
        summary = json.loads((tmp_path / "p2" / "summary.json").read_text())
        assert summary["tau_star"] == pytest.approx(2.2, abs=2e-6)
        assert run(["design-p4", "--scenario", scenario_file, "--zeta", "1e9",
                    "--mesh", "0.1"], tmp_path / "p4") == 0
        summary = json.loads((tmp_path / "p4" / "summary.json").read_text())
        assert abs(summary["tau_star"] - 2.2) <= 0.1 + 1e-9

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

    def test_analyze_limits(self, scenario_file, tmp_path):
        # a per-step export limit of 1 at bus 1: the unconstrained line up to
        # budget 1, then spilled capacity inflates the demand
        cfg = json.loads(open(scenario_file).read())
        cfg["export_limits"] = {"upper": {"1": [1.0, 1.0]}}
        with open(scenario_file, "w") as fh:
            json.dump(cfg, fh)
        assert run(["analyze", "--scenario", scenario_file, "--mode", "limits",
                    "--budget-step", "1.0", "--max-budget", "2.0"], tmp_path / "o") == 0
        rows = read_csv(tmp_path / "o" / "curves.csv")
        assert {r["mode"] for r in rows} == {"limits"}
        assert [float(r["max_ratio"]) for r in rows] == pytest.approx([0.2, 1.2, 1.1])

    def test_per_step_budget(self, scenario_file, tmp_path):
        cfg = json.loads(open(scenario_file).read())
        cfg["cap_plus"]["1"] = [0.3, 0.1]
        with open(scenario_file, "w") as fh:
            json.dump(cfg, fh)
        assert run(["validate", "--scenario", scenario_file], tmp_path / "o") == 0
        assert load_scenario(scenario_file).budgets.cap_plus[0].tolist() == [0.3, 0.1]

    def test_defaults_are_the_designs_own(self, scenario_file, tmp_path):
        # the manifest records the epsilon and mesh that a design ran with
        parse = cli.build_parser().parse_args
        for cmd in (["design-p4", "--zeta", "1"], ["pareto"]):
            assert parse([cmd[0], "--scenario", scenario_file, *cmd[1:]]).mesh == policy.MESH
        assert run(["design-p2", "--scenario", scenario_file], tmp_path / "o") == 0
        man = strict_json(tmp_path / "o" / "manifest.json")
        assert man["config"]["epsilon"] == policy.EPSILON == 1e-6

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

    @pytest.mark.parametrize("args", [
        ["design-p4", "--zeta", "50", "--mesh", "0.1"], ["pareto", "--mesh", "0.25"],
    ], ids=lambda a: a[0])
    def test_threads_do_not_change_results(self, scenario_file, tmp_path, args):
        # --threads is accepted and recorded, and changes no result file
        for n in ("1", "3"):
            assert run([args[0], "--scenario", scenario_file, *args[1:], "--threads", n],
                       tmp_path / n) == 0
        names = sorted(os.listdir(tmp_path / "1"))
        assert names == sorted(os.listdir(tmp_path / "3"))
        for name in names:
            if name != "manifest.json":
                assert (tmp_path / "1" / name).read_bytes() == \
                    (tmp_path / "3" / name).read_bytes(), name
        m1, m3 = (strict_json(tmp_path / n / "manifest.json") for n in ("1", "3"))
        assert (m1["config"]["threads"], m3["config"]["threads"]) == (1, 3)
