"""Parser, profile, scenario-loading and validation tests."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import data_path, make_line_scenario
from energyshed.netmodel import (
    Branch,
    Bus,
    CaseParseError,
    Network,
    Partition,
    ProfileError,
    Profiles,
    TimeGrid,
    induced_subgraph_connected,
    load_scenario,
    parse_matpower_case,
    parse_profiles,
    profiles_to_csv,
    serialize_network_case,
    validate_scenario,
)
from energyshed.problems import BuildError, build_p1
from oracles import baseline_ratio, total_demand

TRIVIAL_CASE = """
function mpc = case3
% three buses on a string
mpc.baseMVA = 100;
mpc.bus = [
    1  3  90.0  0  0  0  1  1  0  345  1  1.06  0.94;
    2  1   0.0  0  0  0  1  1  0  345  1  1.06  0.94;
    3  1  50.0  0  0  0  1  1  0  345  1  1.06  0.94;
];
mpc.branch = [
    1  2  0  0.02  0  250  0  0  0  0  1  -360  360;
    2  3  0  0.05  0    0  0  0  0  0  1  -360  360;
];
"""


class TestCaseParser:
    def test_trivial_case(self):
        net = parse_matpower_case(TRIVIAL_CASE)
        assert net.bus_ids() == [1, 2, 3]
        assert net.base_mva == 100
        assert net.reference_bus == 1
        assert net.branches[0].flow_limit == pytest.approx(2.5)  # rateA / base
        assert math.isinf(net.branches[1].flow_limit)            # rateA = 0
        assert net.branches[1].reactance == pytest.approx(0.05)

    def test_reference_defaults_to_lowest_id(self):
        text = TRIVIAL_CASE.replace("1  3  90.0", "1  1  90.0")
        assert parse_matpower_case(text).reference_bus == 1

    def test_unknown_field_warning(self):
        seen = []
        parse_matpower_case(TRIVIAL_CASE + "\nmpc.gencost = [];\n",
                            warn=seen.append)
        assert seen == ["gencost"]

    def test_duplicate_bus_rejected(self):
        text = TRIVIAL_CASE.replace("2  1   0.0", "1  1   0.0")
        with pytest.raises(CaseParseError, match="duplicate bus id 1"):
            parse_matpower_case(text)

    def test_branch_to_unknown_bus(self):
        text = TRIVIAL_CASE.replace("2  3  0  0.05", "2  9  0  0.05")
        with pytest.raises(CaseParseError, match="unknown bus 9"):
            parse_matpower_case(text)

    def test_nonpositive_reactance(self):
        text = TRIVIAL_CASE.replace("0.05", "0.0")
        with pytest.raises(CaseParseError, match="nonpositive reactance"):
            parse_matpower_case(text)

    def test_negative_rate_a(self):
        text = TRIVIAL_CASE.replace("0.02  0  250", "0.02  0  -250")
        with pytest.raises(CaseParseError, match="negative rateA on branch 1-2") as exc:
            parse_matpower_case(text)
        assert exc.value.line == 11

    def test_missing_base_mva(self):
        text = TRIVIAL_CASE.replace("mpc.baseMVA = 100;", "")
        with pytest.raises(CaseParseError, match="baseMVA"):
            parse_matpower_case(text)

    def test_syntax_error_reports_line(self):
        text = TRIVIAL_CASE.replace("2  3  0  0.05", "2  3  0  oops")
        with pytest.raises(CaseParseError) as exc:
            parse_matpower_case(text)
        assert exc.value.line is not None

    @pytest.mark.parametrize("old, new, line, col", [
        ("mpc.baseMVA = 100;", "mpc.baseMVA = inf;", 4, 15),
        ("3  1  50.0", "3  1  NaN", 8, 11),
        ("0.05  0    0", "nan  0    0", 12, 14),
        ("0.02  0  250", "0.02  0  -Inf", 11, 23),
    ], ids=["base-mva", "bus-load", "branch-reactance", "branch-rate"])
    def test_non_finite_token_reports_line_and_column(self, old, new, line, col):
        text = TRIVIAL_CASE.replace(old, new)
        with pytest.raises(CaseParseError, match="non-finite numeric token") as exc:
            parse_matpower_case(text)
        assert (exc.value.line, exc.value.col) == (line, col)

    @pytest.mark.parametrize("old, new", [
        ("mpc.baseMVA = 100;", "mpc.baseMVA = 100;  % system base"),
        ("mpc.bus = [", "mpc.bus=["),
        ("mpc.branch = [\n    1  2  0  0.02  0  250  0  0  0  0  1  -360  360;\n"
         "    2  3  0  0.05  0    0  0  0  0  0  1  -360  360;\n];",
         "mpc.branch = [1 2 0 0.02 0 250 0 0 0 0 1 -360 360; "
         "2 3 0 0.05 0 0 0 0 0 0 1 -360 360];"),
        ("mpc.baseMVA = 100;", "mpc.baseMVA\t=\t100 ;"),
    ], ids=["comment-after-base-mva", "no-blanks", "one-line-matrix", "tabs"])
    def test_equivalent_spellings(self, old, new):
        assert old in TRIVIAL_CASE
        text = TRIVIAL_CASE.replace(old, new)
        assert parse_matpower_case(text) == parse_matpower_case(TRIVIAL_CASE)

    @pytest.mark.parametrize("old, new, match, line", [
        ("mpc.baseMVA = 100;", "mpc.baseMVA = 1 00;",
         r"invalid numeric token '1 00' in mpc.baseMVA \(line 4, col 15\)", 4),
        ("mpc.baseMVA = 100;", "mpc.baseMVA = 100;\nmpc.baseMVA = 10;",
         "mpc.baseMVA assigned twice", 5),
        ("mpc.bus = [", "mpc.bus = zeros(3, 13);\n", "must be a", 5),
        ("360;\n];", "360;\n", "unterminated matrix mpc.branch", 10),
        ("2  1   0.0", "2.5  1   0.0", r"non-integer bus id or type \[2.5, 1.0\]", 7),
        ("3  1  50.0", "3  1.5  50.0", "non-integer bus id or type", 8),
        ("2  3  0  0.05", "2  3.5  0  0.05", r"non-integer branch end buses \[2.0, 3.5\]", 12),
        ("2  3  0  0.05", "2  2  0  0.05", "branch connects bus 2 to itself", 12),
        ("mpc.baseMVA = 100;", "mpc.baseMVA = 0;", "baseMVA must be positive", None),
        ("mpc.baseMVA = 100;", "mpc.baseMVA = -100;", "baseMVA must be positive", None),
    ], ids=["base-mva-blank", "assigned-twice", "bus-not-matrix", "unterminated",
            "bus-id", "bus-type", "branch-end", "self-loop", "base-mva-zero",
            "base-mva-negative"])
    def test_malformed_statements(self, old, new, match, line):
        assert old in TRIVIAL_CASE
        with pytest.raises(CaseParseError, match=match) as exc:
            parse_matpower_case(TRIVIAL_CASE.replace(old, new))
        assert exc.value.line == line

    def test_round_trip(self):
        net = parse_matpower_case(TRIVIAL_CASE)
        again = parse_matpower_case(serialize_network_case(net))
        assert again == net

    @given(st.integers(min_value=2, max_value=12), st.randoms())
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random_networks(self, n, rnd):
        buses = tuple(Bus(id=i + 1) for i in range(n))
        branches = []
        for i in range(2, n + 1):  # random tree plus extra chords
            branches.append(Branch(rnd.randrange(1, i), i,
                                   round(rnd.uniform(0.01, 0.3), 6),
                                   math.inf if rnd.random() < 0.5
                                   else round(rnd.uniform(0.5, 5.0), 6)))
        net = Network(buses=buses, branches=tuple(branches),
                      base_mva=100.0, reference_bus=rnd.randrange(1, n + 1))
        # one parse may perturb limits in the last ulp (rateA scaling);
        # after that the representation is a fixed point
        once = parse_matpower_case(serialize_network_case(net))
        assert once.bus_ids() == net.bus_ids()
        assert once.reference_bus == net.reference_bus
        for a, b in zip(once.branches, net.branches):
            assert a.flow_limit == pytest.approx(b.flow_limit, rel=1e-12)
        assert parse_matpower_case(serialize_network_case(once)) == once


class TestProfiles:
    def setup_method(self):
        self.net = parse_matpower_case(TRIVIAL_CASE)
        self.grid = TimeGrid(steps=3)

    def test_basic_parse(self):
        text = "bus,kind,t1,t2,t3\n1,load,1.0,2.0,3.0\n3,gen,0.5,0.5,0.5\n"
        p = parse_profiles(text, self.net, self.grid)
        assert p.load[0].tolist() == [1.0, 2.0, 3.0]
        assert p.gen[2].tolist() == [0.5, 0.5, 0.5]
        assert p.load[1].tolist() == [0.0, 0.0, 0.0]  # missing bus -> zeros

    def test_round_trip(self):
        text = "bus,kind,t1,t2,t3\n1,load,1.0,2.0,3.0\n3,gen,0.5,0.25,0.125\n"
        p = parse_profiles(text, self.net, self.grid)
        again = parse_profiles(profiles_to_csv(self.net, self.grid, p),
                               self.net, self.grid)
        np.testing.assert_array_equal(p.load, again.load)
        np.testing.assert_array_equal(p.gen, again.gen)

    @pytest.mark.parametrize("row,msg", [
        ("9,load,1,1,1", "unknown bus"),
        ("x,load,1,1,1", "row 2: invalid bus id 'x'"),
        # a bus id is its canonical text, as in a scenario's per-bus keys
        ("1_0,load,1,1,1", "row 2: invalid bus id '1_0'"),
        ("01,load,1,1,1", "row 2: invalid bus id '01'"),
        ("+1,load,1,1,1", r"row 2: invalid bus id '\+1'"),
        ("1,fuel,1,1,1", "kind"),
        ("1,load,1,1", "columns"),
        ("1,load,-1,1,1", "negative"),
        ("1,load,nan,1,1", "row 2: non-finite"),
        ("3,gen,1,inf,1", "row 2: non-finite"),
        ("1,load,1,abc,1", r"row 2: invalid profile value \(.*'abc'\)"),
        ("1,load,1, ,1", "row 2: invalid profile value"),
        ("1,load,1,1,1\n3,gen,1,1,1\n1,LOAD,2,2,2", "row 4: second load row for bus 1"),
    ])
    def test_bad_rows(self, row, msg):
        with pytest.raises(ProfileError, match=msg):
            parse_profiles(f"bus,kind,t1,t2,t3\n{row}\n", self.net, self.grid)

    def test_bus_id_cell_is_stripped(self):
        p = parse_profiles("bus,kind,t1,t2,t3\n 3,gen,0.5,0.5,0.5\n", self.net, self.grid)
        assert p.gen[2].tolist() == [0.5, 0.5, 0.5]

    def test_no_header_gives_zero_profiles(self):
        p = parse_profiles("", self.net, self.grid)
        assert p.gen.shape == p.load.shape == (3, 3)
        assert not p.gen.any() and not p.load.any()

    def test_blank_rows_skipped(self):
        text = "bus,kind,t1,t2,t3\n1,load,1.0,2.0,3.0\n3,gen,0.5,0.5,0.5\n"
        padded = text.replace("\n3,gen", "\n\n  \t\n3,gen") + " \n"
        assert padded != text
        p, q = (parse_profiles(t, self.net, self.grid) for t in (text, padded))
        np.testing.assert_array_equal(p.load, q.load)
        np.testing.assert_array_equal(p.gen, q.gen)

    def test_carriage_returns_end_lines(self):
        text = "bus,kind,t1,t2,t3\r1,load,1.0,2.0,3.0\r\n3,gen,0.5,0.5,0.5\r"
        p = parse_profiles(text, self.net, self.grid)
        assert p.load[0].tolist() == [1.0, 2.0, 3.0]
        assert p.gen[2].tolist() == [0.5, 0.5, 0.5]


class TestGraph:
    def test_connected_subsets(self):
        net = parse_matpower_case(TRIVIAL_CASE)
        assert induced_subgraph_connected(net, [1, 2, 3])
        assert induced_subgraph_connected(net, [2, 3])
        assert not induced_subgraph_connected(net, [1, 3])
        with pytest.raises(KeyError):
            induced_subgraph_connected(net, [1, 9])

    def test_empty_node_set(self):
        with pytest.raises(ValueError, match="empty node set"):
            induced_subgraph_connected(parse_matpower_case(TRIVIAL_CASE), [])


class TestScenarioLoading:
    def test_bundled_scenarios_load_and_validate(self):
        for name in ("scenario_low", "scenario_medium", "scenario_high"):
            s = load_scenario(data_path(f"{name}.json"))
            assert s.network.n_bus == 39
            rep = validate_scenario(s)
            assert rep.ok, rep.codes()

    def test_partition_granularity(self, scenario_low, scenario_medium,
                                   scenario_high):
        assert (len(scenario_low.partition.sheds)
                > len(scenario_medium.partition.sheds)
                > len(scenario_high.partition.sheds))

    def test_per_bus_scalars_broadcast(self, scenario_high):
        assert scenario_high.budgets.cap_plus.shape == (39, 24)

    def test_absent_export_limits_are_infinite(self, scenario_medium):
        b = scenario_medium.budgets
        assert b.export_upper.shape == b.export_lower.shape == (39, 24)
        assert (b.export_upper == np.inf).all()
        assert (b.export_lower == -np.inf).all()


class TestLoadBusesFromProfile:
    """The load profile, not the case file's Pd column, marks the load buses."""

    def scenario(self, tmp_path, partition, **cfg):
        # Pd is 90 and 50 on buses 1 and 3; the profile loads buses 2 and 3
        case = TRIVIAL_CASE.replace("3  1  50.0", "3  1   0.0")
        (tmp_path / "case3.m").write_text(case)
        (tmp_path / "prof.csv").write_text(
            "bus,kind,t1,t2\n2,load,1.0,1.0\n3,load,0.5,0.5\n1,gen,0.4,0.4\n")
        cfg.update(case_file="case3.m", profiles_file="prof.csv", partition=partition)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return load_scenario(str(path))

    def test_profile_load_without_pd_must_be_covered(self, tmp_path):
        s = self.scenario(tmp_path, [[1, 2]])
        bad = [v.message for v in validate_scenario(s).violations
               if v.code == "uncovered-load-bus"]
        assert bad == ["load buses [3] not assigned to any shed"]
        assert validate_scenario(self.scenario(tmp_path, [[1, 2, 3]])).ok

    def test_flex_at_pd_bus_without_profile_load(self, tmp_path):
        s = self.scenario(tmp_path, [[1, 2, 3]], cap_plus={"1": 0.3, "2": 0.3})
        bad = [v.location for v in validate_scenario(s).violations
               if v.code == "flex-at-load-free-bus"]
        assert bad == ["bus 1"]

    def test_misshapen_load_profile_marks_no_bus(self, tmp_path):
        s = self.scenario(tmp_path, [[1]], cap_plus={"1": 0.3})
        s = dataclasses.replace(s, profiles=Profiles(gen=s.profiles.gen,
                                                     load=s.profiles.load[:, :1]))
        codes = validate_scenario(s).codes()
        assert "profile-shape" in codes
        assert "uncovered-load-bus" not in codes
        assert "flex-at-load-free-bus" not in codes


class TestValidation:
    def build(self, **kw):
        gen = np.array([[0.2, 0.2], [0.0, 0.0], [0.0, 0.0]])
        load = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 1.0]])
        kw.setdefault("flex_everywhere", True)
        return make_line_scenario(gen, load, cap_plus=1.0, cap_minus=0.5, **kw)

    def test_clean_scenario(self):
        assert validate_scenario(self.build()).ok

    def test_clean_report_text(self):
        assert str(validate_scenario(self.build())) == "scenario valid"

    def test_duplicate_bus_and_missing_reference(self):
        # networks built in code skip the case parser's id checks
        s = self.build()
        net = s.network
        twice = dataclasses.replace(net, buses=net.buses[:2] + (Bus(id=2),))
        rep = validate_scenario(dataclasses.replace(s, network=twice))
        assert [(v.code, v.location) for v in rep.violations
                if v.code in ("duplicate-bus", "uncovered-load-bus")] == [
            ("duplicate-bus", "bus 2"), ("uncovered-load-bus", "partition")]
        assert "bus id 2 listed 2 times" in str(rep)
        elsewhere = dataclasses.replace(net, reference_bus=9)
        rep = validate_scenario(dataclasses.replace(s, network=elsewhere))
        assert [(v.code, v.location) for v in rep.violations] == [
            ("missing-reference", "reference bus")]
        assert "reference bus 9" in str(rep)

    def test_profile_shape(self):
        s = self.build()
        s = dataclasses.replace(s, profiles=Profiles(
            gen=s.profiles.gen[:, :1], load=s.profiles.load))
        assert "profile-shape" in validate_scenario(s).codes()

    def test_weight_shape(self):
        s = self.build()
        s = dataclasses.replace(s, weights=dataclasses.replace(
            s.weights, beta=s.weights.beta[:2]))
        rep = validate_scenario(s)
        assert rep.codes() == ["weight-shape"]
        assert "beta length (2,) != 3" in str(rep)

    def test_negative_weight(self):
        s = self.build(alpha=[1.0, 1.0, -2.0])
        assert "negative-weight" in validate_scenario(s).codes()

    def test_negative_budget(self):
        s = self.build()
        s.budgets.cap_plus[0, 0] = -1.0
        assert "negative-budget" in validate_scenario(s).codes()

    @pytest.mark.parametrize("field,value,code", [
        ("cap_plus", np.nan, "non-finite-budget"),
        ("cap_minus", np.inf, "non-finite-budget"),
        ("alpha", np.nan, "non-finite-weight"),
        ("beta", -np.inf, "non-finite-weight"),
    ])
    def test_non_finite_budget_or_weight(self, field, value, code):
        s = self.build()
        arr = getattr(s.budgets if field.startswith("cap") else s.weights,
                      field)
        arr[2] = value
        bad = [v for v in validate_scenario(s).violations if v.code == code]
        assert [v.location for v in bad] == ["bus 3"]

    def test_non_finite_export_limit(self):
        upper = np.full((3, 2), np.inf)  # +-inf means no limit
        lower = np.full((3, 2), -np.inf)
        s = self.build(export_upper=upper, export_lower=lower)
        assert validate_scenario(s).ok
        upper[1, 1] = np.nan
        bad = [v for v in validate_scenario(s).violations
               if v.code == "non-finite-export-limit"]
        assert [v.location for v in bad] == ["bus 2"]

    @pytest.mark.parametrize("shapes", [((3, 3), None), (None, (2, 2)),
                                        ((3, 3), (3, 1))],
                             ids=["upper", "lower", "both"])
    def test_export_limit_shape(self, shapes):
        upper, lower = (None if shape is None else np.zeros(shape) for shape in shapes)
        s = self.build(export_upper=upper, export_lower=lower)
        rep = validate_scenario(s)
        bad = [v.message for v in rep.violations if v.code == "export-limit-shape"]
        assert len(bad) == sum(shape is not None for shape in shapes)
        assert "export-bounds-crossed" not in rep.codes()
        with pytest.raises(BuildError, match="export-limit-shape"):
            build_p1(s, 0.5)

    @pytest.mark.parametrize("field, value", [("gen", np.nan), ("load", np.nan),
                                              ("load", np.inf)])
    def test_non_finite_profile(self, field, value):
        s = self.build()
        getattr(s.profiles, field)[2, 1] = value
        bad = [v for v in validate_scenario(s).violations
               if v.code == "non-finite-profile"]
        assert [v.location for v in bad] == ["bus 3"]
        with pytest.raises(BuildError, match="non-finite-profile"):
            build_p1(s, 0.5)

    def test_flex_at_load_free_bus(self):
        # bus 2 has no load but a positive budget
        s = self.build(flex_everywhere=False)
        s.budgets.cap_plus[:] = 0.0
        s.budgets.cap_minus[:] = 0.0
        s.budgets.cap_plus[1, :] = 1.0
        assert "flex-at-load-free-bus" in validate_scenario(s).codes()
        s2 = dataclasses.replace(s, flex_only_at_load_buses=False)
        codes = validate_scenario(s2).codes()
        assert "flex-at-load-free-bus" not in codes

    def test_unknown_shed_bus(self):
        s = self.build(partition=[(0, (1, 2, 3, 99))])
        assert "unknown-shed-bus" in validate_scenario(s).codes()

    def test_duplicate_shed_bus(self):
        s = self.build(partition=[(0, (1, 2, 3, 1))])
        bad = [v for v in validate_scenario(s).violations
               if v.code == "duplicate-shed-bus"]
        assert [v.location for v in bad] == ["shed 0"]
        assert "[1]" in bad[0].message

    def test_sheds_not_disjoint(self):
        s = self.build(partition=[(0, (1, 2)), (1, (2, 3))])
        assert "sheds-not-disjoint" in validate_scenario(s).codes()

    def test_disconnected_shed(self):
        s = self.build(partition=[(0, (1, 3)), (1, (2,))])
        assert "disconnected-shed" in validate_scenario(s).codes()

    def test_zero_demand_shed(self):
        s = self.build(partition=[(0, (1,)), (1, (2,)), (2, (3,))])
        assert "zero-demand-shed" in validate_scenario(s).codes()

    def test_uncovered_load_bus(self):
        s = self.build(partition=[(0, (1, 2))])
        assert "uncovered-load-bus" in validate_scenario(s).codes()

    @pytest.mark.parametrize("kw, code, where", [
        ({"to_bus": 7}, "unknown-branch-bus", "branch 1-7"),
        ({"reactance": np.nan}, "nonpositive-reactance", "branch 1-2"),
        ({"reactance": np.inf}, "non-finite-reactance", "branch 1-2"),
        ({"flow_limit": np.nan}, "invalid-flow-limit", "branch 1-2"),
        ({"flow_limit": -6.0}, "invalid-flow-limit", "branch 1-2"),
    ], ids=["unknown-bus", "nan-reactance", "inf-reactance", "nan-limit", "negative-limit"])
    def test_bad_branch(self, kw, code, where):
        # the clean scenario with its first branch's fields replaced
        s = self.build()
        net = s.network
        s = dataclasses.replace(s, network=dataclasses.replace(
            net, branches=(dataclasses.replace(net.branches[0], **kw),) + net.branches[1:]))
        bad = [v for v in validate_scenario(s).violations if v.code == code]
        assert [v.location for v in bad] == [where]
        with pytest.raises(BuildError, match=code):
            build_p1(s, 0.5)

    def test_export_bounds_crossed(self):
        n, t = 3, 2
        s = self.build()
        s = dataclasses.replace(s, budgets=dataclasses.replace(
            s.budgets,
            export_upper=np.full((n, t), -1.0),
            export_lower=np.full((n, t), 1.0)))
        assert "export-bounds-crossed" in validate_scenario(s).codes()


class TestAggregates:
    def test_total_demand_additive_over_partition(self, scenario_medium):
        parts = sum(total_demand(scenario_medium, k)
                    for k in scenario_medium.partition.shed_ids())
        whole = (scenario_medium.profiles.load.sum()
                 * scenario_medium.time_grid.step_hours)
        assert parts == pytest.approx(whole)

    def test_baseline_ratio_scale_invariant(self):
        gen = np.array([[0.3, 0.1], [0.0, 0.0], [0.2, 0.4]])
        load = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 1.0]])
        s1 = make_line_scenario(gen, load, cap_plus=1.0, cap_minus=0.0)
        s2 = make_line_scenario(7.5 * gen, 7.5 * load, cap_plus=1.0,
                                cap_minus=0.0)
        assert baseline_ratio(s1, 0) == pytest.approx(baseline_ratio(s2, 0))

    def test_baseline_ratio_matches_hand_value(self):
        gen = np.array([[0.3, 0.1], [0.0, 0.0], [0.2, 0.4]])
        load = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 1.0]])
        s = make_line_scenario(gen, load, cap_plus=1.0, cap_minus=0.0)
        assert baseline_ratio(s, 0) == pytest.approx(1.0 / 5.0)
