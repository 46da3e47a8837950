"""P2 design, sweep and Pareto-front behavior on small analyzable systems."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_line_scenario, single_shed_scenario
from energyshed import BuildError, InfeasibleError, policy, qpcore
from energyshed.netmodel import Partition
from energyshed.policy import (
    PolicyError,
    PolicyInputError,
    baseline,
    pareto_front,
    solve_p2,
    solve_p4,
)
from energyshed.problems import build_p1
from energyshed.qpcore import check_feasibility, solve_qp
from oracles import bisection_p2, build_p3, full_sweep_p4


def sink_scenario(cap1=0.3, alpha=None):
    """Bus 1 is the only load bus (one shed); bus 3 provides slack supply
    and absorption, so bus 1's achievable ratio follows the linear bound."""
    gen = np.array([[0.2, 0.2], [0.0, 0.0], [0.0, 0.0]])
    load = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    cap_plus = np.array([[cap1, cap1], [0.0, 0.0], [10.0, 10.0]])
    cap_minus = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0]])
    return make_line_scenario(gen, load, cap_plus=cap_plus,
                              cap_minus=cap_minus, alpha=alpha,
                              partition=[(0, (1,))], flex_everywhere=True)


def random_line_scenario(rng, flex_everywhere=False):
    """A chain whose first m buses carry load and form contiguous sheds;
    the 1-2 load-free buses after them get a budget only if
    flex_everywhere."""
    m, free, steps = (int(v) for v in rng.integers([1, 1, 1], [5, 3, 4]))
    n = m + free
    load = np.zeros((n, steps))
    load[:m] = rng.uniform(0.5, 2.0, (m, steps))
    gen = rng.uniform(0.0, 1.5, (n, steps)) * np.where(load > 0, load, 1.0)
    cuts = sorted(rng.choice(np.arange(1, m), rng.integers(0, m), replace=False))
    ends = [0, *cuts, m]
    return make_line_scenario(
        gen, load, cap_plus=rng.uniform(0.0, 1.5, (n, steps)),
        cap_minus=rng.uniform(0.0, 1.5, (n, steps)),
        partition=[(k, tuple(range(a + 1, b + 1)))
                   for k, (a, b) in enumerate(zip(ends, ends[1:]))],
        flex_everywhere=flex_everywhere)


def closed_form_bound(s):
    gen, load = s.profiles.gen[0], s.profiles.load[0]
    cap = s.budgets.cap_plus[0]
    return gen.sum() / load.sum() + cap.sum() / load.sum()


class TestBisection:
    def test_matches_linear_bound(self):
        s = sink_scenario()  # bound = 0.2 + 0.6 / 2 = 0.5
        res = solve_p2(s)
        assert res.tau_star == pytest.approx(closed_form_bound(s), abs=2e-6)

    def test_probe_budget(self):
        res = solve_p2(sink_scenario(), epsilon=1e-6)
        assert res.probes <= 20
        assert res.probes <= 3

    def test_trace_is_monotone(self):
        res = solve_p2(sink_scenario())
        feas = [t for t, ok in res.trace if ok]
        infeas = [t for t, ok in res.trace if not ok]
        assert not feas or not infeas or max(feas) < min(infeas)

    def test_two_epsilon_bracketing(self):
        s, eps = sink_scenario(), 1e-6
        res = solve_p2(s, eps)
        assert check_feasibility(
            build_p3(s, res.tau_star - 2 * eps)) == "feasible"
        assert check_feasibility(
            build_p3(s, res.tau_star + 2 * eps)) == "infeasible"

    def test_infeasible_bracket_start(self):
        # no budget anywhere and an unbalanced base case
        gen = np.array([[0.2, 0.2], [0.0, 0.0], [0.0, 0.0]])
        load = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        s = make_line_scenario(gen, load, cap_plus=0.0, cap_minus=0.0,
                               partition=[(0, (1,))], flex_everywhere=True)
        with pytest.raises(InfeasibleError, match="no dispatch meets the constraints"):
            solve_p2(s)

    def test_bracket_expansion(self):
        # bus 3 absorbs outside the shed, so the top is the shed's own
        # bound 0.2 + 4 / 2 = 2.2, not 1
        s = sink_scenario(cap1=2.0)
        assert policy._top_floor(s) == pytest.approx(2.2)
        assert solve_p2(s).tau_star == pytest.approx(2.2, abs=2e-6)
        res = solve_p2(s, math.ulp(1.0))
        assert res.tau_star == pytest.approx(2.2, abs=1e-9)

    def test_without_expansion_clamps_to_bracket(self):
        # with no absorption outside the shed, balance holds the top at 1
        # although the shed's own bound is 2.2, and tau* reaches that top
        s = sink_scenario(cap1=2.0)
        s = dataclasses.replace(s, budgets=dataclasses.replace(
            s.budgets, cap_minus=np.zeros_like(s.budgets.cap_minus)))
        assert policy._top_floor(s) == 1.0
        res = solve_p2(s)
        assert res.tau_star == pytest.approx(1.0, abs=2e-6)
        assert res.tau_star <= 1.0

    def test_unknown_shed_bus_is_located(self):
        # the baseline validates the scenario before any shed sum is taken
        s = dataclasses.replace(sink_scenario(), partition=Partition(sheds=((0, (1, 9)),)))
        with pytest.raises(BuildError, match="unknown-shed-bus"):
            solve_p2(s)

    def test_top_floor_is_one_on_bundled_scenarios(self, scenario_low, scenario_medium,
                                                   scenario_high):
        for s in (scenario_low, scenario_medium, scenario_high):
            assert policy._top_floor(s) == 1.0

    def test_top_floor_bounds_every_floor(self):
        # independent of P2: P1 just above the top has no dispatch
        rng = np.random.default_rng(3)
        above_one = 0
        for _ in range(40):
            s = random_line_scenario(rng, flex_everywhere=True)
            top = policy._top_floor(s)
            above_one += top > 1.0
            assert solve_qp(build_p1(s, top + 0.01)[0]).status == "infeasible"
        assert above_one >= 10

    def test_flex_at_load_buses_keeps_tau_star_at_most_one(self):
        # DC balance gives sum_k N_k + G outside the sheds = sum_k D_k when
        # only load buses, all in sheds, have flexibility: min_k N_k/D_k <= 1
        rng = np.random.default_rng(1)
        taus = []
        for _ in range(40):
            s = random_line_scenario(rng)
            assert policy._top_floor(s) == 1.0
            try:
                taus.append(solve_p2(s).tau_star)
            except InfeasibleError:  # the budgets cannot balance some step
                continue
        assert len(taus) >= 15
        assert max(taus) <= 1.0

    def test_cost_normalized_at_least_one(self):
        res = solve_p2(sink_scenario())
        assert res.cost_normalized >= 1.0 - 1e-6

    def test_config_validation(self, monkeypatch):
        # the top floor is at least 1: P2 resolves no cell finer than ulp(1.0)
        for name, value in (("epsilon", 0.0), ("epsilon", math.ulp(1.0) / 2),
                            ("mesh", -0.1)):
            rejected_before_any_solve(monkeypatch, name, value, name)

    @pytest.mark.parametrize("kw", [{"epsilon": math.nan}, {"epsilon": math.inf},
                                    {"mesh": math.nan}, {"mesh": math.inf}],
                             ids=["eps-nan", "eps-inf", "mesh-nan", "mesh-inf"])
    def test_non_finite_config_rejected(self, monkeypatch, kw):
        [(name, value)] = kw.items()
        rejected_before_any_solve(monkeypatch, name, value, "finite")

    @pytest.mark.parametrize("grid", [(1.0, math.inf), (math.nan,), (), (2.0, 1.0)],
                             ids=["inf", "nan", "empty", "descending"])
    def test_zeta_grid_rejected(self, monkeypatch, grid):
        rejected_before_any_solve(monkeypatch, "zeta_grid", grid, "zeta grid")


# each design that reads a setting, called with a value for it
SETTING_READERS = {
    "epsilon": [lambda s, v: solve_p2(s, epsilon=v)],
    "mesh": [lambda s, v: solve_p4(s, 1.0, mesh=v), lambda s, v: pareto_front(s, mesh=v)],
    "zeta_grid": [lambda s, v: pareto_front(s, zeta_grid=v)],
}


def rejected_before_any_solve(monkeypatch, name, value, match):
    """Every design that reads setting name raises PolicyInputError on value
    before it solves anything."""
    solves = []
    monkeypatch.setattr(policy, "solve_qp", lambda *a: solves.append(a))
    monkeypatch.setattr(policy, "evaluate_f_tau", lambda *a: solves.append(a))
    for design in SETTING_READERS[name]:
        with pytest.raises(PolicyInputError, match=match):
            design(sink_scenario(), value)
    assert solves == []


def with_cap_cut(scenario, shed_index, factor):
    """scenario with cap_plus scaled by factor on one shed's buses."""
    idx = scenario.network.bus_index()
    rows = [idx[b] for b in scenario.partition.sheds[shed_index][1]]
    cap_plus = scenario.budgets.cap_plus.copy()
    cap_plus[rows] *= factor
    return dataclasses.replace(
        scenario, budgets=dataclasses.replace(scenario.budgets, cap_plus=cap_plus))


class StepRecorder:
    """Records every P2 step LP as (tau, d_prev, t) through monkeypatch."""

    def __init__(self, monkeypatch):
        self.steps = []
        self._pending = {}
        build, solve = policy.build_p2_step, policy.solve_qp

        def build_step(scenario, tau, d_prev):
            prog, lay = build(scenario, tau, d_prev)
            self._pending[id(prog)] = (tau, np.array(d_prev))
            return prog, lay

        def solve_qp(prog):
            sol = solve(prog)
            if id(prog) in self._pending:
                tau, d_prev = self._pending.pop(id(prog))
                self.steps.append((tau, d_prev, float(sol.x[-1])))
            return sol

        monkeypatch.setattr(policy, "build_p2_step", build_step)
        monkeypatch.setattr(policy, "solve_qp", solve_qp)

    def upper_bounds(self, loads):
        """tau_j + max(t_j, 0) * max_k d_prev[k] / L_k for every step."""
        return [tau + max(t, 0.0) * float(np.max(d_prev / loads))
                for tau, d_prev, t in self.steps]


def shed_loads(scenario):
    idx = scenario.network.bus_index()
    return np.array([scenario.profiles.load[[idx[b] for b in members]].sum()
                     for _, members in scenario.partition.sheds])


class TestAgainstBisection:
    """solve_p2 against bisection (tests/oracles.py), the algorithm it replaced."""

    @pytest.mark.parametrize("cut", [None, (0, 0.2), (7, 0.15)],
                             ids=["medium", "shed0-x0.2", "shed7-x0.15"])
    def test_medium_variants(self, scenario_medium, monkeypatch, cut):
        s = scenario_medium if cut is None else with_cap_cut(scenario_medium, *cut)
        eps = 1e-3
        oracle, _ = bisection_p2(s, eps)
        rec = StepRecorder(monkeypatch)
        res = solve_p2(s, eps)
        assert res.tau_star == oracle
        assert res.probes == len(rec.steps) <= 3
        # every step's bound is a certificate: it never cuts below tau*
        assert min(rec.upper_bounds(shed_loads(s))) >= oracle - eps

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), limited=st.booleans())
    def test_line_cases(self, seed, limited):
        s, _ = single_shed_scenario(np.random.default_rng(seed), limited)
        eps = 1e-6
        oracle, _ = bisection_p2(s, eps)
        with pytest.MonkeyPatch.context() as mp:
            rec = StepRecorder(mp)
            res = solve_p2(s, eps)
        assert abs(res.tau_star - oracle) <= eps
        assert min(rec.upper_bounds(shed_loads(s))) >= oracle - eps

    def test_no_phase1_solves(self, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return check_feasibility(p)

        monkeypatch.setattr(policy, "check_feasibility", counting)
        monkeypatch.setattr(qpcore, "check_feasibility", counting)
        res = solve_p2(sink_scenario(), epsilon=1e-6)
        assert res.tau_star == pytest.approx(0.5, abs=2e-6)
        assert calls == []

    def test_infeasible_network(self):
        # with no budget the chain's deficit cannot be balanced: the step
        # LP itself is infeasible, whatever the floor
        gen = np.array([[0.3, 0.3], [0.0, 0.0], [0.0, 0.2]])
        load = np.array([[1.0, 0.8], [0.0, 0.0], [1.5, 1.0]])
        s = make_line_scenario(gen, load, cap_plus=0.0, cap_minus=0.0)
        with pytest.raises(InfeasibleError, match="no dispatch meets the constraints"):
            solve_p2(s)

    def test_budget_exhausted_is_solver_failure(self, monkeypatch):
        # a floor that never rises cannot meet the upper bound
        terms = policy.shed_terms

        def stuck(scenario, layout, x):
            num, den = terms(scenario, layout, x)
            return 0.0 * num, den

        monkeypatch.setattr(policy, "shed_terms", stuck)
        with pytest.raises(PolicyError, match="2 LPs") as exc:
            solve_p2(sink_scenario(), epsilon=0.25)
        assert not isinstance(exc.value, InfeasibleError)

    def test_step_not_converged_is_solver_failure(self, monkeypatch):
        solve, solved = policy.solve_qp, []

        def capped(prog):  # the baseline, solved first, converges
            sol = solve(prog)
            if solved:
                sol.status = "max_iter"
            solved.append(prog)
            return sol

        monkeypatch.setattr(policy, "solve_qp", capped)
        with pytest.raises(PolicyError, match="P2 step at tau = 0.0 failed: status max_iter") as exc:
            solve_p2(sink_scenario())
        assert not isinstance(exc.value, InfeasibleError)


class TestBaseline:
    def test_baseline_is_cheapest(self):
        s = sink_scenario()
        report = baseline(s)
        res = solve_p2(s)
        assert report.cost <= res.report.cost + 1e-9


class TestSweep:
    def test_large_zeta_recovers_max_ratio(self):
        s = sink_scenario()
        mesh = 0.01
        p2 = solve_p2(s)
        p4 = solve_p4(s, 1e9, mesh)
        assert abs(p4.tau_star - p2.tau_star) <= mesh + 1e-9
        assert p4.f_star <= p2.tau_star + mesh

    def test_small_zeta_recovers_baseline_cost(self):
        res = solve_p4(sink_scenario(), 1e-9, mesh=0.05)
        assert res.cost_normalized <= 1.0 + 1e-4

    def test_trace_sorted_and_complete(self):
        # the trace lists the solved floors, each a row of the full sweep
        s = sink_scenario()
        res = solve_p4(s, 10.0, mesh=0.1)
        full = full_sweep_p4(s, 10.0, mesh=0.1)
        taus = [t for t, _, _ in res.trace]
        assert taus == sorted(taus)
        assert res.probes == len(res.trace)
        assert set(res.trace) <= set(full.trace)
        assert round(res.tau_star, 12) in taus
        assert res.probes < len(full.trace)

    def test_sweeps_stay_in_bracket(self):
        # mesh 0.15 does not divide [0, 1]: 1.05 and the refinement's 1.005
        # lie outside the bracket and are not swept
        s = sink_scenario(cap1=0.8)  # tau* = 0.2 + 1.6 / 2 = 1, the top
        assert policy._top_floor(s) == 1.0
        res = solve_p4(s, 1e9, mesh=0.15)
        assert max(t for t, _, _ in res.trace) <= 1.0
        assert 0.99 - 1e-9 <= res.tau_star <= 1.0

    @pytest.mark.parametrize("mesh", [0.05, 0.01])
    def test_mesh_points_unchanged(self, mesh):
        # the pareto-sweep and CLI-default meshes keep every point; the
        # refinement's last one, 0.5000000000000001, is 0.5 up to rounding
        pts = np.arange(0.0, 1.0 + 0.5 * mesh, mesh)
        assert np.array_equal(policy._grid(0.0, 1.0, mesh), pts)
        fine = np.arange(0.4, 0.5 + 0.05 * mesh, mesh / 10.0)
        assert np.array_equal(policy._grid(0.4, 0.5, mesh / 10.0), fine)

    def test_infeasible_points_marked_not_fatal(self):
        s = sink_scenario(cap1=0.3)
        res = solve_p4(s, 1e9, mesh=0.25)
        vals = {t: f for t, f, _ in res.trace}
        assert vals[0.75] == -np.inf     # beyond the 0.5 frontier
        assert res.tau_star <= 0.5 + 1e-9

    def test_zeta_validation(self):
        with pytest.raises(PolicyError, match="positive"):
            solve_p4(sink_scenario(), 0.0)

    @pytest.mark.parametrize("zeta", [math.nan, math.inf])
    def test_non_finite_zeta_rejected(self, zeta):
        with pytest.raises(PolicyInputError, match="finite"):
            solve_p4(sink_scenario(), zeta)

    def test_threads_do_not_change_results(self):
        s = sink_scenario()
        a = solve_p4(s, 50.0, mesh=0.1)
        b = solve_p4(s, 50.0, mesh=0.1, threads=4)
        assert a.tau_star == b.tau_star
        assert a.trace == b.trace


class TestParetoFront:
    def test_monotone_tau_and_normalized_cost(self):
        s = sink_scenario(alpha=[5.0, 1.0, 1.0])
        front = pareto_front(s, [float(z) for z in np.logspace(-2, 3, 6)], mesh=0.05)
        taus = [t for _, t, _ in front]
        costs = [c for _, _, c in front]
        assert taus == sorted(taus)
        assert all(c >= 1.0 - 1e-6 for c in costs)
        assert costs == sorted(costs)

    def test_shared_cost_cache_matches_isolated_sweeps(self):
        s = sink_scenario()
        front = pareto_front(s, (0.5, 50.0), mesh=0.1)
        for zeta, tau_star, cost_norm in front:
            solo = solve_p4(s, zeta, mesh=0.1)
            assert solo.tau_star == tau_star
            assert solo.cost_normalized == pytest.approx(cost_norm, rel=1e-12)

    def test_each_tau_evaluated_once(self, monkeypatch):
        # one sweep path: no floor of the whole front is solved twice, the
        # baseline stands in for floor 0, and the pool solves the same floors
        s = sink_scenario()
        grid = (0.5, 50.0)
        swept = {t for zeta in grid for t, _, _ in full_sweep_p4(s, zeta, 0.1).trace}
        evaluate = policy.evaluate_f_tau
        fronts, solved = {}, {}
        for threads in (1, 2):
            calls = []

            def counting(scenario, tau, zeta):
                calls.append(tau)
                return evaluate(scenario, tau, zeta)

            monkeypatch.setattr(policy, "evaluate_f_tau", counting)
            fronts[threads] = pareto_front(s, grid, mesh=0.1, threads=threads)
            assert len(calls) == len(set(calls)), threads
            assert set(calls) <= swept - {0.0}, threads
            solved[threads] = sorted(calls)
        assert fronts[1] == fronts[2]
        assert solved[1] == solved[2]

    def test_tau_star_prints_one_way(self, scenario_medium):
        # at mesh 0.25, medium's tau* 0.475 comes from refinement sweeps
        # around different incumbents: 0 + 19 * 0.025 and 0.25 + 9 * 0.025
        # differ in the last bits, the rounded floor does not
        front = pareto_front(scenario_medium, policy.ZETA_GRID[2:5], mesh=0.25)
        assert [repr(t) for _, t, _ in front] == ["0.475"] * 3

    def test_grid_validation(self):
        with pytest.raises(PolicyInputError, match="nonempty"):
            pareto_front(sink_scenario(), ())
        with pytest.raises(PolicyError, match="ascending"):
            pareto_front(sink_scenario(), (2.0, 1.0))
        with pytest.raises(PolicyError, match="positive"):
            pareto_front(sink_scenario(), (-1.0, 1.0))


@pytest.fixture(scope="module")
def medium_oracle_cache():
    """The full sweep's cost solves on bundled medium, shared by its calls."""
    return {}


def same_as_full_sweep(res, full):
    """solve_p4's answer is the full sweep's, and its trace rows are rows of it."""
    rows = {t: (f, c) for t, f, c in full.trace}
    return (res.tau_star == full.tau_star and res.f_star == full.f_star
            and res.report == full.report
            and all(rows.get(t) == (f, c) for t, f, c in res.trace))


class TestAgainstFullSweep:
    """solve_p4's bound-and-prune against the full sweep (tests/oracles.py)."""

    @settings(max_examples=12, deadline=None)
    @given(log_zeta=st.floats(-3.0, 4.0), mesh=st.floats(0.05, 0.3),
           cap=st.floats(0.05, 2.5))
    def test_sink_cases(self, log_zeta, mesh, cap):
        s, zeta = sink_scenario(cap1=cap), 10.0 ** log_zeta
        assert same_as_full_sweep(solve_p4(s, zeta, mesh), full_sweep_p4(s, zeta, mesh))

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), limited=st.booleans(),
           log_zeta=st.floats(-3.0, 4.0), mesh=st.floats(0.05, 0.3))
    def test_line_cases(self, seed, limited, log_zeta, mesh):
        s, _ = single_shed_scenario(np.random.default_rng(seed), limited)
        zeta = 10.0 ** log_zeta
        assert same_as_full_sweep(solve_p4(s, zeta, mesh), full_sweep_p4(s, zeta, mesh))

    # the zeta grids of the benchmark's pareto-sweep workload
    @pytest.mark.parametrize("grid", [(0.05683, 0.5085), (0.04189, 0.466)],
                             ids=["grid0", "grid1"])
    def test_medium_pareto_grids(self, scenario_medium, medium_oracle_cache, grid):
        cache = {}
        for zeta in grid:
            res = solve_p4(scenario_medium, zeta, 0.05, cost_cache=cache, threads=2)
            full = full_sweep_p4(scenario_medium, zeta, 0.05, cache=medium_oracle_cache)
            assert same_as_full_sweep(res, full), zeta
        # the full sweep solves 39 floors; baseline plus ten solves here
        assert len(cache) <= 12

    @pytest.mark.parametrize("status", ["max_iter", "infeasible"])
    def test_failed_floor_bounds(self, monkeypatch, status):
        # floors from 0.6 up fail; 0.6, the middle of the first run, is
        # solved first.  Only an infeasible status proves the floors above
        # it infeasible; a max_iter one prunes nothing.
        evaluate = policy.evaluate_f_tau
        calls = []

        def failing(scenario, tau, zeta):
            calls.append(tau)
            if tau >= 0.6:
                return -math.inf, None, status
            return evaluate(scenario, tau, zeta)

        monkeypatch.setattr(policy, "evaluate_f_tau", failing)
        res = solve_p4(sink_scenario(cap1=0.8), 1e9, mesh=0.1)
        assert calls[0] == 0.6
        above = {t for t in calls if t > 0.6}
        if status == "infeasible":
            assert above == set()
        else:
            assert above == {0.7, 0.8, 0.9, 1.0}
        assert res.tau_star < 0.6

    def test_max_iter_floor_keeps_infeasible_bound(self, monkeypatch):
        # 0.6 is infeasible and 0.3, below it, ends max_iter: the -inf
        # bound of 0.3 must not undo the +inf one of 0.6 above it
        evaluate = policy.evaluate_f_tau
        calls = []

        def failing(scenario, tau, zeta):
            calls.append(tau)
            if tau >= 0.6:
                return -math.inf, None, "infeasible"
            if tau == 0.3:
                return -math.inf, None, "max_iter"
            return evaluate(scenario, tau, zeta)

        monkeypatch.setattr(policy, "evaluate_f_tau", failing)
        res = solve_p4(sink_scenario(cap1=0.8), 1e9, mesh=0.1)
        assert calls[:2] == [0.6, 0.3]
        assert [t for t in calls if t > 0.6] == []
        assert 0.0 < res.tau_star < 0.6 and res.tau_star != 0.3

    def test_overflowing_f_ties_to_floor_zero(self, monkeypatch):
        # cost/zeta overflows at every floor: f is -inf throughout, every
        # floor above 0 is pruned, and the tie goes to the smallest floor
        calls = []
        monkeypatch.setattr(policy, "evaluate_f_tau", lambda *a: calls.append(a))
        res = solve_p4(sink_scenario(), 1e-310, mesh=0.1)
        assert res.tau_star == 0.0 and res.f_star == -math.inf
        assert calls == []
        full = full_sweep_p4(sink_scenario(), 1e-310, mesh=0.1)
        assert full.tau_star == 0.0
