"""Problem compilation, reports and conservation/refinement properties."""

import numpy as np
import pytest

from conftest import make_line_scenario
from energyshed.netmodel import baseline_ratio
from energyshed.problems import (
    BuildError,
    VariableLayout,
    build_p1,
    build_p2_step,
    build_p3,
    evaluate_f_tau,
    extract_report,
    flow_law_residual,
    power_balance_residual,
    shed_terms,
)
from energyshed.qpcore import check_feasibility, solve_qp


def two_bus_scenario(**kw):
    gen = np.array([[0.5], [0.0]])
    load = np.array([[1.0], [1.0]])
    kw.setdefault("cap_plus", 1.0)
    kw.setdefault("cap_minus", 0.5)
    return make_line_scenario(gen, load, **kw)


def chain_scenario(tau_friendly=True, **kw):
    """3 buses, 2 steps; bus 3 carries most of the deficit."""
    gen = np.array([[0.3, 0.3], [0.0, 0.0], [0.0, 0.2]])
    load = np.array([[1.0, 0.8], [0.0, 0.0], [1.5, 1.0]])
    kw.setdefault("cap_plus", [[1.2, 1.2], [0.0, 0.0], [2.0, 2.0]])
    kw.setdefault("cap_minus", 0.4)
    return make_line_scenario(gen, load, **kw)


class TestLayout:
    def test_variable_count_two_bus_one_step(self):
        # 2 angles + 1 flow + 2 s_plus + 2 s_minus + 2 c_plus + 2 c_minus
        prog, lay = build_p1(two_bus_scenario(), 0.0)
        assert prog.n == 11
        assert lay.n_vars == 11

    def test_index_maps_are_bijective(self):
        _, lay = build_p1(chain_scenario(), 0.0)
        seen = set()
        for i in range(lay.n_bus):
            for t in range(lay.steps):
                seen.update({lay.theta(i, t), lay.sp(i, t), lay.sm(i, t)})
        for e in range(lay.n_branch):
            for t in range(lay.steps):
                seen.add(lay.flow(e, t))
        for i in range(lay.n_bus):
            seen.update({lay.cp(i), lay.cm(i)})
        assert seen == set(range(lay.n_vars))

    def test_negative_floor_rejected(self):
        with pytest.raises(BuildError, match="nonnegative"):
            build_p1(two_bus_scenario(), -0.1)

    def test_floor_length_mismatch(self):
        with pytest.raises(BuildError, match="shed count"):
            build_p1(two_bus_scenario(), [0.5, 0.5])


class TestSolutionPhysics:
    def solve(self, scenario, x_min):
        prog, lay = build_p1(scenario, x_min)
        sol = solve_qp(prog)
        assert sol.status == "optimal"
        return lay, sol

    def test_power_balance_and_flow_law(self):
        s = chain_scenario()
        lay, sol = self.solve(s, 1.0)
        assert power_balance_residual(s, lay, sol.x) <= 1e-6
        assert flow_law_residual(s, lay, sol.x) <= 1e-8

    def test_report_matches_objective(self):
        s = chain_scenario()
        lay, sol = self.solve(s, 0.7)
        rep = extract_report(s, lay, sol)
        assert rep.cost == pytest.approx(sol.objective, abs=1e-8)
        assert rep.min_ratio() >= 0.7 - 1e-6

    def test_zero_budget_report_reproduces_base_ratio(self):
        s = chain_scenario(cap_plus=0.0, cap_minus=0.0)
        # no flexibility and no base generation surplus: the only question
        # is whether the base case balances, which it cannot here
        prog, _ = build_p1(s, 0.0)
        assert solve_qp(prog).status == "infeasible"

    def test_self_sufficient_zero_budget_scenario(self):
        gen = np.array([[1.0, 0.8], [0.0, 0.0], [1.5, 1.0]])
        load = gen.copy()
        s = make_line_scenario(gen, load, cap_plus=0.0, cap_minus=0.0)
        lay, sol = self.solve(s, 0.0)
        assert sol.objective == pytest.approx(0.0, abs=1e-8)
        rep = extract_report(s, lay, sol)
        assert rep.min_ratio() == pytest.approx(baseline_ratio(s, 0))

    def test_flow_limit_binds(self):
        # bus 3's deficit must flow over the 2-3 line; cap it below need
        s = chain_scenario(flow_limit=0.4, cap_plus=[[4.0, 4.0],
                                                     [0.0, 0.0],
                                                     [2.0, 2.0]])
        lay, sol = self.solve(s, 0.0)
        rep = extract_report(s, lay, sol)
        peak = max(u for _, _, u in rep.branch_peak_util)
        assert peak <= 1.0 + 1e-6

    def test_report_requires_optimal(self):
        s = chain_scenario(cap_plus=0.0, cap_minus=0.0)
        prog, lay = build_p1(s, 0.0)
        sol = solve_qp(prog)
        with pytest.raises(BuildError, match="status"):
            extract_report(s, lay, sol)


class TestFeasibilityForm:
    def test_p3_has_zero_objective(self):
        prog = build_p3(chain_scenario(), 0.5)
        assert not prog.q_diag.any()

    def test_tau_zero_feasible(self):
        assert check_feasibility(build_p3(chain_scenario(), 0.0)) == "feasible"

    def test_zero_budget_frontier_is_base_ratio(self):
        # per-step totals balance exactly, so zero budgets stay feasible
        gen = np.array([[1.5, 1.4], [0.0, 0.0], [0.5, 0.6]])
        load = np.array([[1.0, 0.8], [0.0, 0.0], [1.0, 1.2]])
        s = make_line_scenario(gen, load, cap_plus=0.0, cap_minus=0.0,
                               partition=[(0, (3,)), (1, (1, 2))],
                               flex_everywhere=True)
        # shed 0 covers only bus 3: its ratio is fixed by the base profiles
        x0 = baseline_ratio(s, 0)
        assert check_feasibility(build_p3(s, x0 - 1e-9)) == "feasible"
        assert check_feasibility(build_p3(s, x0 + 1e-6)) == "infeasible"

    def test_above_closed_form_bound_infeasible(self):
        # single-bus shed with generous lines: the linear bound is exact
        gen = np.array([[2.0, 2.0], [0.0, 0.0], [0.2, 0.2]])
        load = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        cap = np.array([[0.0, 0.0], [0.0, 0.0], [0.3, 0.3]])
        s = make_line_scenario(gen, load, cap_plus=cap, cap_minus=2.0,
                               partition=[(0, (3,)), (1, (1, 2))],
                               flex_everywhere=True)
        bound = baseline_ratio(s, 0) + cap[2].sum() / load[2].sum()
        assert check_feasibility(build_p3(s, bound - 1e-6)) == "feasible"
        assert check_feasibility(build_p3(s, bound + 1e-4)) == "infeasible"


class TestP2Step:
    def test_rows_are_p3_scaled_plus_t(self):
        s = chain_scenario(partition=[(0, (1, 2)), (1, (3,))])
        d_prev = np.array([2.0, 4.0])
        p3 = build_p3(s, 0.4, check=False)
        step, lay = build_p2_step(s, 0.4, d_prev)
        k = len(d_prev)
        assert step.n == p3.n + 1 == lay.n_vars + 1
        assert not step.q_diag.any()
        assert step.c_lin.tolist() == [0.0] * p3.n + [-1.0]
        assert step.lo[-1] == -np.inf and step.hi[-1] == np.inf
        G, G3 = step.G_ineq.toarray(), p3.G_ineq.toarray()
        assert (G[:-k, :-1] == G3[:-k]).all() and not G[:-k, -1].any()
        assert np.allclose(G[-k:, :-1], G3[-k:] / d_prev[:, None], rtol=1e-15)
        assert G[-k:, -1].tolist() == [1.0] * k
        assert np.allclose(step.h_ineq[-k:], p3.h_ineq[-k:] / d_prev, rtol=1e-15)
        assert (step.A_eq.toarray()[:, :-1] == p3.A_eq.toarray()).all()

    def test_step_optimum_on_single_bus_shed(self):
        # bus 1: N = 0.4 + sum S+ <= 1.0, D = 2 (no absorption budget), so
        # max t = (1.0 - 0.3 * 2) / 4 with the row scaled by d_prev = 4
        gen = np.array([[0.2, 0.2], [0.0, 0.0], [0.0, 0.0]])
        load = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        cap_plus = np.array([[0.3, 0.3], [0.0, 0.0], [10.0, 10.0]])
        cap_minus = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0]])
        s = make_line_scenario(gen, load, cap_plus=cap_plus, cap_minus=cap_minus,
                               partition=[(0, (1,))], flex_everywhere=True)
        prog, lay = build_p2_step(s, 0.3, [4.0])
        sol = solve_qp(prog)
        assert sol.status == "optimal"
        assert sol.x[-1] == pytest.approx(0.1, abs=1e-6)
        num, den = shed_terms(s, lay, sol.x)
        assert num == pytest.approx([1.0], abs=1e-6)
        assert den.tolist() == pytest.approx([2.0], abs=1e-9)

    def test_shed_terms_match_report(self):
        s = chain_scenario(partition=[(0, (1, 2)), (1, (3,))])
        prog, lay = build_p1(s, 0.3)
        sol = solve_qp(prog)
        report = extract_report(s, lay, sol)
        num, den = shed_terms(s, lay, sol.x)
        assert report.shed_ratios == {0: num[0] / den[0], 1: num[1] / den[1]}


class TestSweepObjective:
    def test_large_zeta_approaches_tau(self):
        s = chain_scenario()
        val, rep = evaluate_f_tau(s, 0.6, 1e12)
        assert rep is not None
        assert val == pytest.approx(0.6, abs=1e-9)

    def test_tau_zero_is_scaled_baseline_cost(self):
        s = chain_scenario()
        prog, _ = build_p1(s, 0.0)
        cost0 = solve_qp(prog).objective
        val, _ = evaluate_f_tau(s, 0.0, 2.0)
        assert val == pytest.approx(-cost0 / 2.0, rel=1e-7)

    def test_infeasible_tau_marked(self):
        s = chain_scenario(cap_plus=[[0.1, 0.1], [0.0, 0.0], [3.0, 3.0]],
                           cap_minus=0.0)
        val, rep = evaluate_f_tau(s, 50.0, 1.0)
        assert val == -np.inf and rep is None

    def test_zeta_must_be_positive(self):
        with pytest.raises(BuildError, match="zeta"):
            evaluate_f_tau(chain_scenario(), 0.5, 0.0)


class TestOrderingProperties:
    def test_cost_monotone_in_tau(self):
        s = chain_scenario()
        costs = []
        for tau in (0.0, 0.4, 0.8, 1.0):
            prog, _ = build_p1(s, tau)
            sol = solve_qp(prog)
            assert sol.status == "optimal"
            costs.append(sol.objective)
        assert all(a <= b + 1e-7 for a, b in zip(costs, costs[1:]))

    def test_partition_refinement_costs_more(self):
        gen = np.array([[0.3, 0.3], [0.0, 0.0], [0.1, 0.2]])
        load = np.array([[1.0, 0.8], [0.0, 0.0], [1.5, 1.0]])
        cap = [[1.6, 1.6], [0.0, 0.0], [2.6, 2.6]]
        coarse = make_line_scenario(gen, load, cap_plus=cap, cap_minus=0.4,
                                    alpha=[1.0, 1.0, 3.0])
        fine = make_line_scenario(gen, load, cap_plus=cap, cap_minus=0.4,
                                  alpha=[1.0, 1.0, 3.0],
                                  partition=[(0, (1, 2)), (1, (3,))])
        costs = {}
        for name, s in (("coarse", coarse), ("fine", fine)):
            prog, _ = build_p1(s, 1.0)
            sol = solve_qp(prog)
            assert sol.status == "optimal"
            costs[name] = sol.objective
        assert costs["fine"] >= costs["coarse"] - 1e-7


class TestExportLimits:
    def test_tight_export_cap_blocks_high_ratio(self):
        gen = np.array([[2.0, 2.0], [0.0, 0.0], [0.2, 0.2]])
        load = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        cap = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 2.0]])
        kw = dict(cap_plus=cap, cap_minus=3.0,
                  partition=[(0, (3,)), (1, (1, 2))], flex_everywhere=True)
        free = make_line_scenario(gen, load, **kw)
        capped = make_line_scenario(
            gen, load,
            export_upper=np.full((3, 2), 0.05),
            export_lower=np.full((3, 2), -10.0), **kw)
        # shed 0 must export to hit ratio 2; shed 1 only absorbs
        floors = [2.0, 0.2]
        assert check_feasibility(build_p1(free, floors)[0]) == "feasible"
        assert check_feasibility(build_p1(capped, floors)[0]) == "infeasible"
