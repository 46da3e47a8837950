"""Problem compilation, reports and conservation/refinement properties."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_line_scenario
from energyshed import problems
from energyshed.netmodel import Branch
from energyshed.policy import PolicyInputError, solve_p4
from energyshed.problems import (
    BuildError,
    InfeasibleError,
    PolicyError,
    VariableLayout,
    build_p1,
    build_p2_step,
    evaluate_f_tau,
    extract_report,
    shed_terms,
)
from energyshed.qpcore import check_feasibility, solve_qp
from oracles import (
    baseline_ratio,
    build_p3,
    farkas_ok,
    flow_law_residual,
    loop_build_p1,
    phase1_feasibility,
    power_balance_residual,
)


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
        # 1 flow + 2 s_plus + 2 s_minus + 2 c_plus + 2 c_minus, no angles
        prog, lay = build_p1(two_bus_scenario(), 0.0)
        assert prog.n == 9
        assert lay.n_vars == 9

    def test_decode_blocks_partition_the_variables(self):
        _, lay = build_p1(chain_scenario(), 0.0)
        dec = lay.decode(np.arange(lay.n_vars))
        T = lay.steps
        shapes = {"flow": (lay.n_branch, T),
                  "sp": (lay.n_bus, T), "sm": (lay.n_bus, T),
                  "cp": (lay.n_bus,), "cm": (lay.n_bus,)}
        assert {k: v.shape for k, v in dec.items()} == shapes
        flat = np.concatenate([v.ravel() for v in dec.values()])
        assert np.sort(flat).tolist() == list(range(lay.n_vars))

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

    @pytest.mark.parametrize("kw", [
        {},
        {"flow_limit": 0.4, "cap_plus": [[4.0, 4.0], [0.0, 0.0], [2.0, 2.0]]},
        {"flow_limit": 0.8, "cap_plus": [[0.0, 0.0], [0.0, 0.0], [4.0, 4.0]]},
    ], ids=["unlimited", "limit-binds", "flows-reversed"])
    def test_report_per_bus_and_per_branch(self, kw):
        # every per-bus and per-branch field, recomputed bus by bus and
        # branch by branch from the decoded solution; bus 2 carries no load,
        # and with flexibility only at bus 3 both flows are negative
        s = chain_scenario(**kw)
        lay, sol = self.solve(s, 0.5)
        rep = extract_report(s, lay, sol)
        dec = lay.decode(sol.x)
        gen, load = s.profiles.gen, s.profiles.load
        ratios = {}
        for i, b in enumerate(s.network.bus_ids()):
            den = sum(load[i].tolist()) + sum(dec["sm"][i].tolist())
            if den > 0:
                ratios[b] = (sum(gen[i].tolist()) + sum(dec["sp"][i].tolist())) / den
            assert rep.cap_plus[b] == max([0.0] + dec["sp"][i].tolist())
            assert rep.cap_minus[b] == max([0.0] + dec["sm"][i].tolist())
        assert 2 not in rep.bus_ratios
        assert rep.bus_ratios == ratios
        assert list(rep.cap_plus) == list(rep.cap_minus) == [1, 2, 3]
        assert len(rep.branch_peak_util) == len(s.network.branches)
        for e, (br, (f, t, u)) in enumerate(zip(s.network.branches, rep.branch_peak_util)):
            assert (f, t) == (br.from_bus, br.to_bus)
            peak = max(abs(v) for v in dec["flow"][e].tolist())
            assert u == (0.0 if br.flow_limit == np.inf else peak / br.flow_limit)
        utils = [u for _, _, u in rep.branch_peak_util]
        if kw.get("flow_limit") == 0.4:
            assert max(utils) == pytest.approx(1.0, abs=1e-3)
        if kw.get("flow_limit") == 0.8:
            assert (dec["flow"] < 0).all() and min(utils) > 0.5

    def test_report_requires_optimal(self):
        s = chain_scenario(cap_plus=0.0, cap_minus=0.0)
        prog, lay = build_p1(s, 0.0)
        sol = solve_qp(prog)
        with pytest.raises(InfeasibleError, match="no dispatch"):
            extract_report(s, lay, sol)

    def test_ratio_below_floor_is_solver_failure(self):
        # an optimal solve at floor 0 read against floor 5: no report
        s = chain_scenario()
        lay, sol = self.solve(s, 0.0)
        high = dataclasses.replace(lay, x_min=(5.0,) * len(lay.x_min))
        with pytest.raises(PolicyError, match="violates floor") as exc:
            extract_report(s, high, sol)
        assert not isinstance(exc.value, (InfeasibleError, BuildError))


    @pytest.mark.parametrize("name", ["low", "medium"])
    def test_report_lists_load_buses_only(self, request, name):
        # S+- of a load-free bus is fixed at 0 and solves to about 1e-10;
        # the load profile, not that noise, decides which buses are listed
        scenario = request.getfixturevalue(f"scenario_{name}")
        prog, lay = build_p1(scenario, 0.6)
        report = extract_report(scenario, lay, solve_qp(prog))
        loaded = scenario.profiles.load.sum(axis=1) > 0
        assert set(report.bus_ratios) == {
            b for b, on in zip(scenario.network.bus_ids(), loaded) if on}


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
        p3 = build_p3(s, 0.4)
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
        # f(0.6) = 0.6 - cost/zeta tends to 0.6: the report's cost is finite
        s = chain_scenario()
        rep = evaluate_f_tau(s, 0.6)
        assert rep.min_ratio() >= 0.6 - 1e-6
        assert 0.6 - rep.cost / 1e12 == pytest.approx(0.6, abs=1e-9)

    def test_tau_zero_is_scaled_baseline_cost(self):
        s = chain_scenario()
        prog, _ = build_p1(s, 0.0)
        cost0 = solve_qp(prog).objective
        assert evaluate_f_tau(s, 0.0).cost == pytest.approx(cost0, rel=1e-7)

    def test_infeasible_tau_marked(self):
        s = chain_scenario(cap_plus=[[0.1, 0.1], [0.0, 0.0], [3.0, 3.0]],
                           cap_minus=0.0)
        assert evaluate_f_tau(s, 50.0) is None

    def test_unconverged_tau_raises(self, monkeypatch):
        # only an infeasible solve is a value; max_iter is a solver failure
        solve = problems.solve_qp

        def capped(prog):
            sol = solve(prog)
            sol.status = "max_iter"
            return sol

        monkeypatch.setattr(problems, "solve_qp", capped)
        with pytest.raises(PolicyError, match=r"floor\(s\) \[0\.6\].*max_iter"):
            evaluate_f_tau(chain_scenario(), 0.6)

    def test_zeta_must_be_positive(self):
        # f(tau) = tau - cost/zeta: solve_p4 checks zeta, evaluate_f_tau never reads it
        with pytest.raises(PolicyInputError, match="zeta"):
            solve_p4(chain_scenario(), 0.0)

    @pytest.mark.parametrize("zeta", [np.nan, np.inf, 0.0, -1.0],
                             ids=["nan", "inf", "zero", "negative"])
    def test_zeta_must_be_positive_and_finite(self, zeta):
        # a NaN zeta fails the chained comparison
        with pytest.raises(PolicyInputError, match="positive and finite"):
            solve_p4(chain_scenario(), zeta)


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


def assert_same_program(p, q, nbt):
    """Exact equality, dtypes included, of every block build_p1's program p
    shares with loop_build_p1's angle form q: q's first nbt = n_bus * steps
    columns are its angles, which enter no row but the flow law and
    reference rows.  Of the equality rows only the power balance, the first
    nbt, is shared; p's cycle rows and q's angle rows are not compared."""
    assert not q.A_eq[:nbt, :nbt].nnz and not q.G_ineq[:, :nbt].nnz
    for name, a, b in (("A_eq", p.A_eq[:nbt], q.A_eq[:nbt, nbt:]),
                       ("G_ineq", p.G_ineq, q.G_ineq[:, nbt:])):
        assert a.shape == b.shape
        for part in ("indptr", "indices", "data"):
            x, y = getattr(a, part), getattr(b, part)
            assert x.dtype == y.dtype and np.array_equal(x, y), (name, part)
    for name, x, y in (("b_eq", p.b_eq[:nbt], q.b_eq[:nbt]), ("h_ineq", p.h_ineq, q.h_ineq),
                       ("lo", p.lo, q.lo[nbt:]), ("hi", p.hi, q.hi[nbt:]),
                       ("q_diag", p.q_diag, q.q_diag[nbt:]), ("c_lin", p.c_lin, q.c_lin[nbt:])):
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def assert_same_optimum(s, x_min):
    """build_p1's cycle form and loop_build_p1's angle form solve to the
    same status and, where optimal, the same cost within 1e-9 relative.
    Each cost lies within its solve's duality gap of the optimum, which
    bounds their distance where the optimum is near 0.

    On some infeasible line scenarios (4 in about 25,000 draws) the angle
    form's solve, with its free angles, ends max_iter; the cycle form's
    status is then checked against the HiGHS phase-1 LP, and its ray by
    farkas_ok."""
    p = build_p1(s, x_min)[0]
    sol = solve_qp(p)
    ref = solve_qp(loop_build_p1(s, x_min))
    if ref.status == "max_iter":
        want = "optimal" if phase1_feasibility(p) == "feasible" else "infeasible"
        assert sol.status == want
        assert want == "optimal" or farkas_ok(p, sol)
        return
    assert sol.status == ref.status
    if ref.status == "optimal":
        assert sol.objective == pytest.approx(ref.objective, rel=1e-9,
                                              abs=sol.gap + ref.gap)


@st.composite
def line_scenarios(draw):
    """Chain scenarios with zero-budget buses, parallel branches, self-loops
    and export limits whose entries may be +-inf (no limit)."""
    n = draw(st.integers(2, 5))
    steps = draw(st.integers(1, 4))
    vals = st.floats(0.0, 3.0)

    def arr(elems):
        cells = draw(st.lists(elems, min_size=n * steps, max_size=n * steps))
        return np.array(cells, dtype=float).reshape(n, steps)

    load = arr(vals)
    load[:, 0] += 0.5  # every shed has demand
    budget = st.one_of(st.just(0.0), vals)
    up = arr(st.one_of(st.just(np.inf), st.floats(0.0, 2.0)))
    lw = arr(st.one_of(st.just(-np.inf), st.floats(-2.0, 0.0)))
    cut = draw(st.integers(1, n))  # sheds: buses 1..cut and cut+1..n
    partition = [(0, tuple(range(1, cut + 1)))]
    if cut < n:
        partition.append((1, tuple(range(cut + 1, n + 1))))
    s = make_line_scenario(
        arr(vals), load, arr(budget), arr(budget),
        alpha=draw(st.lists(vals, min_size=n, max_size=n)),
        partition=partition, flow_limit=draw(st.sampled_from([np.inf, 0.7])),
        export_upper=draw(st.sampled_from([None, up])),
        export_lower=draw(st.sampled_from([None, lw])), flex_everywhere=True)
    # parallel branches either way round (a chord from the deeper bus climbs
    # from its from end), and self-loops, which close a cycle on their own
    ends = st.sampled_from([(0, 1), (1, 0), (0, 0)])
    extra = draw(st.lists(st.tuples(st.integers(1, n - 1), ends, st.floats(0.01, 0.5)),
                          max_size=3))
    branches = s.network.branches + tuple(Branch(i + f, i + t, x, 1.5)
                                          for i, (f, t), x in extra)
    s = dataclasses.replace(s, network=dataclasses.replace(s.network, branches=branches))
    k = len(partition)
    x_min = draw(st.one_of(st.just(0.0), st.lists(st.floats(0.0, 2.0), min_size=k, max_size=k)))
    return s, x_min


class TestAgainstLoopBuilder:
    """build_p1 compiles the per-entry builder's program, less its angles:
    the same bounds, objective, inequality rows and power balance rows, and
    the same optimum."""

    @pytest.mark.parametrize("name", ["low", "medium", "high"])
    def test_bundled(self, request, name):
        s = request.getfixturevalue(f"scenario_{name}")
        k = len(s.partition.sheds)
        nbt = s.network.n_bus * s.time_grid.steps
        for x_min in (0.0, 0.5, np.linspace(0.0, 0.9, k)):
            assert_same_program(build_p1(s, x_min)[0], loop_build_p1(s, x_min), nbt)

    @given(line_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_line_scenarios(self, case):
        s, x_min = case
        nbt = s.network.n_bus * s.time_grid.steps
        assert_same_program(build_p1(s, x_min)[0], loop_build_p1(s, x_min), nbt)

    @pytest.mark.parametrize("name", ["low", "medium", "high"])
    @pytest.mark.parametrize("floor", [0.0, 0.5, 0.9, 1.0, 3.0])
    def test_bundled_optimum(self, request, name, floor):
        assert_same_optimum(request.getfixturevalue(f"scenario_{name}"), floor)

    @given(line_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_line_scenarios_optimum(self, case):
        assert_same_optimum(*case)


def parallel_scenario(branches):
    """Bus 1 exports 1.0 to bus 2 over the given (from, to, reactance)
    branches, with no flexibility."""
    s = make_line_scenario([[2.0], [0.0]], [[1.0], [1.0]], 0.0, 0.0)
    net = dataclasses.replace(s.network, branches=tuple(
        Branch(f, t, x, np.inf) for f, t, x in branches))
    return dataclasses.replace(s, network=net)


class TestCycleFlows:
    """The rows after the power balance are Kirchhoff's voltage law, one per
    fundamental cycle and step, and carry the DC flow law."""

    def solve(self, s):
        prog, lay = build_p1(s, 0.0)
        sol = solve_qp(prog)
        assert sol.status == "optimal"
        return prog, lay.decode(sol.x)["flow"][:, 0]

    @pytest.mark.parametrize("x1, x2", [(0.1, 0.3), (0.25, 0.05)])
    def test_parallel_branches_split_by_reactance(self, x1, x2):
        # the second branch is reversed, so bus 1 sends f1 and -f2 to bus 2,
        # in the ratio x2 : x1; the balance rows hold to the solver's 1e-8
        prog, flow = self.solve(parallel_scenario([(1, 2, x1), (2, 1, x2)]))
        assert prog.m_eq == 2 + 1
        assert flow[0] / -flow[1] == pytest.approx(x2 / x1, rel=1e-12)
        assert flow[0] - flow[1] == pytest.approx(1.0, abs=1e-7)

    def test_radial_network_has_no_cycle_rows(self):
        s = chain_scenario()
        prog, lay = build_p1(s, 0.5)
        assert prog.m_eq == lay.n_bus * lay.steps

    def test_self_loop_carries_no_flow(self):
        # the angle form forces x * f = theta_2 - theta_2 = 0: nothing else
        # in the program holds the self-loop's flow
        prog, flow = self.solve(parallel_scenario([(1, 2, 0.1), (2, 2, 0.2)]))
        assert prog.A_eq[2:].toarray().tolist() == [[0.0, 0.2] + [0.0] * (prog.n - 2)]
        assert flow[1] == pytest.approx(0.0, abs=1e-12)
        assert flow[0] == pytest.approx(1.0, abs=1e-7)

    def test_medium_size(self, scenario_medium):
        # 46 flows and 39 buses' S+, S-, C+ and C- over 24 steps; 936
        # balance rows and 8 cycles x 24 steps in place of 39 + 46 + 1
        # rows per step with the angles
        prog, _ = build_p1(scenario_medium, 0.6)
        assert prog.n == 3054
        assert prog.A_eq.shape == (1128, 3054)

    @given(line_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_cycle_rows_are_a_cycle_basis(self, case):
        assert_cycle_basis(case[0])

    @pytest.mark.parametrize("name", ["low", "medium", "high"])
    def test_bundled_cycle_rows_are_a_cycle_basis(self, request, name):
        assert_cycle_basis(request.getfixturevalue(f"scenario_{name}"))


def assert_cycle_basis(s):
    """Each cycle row of build_p1 over x_e is a vector o with incidence @ o
    = 0, and the rows are independent and as many as the cycle space's
    dimension, so they span it: the flows that satisfy them are those the
    angle form admits."""
    prog, lay = build_p1(s, 0.0)
    nbt, nft = lay.n_bus * lay.steps, lay.n_branch * lay.steps
    x = np.repeat([br.reactance for br in s.network.branches], lay.steps)
    cycles = prog.A_eq[nbt:, :nft].toarray() / x
    incidence = prog.A_eq[:nbt, :nft].toarray()
    assert not prog.A_eq[nbt:, nft:].nnz
    assert np.abs(incidence @ cycles.T).max(initial=0.0) <= 1e-12
    assert set(np.unique(cycles)) <= {-1.0, 0.0, 1.0}
    n_cycles = (lay.n_branch - lay.n_bus + 1) * lay.steps
    assert len(cycles) == n_cycles
    if n_cycles:
        assert np.linalg.matrix_rank(cycles) == n_cycles
