"""Bisection, sweep and Pareto-front behavior on small analyzable systems."""

import math

import numpy as np
import pytest

from conftest import make_line_scenario
from energyshed import policy
from energyshed.policy import (
    InfeasibleError,
    PolicyConfig,
    PolicyError,
    PolicyInputError,
    baseline,
    pareto_front,
    solve_p2,
    solve_p4,
)
from energyshed.problems import build_p3
from energyshed.qpcore import check_feasibility


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
        res = solve_p2(sink_scenario(), PolicyConfig(epsilon=1e-6))
        assert res.probes <= 20
        assert res.probes == math.ceil(math.log2(1.0 / 1e-6))

    def test_trace_is_monotone(self):
        res = solve_p2(sink_scenario())
        feas = [t for t, ok in res.trace if ok]
        infeas = [t for t, ok in res.trace if not ok]
        assert not feas or not infeas or max(feas) < min(infeas)

    def test_two_epsilon_bracketing(self):
        s = sink_scenario()
        cfg = PolicyConfig(epsilon=1e-6)
        res = solve_p2(s, cfg)
        eps = cfg.epsilon
        assert check_feasibility(
            build_p3(s, res.tau_star - 2 * eps, check=False)) == "feasible"
        assert check_feasibility(
            build_p3(s, res.tau_star + 2 * eps, check=False)) == "infeasible"

    def test_infeasible_bracket_start(self):
        # no budget anywhere and an unbalanced base case
        gen = np.array([[0.2, 0.2], [0.0, 0.0], [0.0, 0.0]])
        load = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        s = make_line_scenario(gen, load, cap_plus=0.0, cap_minus=0.0,
                               partition=[(0, (1,))], flex_everywhere=True)
        with pytest.raises(InfeasibleError, match="tau_lo"):
            solve_p2(s)

    def test_bracket_expansion(self):
        s = sink_scenario(cap1=2.0)  # bound = 0.2 + 4 / 2 = 2.2
        res = solve_p2(s, PolicyConfig(tau_hi=4.0, epsilon=1e-5))
        assert res.tau_star == pytest.approx(2.2, abs=1e-4)

    def test_without_expansion_clamps_to_bracket(self):
        res = solve_p2(sink_scenario(cap1=2.0))
        assert res.tau_star == pytest.approx(1.0, abs=2e-6)

    def test_cost_normalized_at_least_one(self):
        res = solve_p2(sink_scenario())
        assert res.cost_normalized >= 1.0 - 1e-6

    def test_config_validation(self):
        with pytest.raises(PolicyError):
            PolicyConfig(epsilon=0.0)
        with pytest.raises(PolicyError):
            PolicyConfig(tau_lo=1.0, tau_hi=0.5)
        with pytest.raises(PolicyError):
            PolicyConfig(mesh=-0.1)

    @pytest.mark.parametrize("kw", [{"epsilon": math.nan}, {"epsilon": math.inf},
                                    {"mesh": math.nan}, {"mesh": math.inf},
                                    {"tau_lo": math.nan}, {"tau_hi": math.inf}],
                             ids=["eps-nan", "eps-inf", "mesh-nan", "mesh-inf",
                                  "lo-nan", "hi-inf"])
    def test_non_finite_config_rejected(self, kw):
        with pytest.raises(PolicyInputError):
            PolicyConfig(**kw)


class TestBaseline:
    def test_baseline_is_cheapest(self):
        s = sink_scenario()
        cost0, report = baseline(s)
        res = solve_p2(s)
        assert cost0 <= res.cost + 1e-9
        assert report.status == "optimal"


class TestSweep:
    def test_large_zeta_recovers_max_ratio(self):
        s = sink_scenario()
        cfg = PolicyConfig(mesh=0.01)
        p2 = solve_p2(s, cfg)
        p4 = solve_p4(s, 1e9, cfg)
        assert abs(p4.tau_star - p2.tau_star) <= cfg.mesh + 1e-9
        assert p4.f_star <= p2.tau_star + cfg.mesh

    def test_small_zeta_recovers_baseline_cost(self):
        res = solve_p4(sink_scenario(), 1e-9, PolicyConfig(mesh=0.05))
        assert res.cost_normalized <= 1.0 + 1e-4

    def test_trace_sorted_and_complete(self):
        cfg = PolicyConfig(mesh=0.1)
        res = solve_p4(sink_scenario(), 10.0, cfg)
        taus = [t for t, _, _ in res.trace]
        assert taus == sorted(taus)
        assert res.probes == len(res.trace)
        # initial mesh plus one refinement decade around the incumbent
        assert res.probes >= 11

    def test_infeasible_points_marked_not_fatal(self):
        s = sink_scenario(cap1=0.3)
        res = solve_p4(s, 1e9, PolicyConfig(mesh=0.25))
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
        cfg = PolicyConfig(mesh=0.1)
        a = solve_p4(s, 50.0, cfg)
        b = solve_p4(s, 50.0, cfg, threads=4)
        assert a.tau_star == b.tau_star
        assert a.trace == b.trace


class TestParetoFront:
    def test_monotone_tau_and_normalized_cost(self):
        s = sink_scenario(alpha=[5.0, 1.0, 1.0])
        cfg = PolicyConfig(mesh=0.05,
                           zeta_grid=tuple(float(z)
                                           for z in np.logspace(-2, 3, 6)))
        front = pareto_front(s, cfg)
        taus = [t for _, t, _ in front]
        costs = [c for _, _, c in front]
        assert taus == sorted(taus)
        assert all(c >= 1.0 - 1e-6 for c in costs)
        assert costs == sorted(costs)

    def test_shared_cost_cache_matches_isolated_sweeps(self):
        s = sink_scenario()
        cfg = PolicyConfig(mesh=0.1, zeta_grid=(0.5, 50.0))
        front = pareto_front(s, cfg)
        for zeta, tau_star, cost_norm in front:
            solo = solve_p4(s, zeta, cfg)
            assert solo.tau_star == tau_star
            assert solo.cost_normalized == pytest.approx(cost_norm, rel=1e-12)

    def test_each_tau_evaluated_once(self, monkeypatch):
        # one sweep path: every distinct rounded tau of the whole front is
        # solved exactly once, serially or on a pool
        s = sink_scenario()
        cfg = PolicyConfig(mesh=0.1, zeta_grid=(0.5, 50.0))
        swept = {t for zeta in cfg.zeta_grid
                 for t, _, _ in solve_p4(s, zeta, cfg).trace}
        evaluate = policy.evaluate_f_tau
        fronts = {}
        for threads in (1, 2):
            calls = []

            def counting(scenario, tau, zeta, check=True):
                calls.append(tau)
                return evaluate(scenario, tau, zeta, check=check)

            monkeypatch.setattr(policy, "evaluate_f_tau", counting)
            fronts[threads] = pareto_front(s, cfg, threads=threads)
            assert sorted(calls) == sorted(swept), threads
        assert fronts[1] == fronts[2]

    def test_grid_validation(self):
        with pytest.raises(PolicyError, match="ascending"):
            pareto_front(sink_scenario(),
                         PolicyConfig(zeta_grid=(2.0, 1.0)))
        with pytest.raises(PolicyError, match="positive"):
            pareto_front(sink_scenario(),
                         PolicyConfig(zeta_grid=(-1.0, 1.0)))
