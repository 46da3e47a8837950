"""Acceptance suite: ten end-to-end criteria, one PASS/FAIL line each.

The verdict lines print straight to the terminal (capture disabled), so a
plain ``pytest -v`` run shows one line per criterion.  Tests run in file
order; later criteria reuse artifacts (traces, solutions, costs) collected
by earlier ones but each test also produces enough of its own material to
stand alone.
"""
from __future__ import annotations

import time

import numpy as np

from conftest import data_path, make_line_scenario, single_shed_scenario
from oracles import (
    best_ratio_series,
    build_p3,
    grid_minimize,
    kkt_residuals,
    power_balance_residual,
)

from energyshed.analytic import (
    CommunitySeries,
    max_ratio_constrained,
    max_ratio_unconstrained,
)
from energyshed.netmodel import (
    induced_subgraph_connected,
    parse_matpower_case,
    serialize_network_case,
)
from energyshed.policy import baseline, solve_p2, solve_p4
from energyshed.problems import build_p1, evaluate_f_tau
from energyshed.qpcore import check_feasibility, solve_qp

# artifacts shared across criteria (populated in file order)
_TRACES = []          # (label, solve_p2 trace)
_SOLUTIONS = []       # (label, program, solution, scenario, layout)
_COSTS = {}           # (scenario name, floor) -> optimal cost


def _verdict(capsys, num, text, ok):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {text}: {'PASS' if ok else 'FAIL'}",
              flush=True)
    assert ok, f"criterion {num}: {text}"


# ---------------------------------------------------------------------------
# randomized instance factories
# ---------------------------------------------------------------------------

def _random_community(rng, limited):
    """Community series in the regime where the closed forms are exact."""
    steps = int(rng.integers(2, 7))
    load = rng.uniform(0.5, 2.0, steps)
    gen = rng.uniform(0.0, 0.8, steps) * load
    if not limited:
        cap = rng.uniform(0.0, 2.0, steps)
        return CommunitySeries(gen, load, cap)
    cap = rng.uniform(0.05, 0.9, steps) * (load - gen)
    limit = rng.uniform(0.0, 1.0, steps) * cap
    deficit = float((load - gen).sum())
    if limit.sum() < deficit:
        limit = limit + (deficit - limit.sum() + 0.05) / steps
    return CommunitySeries(gen, load, cap, limit)


def _p1_instance(rng, with_floor):
    """3-bus, 2-step planning instance plus a dense-grid oracle objective.

    Flex lives at buses 1 and 3 with zero absorption budget, so per-step
    balance pins bus-3 injection once bus-1 injection is chosen: the exact
    problem reduces to a 2-d box (one dimension per step).
    """
    steps = 2
    while True:
        load = np.zeros((3, steps))
        gen = np.zeros((3, steps))
        load[0] = rng.uniform(0.3, 0.6, steps)
        load[2] = rng.uniform(0.3, 0.6, steps)
        gen[0] = rng.uniform(0.1, 0.9, steps) * load[0]
        gen[2] = rng.uniform(0.1, 0.9, steps) * load[2]
        deficit = (load - gen).sum(axis=0)
        cap1 = rng.uniform(0.4, 1.0, steps) * deficit
        cap3 = rng.uniform(0.4, 1.0, steps) * deficit
        if np.all(cap1 + cap3 >= deficit + 1e-3):
            break
    lo_t = np.maximum(0.0, deficit - cap3)
    hi_t = np.minimum(cap1, deficit)
    sum1 = lambda a: float(a.sum())  # noqa: E731
    g1, l1 = sum1(gen[0]), sum1(load[0])
    g3, l3 = sum1(gen[2]), sum1(load[2])
    if with_floor:
        lo_sum, hi_sum = float(lo_t.sum()), float(hi_t.sum())
        a1 = lo_sum + float(rng.uniform(0.2, 0.5)) * (hi_sum - lo_sum)
        b1 = lo_sum + 0.9 * (hi_sum - lo_sum)
        tau1 = (g1 + a1) / l1
        tau3 = (g3 + float(deficit.sum()) - b1) / l3
    else:
        tau1 = tau3 = 0.0

    alpha = rng.uniform(0.5, 1.0, 3)
    cp = np.zeros((3, steps))
    cp[0] = cap1
    cp[2] = cap3
    scen = make_line_scenario(gen, load, cap_plus=cp,
                              cap_minus=np.zeros((3, steps)), alpha=alpha,
                              partition=[(0, (1,)), (1, (3,))])

    def oracle_objective(u):
        s1 = lo_t + u * (hi_t - lo_t)
        s3 = deficit - s1
        if (g1 + s1.sum() < tau1 * l1 - 1e-12
                or g3 + s3.sum() < tau3 * l3 - 1e-12):
            return np.inf
        return (alpha[0] * float(s1.max()) ** 2
                + alpha[2] * float(s3.max()) ** 2)

    return scen, [tau1, tau3], oracle_objective


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_proposition_oracle(capsys):
    rng = np.random.default_rng(11)
    t0 = time.monotonic()
    worst = 0.0
    for k in range(200):
        limited = k % 2 == 1
        c = _random_community(rng, limited)
        got = (max_ratio_constrained(c) if limited
               else max_ratio_unconstrained(c))
        want = best_ratio_series(c.gen, c.load, c.cap_plus, c.export_limit)
        worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - t0
    _verdict(capsys, 1,
             f"closed forms vs vertex search on 200 series "
             f"(max err {worst:.1e}, {elapsed:.1f}s)",
             worst <= 2e-3 and elapsed < 10.0)


def test_criterion_2_closed_form_vs_optimizer(capsys):
    rng = np.random.default_rng(23)
    t0 = time.monotonic()
    worst = 0.0
    for k in range(22):
        scen, expected = single_shed_scenario(rng, limited=k % 2 == 1)
        res = solve_p2(scen)
        _TRACES.append((f"criterion2-{k}", res.trace))
        worst = max(worst, abs(res.tau_star - expected))
    elapsed = time.monotonic() - t0
    _verdict(capsys, 2,
             f"Dinkelbach tau* vs closed forms on 22 scenarios "
             f"(max err {worst:.1e}, {elapsed:.1f}s)",
             worst <= 1e-5 and elapsed < 60.0)


def test_criterion_3_bisection_budget(capsys):
    rng = np.random.default_rng(37)
    scen, _ = single_shed_scenario(rng, limited=False)
    res = solve_p2(scen)  # default epsilon 1e-6 on [0, 1]
    _TRACES.append(("criterion3", res.trace))
    eps = 1e-6
    below = check_feasibility(build_p3(scen, res.tau_star - 2 * eps))
    above = check_feasibility(build_p3(scen, res.tau_star + 2 * eps))
    _verdict(capsys, 3,
             f"{res.probes} probes (<= 20), tau* - 2e is {below}, "
             f"tau* + 2e is {above}",
             res.probes <= 20 and below == "feasible"
             and above == "infeasible")


def test_criterion_4_monotone_feasibility(capsys, scenario_high):
    res = solve_p2(scenario_high)
    _TRACES.append(("criterion4-high", res.trace))
    bad = []
    for label, trace in _TRACES:
        feas = [tau for tau, ok in trace if ok]
        infeas = [tau for tau, ok in trace if not ok]
        if feas and infeas and max(feas) >= min(infeas):
            bad.append(label)
    _verdict(capsys, 4,
             f"no feasible probe above an infeasible one on "
             f"{len(_TRACES)} traces",
             not bad)


def test_criterion_5_p1_oracle(capsys):
    rng = np.random.default_rng(41)
    t0 = time.monotonic()
    worst = 0.0
    for k in range(10):
        scen, floors, oracle_objective = _p1_instance(rng, with_floor=k >= 5)
        prog, lay = build_p1(scen, floors)
        sol = solve_qp(prog)
        assert sol.status == "optimal"
        _SOLUTIONS.append((f"criterion5-{k}", prog, sol, scen, lay))
        grid_val, _ = grid_minimize(oracle_objective, [(0.0, 1.0)] * 2, 1e-2)
        worst = max(worst, abs(sol.objective - grid_val))
    elapsed = time.monotonic() - t0
    _verdict(capsys, 5,
             f"build_p1 + solve_qp vs dense grid on 10 instances "
             f"(max err {worst:.1e}, {elapsed:.1f}s)",
             worst <= 5e-3 and elapsed < 120.0)


def test_criterion_6_kkt_and_conservation(capsys, scenario_low,
                                          scenario_medium, scenario_high):
    for name, scen in (("low", scenario_low), ("medium", scenario_medium),
                       ("high", scenario_high)):
        for floor in (0.0, 1.0):
            prog, lay = build_p1(scen, floor)
            sol = solve_qp(prog)
            assert sol.status == "optimal"
            _SOLUTIONS.append((f"{name}@{floor}", prog, sol, scen, lay))
            _COSTS[(name, floor)] = sol.objective
    worst_kkt = 0.0
    worst_bal = 0.0
    for label, prog, sol, scen, lay in _SOLUTIONS:
        worst_kkt = max(worst_kkt, max(kkt_residuals(prog, sol)))
        worst_bal = max(worst_bal, power_balance_residual(scen, lay, sol.x))
    _verdict(capsys, 6,
             f"KKT {worst_kkt:.1e} and power balance {worst_bal:.1e} on "
             f"{len(_SOLUTIONS)} optimal solutions",
             worst_kkt <= 1e-6 and worst_bal <= 1e-6)


def test_criterion_7_aggregation_ordering(capsys, scenario_low,
                                          scenario_medium, scenario_high):
    costs = {}
    for name, scen in (("low", scenario_low), ("medium", scenario_medium),
                       ("high", scenario_high)):
        if (name, 1.0) not in _COSTS:
            prog, _ = build_p1(scen, 1.0)
            _COSTS[(name, 1.0)] = solve_qp(prog).objective
        costs[name] = _COSTS[(name, 1.0)]
    norm_high = costs["high"] / baseline(scenario_high).cost
    _verdict(capsys, 7,
             f"floor-1 cost low {costs['low']:.4f} >= medium "
             f"{costs['medium']:.4f} >= high {costs['high']:.4f}, "
             f"high normalized {norm_high:.4f} <= 1.05",
             costs["low"] >= costs["medium"] >= costs["high"]
             and norm_high <= 1.05)


def test_criterion_8_p4_limits(capsys, scenario_medium):
    cache = {}
    hi = solve_p4(scenario_medium, 1e9, cost_cache=cache)
    lo = solve_p4(scenario_medium, 1e-9, cost_cache=cache)
    p2 = solve_p2(scenario_medium)
    gap = abs(hi.tau_star - p2.tau_star)
    _verdict(capsys, 8,
             f"zeta=1e9 tau* gap to P2 {gap:.4f} <= 0.01, "
             f"zeta=1e-9 normalized cost {lo.cost_normalized:.6f} <= 1+1e-4",
             gap <= 0.01 + 1e-9 and lo.cost_normalized <= 1.0 + 1e-4)


def test_criterion_9_scale(capsys, scenario_medium):
    times = []
    for tau in np.linspace(0.0, 1.0, 101):
        t0 = time.monotonic()
        evaluate_f_tau(scenario_medium, float(tau), 1.0)
        times.append(time.monotonic() - t0)
    total = sum(times)
    _verdict(capsys, 9,
             f"101-point sweep on 39-bus scenario in {total:.1f}s < 900s, "
             f"slowest solve {max(times):.2f}s < 10s",
             total < 900.0 and max(times) < 10.0)


def test_criterion_10_parser_goldens(capsys):
    with open(data_path("case39.m")) as fh:
        net = parse_matpower_case(fh.read())
    text1 = serialize_network_case(net)
    net2 = parse_matpower_case(text1)
    text2 = serialize_network_case(net2)
    _verdict(capsys, 10,
             f"case39 parses to {len(net.buses)} buses, connected, "
             f"round-trip stable",
             len(net.buses) == 39
             and induced_subgraph_connected(net, net.bus_ids())
             and text1 == text2 and net2 == parse_matpower_case(text2))
