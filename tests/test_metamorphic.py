"""Permutation relations: relabelings of a scenario that leave its answers
unchanged.

Permuting the time steps, reversing every branch (from <-> to), reordering
the buses and moving the reference bus, or reordering the sheds describes
the same planning problem, so P1's statuses and costs, and P2's and P4's
tau*, must not move.  Each relation changes what build_p1 compiles: the
row and column order, the spanning tree whose fundamental cycles carry
Kirchhoff's voltage law, or the cycles' orientation.
"""

import dataclasses

import numpy as np
import pytest

from conftest import data_path
from energyshed.netmodel import Branch, CostWeights, FlexBudget, Profiles, load_scenario
from energyshed.policy import solve_p2, solve_p4
from energyshed.problems import build_p1
from energyshed.qpcore import solve_qp

FLOORS = (0.0, 0.5, 0.9, 1.0, 3.0)


def permute_steps(s):
    perm = np.random.default_rng(0).permutation(s.time_grid.steps)
    b = s.budgets

    def cols(a):
        return None if a is None else a[:, perm]

    return dataclasses.replace(
        s, profiles=Profiles(gen=cols(s.profiles.gen), load=cols(s.profiles.load)),
        budgets=FlexBudget(cap_plus=cols(b.cap_plus), cap_minus=cols(b.cap_minus),
                           export_upper=cols(b.export_upper),
                           export_lower=cols(b.export_lower)))


def reverse_branches(s):
    branches = tuple(Branch(br.to_bus, br.from_bus, br.reactance, br.flow_limit)
                     for br in s.network.branches)
    return dataclasses.replace(s, network=dataclasses.replace(s.network, branches=branches))


def reorder_buses(s):
    """The buses in a seeded order, the reference moved to the first of them
    that is not the reference already."""
    net, b = s.network, s.budgets
    perm = np.random.default_rng(1).permutation(net.n_bus)
    buses = tuple(net.buses[i] for i in perm)
    ref = next(bus.id for bus in buses if bus.id != net.reference_bus)

    def rows(a):
        return None if a is None else a[perm]

    return dataclasses.replace(
        s, network=dataclasses.replace(net, buses=buses, reference_bus=ref),
        profiles=Profiles(gen=rows(s.profiles.gen), load=rows(s.profiles.load)),
        budgets=FlexBudget(cap_plus=rows(b.cap_plus), cap_minus=rows(b.cap_minus),
                           export_upper=rows(b.export_upper),
                           export_lower=rows(b.export_lower)),
        weights=CostWeights(alpha=rows(s.weights.alpha), beta=rows(s.weights.beta)))


def reorder_sheds(s):
    sheds = s.partition.sheds
    order = np.random.default_rng(2).permutation(len(sheds))
    partition = dataclasses.replace(s.partition, sheds=tuple(sheds[i] for i in order))
    return dataclasses.replace(s, partition=partition)


RELATIONS = [permute_steps, reverse_branches, reorder_buses, reorder_sheds]


def p1_outcomes(s):
    """(status, cost or None) of P1 at each of FLOORS."""
    out = []
    for floor in FLOORS:
        sol = solve_qp(build_p1(s, floor)[0])
        out.append((sol.status, sol.objective if sol.status == "optimal" else None))
    return out


def tau_stars(s):
    """P2's tau*, then P4's at zeta 1 and 10 on mesh 0.05."""
    cache = {}
    return [solve_p2(s).tau_star] + [solve_p4(s, zeta, 0.05, cost_cache=cache).tau_star
                                     for zeta in (1.0, 10.0)]


def bundled(name):
    return load_scenario(data_path(f"scenario_{name}.json"))


@pytest.fixture(scope="module", params=["low", "medium", "high"])
def p1_case(request):
    s = bundled(request.param)
    return s, p1_outcomes(s)


@pytest.fixture(scope="module", params=["medium", "high"])
def design_case(request):
    s = bundled(request.param)
    return s, tau_stars(s)


@pytest.mark.parametrize("relation", RELATIONS, ids=lambda f: f.__name__)
def test_p1_statuses_and_costs(p1_case, relation):
    s, want = p1_case
    got = p1_outcomes(relation(s))
    assert [status for status, _ in got] == [status for status, _ in want]
    for (_, cost), (_, base) in zip(got, want):
        if base is not None:
            assert cost == pytest.approx(base, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("relation", RELATIONS, ids=lambda f: f.__name__)
def test_p2_and_p4_tau_star(design_case, relation):
    s, want = design_case
    assert tau_stars(relation(s)) == want


def test_relations_change_the_scenario(scenario_medium):
    # none of them is the identity on a bundled scenario
    s = scenario_medium
    assert not np.array_equal(permute_steps(s).profiles.load, s.profiles.load)
    assert reverse_branches(s).network.branches[0].from_bus == s.network.branches[0].to_bus
    moved = reorder_buses(s).network
    assert moved.reference_bus != s.network.reference_bus
    assert moved.bus_ids() != s.network.bus_ids()
    assert reorder_sheds(s).partition.sheds != s.partition.sheds
