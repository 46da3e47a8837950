"""Shared fixtures: bundled scenario paths and small hand-built scenarios."""

import os

import numpy as np
import pytest

from energyshed.netmodel import (
    Branch,
    Bus,
    CostWeights,
    FlexBudget,
    Network,
    Partition,
    Profiles,
    Scenario,
    TimeGrid,
    load_scenario,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                        "src", "energyshed", "data")


def data_path(name):
    return os.path.abspath(os.path.join(DATA_DIR, name))


@pytest.fixture(scope="session")
def scenario_low():
    return load_scenario(data_path("scenario_low.json"))


@pytest.fixture(scope="session")
def scenario_medium():
    return load_scenario(data_path("scenario_medium.json"))


@pytest.fixture(scope="session")
def scenario_high():
    return load_scenario(data_path("scenario_high.json"))


def make_line_scenario(gen, load, cap_plus, cap_minus, *, alpha=None,
                       beta=None, partition=None, flow_limit=np.inf,
                       export_upper=None, export_lower=None,
                       flex_everywhere=False, step_hours=1.0):
    """Chain network 1-2-...-n with per-bus (n, T) profile arrays."""
    gen = np.asarray(gen, dtype=float)
    load = np.asarray(load, dtype=float)
    n, steps = load.shape
    buses = tuple(Bus(id=i + 1) for i in range(n))
    branches = tuple(Branch(i + 1, i + 2, 0.1, flow_limit)
                     for i in range(n - 1))
    net = Network(buses=buses, branches=branches, base_mva=100.0,
                  reference_bus=1)
    if partition is None:
        partition = [(0, tuple(b.id for b in buses))]
    cap_plus = np.broadcast_to(np.asarray(cap_plus, dtype=float),
                               (n, steps)).copy()
    cap_minus = np.broadcast_to(np.asarray(cap_minus, dtype=float),
                                (n, steps)).copy()
    if not flex_everywhere:
        no_load = load.sum(axis=1) <= 0
        cap_plus[no_load] = 0.0
        cap_minus[no_load] = 0.0
    budgets = FlexBudget(cap_plus=cap_plus, cap_minus=cap_minus,
                         export_upper=export_upper,
                         export_lower=export_lower)
    weights = CostWeights(
        alpha=np.ones(n) if alpha is None else np.asarray(alpha, dtype=float),
        beta=np.ones(n) if beta is None else np.asarray(beta, dtype=float),
    )
    return Scenario(
        network=net,
        time_grid=TimeGrid(steps=steps, step_hours=step_hours),
        profiles=Profiles(gen=gen, load=load),
        budgets=budgets,
        weights=weights,
        partition=Partition(sheds=tuple((k, tuple(m)) for k, m in partition)),
        flex_only_at_load_buses=not flex_everywhere,
    )


def single_shed_scenario(rng, limited):
    """Chain scenario: one load shed at bus 1, slack flex at bus 3.

    Returns (scenario, closed-form tau*), with the frontier strictly
    inside (0, 1), so below the top floor 1 that P2 and P4 search to.
    """
    steps = int(rng.integers(2, 5))
    load = rng.uniform(0.5, 2.0, steps)
    gen = rng.uniform(0.0, 0.8, steps) * load
    cap = rng.uniform(0.05, 0.9, steps) * (load - gen)
    n = 3
    big_l = np.zeros((n, steps))
    big_g = np.zeros((n, steps))
    big_l[0] = load
    big_g[0] = gen
    cp = np.zeros((n, steps))
    cp[0] = cap
    cp[2] = 10.0
    cm = np.zeros((n, steps))
    cm[2] = 10.0
    export_upper = None
    if limited:
        cm[0] = 10.0
        pbar = rng.uniform(0.0, 1.0, steps) * cap
        deficit = float((load - gen).sum())
        if pbar.sum() < deficit:
            pbar = pbar + (deficit - pbar.sum() + 0.05) / steps
        # net-injection bound encoding the flex-export limit S+ - S- <= pbar
        export_upper = np.full((n, steps), np.inf)
        export_upper[0] = pbar + gen - load
        expected = ((gen.sum() + cap.sum())
                    / (load.sum() + np.maximum(cap - pbar, 0.0).sum()))
    else:
        expected = (gen.sum() + cap.sum()) / load.sum()
    scen = make_line_scenario(big_g, big_l, cap_plus=cp, cap_minus=cm,
                              export_upper=export_upper,
                              partition=[(0, (1,))], flex_everywhere=True)
    return scen, float(expected)
