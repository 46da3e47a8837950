"""Policy-design drivers: max-min ratio design, parametric sweep, Pareto fronts.

The max-min ratio design problem maximizes the smallest shed ratio
N_k(x)/D_k(x), a generalized linear-fractional program with every
denominator D_k >= L_k > 0.  It is solved to global optimality by the
iteration of Dinkelbach (1967) in the form of Crouzeix, Ferland & Schaible
(1985): one always-feasible LP of P1's size per step, converging
superlinearly.  The cost-aware design trades the floor against capacity
cost and is solved by sweeping the floor over a mesh.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .problems import build_p1, build_p2_step, evaluate_f_tau, extract_report, shed_terms
# check_feasibility is unused here but stays in the namespace: the P2
# tests and perfbench/tracing.py rebind policy.check_feasibility
from .qpcore import FEAS_TOL, check_feasibility, solve_qp  # noqa: F401

INF = math.inf


class PolicyError(RuntimeError):
    pass


class InfeasibleError(PolicyError):
    """No dispatch satisfies the requested ratio floor."""


class PolicyInputError(PolicyError, ValueError):
    """A policy parameter out of its range (the CLI reports exit code 2)."""


@dataclass
class PolicyConfig:
    epsilon: float = 1e-6
    tau_lo: float = 0.0
    tau_hi: float = 1.0
    mesh: float = 0.01
    zeta_grid: tuple[float, ...] = tuple(float(z) for z in np.logspace(-2, 4, 13))

    def __post_init__(self):
        # chained comparisons, so NaN fails each check
        if not 0 < self.epsilon < INF:
            raise PolicyInputError("epsilon must be positive and finite")
        if not -INF < self.tau_lo < self.tau_hi < INF:
            raise PolicyInputError("bracket must be finite with tau_lo < tau_hi")
        if not 0 < self.mesh < INF:
            raise PolicyInputError("mesh must be positive and finite")


@dataclass
class PolicyResult:
    tau_star: float
    kind: str                  # "p2" | "p4"
    cost: float
    cost_normalized: float
    report: object
    trace: list                # p2: (tau, t >= 0) per step; p4: (tau, f_tau, cost)
    f_star: float | None = None
    probes: int = 0


def baseline(scenario):
    """Cost and report with no ratio requirements; normalization anchor."""
    prog, lay = build_p1(scenario, 0.0)
    sol = solve_qp(prog)
    if sol.status == "infeasible":
        raise InfeasibleError("baseline problem infeasible")
    if sol.status != "optimal":
        raise PolicyError(f"baseline problem not solved: status {sol.status}")
    return sol.objective, extract_report(scenario, lay, sol)


def solve_p2(scenario, cfg=None):
    """Maximize the minimum shed ratio by Dinkelbach's iteration.

    Step j solves build_p2_step's LP at floor tau_j, starting from
    tau_0 = tau_lo with the shed loads L_k as row scales, and moves to
    tau_{j+1} = min_k N_k(x_j)/D_k(x_j), a floor that x_j reaches; the
    next step scales row k by D_k(x_j).  Every step is feasible whenever
    the physics is, so no phase-1 solve is needed.  As D_k >= L_k, the
    optimum t_j bounds the best floor from above:
    tau* <= tau_j + max(t_j, 0) * max_k d_prev[k] / L_k.

    The answer is bisection's: tau_star is the point of the grid
    tau_lo + i*h, h = (tau_hi - tau_lo) / 2**n, n = ceil(log2((tau_hi -
    tau_lo) / epsilon)), at or below the last floor reached, and at most
    tau_hi - h.  The iteration stops once that floor and the upper bound
    share a grid cell or lie within FEAS_TOL, or once the floor reaches the
    top cell; it runs at most n LPs.  The bracket is never widened; a
    caller who expects tau* > 1 sets tau_hi.
    """
    cfg = cfg or PolicyConfig()
    lo, hi = cfg.tau_lo, cfg.tau_hi
    n_iter = max(1, math.ceil(math.log2((hi - lo) / cfg.epsilon)))
    h = (hi - lo) / 2 ** n_iter

    def cell(tau):
        return min(math.floor((tau - lo) / h), 2 ** n_iter - 1)

    idx = scenario.network.bus_index()
    loads = np.array([scenario.profiles.load[[idx[b] for b in members]].sum()
                      for _, members in scenario.partition.sheds])
    tau, d_prev = lo, loads
    trace = []
    for _ in range(n_iter):
        prog, lay = build_p2_step(scenario, tau, d_prev)
        sol = solve_qp(prog)
        if sol.status == "infeasible":
            raise InfeasibleError(f"infeasible at tau_lo = {lo}: bracket invalid")
        if sol.status != "optimal":
            raise PolicyError(f"P2 step at tau = {tau} failed: status {sol.status}")
        t = float(sol.x[-1])
        if not trace and t < -FEAS_TOL:
            raise InfeasibleError(f"infeasible at tau_lo = {lo}: bracket invalid")
        trace.append((tau, t >= 0))
        ub = tau + max(t, 0.0) * float(np.max(d_prev / loads))
        num, d_prev = shed_terms(scenario, lay, sol.x)
        tau = float(np.min(num / d_prev))
        if tau >= hi - h or cell(tau) == cell(ub) or ub - tau <= FEAS_TOL:
            break
    else:
        raise PolicyError(f"P2 iteration did not converge in {n_iter} LPs")

    tau_star = lo + h * max(cell(tau), 0)
    prog, lay = build_p1(scenario, tau_star, check=False)
    sol = solve_qp(prog)
    if sol.status == "infeasible":
        if tau_star == cfg.tau_lo:  # t_0 may lie within FEAS_TOL below 0
            raise InfeasibleError(f"infeasible at tau_lo = {tau_star}: bracket invalid")
        raise InfeasibleError(f"cost solve at tau* = {tau_star} infeasible")
    if sol.status != "optimal":
        raise PolicyError(f"cost solve at tau* failed: status {sol.status}")
    report = extract_report(scenario, lay, sol)
    cost0, _ = baseline(scenario)
    return PolicyResult(tau_star=tau_star, kind="p2", cost=sol.objective,
                        cost_normalized=_normalize(sol.objective, cost0),
                        report=report, trace=trace, probes=len(trace))


def _normalize(cost, cost0):
    return cost / cost0 if cost0 > 0 else (1.0 if cost <= 0 else INF)


def solve_p4(scenario, zeta, cfg=None, baseline_cost=None,
             cost_cache=None, threads=1):
    """Sweep the ratio floor over a mesh and maximize tau - cost/zeta.

    Ties break toward the smaller (less restrictive) floor.  One local
    refinement sweep shrinks the mesh tenfold around the incumbent.  Each
    sweep first solves its uncached points (concurrently with threads > 1),
    then reads the incumbent and the trace from the cost cache.  The
    per-floor cost solve does not depend on zeta, so an external cost_cache
    ({round(tau, 12): report-or-None}) may be shared across calls.
    """
    if not 0 < zeta < INF:
        raise PolicyInputError("zeta must be positive and finite")
    cfg = cfg or PolicyConfig()
    if baseline_cost is None:
        baseline_cost, _ = baseline(scenario)
    cache = cost_cache if cost_cache is not None else {}
    visited = set()  # the rounded taus this call sweeps

    def solve_one(tau):
        return evaluate_f_tau(scenario, tau, zeta, check=False)[1]

    def value(tau):
        rep = cache[tau]
        return -INF if rep is None else tau - rep.cost / zeta

    def sweep(points):
        keys = [round(float(t), 12) for t in points]
        visited.update(keys)
        todo = [t for t in dict.fromkeys(keys) if t not in cache]
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                cache.update(zip(todo, pool.map(solve_one, todo)))
        else:
            cache.update(zip(todo, map(solve_one, todo)))
        best_tau, best_val = None, -INF
        for tau, key in zip(points, keys):
            val = value(key)
            if val > best_val:  # strict: the first (smallest) tau wins ties
                best_tau, best_val = tau, val
        return best_tau, best_val

    incumbent, best_val = sweep(
        np.arange(cfg.tau_lo, cfg.tau_hi + 0.5 * cfg.mesh, cfg.mesh))
    if incumbent is None:
        raise InfeasibleError("all mesh points infeasible")
    step = cfg.mesh / 10.0
    cand, cand_val = sweep(np.arange(max(cfg.tau_lo, incumbent - cfg.mesh),
                                     min(cfg.tau_hi, incumbent + cfg.mesh) + 0.5 * step,
                                     step))
    if cand_val > best_val:
        incumbent, best_val = cand, cand_val

    report = cache[round(incumbent, 12)]
    trace = [(t, value(t), INF if cache[t] is None else cache[t].cost)
             for t in sorted(visited)]
    return PolicyResult(tau_star=float(incumbent), kind="p4", cost=report.cost,
                        cost_normalized=_normalize(report.cost, baseline_cost),
                        report=report, trace=trace, f_star=float(best_val),
                        probes=len(trace))


def pareto_front(scenario, cfg=None, threads=1):
    """(zeta, tau*, cost_normalized) along the configured zeta grid.

    The per-floor cost solves are shared across the grid, so the front
    costs little more than a single sweep.
    """
    cfg = cfg or PolicyConfig()
    grid = list(cfg.zeta_grid)
    if not grid or any(z <= 0 for z in grid) or sorted(grid) != grid:
        raise PolicyError("zeta grid must be nonempty, positive and ascending")
    cost0, _ = baseline(scenario)
    cache = {}
    front = []
    for zeta in grid:
        res = solve_p4(scenario, zeta, cfg, baseline_cost=cost0,
                       cost_cache=cache, threads=threads)
        front.append((zeta, res.tau_star, res.cost_normalized))
    return front
