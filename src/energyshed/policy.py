"""Policy-design drivers: bisection, parametric sweep, Pareto fronts.

The max-min ratio design problem is quasi-convex: feasibility of the
fixed-ratio subproblem is monotone in the floor, so bisection converges to
the supremum of achievable floors.  The cost-aware design trades the floor
against capacity cost and is solved by sweeping the floor over a mesh.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .problems import build_p1, build_p3, evaluate_f_tau, extract_report
from .qpcore import check_feasibility, solve_qp

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
    trace: list                # p2: (tau, feasible); p4: (tau, f_tau, cost)
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
    """Maximize the minimum shed ratio by bisection on the feasibility problem.

    Runs exactly ceil(log2(bracket/epsilon)) probes, one phase-1 solve each.
    The lower bracket end is not probed: if every probe is infeasible the
    bracket collapses onto tau_lo, and the cost solve there is the check
    (an infeasible one is reported as an invalid bracket).  The bracket is
    never widened; a caller who expects tau* > 1 sets tau_hi.
    """
    cfg = cfg or PolicyConfig()
    lo, hi = cfg.tau_lo, cfg.tau_hi
    n_iter = max(1, math.ceil(math.log2((hi - lo) / cfg.epsilon)))
    trace = []
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        ok = check_feasibility(build_p3(scenario, mid, check=False)) == "feasible"
        trace.append((mid, ok))
        if ok:
            lo = mid
        else:
            hi = mid

    tau_star = lo
    prog, lay = build_p1(scenario, tau_star, check=False)
    sol = solve_qp(prog)
    if sol.status == "infeasible":
        if tau_star == cfg.tau_lo:  # every probe was infeasible
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
