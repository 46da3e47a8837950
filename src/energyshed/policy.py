"""Policy-design drivers: bisection, parametric sweep, Pareto fronts.

The max-min ratio design problem is quasi-convex: feasibility of the
fixed-ratio subproblem is monotone in the floor, so bisection converges to
the supremum of achievable floors.  The cost-aware design trades the floor
against capacity cost and is solved by sweeping the floor over a mesh.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .problems import build_p1, build_p3, evaluate_f_tau, extract_report
from .qpcore import SolverConfig, check_feasibility, solve_qp

INF = math.inf


class PolicyError(RuntimeError):
    pass


class InfeasibleError(PolicyError):
    """No dispatch satisfies the requested ratio floor."""


@dataclass
class PolicyConfig:
    epsilon: float = 1e-6
    tau_lo: float = 0.0
    tau_hi: float = 1.0
    mesh: float = 0.01
    refine_rounds: int = 1
    zeta_grid: tuple[float, ...] = tuple(float(z) for z in np.logspace(-2, 4, 13))
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise PolicyError("epsilon must be positive")
        if self.tau_lo >= self.tau_hi:
            raise PolicyError("bracket must satisfy tau_lo < tau_hi")
        if self.mesh <= 0:
            raise PolicyError("mesh must be positive")


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


def _p3_feasible(scenario, tau, cfg):
    prog = build_p3(scenario, tau, check=False)
    return check_feasibility(prog, cfg.solver) == "feasible"


def baseline(scenario, solver_cfg=None):
    """Cost and report with no ratio requirements; normalization anchor."""
    prog, lay = build_p1(scenario, 0.0)
    sol = solve_qp(prog, solver_cfg or SolverConfig())
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
        ok = _p3_feasible(scenario, mid, cfg)
        trace.append((mid, ok))
        if ok:
            lo = mid
        else:
            hi = mid

    tau_star = lo
    prog, lay = build_p1(scenario, tau_star, check=False)
    sol = solve_qp(prog, cfg.solver)
    if sol.status == "infeasible":
        if tau_star == cfg.tau_lo:  # every probe was infeasible
            raise InfeasibleError(f"infeasible at tau_lo = {tau_star}: bracket invalid")
        raise InfeasibleError(f"cost solve at tau* = {tau_star} infeasible")
    if sol.status != "optimal":
        raise PolicyError(f"cost solve at tau* failed: status {sol.status}")
    report = extract_report(scenario, lay, sol)
    cost0, _ = baseline(scenario, cfg.solver)
    return PolicyResult(tau_star=tau_star, kind="p2", cost=sol.objective,
                        cost_normalized=_normalize(sol.objective, cost0),
                        report=report, trace=trace, probes=len(trace))


def _normalize(cost, cost0):
    return cost / cost0 if cost0 > 0 else (1.0 if cost <= 0 else INF)


def solve_p4(scenario, zeta, cfg=None, baseline_cost=None,
             cost_cache=None, threads=1):
    """Sweep the ratio floor over a mesh and maximize tau - cost/zeta.

    Ties break toward the smaller (less restrictive) floor.  One local
    refinement round per config shrinks the mesh tenfold around the
    incumbent.  The per-floor cost solve does not depend on zeta, so an
    external cost_cache ({tau: report-or-None}) may be shared across calls;
    with threads > 1 uncached mesh points are solved concurrently and
    merged back in input order, so traces match the sequential run.
    """
    if zeta <= 0:
        raise PolicyError("zeta must be positive")
    cfg = cfg or PolicyConfig()
    if baseline_cost is None:
        baseline_cost, _ = baseline(scenario, cfg.solver)
    cache = cost_cache if cost_cache is not None else {}

    trace = []
    seen = set()

    def solve_one(tau):
        val, rep = evaluate_f_tau(scenario, tau, zeta, cfg.solver, check=False)
        return rep

    def record(tau):
        rep = cache[tau]
        if tau not in seen:
            seen.add(tau)
            if rep is None:
                trace.append((tau, -INF, INF))
            else:
                trace.append((tau, tau - rep.cost / zeta, rep.cost))

    def f_of(tau):
        tau = round(float(tau), 12)
        if tau not in cache:
            cache[tau] = solve_one(tau)
        record(tau)
        rep = cache[tau]
        return (tau - rep.cost / zeta, rep) if rep is not None else (-INF, None)

    def prefetch(points):
        todo = [t for t in dict.fromkeys(round(float(t), 12) for t in points)
                if t not in cache]
        if threads > 1 and len(todo) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for tau, rep in zip(todo, pool.map(solve_one, todo)):
                    cache[tau] = rep

    def sweep(points):
        prefetch(points)
        best_tau, best_val = None, -INF
        for tau in points:
            val, _ = f_of(tau)
            if val > best_val + 0.0:  # strict: first (smallest) tau wins ties
                best_tau, best_val = tau, val
        return best_tau, best_val

    mesh_points = np.arange(cfg.tau_lo, cfg.tau_hi + 0.5 * cfg.mesh, cfg.mesh)
    incumbent, best_val = sweep(mesh_points)
    if incumbent is None or best_val == -INF:
        raise InfeasibleError("all mesh points infeasible")

    step = cfg.mesh
    for _ in range(cfg.refine_rounds):
        lo = max(cfg.tau_lo, incumbent - step)
        hi = min(cfg.tau_hi, incumbent + step)
        step = step / 10.0
        local = np.arange(lo, hi + 0.5 * step, step)
        cand, cand_val = sweep(local)
        if cand is not None and cand_val > best_val:
            incumbent, best_val = cand, cand_val

    report = cache[round(incumbent, 12)]
    return PolicyResult(tau_star=float(incumbent), kind="p4", cost=report.cost,
                        cost_normalized=_normalize(report.cost, baseline_cost),
                        report=report, trace=sorted(trace), f_star=float(best_val),
                        probes=len(seen))


def pareto_front(scenario, cfg=None, threads=1):
    """(zeta, tau*, cost_normalized) along the configured zeta grid.

    The per-floor cost solves are shared across the grid, so the front
    costs little more than a single sweep.
    """
    cfg = cfg or PolicyConfig()
    grid = list(cfg.zeta_grid)
    if not grid or any(z <= 0 for z in grid) or sorted(grid) != grid:
        raise PolicyError("zeta grid must be nonempty, positive and ascending")
    cost0, _ = baseline(scenario, cfg.solver)
    cache = {}
    front = []
    for zeta in grid:
        res = solve_p4(scenario, zeta, cfg, baseline_cost=cost0,
                       cost_cache=cache, threads=threads)
        front.append((zeta, res.tau_star, res.cost_normalized))
    return front
