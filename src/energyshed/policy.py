"""Policy-design drivers: max-min ratio design, parametric sweep, Pareto fronts.

The max-min ratio design problem maximizes the smallest shed ratio
N_k(x)/D_k(x), a generalized linear-fractional program with every
denominator D_k >= L_k > 0.  It is solved to global optimality by the
iteration of Dinkelbach (1967) in the form of Crouzeix, Ferland & Schaible
(1985): one always-feasible LP of P1's size per step, converging
superlinearly.  The cost-aware design trades the floor against capacity
cost and is solved over a mesh of floors; as the cost is nondecreasing in
the floor, each solved floor bounds the ones above it, and most mesh
points are pruned without a solve.  Both designs search the floors of
[0, top], the top derived from the scenario (_top_floor); floor 0 is the
baseline, met whenever the network constraints are.
"""

from __future__ import annotations

import math
from bisect import bisect
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .netmodel import shed_rows
from .problems import (
    PolicyError,
    build_p1,
    build_p2_step,
    evaluate_f_tau,
    extract_report,
    shed_terms,
)
# check_feasibility is unused here but stays in the namespace: the P2
# tests and perfbench/tracing.py rebind policy.check_feasibility
from .qpcore import FEAS_TOL, TOL, check_feasibility, solve_qp  # noqa: F401

INF = math.inf
EPSILON = 1e-6   # P2's resolution
MESH = 0.01      # P4's floor step
ZETA_GRID = tuple(float(z) for z in np.logspace(-2, 4, 13))  # the Pareto front's weights


class PolicyInputError(PolicyError, ValueError):
    """A policy parameter out of its range (the CLI reports exit code 2)."""


@dataclass
class PolicyResult:
    tau_star: float
    cost_normalized: float
    report: object
    trace: list                # p2: (tau, t >= 0) per step; p4: (tau, f_tau, cost)
    f_star: float | None = None

    @property
    def probes(self):
        return len(self.trace)


def baseline(scenario):
    """Report with no ratio requirements; its cost is the normalization anchor."""
    prog, lay = build_p1(scenario, 0.0)
    return extract_report(scenario, lay, solve_qp(prog))


def _top_floor(scenario):
    """A floor no dispatch of a valid scenario exceeds, and at least 1.

    Validation puts every load bus in a shed, so DC balance summed over the
    network gives sum_k N_k <= sum_k D_k + S-_out, S-_out <= C-_out being
    the absorption at buses in no shed: min_k N_k/D_k <= 1 + C-_out/sum_k L_k.
    Each shed also has N_k/D_k <= (G_k + sum C+_k)/L_k.  Under
    flex_only_at_load_buses, C-_out = 0, so the top is exactly 1.
    """
    sheds, b = shed_rows(scenario), scenario.budgets
    gen, load = scenario.profiles.gen, scenario.profiles.load
    inside = [i for rows in sheds for i in rows]
    balance = 1.0 + np.delete(b.cap_minus, inside, axis=0).sum() / load[inside].sum()
    per_shed = min((gen[r].sum() + b.cap_plus[r].sum()) / load[r].sum() for r in sheds)
    return float(max(1.0, min(balance, per_shed)))


def solve_p2(scenario, epsilon=EPSILON):
    """Maximize the minimum shed ratio by Dinkelbach's iteration.

    epsilon, the resolution of tau*, is checked before any solve: finite
    and at least math.ulp(1.0), the float spacing at the smallest top
    floor, 1.

    The baseline is solved first: it validates the scenario, raises
    InfeasibleError if no dispatch meets the network constraints, and is
    the normalization anchor.  Step j then solves build_p2_step's LP at
    floor tau_j, starting from tau_0 = 0 with the shed loads L_k as row
    scales, and moves to tau_{j+1} = min_k N_k(x_j)/D_k(x_j), a floor that
    x_j reaches; the next step scales row k by D_k(x_j).  Every step is
    feasible once the baseline is, so no phase-1 solve is needed.  As
    D_k >= L_k, the optimum t_j bounds the best floor from above:
    tau* <= tau_j + max(t_j, 0) * max_k d_prev[k] / L_k.

    The answer is bisection's on [0, top], top = _top_floor(scenario) >=
    tau*: tau_star is the point of the grid i*h, h = top / 2**n,
    n = ceil(log2(top / epsilon)), at or below the last floor reached,
    and at most top - h.  The iteration stops once that floor and the
    upper bound share a grid cell or lie within FEAS_TOL, or once the
    floor reaches the top cell; it runs at most n LPs.  At floor 0 the
    step's optimum is t = max_x min_k N_k(x)/L_k >= 0, so a t just below 0
    there is solver noise, and stops the iteration at tau_star = 0.
    """
    if not math.ulp(1.0) <= epsilon < INF:  # chained, so NaN fails it
        raise PolicyInputError("epsilon must be finite and at least "
                               f"{math.ulp(1.0)!r}, the float spacing at 1")
    cost0 = baseline(scenario).cost
    hi = _top_floor(scenario)
    n_iter = max(1, math.ceil(math.log2(hi / epsilon)))
    h = hi / 2 ** n_iter

    def cell(tau):
        return min(math.floor(tau / h), 2 ** n_iter - 1)

    loads = np.array([scenario.profiles.load[rows].sum() for rows in shed_rows(scenario)])
    tau, d_prev = 0.0, loads
    trace = []
    for _ in range(n_iter):
        prog, lay = build_p2_step(scenario, tau, d_prev)
        sol = solve_qp(prog)
        if sol.status != "optimal":
            raise PolicyError(f"P2 step at tau = {tau} failed: status {sol.status}")
        t = float(sol.x[-1])
        trace.append((tau, t >= 0))
        ub = tau + max(t, 0.0) * float(np.max(d_prev / loads))
        num, d_prev = shed_terms(scenario, lay, sol.x)
        tau = float(np.min(num / d_prev))
        if tau >= hi - h or cell(tau) == cell(ub) or ub - tau <= FEAS_TOL:
            break
    else:
        raise PolicyError(f"P2 iteration did not converge in {n_iter} LPs")

    tau_star = h * max(cell(tau), 0)
    prog, lay = build_p1(scenario, tau_star)
    report = extract_report(scenario, lay, solve_qp(prog))
    return PolicyResult(tau_star=tau_star, cost_normalized=_normalize(report.cost, cost0),
                        report=report, trace=trace)


def _normalize(cost, cost0):
    return cost / cost0 if cost0 > 0 else (1.0 if cost <= 0 else INF)


class _Floor(NamedTuple):
    """One floor of the P4 cost cache."""
    report: object   # OperationReport when the solve is optimal, else None
    lower: float     # certified bound on cost at this floor and above: +inf
                     # if infeasible, -inf after max_iter (which proves nothing)


def _floor(report, status):
    """The cache entry of evaluate_f_tau's report and status; its value
    depends on zeta, so the cache keeps none."""
    if report is None:
        return _Floor(None, INF if status == "infeasible" else -INF)
    # the primal objective overshoots the optimum by at most the duality
    # gap; TOL * (1 + |cost|) covers the residuals the gap does not see
    return _Floor(report, report.cost - report.gap - TOL * (1.0 + abs(report.cost)))


def _grid(lo, hi, step):
    """lo, lo + step, ... up to hi, or past it by no more than rounding."""
    pts = np.arange(lo, hi + 0.5 * step, step)
    return pts[pts <= hi + 1e-9 * step]


def solve_p4(scenario, zeta, mesh=MESH, cost_cache=None, threads=1):
    """Maximize f(tau) = tau - cost(tau)/zeta over a mesh of floors.

    zeta and the floor step mesh must be positive and finite, and threads
    at least 1; each is checked before any solve.

    The answer is that of a full sweep: the best mesh point of [0, top],
    top = _top_floor(scenario) (ties to the smaller floor), then the best
    point of one tenfold-finer sweep within a mesh step of it, taken if
    strictly better.  Each sweep solves only the points it cannot rule out.

    Since every shed denominator D_k >= L_k > 0, the feasible sets are
    nested in tau, so cost(tau) is nondecreasing, with cost = +inf where
    no dispatch exists.  A solved floor a thus bounds every tau >= a by
    cost(tau) >= lower_a: cost(a) minus the solve's duality gap and a
    residual slack, +inf if a is infeasible, -inf after max_iter.  So
    f(tau) <= bound(tau) = tau - max(lower_a for a <= tau)/zeta, and a
    point whose bound is below the sweep's incumbent, strictly, or is
    -inf, is pruned.  Each round splits the surviving points into runs
    between solved floors and solves the middle point of every run as one
    batch on a pool of threads >= 1 workers (the batches do not depend on
    threads).

    tau_star is the floor rounded to 12 digits, the cache key, so that a
    floor reads the same from either sweep.  The trace lists the swept
    floors that were solved.  The cost solves do not depend on zeta, so an
    external cost_cache ({round(tau, 12): _Floor(report, lower)}) may be
    shared across calls.  Its floor 0.0 is the baseline, the
    normalization anchor; this call solves it if the cache lacks it, so
    the mesh's first point is always solved and the sweep always returns
    a floor (or baseline has raised).
    """
    # chained comparisons, so NaN fails each check
    if not 0 < mesh < INF:
        raise PolicyInputError("mesh must be positive and finite")
    if not 0 < zeta < INF:
        raise PolicyInputError("zeta must be positive and finite")
    if threads < 1:
        raise PolicyInputError(f"threads must be at least 1, got {threads!r}")
    cache = cost_cache if cost_cache is not None else {}
    if 0.0 not in cache:
        cache[0.0] = _floor(baseline(scenario), "optimal")
    top = _top_floor(scenario)  # after the baseline, which validates the scenario
    visited = set()  # the rounded taus this call sweeps

    def value(tau):  # -inf unless tau is solved with a report
        rep = cache[tau].report if tau in cache else None
        return -INF if rep is None else tau - rep.cost / zeta

    def bound(tau):  # floor 0 is in the cache, so the max has a term
        return tau - max(f.lower for k, f in cache.items() if k <= tau) / zeta

    def sweep(points, floor_val=-INF):
        keys = [round(float(t), 12) for t in points]
        visited.update(keys)
        todo = sorted(set(keys))
        while True:
            best = max(floor_val, *map(value, keys))
            # drop the solved points and those bounded below the incumbent
            todo = [t for t in todo if t not in cache and -INF < bound(t) >= best]
            if not todo:
                break
            solved = sorted(cache)
            runs = [list(run) for _, run in groupby(todo, lambda t: bisect(solved, t))]
            batch = [run[len(run) // 2] for run in runs]
            cache.update(zip(batch, pool.map(
                lambda t: _floor(*evaluate_f_tau(scenario, t, zeta)[1:]), batch)))
        vals = [value(k) for k in keys]
        i = vals.index(max(vals))  # the first maximum: ties go to the smaller tau
        return points[i], vals[i]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        incumbent, best_val = sweep(_grid(0.0, top, mesh))
        cand, cand_val = sweep(_grid(max(0.0, incumbent - mesh),
                                     min(top, incumbent + mesh), mesh / 10.0),
                               best_val)
    if cand_val > best_val:
        incumbent, best_val = cand, cand_val

    tau_star = round(float(incumbent), 12)  # the cache key: one floor prints one way
    report = cache[tau_star].report
    trace = [(t, value(t), INF if cache[t].report is None else cache[t].report.cost)
             for t in sorted(visited) if t in cache]
    return PolicyResult(tau_star=tau_star,
                        cost_normalized=_normalize(report.cost, cache[0.0].report.cost),
                        report=report, trace=trace, f_star=float(best_val))


def pareto_front(scenario, zeta_grid=ZETA_GRID, mesh=MESH, threads=1):
    """(zeta, tau*, cost_normalized) for each zeta of zeta_grid, by solve_p4.

    The grid is checked before any solve: nonempty, ascending, each zeta
    positive and finite.  One cost cache, anchored by the baseline at
    floor 0, serves the whole grid: a floor solved for one zeta is reused,
    and bounds the floors above it, for every other zeta.
    """
    grid = list(zeta_grid)
    if not grid or not all(0 < z < INF for z in grid) or sorted(grid) != grid:
        raise PolicyInputError("zeta grid must be nonempty, ascending, positive, finite")
    cache = {}
    front = []
    for zeta in grid:
        res = solve_p4(scenario, zeta, mesh, cost_cache=cache, threads=threads)
        front.append((zeta, res.tau_star, res.cost_normalized))
    return front
