"""Independent references used to pin down expected values.

The brute-force oracles deliberately avoid the library's formulas and
solvers: the ratio oracle enumerates candidate dispatch vertices, and the
dispatch oracle searches a dense grid after eliminating the power-balance
equalities.  The P2 oracle is bisection on the feasibility problem P3,
the algorithm that solve_p2 replaced.
"""

import itertools
import math

import numpy as np

from energyshed.policy import PolicyConfig
from energyshed.problems import build_p3
from energyshed.qpcore import check_feasibility


def best_ratio_series(gen, load, cap_plus, export_limit=None):
    """Max of (sum gen + sum s) / (sum load + sum absorbed) over the box.

    Added generation s_t ranges over [0, cap_t]; added flexibility beyond
    the per-step export limit (s_t - absorbed_t <= limit_t) must be absorbed
    by added demand, inflating the denominator.  The objective is
    linear-fractional on each sub-box cut out by the absorption kinks, so
    the maximum sits at a sub-box corner; per step the candidate corners
    are 0, the kink and the cap.
    """
    gen = np.asarray(gen, dtype=float)
    load = np.asarray(load, dtype=float)
    cap = np.asarray(cap_plus, dtype=float)
    steps = len(load)

    candidates = []
    for t in range(steps):
        cands = {0.0, cap[t]}
        if export_limit is not None:
            cands.add(min(max(export_limit[t], 0.0), cap[t]))
        candidates.append(sorted(cands))

    best = -np.inf
    for s in itertools.product(*candidates):
        s = np.asarray(s)
        if export_limit is None:
            absorbed = np.zeros(steps)
        else:
            absorbed = np.maximum(s - export_limit, 0.0)
        ratio = (gen.sum() + s.sum()) / (load.sum() + absorbed.sum())
        best = max(best, ratio)
    return best


def active_set_qp(q_diag, c, A_eq, b_eq, G, h, tol=1e-9):
    """Exact minimizer of a strictly convex diagonal QP by working-set search.

    Enumerates subsets of inequality rows as candidate active sets, solves
    the dense equality-constrained KKT system for each, and keeps the best
    point that is primal feasible with nonnegative multipliers.  Exponential
    in the row count; only for tiny instances.
    """
    q_diag = np.asarray(q_diag, dtype=float)
    c = np.asarray(c, dtype=float)
    n = len(c)
    me = 0 if A_eq is None else A_eq.shape[0]
    mi = 0 if G is None else G.shape[0]
    if (q_diag <= 0).any():
        raise ValueError("oracle needs strict convexity")

    best_val, best_x = np.inf, None
    for r in range(min(mi, n - me) + 1):
        for rows in itertools.combinations(range(mi), r):
            blocks = [np.diag(2.0 * q_diag)]
            rhs = [-c]
            if me:
                blocks.append(A_eq)
                rhs.append(b_eq)
            if rows:
                blocks.append(G[list(rows)])
                rhs.append(h[list(rows)])
            m = me + len(rows)
            kkt = np.zeros((n + m, n + m))
            kkt[:n, :n] = blocks[0]
            if m:
                C = np.vstack(blocks[1:])
                kkt[:n, n:] = C.T
                kkt[n:, :n] = C
            full_rhs = np.concatenate(rhs)
            try:
                sol = np.linalg.solve(kkt, full_rhs)
            except np.linalg.LinAlgError:
                continue
            x, mult = sol[:n], sol[n + me:]
            if mi and (G @ x - h > tol).any():
                continue
            if (mult < -tol).any():  # inequality multipliers must be >= 0
                continue
            val = float(q_diag @ (x * x) + c @ x)
            if val < best_val - 1e-12:
                best_val, best_x = val, x
    return best_val, best_x


def grid_minimize(objective, boxes, resolution):
    """Dense grid search over a small number of interval boxes."""
    axes = [np.linspace(lo, hi, int(round((hi - lo) / resolution)) + 1)
            if hi > lo else np.array([lo])
            for lo, hi in boxes]
    best_val, best_pt = np.inf, None
    for pt in itertools.product(*axes):
        val = objective(np.asarray(pt))
        if val < best_val:
            best_val, best_pt = val, np.asarray(pt)
    return best_val, best_pt


def bisection_p2(scenario, cfg=None):
    """(tau*, trace) of P2 by bisection, one phase-1 solve per probe.

    Runs exactly ceil(log2(bracket/epsilon)) probes at the bracket
    midpoints; the lower bracket end is not probed, so if every probe is
    infeasible tau* is tau_lo.  trace lists (tau, feasible) per probe.
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
    return lo, trace
