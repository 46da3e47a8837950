"""Independent references used to pin down expected values.

The brute-force oracles deliberately avoid the library's formulas and
solvers: the ratio oracle enumerates candidate dispatch vertices, and the
dispatch oracle searches a dense grid after eliminating the power-balance
equalities.  The P2 oracle is bisection on the feasibility problem P3,
the algorithm that solve_p2 replaced; the P4 oracle solves every point of
both sweeps, the algorithm that solve_p4's bound-and-prune replaced.  The
feasibility oracle is the phase-1 elastic LP that the solver's Farkas
certificate replaced, solved by HiGHS; farkas_ok checks such a
certificate from the program's data alone.  The P1 oracle is the builder
that build_p1's index-array assembly replaced: one nonzero at a time.

The checks at the end are what the acceptance gates and unit tests
measure solutions and scenarios with; neither the CLI nor the library
calls them.  kkt_residuals gives a solve's scaled KKT residuals,
power_balance_residual and flow_law_residual its conservation and DC
flow-law errors, build_p3 the zero-objective feasibility form of P1, and
total_demand and baseline_ratio a shed's demand and pre-flexibility ratio.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from energyshed.netmodel import ScenarioError, shed_rows
from energyshed.policy import _top_floor
from energyshed.problems import BuildError, VariableLayout, build_p1, evaluate_f_tau
from energyshed.qpcore import FEAS_TOL, QPError, QuadProgram, check_feasibility


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


def bisection_p2(scenario, epsilon):
    """(tau*, trace) of P2 by bisection, one phase-1 solve per probe.

    Runs exactly ceil(log2(top/epsilon)) probes at the midpoints of the
    bracket [0, top], top = _top_floor(scenario); floor 0 is not probed,
    so if every probe is infeasible tau* is 0.  trace lists (tau,
    feasible) per probe.
    """
    lo, hi = 0.0, _top_floor(scenario)
    n_iter = max(1, math.ceil(math.log2(hi / epsilon)))
    trace = []
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        ok = check_feasibility(build_p3(scenario, mid)) == "feasible"
        trace.append((mid, ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return lo, trace


def _sweep_points(lo, hi, step):
    pts = np.arange(lo, hi + 0.5 * step, step)
    return pts[pts <= hi + 1e-9 * step]


def full_sweep_p4(scenario, zeta, mesh, cache=None):
    """P4 by solving every point of both sweeps.

    The mesh over [0, _top_floor(scenario)], then the tenfold-finer mesh
    within one mesh step of the incumbent, whose best point replaces the
    incumbent if strictly better; ties, -inf ones included, go to the
    smaller tau.
    Returns tau_star (rounded to 12 digits, as solve_p4 reports it),
    f_star, report and trace ((tau, f, cost) per distinct rounded tau).
    cache ({round(tau, 12): report or None}) may be shared across calls on
    one scenario, since the cost solves do not depend on zeta.
    """
    cache = {} if cache is None else cache
    seen = set()

    def sweep(points):
        best_tau, best_val = None, -np.inf
        for tau in points:
            key = round(float(tau), 12)
            seen.add(key)
            if key not in cache:
                cache[key] = evaluate_f_tau(scenario, key, zeta)[1]
            rep = cache[key]
            val = -np.inf if rep is None else key - rep.cost / zeta
            if best_tau is None or val > best_val:
                best_tau, best_val = tau, val
        return best_tau, best_val

    top = _top_floor(scenario)
    tau_star, f_star = sweep(_sweep_points(0.0, top, mesh))
    cand, val = sweep(_sweep_points(max(0.0, tau_star - mesh),
                                    min(top, tau_star + mesh),
                                    mesh / 10.0))
    if val > f_star:
        tau_star, f_star = cand, val
    report = cache[round(tau_star, 12)]
    trace = [(t, -np.inf if cache[t] is None else t - cache[t].cost / zeta,
              np.inf if cache[t] is None else cache[t].cost) for t in sorted(seen)]
    return SimpleNamespace(tau_star=round(float(tau_star), 12), f_star=float(f_star),
                           report=report, trace=trace)


def phase1_feasibility(p):
    """'feasible' or 'infeasible' by the phase-1 elastic LP, solved by HiGHS.

    min 1'u + 1'(v + w)  s.t.  Gx - u <= h, Ax + v - w = b, lo <= x <= hi,
    u, v, w >= 0.  Always feasible and bounded; p is called feasible when
    the optimum is at most FEAS_TOL times 1 + the largest finite
    right-hand side of its rows.
    """
    n, mi, me = p.n, p.m_ineq, p.m_eq
    cost = np.concatenate([np.zeros(n), np.ones(mi + 2 * me)])
    bounds = np.column_stack([np.concatenate([p.lo, np.zeros(mi + 2 * me)]),
                              np.concatenate([p.hi, np.full(mi + 2 * me, np.inf)])])
    kw = {}
    if mi:
        kw["A_ub"] = sp.hstack([p.G_ineq, -sp.identity(mi), sp.csr_matrix((mi, 2 * me))],
                               format="csr")
        kw["b_ub"] = p.h_ineq
    if me:
        kw["A_eq"] = sp.hstack([p.A_eq, sp.csr_matrix((me, mi)), sp.identity(me),
                                -sp.identity(me)], format="csr")
        kw["b_eq"] = p.b_eq
    res = linprog(cost, bounds=bounds, method="highs", **kw)
    if res.status != 0:
        raise RuntimeError(f"elastic LP not solved: {res.message}")
    scale = 1.0 + max(np.abs(p.b_eq).max(initial=0.0) if me else 0.0,
                      np.abs(p.h_ineq[np.isfinite(p.h_ineq)]).max(initial=0.0) if mi else 0.0)
    return "feasible" if res.fun <= FEAS_TOL * scale else "infeasible"


def farkas_ok(p, sol):
    """Whether sol's duals (y, z) are a Farkas ray for p's constraints.

    z >= 0, no weight on an absent bound or an infinite right-hand side,
    |A'y + G'z + z_hi - z_lo|_inf <= 1e-6 * (-phi) and
    phi = b'y + h'z + hi'z_hi - lo'z_lo < 0: every x in the constraint set
    would have (A'y + G'z + z_hi - z_lo)'x <= phi, so none exists.
    """
    fin_hi, fin_lo = np.isfinite(p.hi), np.isfinite(p.lo)
    z_hi, z_lo = np.asarray(sol.duals_hi), np.asarray(sol.duals_lo)
    if (z_hi < 0).any() or (z_lo < 0).any() or z_hi[~fin_hi].any() or z_lo[~fin_lo].any():
        return False
    resid = z_hi - z_lo
    phi = float(p.hi[fin_hi] @ z_hi[fin_hi] - p.lo[fin_lo] @ z_lo[fin_lo])
    if p.m_eq:
        resid = resid + p.A_eq.T @ sol.duals_eq
        phi += float(p.b_eq @ sol.duals_eq)
    if p.m_ineq:
        z = np.asarray(sol.duals_ineq)
        fin = np.isfinite(p.h_ineq)
        if (z < 0).any() or z[~fin].any():
            return False
        resid = resid + p.G_ineq.T @ z
        phi += float(p.h_ineq[fin] @ z[fin])
    return phi < 0 and float(np.abs(resid).max(initial=0.0)) <= 1e-6 * -phi


def loop_build_p1(scenario, x_min):
    """P1 as build_p1 compiles it, assembled one nonzero at a time.

    Loops over bus x step and branch x step, with the rows in build_p1's
    order: balance, flow law, reference angle; then epigraph (C+ before C-
    per (bus, t)), export upper, export lower and the ratio rows.  The
    scenario is taken as valid.
    """
    net = scenario.network
    nb, ne, T = net.n_bus, net.n_branch, scenario.time_grid.steps
    k = len(scenario.partition.sheds)
    x_min = np.broadcast_to(np.asarray(x_min, dtype=float), (k,))
    lay = VariableLayout(n_bus=nb, n_branch=ne, steps=T, x_min=tuple(x_min))
    n = lay.n_vars
    idx = net.bus_index()
    gen, load = scenario.profiles.gen, scenario.profiles.load
    cap_p, cap_m = scenario.budgets.cap_plus, scenario.budgets.cap_minus

    def theta(i, t):
        return lay.off_theta + i * T + t

    def flow(e, t):
        return lay.off_flow + e * T + t

    def s_plus(i, t):
        return lay.off_sp + i * T + t

    def s_minus(i, t):
        return lay.off_sm + i * T + t

    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    for e, br in enumerate(net.branches):
        for t in range(T):
            lo[flow(e, t)] = -br.flow_limit
            hi[flow(e, t)] = br.flow_limit
    for i in range(nb):
        for t in range(T):
            lo[s_plus(i, t)] = lo[s_minus(i, t)] = 0.0
            hi[s_plus(i, t)] = cap_p[i, t]
            hi[s_minus(i, t)] = cap_m[i, t]
        lo[lay.off_cp + i] = lo[lay.off_cm + i] = 0.0
        if max(cap_p[i]) == 0:
            hi[lay.off_cp + i] = 0.0
        if max(cap_m[i]) == 0:
            hi[lay.off_cm + i] = 0.0

    rows, cols, vals, rhs = [], [], [], []

    def add(row, col, val):
        rows.append(row)
        cols.append(col)
        vals.append(val)

    r = 0
    bal_row = {}
    for i in range(nb):
        for t in range(T):
            add(r, s_plus(i, t), 1.0)
            add(r, s_minus(i, t), -1.0)
            bal_row[(i, t)] = r
            rhs.append(load[i, t] - gen[i, t])
            r += 1
    for e, br in enumerate(net.branches):
        fi, ti = idx[br.from_bus], idx[br.to_bus]
        for t in range(T):
            add(bal_row[(fi, t)], flow(e, t), -1.0)
            add(bal_row[(ti, t)], flow(e, t), 1.0)
    for e, br in enumerate(net.branches):
        fi, ti = idx[br.from_bus], idx[br.to_bus]
        for t in range(T):
            add(r, flow(e, t), br.reactance)
            add(r, theta(fi, t), -1.0)
            add(r, theta(ti, t), 1.0)
            rhs.append(0.0)
            r += 1
    for t in range(T):
        add(r, theta(idx[net.reference_bus], t), 1.0)
        rhs.append(0.0)
        r += 1
    A_eq = sp.csr_matrix((vals, (rows, cols)), shape=(r, n))
    b_eq = np.array(rhs)

    rows, cols, vals, rhs = [], [], [], []
    r = 0
    for i in range(nb):
        for t in range(T):
            if cap_p[i, t] > 0:
                add(r, s_plus(i, t), 1.0)
                add(r, lay.off_cp + i, -1.0)
                rhs.append(0.0)
                r += 1
            if cap_m[i, t] > 0:
                add(r, s_minus(i, t), 1.0)
                add(r, lay.off_cm + i, -1.0)
                rhs.append(0.0)
                r += 1
    up, lw = scenario.budgets.export_upper, scenario.budgets.export_lower
    if up is not None:
        for i in range(nb):
            for t in range(T):
                if math.isfinite(up[i, t]):
                    add(r, s_plus(i, t), 1.0)
                    add(r, s_minus(i, t), -1.0)
                    rhs.append(up[i, t] - gen[i, t] + load[i, t])
                    r += 1
    if lw is not None:
        for i in range(nb):
            for t in range(T):
                if math.isfinite(lw[i, t]):
                    add(r, s_plus(i, t), -1.0)
                    add(r, s_minus(i, t), 1.0)
                    rhs.append(gen[i, t] - load[i, t] - lw[i, t])
                    r += 1
    for (_, members), tau in zip(scenario.partition.sheds, x_min):
        member_rows = [idx[b] for b in members]
        for i in member_rows:
            for t in range(T):
                add(r, s_plus(i, t), -1.0)
                if tau > 0:
                    add(r, s_minus(i, t), tau)
        rhs.append(gen[member_rows].sum() - tau * load[member_rows].sum())
        r += 1
    G_ineq = sp.csr_matrix((vals, (rows, cols)), shape=(r, n)) if r else None
    h_ineq = np.array(rhs) if r else None

    q = np.zeros(n)
    for i in range(nb):
        q[lay.off_cp + i] = scenario.weights.alpha[i]
        q[lay.off_cm + i] = scenario.weights.beta[i]
    return QuadProgram(n=n, q_diag=q, c_lin=np.zeros(n), A_eq=A_eq, b_eq=b_eq,
                       G_ineq=G_ineq, h_ineq=h_ineq, lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# solution checks, the feasibility form and shed aggregates
# ---------------------------------------------------------------------------

def kkt_residuals(p, s):
    """Scaled infinity-norm residuals (stationarity, feasibility, complementarity)."""
    x = np.asarray(s.x, dtype=float)
    if x.shape != (p.n,):
        raise QPError("solution dimension mismatch")

    def worst(v):
        return float(np.abs(v).max(initial=0.0))

    grad = (2.0 * p.q_diag * x + p.c_lin + p.A_eq.T @ s.duals_eq
            + p.G_ineq.T @ s.duals_ineq + s.duals_hi - s.duals_lo)
    r_stat = worst(grad) / (1.0 + max(worst(p.c_lin), worst(x)))
    slack = p.h_ineq - p.G_ineq @ x
    # x - hi and lo - x are -inf, so no violation, at an infinite bound
    r_feas = max(worst(p.A_eq @ x - p.b_eq), worst(np.maximum(-slack, 0.0)),
                 worst(np.maximum(x - p.hi, 0.0)), worst(np.maximum(p.lo - x, 0.0)))
    fin_hi, fin_lo = np.isfinite(p.hi), np.isfinite(p.lo)
    r_comp = max(worst(s.duals_ineq * slack),
                 worst(s.duals_hi[fin_hi] * (p.hi[fin_hi] - x[fin_hi])),
                 worst(s.duals_lo[fin_lo] * (x[fin_lo] - p.lo[fin_lo])))
    rhs_scale = 1.0 + max(worst(p.b_eq), worst(p.h_ineq), worst(x))
    return r_stat, r_feas / rhs_scale, r_comp / (1.0 + abs(p.objective(x)))


def build_p3(scenario, tau):
    """Feasibility form: ratio floor tau for every shed, zero objective."""
    if tau < 0:
        raise BuildError("tau must be nonnegative")
    prog, lay = build_p1(scenario, float(tau))
    prog.q_diag = np.zeros(prog.n)
    prog.validate()
    return prog


def power_balance_residual(scenario, layout, x):
    """Max over t of |sum_i (G - L + S+ - S-)| at the decoded solution."""
    dec = layout.decode(x)
    gen, load = scenario.profiles.gen, scenario.profiles.load
    tot = (gen - load + dec["sp"] - dec["sm"]).sum(axis=0)
    return float(np.abs(tot).max())


def flow_law_residual(scenario, layout, x):
    """Max |x_e * flow - angle difference| over branches and steps."""
    dec = layout.decode(x)
    idx = scenario.network.bus_index()
    worst = 0.0
    for e, br in enumerate(scenario.network.branches):
        fi, ti = idx[br.from_bus], idx[br.to_bus]
        res = np.abs(br.reactance * dec["flow"][e] - dec["theta"][fi] + dec["theta"][ti])
        worst = max(worst, float(res.max()))
    return worst


def _shed_rows(scenario, shed_id):
    return dict(zip(scenario.partition.shed_ids(), shed_rows(scenario)))[shed_id]


def total_demand(scenario, shed_id):
    """Total load energy of a shed over the window (per-unit energy)."""
    rows = _shed_rows(scenario, shed_id)
    return float(scenario.profiles.load[rows].sum() * scenario.time_grid.step_hours)


def baseline_ratio(scenario, shed_id):
    """Pre-flexibility ratio of shed generation energy to demand energy."""
    rows = _shed_rows(scenario, shed_id)
    demand = scenario.profiles.load[rows].sum()
    if demand <= 0:
        raise ScenarioError(f"shed {shed_id} has zero total demand")
    return float(scenario.profiles.gen[rows].sum() / demand)
