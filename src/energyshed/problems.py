"""Compile scenarios into the optimization problems and decode solutions.

The cost-minimization problem couples, per time step, a DC power flow with
per-bus flexibility variables, and adds per-shed generation-ratio
constraints plus epigraph capacity variables that carry the quadratic
peak-capacity objective.  The ratio constraints are linearized by clearing
the (strictly positive) denominator, so the whole program stays convex.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .netmodel import Scenario, validate_scenario
from .qpcore import QuadProgram, solve_qp

INF = math.inf


class BuildError(ValueError):
    pass


@dataclass(frozen=True)
class VariableLayout:
    """Index map for the flat variable vector.

    Order: bus angles (bus-major, time-minor), branch flows, flexibility
    injections S+ and S-, then per-bus capacity epigraph variables C+ / C-.
    The reference angle is pinned by equality rows, not removed.
    """
    n_bus: int
    n_branch: int
    steps: int
    x_min: tuple[float, ...]  # per-shed ratio floor used in the build

    @property
    def off_theta(self):
        return 0

    @property
    def off_flow(self):
        return self.n_bus * self.steps

    @property
    def off_sp(self):
        return self.off_flow + self.n_branch * self.steps

    @property
    def off_sm(self):
        return self.off_sp + self.n_bus * self.steps

    @property
    def off_cp(self):
        return self.off_sm + self.n_bus * self.steps

    @property
    def off_cm(self):
        return self.off_cp + self.n_bus

    @property
    def n_vars(self):
        return self.off_cm + self.n_bus

    def theta(self, i, t):
        return self.off_theta + i * self.steps + t

    def flow(self, e, t):
        return self.off_flow + e * self.steps + t

    def sp(self, i, t):
        return self.off_sp + i * self.steps + t

    def sm(self, i, t):
        return self.off_sm + i * self.steps + t

    def cp(self, i):
        return self.off_cp + i

    def cm(self, i):
        return self.off_cm + i

    def decode(self, x):
        """Split a flat solution vector into named arrays."""
        nb, ne, T = self.n_bus, self.n_branch, self.steps
        return {
            "theta": x[self.off_theta:self.off_flow].reshape(nb, T),
            "flow": x[self.off_flow:self.off_sp].reshape(ne, T),
            "sp": x[self.off_sp:self.off_sm].reshape(nb, T),
            "sm": x[self.off_sm:self.off_cp].reshape(nb, T),
            "cp": x[self.off_cp:self.off_cm],
            "cm": x[self.off_cm:self.n_vars],
        }


def _as_shed_vector(scenario, x_min):
    k = len(scenario.partition.sheds)
    if np.isscalar(x_min):
        vec = np.full(k, float(x_min))
    else:
        vec = np.asarray(x_min, dtype=float)
        if vec.shape != (k,):
            raise BuildError(f"x_min length {vec.shape} != shed count {k}")
    if not np.isfinite(vec).all():
        raise BuildError("ratio floors must be finite")
    if (vec < 0).any():
        raise BuildError("ratio floors must be nonnegative")
    return vec


def build_p1(scenario, x_min, check=True):
    """Compile the cost-minimization problem; returns (QuadProgram, layout)."""
    if check:
        rep = validate_scenario(scenario)
        if not rep.ok:
            raise BuildError(f"invalid scenario:\n{rep}")
    x_min = _as_shed_vector(scenario, x_min)

    net = scenario.network
    nb, ne, T = net.n_bus, net.n_branch, scenario.time_grid.steps
    lay = VariableLayout(n_bus=nb, n_branch=ne, steps=T, x_min=tuple(x_min))
    n = lay.n_vars
    idx = net.bus_index()
    gen, load = scenario.profiles.gen, scenario.profiles.load
    cap_p, cap_m = scenario.budgets.cap_plus, scenario.budgets.cap_minus

    t_arange = np.arange(T)

    # ---- bounds ------------------------------------------------------
    lo = np.full(n, -INF)
    hi = np.full(n, INF)
    for e, br in enumerate(net.branches):
        cols = lay.flow(e, 0) + t_arange
        lo[cols] = -br.flow_limit
        hi[cols] = br.flow_limit
    lo[lay.off_sp:lay.off_sm] = 0.0
    hi[lay.off_sp:lay.off_sm] = cap_p.ravel()
    lo[lay.off_sm:lay.off_cp] = 0.0
    hi[lay.off_sm:lay.off_cp] = cap_m.ravel()
    lo[lay.off_cp:] = 0.0
    # buses that can never use flexibility get their capacity pinned to zero
    hi[lay.off_cp + np.flatnonzero(cap_p.max(axis=1) == 0)] = 0.0
    hi[lay.off_cm + np.flatnonzero(cap_m.max(axis=1) == 0)] = 0.0

    # ---- equalities --------------------------------------------------
    rows, cols, vals, rhs = [], [], [], []
    r = 0

    def add(row, col, val):
        rows.append(row)
        cols.append(col)
        vals.append(val)

    # power balance per (bus, t): S+ - S- - sum(out flows) + sum(in flows) = L - G
    bal_row = {}
    for i in range(nb):
        for t in range(T):
            add(r, lay.sp(i, t), 1.0)
            add(r, lay.sm(i, t), -1.0)
            bal_row[(i, t)] = r
            rhs.append(load[i, t] - gen[i, t])
            r += 1
    for e, br in enumerate(net.branches):
        fi, ti = idx[br.from_bus], idx[br.to_bus]
        for t in range(T):
            add(bal_row[(fi, t)], lay.flow(e, t), -1.0)
            add(bal_row[(ti, t)], lay.flow(e, t), 1.0)

    # flow law per (branch, t): x_e * flow - theta_f + theta_to = 0
    for e, br in enumerate(net.branches):
        fi, ti = idx[br.from_bus], idx[br.to_bus]
        for t in range(T):
            add(r, lay.flow(e, t), br.reactance)
            add(r, lay.theta(fi, t), -1.0)
            add(r, lay.theta(ti, t), 1.0)
            rhs.append(0.0)
            r += 1

    # reference angle pinned per t
    ref = idx[net.reference_bus]
    for t in range(T):
        add(r, lay.theta(ref, t), 1.0)
        rhs.append(0.0)
        r += 1

    A_eq = sp.csr_matrix((vals, (rows, cols)), shape=(r, n))
    b_eq = np.array(rhs)

    # ---- inequalities -------------------------------------------------
    rows, cols, vals, rhs = [], [], [], []
    r = 0
    # epigraph: S+ <= C+ and S- <= C- wherever the budget allows S > 0
    for i in range(nb):
        for t in range(T):
            if cap_p[i, t] > 0:
                add(r, lay.sp(i, t), 1.0)
                add(r, lay.cp(i), -1.0)
                rhs.append(0.0)
                r += 1
            if cap_m[i, t] > 0:
                add(r, lay.sm(i, t), 1.0)
                add(r, lay.cm(i), -1.0)
                rhs.append(0.0)
                r += 1

    # optional net-export limits per (bus, t)
    up, lw = scenario.budgets.export_upper, scenario.budgets.export_lower
    if up is not None:
        for i in range(nb):
            for t in range(T):
                if math.isfinite(up[i, t]):
                    add(r, lay.sp(i, t), 1.0)
                    add(r, lay.sm(i, t), -1.0)
                    rhs.append(up[i, t] - gen[i, t] + load[i, t])
                    r += 1
    if lw is not None:
        for i in range(nb):
            for t in range(T):
                if math.isfinite(lw[i, t]):
                    add(r, lay.sp(i, t), -1.0)
                    add(r, lay.sm(i, t), 1.0)
                    rhs.append(gen[i, t] - load[i, t] - lw[i, t])
                    r += 1

    # linearized ratio floor per shed:
    #   -sum S+ + tau * sum S-  <=  sum G - tau * sum L
    for (k, members), tau in zip(scenario.partition.sheds, x_min):
        member_rows = [idx[b] for b in members]
        for i in member_rows:
            for t in range(T):
                add(r, lay.sp(i, t), -1.0)
                if tau > 0:
                    add(r, lay.sm(i, t), tau)
        rhs.append(gen[member_rows].sum() - tau * load[member_rows].sum())
        r += 1

    G_ineq = sp.csr_matrix((vals, (rows, cols)), shape=(r, n)) if r else None
    h_ineq = np.array(rhs) if r else None

    # ---- objective -----------------------------------------------------
    q = np.zeros(n)
    q[lay.off_cp:lay.off_cm] = scenario.weights.alpha
    q[lay.off_cm:] = scenario.weights.beta

    prog = QuadProgram(n=n, q_diag=q, c_lin=np.zeros(n), A_eq=A_eq, b_eq=b_eq,
                       G_ineq=G_ineq, h_ineq=h_ineq, lo=lo, hi=hi)
    return prog, lay


def build_p3(scenario, tau, check=True):
    """Feasibility form: ratio floor tau for every shed, zero objective."""
    if tau < 0:
        raise BuildError("tau must be nonnegative")
    prog, lay = build_p1(scenario, float(tau), check=check)
    prog.q_diag = np.zeros(prog.n)
    prog.validate()
    return prog


def build_p2_step(scenario, tau, d_prev):
    """One step of P2's fractional-programming iteration; (program, layout).

    The LP  max t  s.t.  (N_k(x) - tau * D_k(x)) / d_prev[k] >= t  for every
    shed k (N_k, D_k as in shed_terms, d_prev > 0), plus the other
    constraints of P3 at floor tau.  t is a free variable appended after
    the layout's variables, so the LP is feasible whenever the physics is.
    """
    prog, lay = build_p1(scenario, float(tau), check=False)
    k = len(scenario.partition.sheds)
    m = prog.m_ineq
    # the ratio rows are the last k rows of G (build_p1 adds them last)
    scale = np.ones(m)
    scale[m - k:] = 1.0 / np.asarray(d_prev, dtype=float)
    t_col = np.zeros((m, 1))
    t_col[m - k:] = 1.0
    G = sp.hstack([sp.diags(scale) @ prog.G_ineq, t_col], format="csr")
    A = sp.hstack([prog.A_eq, sp.csr_matrix((prog.m_eq, 1))], format="csr")
    n = prog.n + 1
    c = np.zeros(n)
    c[-1] = -1.0
    step = QuadProgram(n=n, q_diag=np.zeros(n), c_lin=c, A_eq=A, b_eq=prog.b_eq,
                       G_ineq=G, h_ineq=scale * prog.h_ineq,
                       lo=np.append(prog.lo, -INF), hi=np.append(prog.hi, INF))
    return step, lay


def shed_terms(scenario, layout, x):
    """Per-shed (N, D): generation and demand with flexibility at x.

    N_k = sum G + sum S+ and D_k = sum L + sum S- over shed k's buses and
    all steps, in partition order; the shed ratio is N_k / D_k.
    """
    idx = scenario.network.bus_index()
    dec = layout.decode(x)
    gen, load = scenario.profiles.gen, scenario.profiles.load
    num, den = [], []
    for _, members in scenario.partition.sheds:
        rows = [idx[b] for b in members]
        num.append(float(gen[rows].sum() + dec["sp"][rows].sum()))
        den.append(float(load[rows].sum() + dec["sm"][rows].sum()))
    return np.array(num), np.array(den)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class OperationReport:
    shed_ratios: dict          # shed id -> achieved ratio
    bus_ratios: dict           # bus id -> ratio (load buses only)
    cap_plus: dict             # bus id -> max_t S+
    cap_minus: dict            # bus id -> max_t S-
    branch_peak_util: list     # (from, to, peak |flow| / limit)
    cost: float
    status: str
    gap: float                 # the solve's duality gap; in no output file

    def min_ratio(self):
        return min(self.shed_ratios.values())

    def to_json_dict(self):
        return {
            "status": self.status,
            "cost": self.cost,
            "shed_ratios": {str(k): v for k, v in self.shed_ratios.items()},
            "bus_ratios": {str(k): v for k, v in self.bus_ratios.items()},
            "cap_plus": {str(k): v for k, v in self.cap_plus.items()},
            "cap_minus": {str(k): v for k, v in self.cap_minus.items()},
            "branch_peak_util": [
                {"from": f, "to": t, "utilization": u} for f, t, u in self.branch_peak_util
            ],
        }

    def to_csv(self, alpha_by_bus):
        """Per-bus table, ordered by increasing generation capacity cost."""
        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(["bus", "alpha", "ratio", "cap_plus", "cap_minus"])
        order = sorted(self.bus_ratios, key=lambda b: (alpha_by_bus.get(b, 0.0), b))
        for b in order:
            w.writerow([b, alpha_by_bus.get(b, 0.0), self.bus_ratios[b],
                        self.cap_plus.get(b, 0.0), self.cap_minus.get(b, 0.0)])
        return out.getvalue()


def extract_report(scenario, layout, sol, ratio_slack_tol=1e-6):
    """Decode a solution and recompute the domain quantities from it."""
    if sol.status != "optimal":
        raise BuildError(f"cannot report on a solution with status {sol.status!r}")
    net = scenario.network
    dec = layout.decode(sol.x)
    gen, load = scenario.profiles.gen, scenario.profiles.load

    shed_ratios = {}
    num, den = shed_terms(scenario, layout, sol.x)
    for (k, _), tau, n_k, d_k in zip(scenario.partition.sheds, layout.x_min,
                                     num.tolist(), den.tolist()):
        ratio = n_k / d_k
        if ratio < tau - ratio_slack_tol * (1.0 + tau):
            raise BuildError(f"shed {k} ratio {ratio} violates floor {tau}")
        shed_ratios[k] = ratio

    bus_ratios = {}
    cap_plus = {}
    cap_minus = {}
    for i, bus in enumerate(net.buses):
        den = float(load[i].sum() + dec["sm"][i].sum())
        if den > 0:
            bus_ratios[bus.id] = float(gen[i].sum() + dec["sp"][i].sum()) / den
        # capacities recomputed from the dispatch rather than trusting the
        # epigraph variables (which are slack when the weight is zero)
        cap_plus[bus.id] = float(dec["sp"][i].max(initial=0.0))
        cap_minus[bus.id] = float(dec["sm"][i].max(initial=0.0))

    util = []
    for e, br in enumerate(net.branches):
        peak = float(np.abs(dec["flow"][e]).max())
        u = 0.0 if math.isinf(br.flow_limit) else peak / br.flow_limit
        util.append((br.from_bus, br.to_bus, u))

    return OperationReport(shed_ratios=shed_ratios, bus_ratios=bus_ratios,
                           cap_plus=cap_plus, cap_minus=cap_minus,
                           branch_peak_util=util, cost=sol.objective,
                           status=sol.status, gap=sol.gap)


def evaluate_f_tau(scenario, tau, zeta, check=True):
    """Parametric sweep objective: tau minus scaled optimal capacity cost.

    Returns (value, report, status), status being solve_qp's; value is
    -inf and report None unless the solve is optimal.
    """
    if zeta <= 0:
        raise BuildError("zeta must be positive")
    prog, lay = build_p1(scenario, float(tau), check=check)
    sol = solve_qp(prog)
    if sol.status != "optimal":
        return -INF, None, sol.status
    report = extract_report(scenario, lay, sol)
    return float(tau) - sol.objective / zeta, report, sol.status


# ---------------------------------------------------------------------------
# solution-quality helpers (used by tests and the CLI)
# ---------------------------------------------------------------------------

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
