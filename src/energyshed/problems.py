"""Compile scenarios into the optimization problems and decode solutions.

The cost-minimization problem couples, per time step, a DC power flow with
per-bus flexibility variables, and adds per-shed generation-ratio
constraints plus epigraph capacity variables that carry the quadratic
peak-capacity objective.  DC power flow is written as cycle flows (Hörsch
et al. 2018, EPSR 158), with no bus angles.  The ratio constraints are
linearized by clearing the (strictly positive) denominator: P1 is convex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .netmodel import shed_rows, validate_scenario
from .qpcore import QuadProgram, solve_qp

INF = math.inf


class BuildError(ValueError):
    pass


class PolicyError(RuntimeError):
    pass


class InfeasibleError(PolicyError):
    """No dispatch satisfies the constraints at the requested ratio floors."""


@dataclass(frozen=True)
class VariableLayout:
    """Index map for the flat variable vector.

    Order: branch flows (branch-major, time-minor), flexibility injections
    S+ and S-, then per-bus capacity epigraph variables C+ / C-.  There are
    no bus angles: build_p1's cycle rows carry the DC flow law.
    """
    n_bus: int
    n_branch: int
    steps: int
    x_min: tuple[float, ...]  # per-shed ratio floor used in the build

    @property
    def off_sp(self):
        return self.n_branch * self.steps

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

    def decode(self, x):
        """Split a flat solution vector into named arrays."""
        nb, ne, T = self.n_bus, self.n_branch, self.steps
        return {
            "flow": x[:self.off_sp].reshape(ne, T),
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


def _csr(blocks, m, n):
    """(m, n) CSR matrix from (rows, cols, values) blocks of index arrays; a
    scalar value fills its block."""
    rows, cols, vals = zip(*blocks)
    vals = [np.broadcast_to(np.asarray(v, dtype=float), np.shape(r))
            for r, v in zip(rows, vals)]
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))), shape=(m, n))


def _cycles(net):
    """Kirchhoff's voltage law per fundamental cycle of a BFS spanning tree
    rooted at the reference bus: arrays (cycle, branch, o_e * x_e), one entry
    per branch of a cycle.  A chord's cycle runs along it, from its from bus,
    and back through the tree; a self-loop is a cycle of its own."""
    idx = net.bus_index()
    ends = [(idx[br.from_bus], idx[br.to_bus], br.reactance) for br in net.branches]
    adj = [[] for _ in net.buses]  # (branch, far bus, o_e * x_e walking in from it)
    for e, (f, t, x) in enumerate(ends):
        adj[f].append((e, t, -x))
        adj[t].append((e, f, x))
    queue = [idx[net.reference_bus]]
    up = {queue[0]: (None, None, 0, None)}  # bus -> (tree branch, parent, depth, o_e * x_e up)
    for u in queue:
        for e, v, ox in adj[u]:
            if v not in up:
                up[v] = (e, u, up[u][2] + 1, ox)
                queue.append(v)
    tree, out = {v[0] for v in up.values()}, []
    for c, e in enumerate(e for e in range(len(ends)) if e not in tree):
        a, b, x = ends[e]
        out.append((c, e, x))
        while a != b:  # climb from the deeper end until the ends meet
            on_b = up[b][2] >= up[a][2]  # b's side runs up the tree, a's down it
            te, parent, _, ox = up[b if on_b else a]
            out.append((c, te, ox if on_b else -ox))
            a, b = (a, parent) if on_b else (parent, b)
    return np.array(out).reshape(-1, 3).T


def build_p1(scenario, x_min):
    """Compile the cost-minimization problem; returns (QuadProgram, layout).

    Each constraint block is a (rows, cols, values) triple of index arrays.
    The balance row of (bus i, step t) is i*T + t, which is also the offset
    of S+ and S- at (i, t) within their blocks; the cycle rows follow.
    """
    rep = validate_scenario(scenario)
    if not rep.ok:
        raise BuildError(f"invalid scenario:\n{rep}")
    x_min = _as_shed_vector(scenario, x_min)

    net = scenario.network
    nb, ne, T = net.n_bus, net.n_branch, scenario.time_grid.steps
    lay = VariableLayout(n_bus=nb, n_branch=ne, steps=T, x_min=tuple(x_min))
    n, nbt, nft = lay.n_vars, nb * T, ne * T
    idx = net.bus_index()
    gen, load = scenario.profiles.gen, scenario.profiles.load
    cap_p, cap_m = scenario.budgets.cap_plus, scenario.budgets.cap_minus

    def at_t(pos):
        """The offsets p*T + t of bus, branch or cycle positions p, t fastest."""
        return (np.asarray(pos, dtype=int)[:, None] * T + np.arange(T)).ravel()

    # per (branch, t): the (bus, t) offsets of its end buses, and its flow
    frm = at_t([idx[br.from_bus] for br in net.branches])
    to = at_t([idx[br.to_bus] for br in net.branches])
    flow = np.arange(nft)

    # ---- bounds ------------------------------------------------------
    lo = np.full(n, -INF)
    hi = np.full(n, INF)
    hi[flow] = np.repeat([br.flow_limit for br in net.branches], T)
    lo[flow] = -hi[flow]
    lo[lay.off_sp:] = 0.0
    hi[lay.off_sp:lay.off_cp] = np.stack([cap_p, cap_m]).ravel()
    # buses that can never use flexibility get their capacity pinned to zero
    hi[lay.off_cp + np.flatnonzero(cap_p.max(axis=1) == 0)] = 0.0
    hi[lay.off_cm + np.flatnonzero(cap_m.max(axis=1) == 0)] = 0.0

    # ---- equalities --------------------------------------------------
    bal, (cyc, branch, ox) = np.arange(nbt), _cycles(net)
    n_kvl = (ne - nb + 1) * T  # a connected network has ne - nb + 1 cycles
    A_eq = _csr([
        # power balance per (bus, t): S+ - S- - sum(out flows) + sum(in flows) = L - G
        (bal, lay.off_sp + bal, 1.0), (bal, lay.off_sm + bal, -1.0),
        (frm, flow, -1.0), (to, flow, 1.0),
        # KVL per (cycle, t): sum over the cycle's branches of o_e x_e flow = 0
        (nbt + at_t(cyc), at_t(branch), np.repeat(ox, T)),
    ], nbt + n_kvl, n)
    b_eq = np.concatenate([(load - gen).ravel(), np.zeros(n_kvl)])

    # ---- inequalities -------------------------------------------------
    # epigraph: S+ <= C+ and S- <= C- wherever the budget allows S > 0, the
    # C+ row first per (bus, t): entry j of the interleaved mask is (bus, t)
    # j // 2 on side j % 2 (0: S+ and C+, 1: S- and C-)
    j = np.flatnonzero(np.stack([cap_p > 0, cap_m > 0], axis=-1))
    r = len(j)
    blocks = [(np.arange(r), lay.off_sp + j % 2 * nbt + j // 2, 1.0),
              (np.arange(r), lay.off_cp + j % 2 * nb + j // 2 // T, -1.0)]
    rhs = [np.zeros(r)]

    # net-export limits, a row per finite bound: lw <= G - L + S+ - S- <= up
    up, lw = scenario.budgets.export_upper, scenario.budgets.export_lower
    for sign, bound in ((1.0, up), (-1.0, lw)):
        it = np.flatnonzero(np.isfinite(bound))
        rows = r + np.arange(len(it))
        blocks += [(rows, lay.off_sp + it, sign), (rows, lay.off_sm + it, -sign)]
        rhs.append((up - gen + load if sign > 0 else gen - load - lw).ravel()[it])
        r += len(it)

    # linearized ratio floor per shed, the last k rows (build_p2_step):
    #   -sum S+ + tau * sum S-  <=  sum G - tau * sum L
    sheds = shed_rows(scenario)
    it = at_t([i for members in sheds for i in members])
    k_of = np.repeat(np.arange(len(sheds)), [len(members) * T for members in sheds])
    pos = x_min[k_of] > 0  # at tau = 0 the S- entry is left out
    blocks += [(r + k_of, lay.off_sp + it, -1.0),
               (r + k_of[pos], lay.off_sm + it[pos], x_min[k_of[pos]])]
    rhs.append([gen[m].sum() - tau * load[m].sum() for m, tau in zip(sheds, x_min)])
    r += len(sheds)

    # ---- objective -----------------------------------------------------
    q = np.zeros(n)
    q[lay.off_cp:] = np.concatenate([scenario.weights.alpha, scenario.weights.beta])

    return QuadProgram(n=n, q_diag=q, c_lin=np.zeros(n), A_eq=A_eq, b_eq=b_eq,
                       G_ineq=_csr(blocks, r, n), h_ineq=np.concatenate(rhs),
                       lo=lo, hi=hi), lay


def build_p2_step(scenario, tau, d_prev):
    """One step of P2's fractional-programming iteration; (program, layout).

    The LP  max t  s.t.  (N_k(x) - tau * D_k(x)) / d_prev[k] >= t  for every
    shed k (N_k, D_k as in shed_terms, d_prev > 0), plus the other
    constraints of P3 at floor tau.  t is a free variable appended after
    the layout's variables, so the LP is feasible whenever the physics is.
    """
    prog, lay = build_p1(scenario, float(tau))
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
    dec = layout.decode(x)
    gen, load = scenario.profiles.gen, scenario.profiles.load
    sheds = shed_rows(scenario)
    num = np.array([gen[rows].sum() + dec["sp"][rows].sum() for rows in sheds])
    den = np.array([load[rows].sum() + dec["sm"][rows].sum() for rows in sheds])
    return num, den


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class OperationReport:
    """An optimal P1 solve's outcome; extract_report makes no other."""
    shed_ratios: dict          # shed id -> achieved ratio
    bus_ratios: dict           # bus id -> ratio (load buses only)
    cap_plus: dict             # bus id -> max_t S+
    cap_minus: dict            # bus id -> max_t S-
    branch_peak_util: list     # (from, to, peak |flow| / limit)
    cost: float
    gap: float                 # the solve's duality gap; in no output file
    # sum_k lambda_k * L_k, lambda_k the dual of shed k's ratio row and L_k
    # its total load: the slope of the line that bounds the cost at higher
    # uniform floors (policy._lower); in no output file
    slope: float

    def min_ratio(self):
        return min(self.shed_ratios.values())


RATIO_SLACK_TOL = 1e-6  # relative slack of extract_report's floor check


def extract_report(scenario, layout, sol):
    """Decode a P1 solution and recompute the domain quantities from it.

    The one gate from a solve to an outcome: an optimal solution gives an
    OperationReport, an infeasible one raises InfeasibleError, and any
    other status, or a shed ratio below its floor, raises PolicyError.
    """
    floors = sorted({float(v) for v in layout.x_min})  # one value for a uniform floor
    if sol.status == "infeasible":
        raise InfeasibleError(f"no dispatch meets the constraints at ratio floor(s) {floors}")
    if sol.status != "optimal":
        raise PolicyError(f"solve at ratio floor(s) {floors} did not converge: "
                          f"status {sol.status}")
    net = scenario.network
    dec = layout.decode(sol.x)
    gen, load = scenario.profiles.gen, scenario.profiles.load

    shed_ratios = {}
    num, den = shed_terms(scenario, layout, sol.x)
    for (k, _), tau, n_k, d_k in zip(scenario.partition.sheds, layout.x_min,
                                     num.tolist(), den.tolist()):
        ratio = n_k / d_k
        if ratio < tau - RATIO_SLACK_TOL * (1.0 + tau):
            raise PolicyError(f"shed {k} ratio {ratio} violates floor {tau}")
        shed_ratios[k] = ratio

    ids = net.bus_ids()
    gen_in = (gen.sum(axis=1) + dec["sp"].sum(axis=1)).tolist()
    load_in = (load.sum(axis=1) + dec["sm"].sum(axis=1)).tolist()
    # the load profile alone marks the load buses, as in validate_scenario
    loaded = (load.sum(axis=1) > 0).tolist()
    bus_ratios = {b: g / d for b, g, d, on in zip(ids, gen_in, load_in, loaded) if on}
    # capacities recomputed from the dispatch rather than trusting the
    # epigraph variables (which are slack when the weight is zero)
    cap_plus = dict(zip(ids, dec["sp"].max(axis=1, initial=0.0).tolist()))
    cap_minus = dict(zip(ids, dec["sm"].max(axis=1, initial=0.0).tolist()))
    # an unlimited branch's limit is inf, so its utilization is 0.0
    peaks = np.abs(dec["flow"]).max(axis=1).tolist()
    util = [(br.from_bus, br.to_bus, peak / br.flow_limit)
            for br, peak in zip(net.branches, peaks)]

    # the ratio rows are the last k rows of G (build_p1 adds them last)
    loads = np.array([load[rows].sum() for rows in shed_rows(scenario)])
    return OperationReport(shed_ratios=shed_ratios, bus_ratios=bus_ratios,
                           cap_plus=cap_plus, cap_minus=cap_minus,
                           branch_peak_util=util, cost=sol.objective, gap=sol.gap,
                           slope=float(sol.duals_ineq[-len(loads):] @ loads))


def evaluate_f_tau(scenario, tau):
    """The optimal P1 report at uniform floor tau, or None where no dispatch
    meets it; extract_report's PolicyError (exit 4) propagates."""
    prog, lay = build_p1(scenario, float(tau))
    try:
        return extract_report(scenario, lay, solve_qp(prog))
    except InfeasibleError:
        return None
