"""In-house convex solver for diagonal-quadratic programs.

Handles the canonical class every problem here compiles to:

    minimize    sum_i q_i x_i^2 + c'x
    subject to  A_eq x = b_eq
                G_ineq x <= h_ineq
                lo <= x <= hi

via a primal-dual interior-point method with Mehrotra predictor-corrector
steps.  Each finite bound has its own slack and dual but enters the Newton
system only as a diagonal barrier term on its variable (as in OOQP), so
the KKT system has one row per variable, equality and general inequality.
It is regularized and quasi-definite, its pattern is assembled once per
solve, and it is factored by sparse LU (fixed symmetric minimum-degree
ordering and diagonal pivoting, so runs are deterministic and fill stays
low even when the slack diagonal is badly scaled).  Every program, with
or without inequalities, goes through this one KKT path.  Infeasibility
is certified by an explicit phase-1 elastic program rather than dual
rays, solved once to a tight duality gap.

The accuracy is fixed, not configurable: solve_qp stops at scaled
primal, dual and gap residuals of TOL = 1e-8 within MAX_ITER = 100
iterations; phase 1 is solved to 1e-9 (gap 1e-12) and calls a program
feasible when its elastic optimum is at most FEAS_TOL = 1e-7 times
1 + the largest finite right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

INF = math.inf


class QPError(ValueError):
    pass


@dataclass
class QuadProgram:
    n: int
    q_diag: np.ndarray
    c_lin: np.ndarray
    A_eq: sp.csr_matrix | None = None
    b_eq: np.ndarray | None = None
    G_ineq: sp.csr_matrix | None = None
    h_ineq: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self):
        self.q_diag = np.asarray(self.q_diag, dtype=float)
        self.c_lin = np.asarray(self.c_lin, dtype=float)
        if self.lo is None:
            self.lo = np.full(self.n, -INF)
        if self.hi is None:
            self.hi = np.full(self.n, INF)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.A_eq is not None:
            self.A_eq = sp.csr_matrix(self.A_eq)
            self.b_eq = np.asarray(self.b_eq, dtype=float)
        if self.G_ineq is not None:
            self.G_ineq = sp.csr_matrix(self.G_ineq)
            self.h_ineq = np.asarray(self.h_ineq, dtype=float)
        self.validate()

    @property
    def m_eq(self):
        return 0 if self.A_eq is None else self.A_eq.shape[0]

    @property
    def m_ineq(self):
        return 0 if self.G_ineq is None else self.G_ineq.shape[0]

    def validate(self):
        if self.q_diag.shape != (self.n,) or self.c_lin.shape != (self.n,):
            raise QPError("q_diag/c_lin dimension mismatch")
        if (self.q_diag < 0).any():
            raise QPError("q_diag must be nonnegative (convexity)")
        if self.lo.shape != (self.n,) or self.hi.shape != (self.n,):
            raise QPError("bound dimension mismatch")
        if (self.lo > self.hi).any():
            raise QPError("lower bound exceeds upper bound")
        if self.A_eq is not None and (self.A_eq.shape[1] != self.n
                                      or self.b_eq.shape != (self.A_eq.shape[0],)):
            raise QPError("equality system dimension mismatch")
        if self.G_ineq is not None and (self.G_ineq.shape[1] != self.n
                                        or self.h_ineq.shape != (self.G_ineq.shape[0],)):
            raise QPError("inequality system dimension mismatch")

    def objective(self, x):
        return float(self.q_diag @ (x * x) + self.c_lin @ x)

    def to_json_dict(self):
        """Documented debug dump for external cross-checking."""
        def mat(m):
            if m is None:
                return None
            coo = m.tocoo()
            return {"shape": list(coo.shape), "row": coo.row.tolist(),
                    "col": coo.col.tolist(), "data": coo.data.tolist()}

        def vec(v):
            return None if v is None else [None if math.isinf(x) else x for x in v]

        return {
            "n": self.n,
            "q_diag": self.q_diag.tolist(),
            "c_lin": self.c_lin.tolist(),
            "A_eq": mat(self.A_eq), "b_eq": None if self.b_eq is None else self.b_eq.tolist(),
            "G_ineq": mat(self.G_ineq),
            "h_ineq": None if self.h_ineq is None else self.h_ineq.tolist(),
            "lo": vec(self.lo), "hi": vec(self.hi),
        }


@dataclass
class Solution:
    x: np.ndarray
    duals_eq: np.ndarray
    duals_ineq: np.ndarray
    objective: float
    status: str  # optimal | infeasible | max_iter
    iterations: int
    duals_lo: np.ndarray = field(default=None, repr=False)
    duals_hi: np.ndarray = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# interior-point core
# ---------------------------------------------------------------------------

TOL = 1e-8       # scaled primal, dual and gap tolerance of solve_qp
MAX_ITER = 100   # IPM iteration cap per solve
FEAS_TOL = 1e-7  # phase-1 threshold, relative to the right-hand-side scale
_REG = 1e-8      # static primal/dual regularization of the KKT system
_STEP = 0.995    # fraction-to-boundary factor


def _ipm(p, tol, tol_gap):
    """Infeasible-start Mehrotra predictor-corrector.

    Stops when the scaled stationarity and feasibility residuals are at
    most tol and the scaled mean complementarity at most tol_gap.

    Each finite bound keeps its own slack and dual, but its Newton row is
    eliminated: it adds z/(s + _REG*z) to the (1,1) diagonal and a matching
    term to the right-hand side (the Schur complement of the bound rows).
    The KKT matrix therefore has dimension n + m_eq + m_ineq, its pattern is
    assembled once, and each iteration rewrites only its diagonal.  A
    program with no inequality rows and no finite bounds takes the same
    path: mu is then zero and each step is a damped Newton step.

    Returns (Solution-without-status-judgement, converged: bool).
    """
    n, mg, me = p.n, p.m_ineq, p.m_eq
    hi_idx = np.flatnonzero(np.isfinite(p.hi))
    lo_idx = np.flatnonzero(np.isfinite(p.lo))
    # inequality rows: G, then bound row j reading sgn[j] * x[bvar[j]] <= h[mg + j]
    bvar = np.concatenate([hi_idx, lo_idx])
    sgn = np.concatenate([np.ones(hi_idx.size), -np.ones(lo_idx.size)])
    mi = mg + bvar.size
    G = p.G_ineq if mg else sp.csr_matrix((0, n))
    A = p.A_eq if me else sp.csr_matrix((0, n))
    b = p.b_eq if me else np.zeros(0)
    h = np.concatenate([p.h_ineq if mg else np.zeros(0), p.hi[hi_idx], -p.lo[lo_idx]])
    q2 = 2.0 * p.q_diag
    c = p.c_lin
    GT = G.T.tocsr()
    AT = A.T.tocsr()

    def rows_x(x):
        """All inequality rows applied to x: G x, then the bound rows."""
        return np.concatenate([G @ x, sgn * x[bvar]])

    def to_x(v):
        """Sum the bound-row values v onto the variables they bound."""
        return np.bincount(bvar, v, minlength=n)

    data_scale = 1.0 + max(np.abs(c).max(initial=0.0),
                           np.abs(h[np.isfinite(h)]).max(initial=0.0),
                           np.abs(b).max(initial=0.0))

    # starting point: shifted so all slacks and duals are comfortably interior
    x = np.clip(np.zeros(n), p.lo, p.hi)
    s_raw = h - rows_x(x)
    shift = max(1.0, -1.5 * s_raw.min(initial=0.0))
    s = s_raw + shift
    z = np.ones(mi)
    y = np.zeros(me)

    # the pattern is fixed; diag_pos indexes K's diagonal inside K.data.
    # splu sorts unsorted indices in place, so canonicalize K first.
    K = sp.bmat([[sp.identity(n), GT, AT],
                 [G, sp.identity(mg), None],
                 [A, None, sp.identity(me)]], format="csc")
    K.sum_duplicates()
    diag_pos = np.flatnonzero(K.indices == np.repeat(np.arange(K.shape[0]),
                                                     np.diff(K.indptr)))
    diag = np.concatenate([q2 + _REG, np.zeros(mg), np.full(me, -_REG)])

    best = None
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        r_d = q2 * x + c + GT @ z[:mg] + to_x(sgn * z[mg:]) + AT @ y
        r_p = A @ x - b
        r_g = rows_x(x) + s - h
        mu = float(s @ z) / max(mi, 1)

        obj = p.objective(x)
        res_stat = np.abs(r_d).max() / data_scale
        res_feas = max(np.abs(r_p).max(initial=0.0), np.abs(r_g).max(initial=0.0)) / data_scale
        res_gap = mu / (1.0 + abs(obj))
        metric = max(res_stat, res_feas, res_gap)
        if best is None or metric < best[0]:
            best = (metric, x.copy(), y.copy(), z.copy(), s.copy(), it)
        if res_stat <= tol and res_feas <= tol and res_gap <= tol_gap:
            converged = True
            break
        # stall guard: primal infeasibility stuck well above tolerance
        if it > 40 and res_feas > 1e-4 and metric > 0.9 * best[0] and best[5] < it - 15:
            break

        # 1 / (s/z + _REG) per bound row: the eliminated (2,2) entry inverted
        d_b = z[mg:] / (s[mg:] + _REG * z[mg:])
        diag[:n] = q2 + _REG + to_x(d_b)
        diag[n:n + mg] = -s[:mg] / z[:mg] - _REG
        K.data[diag_pos] = diag
        lu = None  # release the previous factor before computing the next
        try:
            # quasi-definite after regularization: a fixed symmetric ordering
            # with diagonal pivoting keeps fill low even when the slack
            # diagonal becomes badly scaled near convergence
            lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError:
            break

        def newton(r_c):
            r = -r_g + r_c / z
            r_b = d_b * r[mg:]
            d = lu.solve(np.concatenate([-r_d + to_x(sgn * r_b), r[:mg], -r_p]))
            dx = d[:n]
            dz = np.concatenate([d[n:n + mg], d_b * sgn * dx[bvar] - r_b])
            dy = d[n + mg:]
            ds = (-r_c - s * dz) / z
            return dx, dy, dz, ds

        # predictor
        dx, dy, dz, ds = newton(s * z)
        ap = _max_step(s, ds)
        ad = _max_step(z, dz)
        mu_aff = float((s + ap * ds) @ (z + ad * dz)) / max(mi, 1)
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # corrector
        dx, dy, dz, ds = newton(s * z + ds * dz - sigma * mu)
        ap = min(1.0, _STEP * _max_step(s, ds))
        ad = min(1.0, _STEP * _max_step(z, dz))

        x = x + ap * dx
        s = s + ap * ds
        y = y + ad * dy
        z = z + ad * dz

    if not converged and best is not None:
        _, x, y, z, s, _ = best
    duals_hi = np.zeros(n)
    duals_lo = np.zeros(n)
    duals_hi[hi_idx] = z[mg:mg + hi_idx.size]
    duals_lo[lo_idx] = z[mg + hi_idx.size:]
    sol = Solution(x=x, duals_eq=y, duals_ineq=z[:mg].copy(),
                   objective=p.objective(x), status="optimal" if converged else "max_iter",
                   iterations=it, duals_lo=duals_lo, duals_hi=duals_hi)
    return sol, converged


def _max_step(v, dv):
    neg = dv < 0
    if not neg.any():
        return 1.0
    return min(1.0, float(np.min(-v[neg] / dv[neg])))


# ---------------------------------------------------------------------------
# phase 1
# ---------------------------------------------------------------------------

def _phase1_program(p):
    """Elastic LP: bounds stay hard, G rows get slack u, equalities get v-w.

    min 1'u + 1'(v + w)  s.t.  Gx - u <= h, Ax + v - w = b, u,v,w >= 0.
    Always feasible and bounded; optimum ~ 0 iff p's constraints admit a
    point inside the variable box.
    """
    n, mi, me = p.n, p.m_ineq, p.m_eq
    n_tot = n + mi + 2 * me
    q = np.zeros(n_tot)
    c = np.concatenate([np.zeros(n), np.ones(mi + 2 * me)])
    lo = np.concatenate([p.lo, np.zeros(mi + 2 * me)])
    hi = np.concatenate([p.hi, np.full(mi + 2 * me, INF)])
    G = None
    h = None
    if mi:
        G = sp.hstack([p.G_ineq, -sp.identity(mi), sp.csr_matrix((mi, 2 * me))],
                      format="csr")
        h = p.h_ineq
    A = None
    b = None
    if me:
        A = sp.hstack([p.A_eq, sp.csr_matrix((me, mi)), sp.identity(me), -sp.identity(me)],
                      format="csr")
        b = p.b_eq
    return QuadProgram(n=n_tot, q_diag=q, c_lin=c, A_eq=A, b_eq=b,
                       G_ineq=G, h_ineq=h, lo=lo, hi=hi)


def check_feasibility(p):
    """'feasible' or 'infeasible' by phase-1 elastic minimization."""
    if (p.lo > p.hi).any():
        return "infeasible"
    scale = 1.0 + max(np.abs(p.b_eq).max(initial=0.0) if p.m_eq else 0.0,
                      np.abs(p.h_ineq[np.isfinite(p.h_ineq)]).max(initial=0.0)
                      if p.m_ineq else 0.0)
    # the IPM's mean-complementarity stop leaves a total duality gap of order
    # tol_gap * m_ineq, which at TOL can straddle the threshold on marginal
    # problems; so the elastic LP is solved to a much tighter gap
    sol, _ = _ipm(_phase1_program(p), 1e-9, 1e-12)
    return "feasible" if sol.objective <= FEAS_TOL * scale else "infeasible"


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def solve_qp(p):
    """Solve the program; status is optimal, infeasible or max_iter."""
    p.validate()
    sol, converged = _ipm(p, TOL, TOL)
    if converged:
        return sol
    # did not converge: classify via phase 1
    if check_feasibility(p) == "infeasible":
        sol.status = "infeasible"
    return sol


def kkt_residuals(p, s):
    """Scaled infinity-norm residuals (stationarity, feasibility, complementarity)."""
    x = np.asarray(s.x, dtype=float)
    if x.shape != (p.n,):
        raise QPError("solution dimension mismatch")
    grad = 2.0 * p.q_diag * x + p.c_lin
    if p.m_eq:
        grad = grad + p.A_eq.T @ s.duals_eq
    if p.m_ineq:
        grad = grad + p.G_ineq.T @ s.duals_ineq
    if s.duals_hi is not None:
        grad = grad + s.duals_hi - s.duals_lo
    scale = 1.0 + max(np.abs(p.c_lin).max(initial=0.0), np.abs(x).max(initial=0.0))
    r_stat = float(np.abs(grad).max(initial=0.0)) / scale

    feas_terms = [0.0]
    comp_terms = [0.0]
    if p.m_eq:
        feas_terms.append(np.abs(p.A_eq @ x - p.b_eq).max(initial=0.0))
    if p.m_ineq:
        slack = p.h_ineq - p.G_ineq @ x
        feas_terms.append(float(np.maximum(-slack, 0.0).max(initial=0.0)))
        comp_terms.append(float(np.abs(s.duals_ineq * slack).max(initial=0.0)))
    fin_hi = np.isfinite(p.hi)
    fin_lo = np.isfinite(p.lo)
    if fin_hi.any():
        feas_terms.append(float(np.maximum(x[fin_hi] - p.hi[fin_hi], 0.0).max(initial=0.0)))
        if s.duals_hi is not None:
            comp_terms.append(float(np.abs(s.duals_hi[fin_hi]
                                           * (p.hi[fin_hi] - x[fin_hi])).max(initial=0.0)))
    if fin_lo.any():
        feas_terms.append(float(np.maximum(p.lo[fin_lo] - x[fin_lo], 0.0).max(initial=0.0)))
        if s.duals_lo is not None:
            comp_terms.append(float(np.abs(s.duals_lo[fin_lo]
                                           * (x[fin_lo] - p.lo[fin_lo])).max(initial=0.0)))
    rhs_scale = 1.0 + max(
        np.abs(p.b_eq).max(initial=0.0) if p.m_eq else 0.0,
        np.abs(p.h_ineq[np.isfinite(p.h_ineq)]).max(initial=0.0) if p.m_ineq else 0.0,
        np.abs(x).max(initial=0.0),
    )
    r_feas = max(feas_terms) / rhs_scale
    r_comp = max(comp_terms) / (1.0 + abs(p.objective(x)))
    return r_stat, r_feas, r_comp
