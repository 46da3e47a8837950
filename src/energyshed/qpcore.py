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
solve, and it is factored by sparse LU with a symmetric minimum-degree
ordering and diagonal pivoting, so runs are deterministic and fill stays
low even when the slack diagonal is badly scaled.  The ordering is computed
once per solve, by the first factorization; K is then permuted by it once,
and later factorizations keep it.  Only one factor is alive at a time.
Every program, with or without inequalities, goes through this one KKT
path.  There is no phase 1: infeasibility is certified by a Farkas ray
read from the same solve's dual iterates, and an infeasible Solution's
dual fields hold that ray.

The accuracy is fixed, not configurable: solve_qp stops at scaled
primal, dual and gap residuals of TOL = 1e-8 within MAX_ITER = 100
iterations.  A ray certifies infeasibility when its residual is at most
1e-6 of its objective and that objective, per unit of the ray's max
norm, exceeds FEAS_TOL = 1e-7 times 1 + the largest finite right-hand
side: the threshold a phase-1 elastic program would apply to its optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

INF = math.inf


class QPError(ValueError):
    pass


@dataclass
class QuadProgram:
    """The program of the module docstring, in one canonical form.

    Both constraint blocks are always present: an absent A_eq or G_ineq is
    a (0, n) CSR matrix with an empty right-hand side.  An absent bound is
    infinite.  validate rejects NaN anywhere, an infinite entry in any
    other field, lo = +inf and hi = -inf.
    """
    n: int
    q_diag: np.ndarray
    c_lin: np.ndarray
    A_eq: sp.csr_matrix | None = None
    b_eq: np.ndarray = ()
    G_ineq: sp.csr_matrix | None = None
    h_ineq: np.ndarray = ()
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self):
        self.q_diag = np.asarray(self.q_diag, dtype=float)
        self.c_lin = np.asarray(self.c_lin, dtype=float)
        self.A_eq = sp.csr_matrix((0, self.n) if self.A_eq is None else self.A_eq)
        self.b_eq = np.asarray(self.b_eq, dtype=float)
        self.G_ineq = sp.csr_matrix((0, self.n) if self.G_ineq is None else self.G_ineq)
        self.h_ineq = np.asarray(self.h_ineq, dtype=float)
        self.lo = np.asarray(np.full(self.n, -INF) if self.lo is None else self.lo, dtype=float)
        self.hi = np.asarray(np.full(self.n, INF) if self.hi is None else self.hi, dtype=float)
        self.validate()

    @property
    def m_eq(self):
        return self.A_eq.shape[0]

    @property
    def m_ineq(self):
        return self.G_ineq.shape[0]

    def validate(self):
        if any(v.shape != (self.n,) for v in (self.q_diag, self.c_lin, self.lo, self.hi)):
            raise QPError("q_diag/c_lin/lo/hi dimension mismatch")
        if self.A_eq.shape[1] != self.n or self.b_eq.shape != (self.m_eq,):
            raise QPError("equality system dimension mismatch")
        if self.G_ineq.shape[1] != self.n or self.h_ineq.shape != (self.m_ineq,):
            raise QPError("inequality system dimension mismatch")
        for name, v in (("q_diag", self.q_diag), ("c_lin", self.c_lin),
                        ("A_eq", self.A_eq.data), ("b_eq", self.b_eq),
                        ("G_ineq", self.G_ineq.data), ("h_ineq", self.h_ineq)):
            if not np.isfinite(v).all():
                raise QPError(f"non-finite entry in {name}")
        if not ((self.lo < INF).all() and (self.hi > -INF).all()):
            raise QPError("bounds must not be NaN, lo = +inf or hi = -inf")
        if (self.q_diag < 0).any():
            raise QPError("q_diag must be nonnegative (convexity)")
        if (self.lo > self.hi).any():
            raise QPError("lower bound exceeds upper bound")

    def objective(self, x):
        return float(self.q_diag @ (x * x) + self.c_lin @ x)


@dataclass
class Solution:
    x: np.ndarray
    duals_eq: np.ndarray
    duals_ineq: np.ndarray
    objective: float
    status: str  # optimal | infeasible | max_iter
    iterations: int
    # on status infeasible the dual fields hold a Farkas ray of max norm 1
    duals_lo: np.ndarray = field(repr=False)
    duals_hi: np.ndarray = field(repr=False)
    # s'z at the returned iterate: the duality gap.  With zero residuals
    # the optimum lies in [objective - gap, objective].
    gap: float = math.nan


# ---------------------------------------------------------------------------
# interior-point core
# ---------------------------------------------------------------------------

TOL = 1e-8       # scaled primal, dual and gap tolerance of solve_qp
MAX_ITER = 100   # IPM iteration cap per solve
FEAS_TOL = 1e-7  # infeasibility threshold, relative to the right-hand-side scale
_REG = 1e-8      # static primal/dual regularization of the KKT system
_STEP = 0.995    # fraction-to-boundary factor


def _ipm(p):
    """Infeasible-start Mehrotra predictor-corrector.

    Stops with status optimal when the scaled stationarity, feasibility and
    mean-complementarity residuals are at most TOL; with status infeasible
    when the iterate's dual pair, or its last dual step, is a Farkas ray,
    which it returns normalized to |(y, z)|_inf = 1 in the dual fields; and
    with status max_iter after MAX_ITER iterations or a failed
    factorization.

    Each finite bound keeps its own slack and dual, but its Newton row is
    eliminated: it adds z/(s + _REG*z) to the (1,1) diagonal and a matching
    term to the right-hand side (the Schur complement of the bound rows).
    The KKT matrix therefore has dimension n + m_eq + m_ineq, its pattern is
    assembled once, and each iteration rewrites only its diagonal.  The
    first factorization computes SuperLU's MMD column ordering; K is then
    permuted symmetrically by it once, by scipy's indexing K[order][:, order],
    and every later iteration factors it with NATURAL ordering and solves in
    permuted coordinates.  The factor lives in one local, dropped before the
    next splu call, so at most one factor is alive at a time.  A program
    with no inequality rows and no finite bounds takes the same path: mu is
    then zero and each step is a damped Newton step.
    """
    n, mg, me = p.n, p.m_ineq, p.m_eq
    hi_idx = np.flatnonzero(np.isfinite(p.hi))
    lo_idx = np.flatnonzero(np.isfinite(p.lo))
    # inequality rows: G, then bound row j reading sgn[j] * x[bvar[j]] <= h[mg + j]
    bvar = np.concatenate([hi_idx, lo_idx])
    sgn = np.concatenate([np.ones(hi_idx.size), -np.ones(lo_idx.size)])
    mi = mg + bvar.size
    G, A, b = p.G_ineq, p.A_eq, p.b_eq
    h = np.concatenate([p.h_ineq, p.hi[hi_idx], -p.lo[lo_idx]])
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
                           np.abs(h).max(initial=0.0),
                           np.abs(b).max(initial=0.0))

    # starting point: shifted so all slacks and duals are comfortably interior
    x = np.clip(np.zeros(n), p.lo, p.hi)
    s_raw = h - rows_x(x)
    shift = max(1.0, -1.5 * s_raw.min(initial=0.0))
    s = s_raw + shift
    z = np.ones(mi)
    y = np.zeros(me)

    # the pattern is fixed; diag_pos indexes K's diagonal inside K.data.
    # splu sorts unsorted indices in place, so canonicalize K first.  K's
    # row and column i hold the system's order[i]: the identity until the
    # first factor's ordering is applied.
    K = sp.bmat([[sp.identity(n), GT, AT],
                 [G, sp.identity(mg), None],
                 [A, None, sp.identity(me)]], format="csc")
    K.sum_duplicates()
    diag_pos = _diag_pos(K)
    order = np.arange(K.shape[0])
    diag = np.concatenate([q2 + _REG, np.zeros(mg), np.full(me, -_REG)])

    # Farkas test.  For a dual pair (y, z >= 0) with R = A'y + G'z (bound
    # rows included) and phi = b'y + h'z, every feasible x has R'x <= phi;
    # so R ~ 0 with phi < 0 proves the constraints infeasible.  The test on
    # -phi / |(y, z)|_inf is the phase-1 elastic optimum's threshold in dual
    # form.  It is applied to the iterate and to its last dual step: near
    # the frontier the duals grow by a constant ray each step, while the
    # iterate keeps the objective's gradient in its R.
    feas_thr = FEAS_TOL * (1.0 + max(np.abs(b).max(initial=0.0),
                                     np.abs(p.h_ineq).max(initial=0.0)))

    def farkas(yw, zw):
        """(yw, zw) scaled to |(yw, zw)|_inf = 1 if it is a ray, else None."""
        phi = float(b @ yw + h @ zw)
        w_norm = max(np.abs(yw).max(initial=0.0), zw.max(initial=0.0))
        if not -phi > feas_thr * w_norm:
            return None
        R = GT @ zw[:mg] + to_x(sgn * zw[mg:]) + AT @ yw
        if np.abs(R).max(initial=0.0) > 1e-6 * -phi:
            return None
        return yw / w_norm, zw / w_norm

    status = "max_iter"
    it = 0
    y_prev, z_prev = y, z
    for it in range(1, MAX_ITER + 1):
        r_d = q2 * x + c + GT @ z[:mg] + to_x(sgn * z[mg:]) + AT @ y
        r_p = A @ x - b
        r_g = rows_x(x) + s - h
        mu = float(s @ z) / max(mi, 1)

        obj = p.objective(x)
        res_stat = np.abs(r_d).max() / data_scale
        res_feas = max(np.abs(r_p).max(initial=0.0), np.abs(r_g).max(initial=0.0)) / data_scale
        res_gap = mu / (1.0 + abs(obj))
        if res_stat <= TOL and res_feas <= TOL and res_gap <= TOL:
            status = "optimal"
            break
        ray = farkas(y, z) or farkas(y - y_prev, np.maximum(z - z_prev, 0.0))
        if ray:
            status = "infeasible"
            y, z = ray
            break
        y_prev, z_prev = y, z

        # 1 / (s/z + _REG) per bound row: the eliminated (2,2) entry inverted
        d_b = z[mg:] / (s[mg:] + _REG * z[mg:])
        diag[:n] = q2 + _REG + to_x(d_b)
        diag[n:n + mg] = -s[:mg] / z[:mg] - _REG
        if it == 2:
            # the pattern is fixed, so every later factor reuses the first
            # one's column ordering: permute K symmetrically by it, once,
            # and sort its indices, since _diag_pos needs canonical CSC
            order = np.argsort(lu.perm_c)
            K = K[order][:, order]
            K.sort_indices()
            diag_pos = _diag_pos(K)
        K.data[diag_pos] = diag[order]
        lu = None  # the only reference: free the previous factor first
        try:
            # quasi-definite after regularization: a symmetric minimum-degree
            # ordering with diagonal pivoting keeps fill low even when the
            # slack diagonal becomes badly scaled near convergence.  Only the
            # first factor computes it; K is already in that order afterwards.
            lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A" if it == 1 else "NATURAL",
                           diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError:
            break

        def newton(r_c):
            r = -r_g + r_c / z
            r_b = d_b * r[mg:]
            rhs = np.concatenate([-r_d + to_x(sgn * r_b), r[:mg], -r_p])
            d = np.empty_like(rhs)
            d[order] = lu.solve(rhs[order])
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

    duals_hi = np.bincount(hi_idx, z[mg:mg + hi_idx.size], minlength=n)
    duals_lo = np.bincount(lo_idx, z[mg + hi_idx.size:], minlength=n)
    return Solution(x=x, duals_eq=y, duals_ineq=z[:mg].copy(),
                    objective=p.objective(x), status=status,
                    iterations=it, duals_lo=duals_lo, duals_hi=duals_hi,
                    gap=float(s @ z))


def _diag_pos(K):
    """Positions of a canonical CSC matrix's diagonal entries in K.data."""
    return np.flatnonzero(K.indices == np.repeat(np.arange(K.shape[0]),
                                                 np.diff(K.indptr)))


def _max_step(v, dv):
    neg = dv < 0
    return float(np.min(-v[neg] / dv[neg], initial=1.0))


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def solve_qp(p):
    """Solve the program; status is optimal, infeasible or max_iter."""
    p.validate()
    return _ipm(p)


def check_feasibility(p):
    """'feasible' or 'infeasible': p's constraints solved with a zero objective.

    Feasible when the IPM converges, infeasible when it finds a Farkas
    certificate; QPError when neither happens within MAX_ITER iterations.
    """
    if (p.lo > p.hi).any():
        return "infeasible"
    sol = _ipm(replace(p, q_diag=np.zeros(p.n), c_lin=np.zeros(p.n)))
    if sol.status == "max_iter":
        raise QPError(f"feasibility undecided after {sol.iterations} iterations")
    return "feasible" if sol.status == "optimal" else "infeasible"
