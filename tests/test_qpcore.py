"""Interior-point solver tests: hand problems, LP cross-checks, oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import linprog

from energyshed import qpcore
from energyshed.problems import build_p1, build_p3
from energyshed.qpcore import (
    QPError,
    QuadProgram,
    check_feasibility,
    kkt_residuals,
    solve_qp,
)
from oracles import active_set_qp


def qp(**kw):
    kw.setdefault("n", len(kw["q_diag"]))
    return QuadProgram(**kw)


class TestHandProblems:
    def test_scalar_bound(self):
        # min x^2 s.t. x >= 1
        sol = solve_qp(qp(q_diag=[1.0], c_lin=[0.0], lo=[1.0], hi=[np.inf]))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-7)
        assert sol.objective == pytest.approx(1.0, abs=1e-7)

    def test_symmetric_equality(self):
        # min x1^2 + x2^2 s.t. x1 + x2 = 2
        sol = solve_qp(qp(q_diag=[1.0, 1.0], c_lin=[0.0, 0.0],
                          A_eq=sp.csr_matrix([[1.0, 1.0]]), b_eq=[2.0]))
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-7)
        assert sol.duals_eq[0] == pytest.approx(-2.0, abs=1e-6)

    def test_unconstrained(self):
        sol = solve_qp(qp(q_diag=[2.0, 1.0], c_lin=[-4.0, 2.0]))
        np.testing.assert_allclose(sol.x, [1.0, -1.0], atol=1e-7)

    def test_inactive_inequality(self):
        sol = solve_qp(qp(q_diag=[1.0], c_lin=[0.0],
                          G_ineq=sp.csr_matrix([[1.0]]), h_ineq=[5.0]))
        assert sol.x[0] == pytest.approx(0.0, abs=1e-6)
        assert sol.duals_ineq[0] == pytest.approx(0.0, abs=1e-6)


class TestInfeasibility:
    def test_crossed_halfspaces(self):
        # x <= -1 and x >= 1
        sol = solve_qp(qp(q_diag=[1.0], c_lin=[0.0],
                          G_ineq=sp.csr_matrix([[1.0]]), h_ineq=[-1.0],
                          lo=[1.0], hi=[np.inf]))
        assert sol.status == "infeasible"

    def test_equality_outside_box(self):
        p = qp(q_diag=[1.0, 1.0], c_lin=[0.0, 0.0],
               A_eq=sp.csr_matrix([[1.0, 1.0]]), b_eq=[5.0],
               lo=[0.0, 0.0], hi=[1.0, 1.0])
        assert solve_qp(p).status == "infeasible"
        assert check_feasibility(p) == "infeasible"

    def test_feasibility_probe_positive(self):
        p = qp(q_diag=[1.0, 1.0], c_lin=[0.0, 0.0],
               A_eq=sp.csr_matrix([[1.0, 1.0]]), b_eq=[1.5],
               lo=[0.0, 0.0], hi=[1.0, 1.0])
        assert check_feasibility(p) == "feasible"

    @pytest.mark.parametrize("lo, hi", [([0.0], [1.0]), ([-np.inf], [np.inf])],
                             ids=["boxed", "free"])
    def test_feasibility_without_rows(self, lo, hi):
        # no equality or inequality rows: phase 1 is a zero-cost program
        p = qp(q_diag=[1.0], c_lin=[0.0], lo=lo, hi=hi)
        assert check_feasibility(p) == "feasible"


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(QPError, match="dimension"):
            qp(n=2, q_diag=[1.0], c_lin=[0.0, 0.0])

    def test_negative_curvature_rejected(self):
        with pytest.raises(QPError, match="convexity"):
            qp(q_diag=[-1.0], c_lin=[0.0])

    def test_crossed_bounds_rejected(self):
        with pytest.raises(QPError, match="bound"):
            qp(q_diag=[1.0], c_lin=[0.0], lo=[2.0], hi=[1.0])

    def test_debug_dump_round_trips_infinities(self):
        p = qp(q_diag=[1.0, 0.0], c_lin=[0.5, -0.5], lo=[0.0, -np.inf],
               hi=[np.inf, 2.0])
        d = p.to_json_dict()
        assert d["lo"] == [0.0, None]
        assert d["hi"] == [None, 2.0]


class TestAgainstLinprog:
    def test_random_lps(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n, mi, me = 10, 6, 3
            A = rng.normal(size=(me, n))
            G = rng.normal(size=(mi, n))
            x0 = rng.uniform(0.0, 1.0, n)  # ensures feasibility
            b = A @ x0
            h = G @ x0 + rng.uniform(0.1, 1.0, mi)
            # free, lower-only, upper-only and boxed variables
            kind = rng.permutation(np.arange(n) % 4)
            lo = np.where(kind % 2 == 1, rng.uniform(-4.0, -0.5, n), -np.inf)
            hi = np.where(kind >= 2, rng.uniform(1.5, 4.0, n), np.inf)
            # c from a dual-feasible point keeps the LP bounded
            w_lo = np.where(np.isfinite(lo), rng.uniform(0.0, 1.0, n), 0.0)
            w_hi = np.where(np.isfinite(hi), rng.uniform(0.0, 1.0, n), 0.0)
            c = (-A.T @ rng.normal(size=me) - G.T @ rng.uniform(0.0, 1.0, mi)
                 + w_lo - w_hi)
            p = qp(q_diag=np.zeros(n), c_lin=c, A_eq=sp.csr_matrix(A), b_eq=b,
                   G_ineq=sp.csr_matrix(G), h_ineq=h, lo=lo, hi=hi)
            sol = solve_qp(p)
            ref = linprog(c, A_ub=G, b_ub=h, A_eq=A, b_eq=b,
                          bounds=list(zip(lo, hi)), method="highs")
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(ref.fun, abs=1e-5)
            assert max(kkt_residuals(p, sol)) <= 1e-6
            # the duality gap brackets the optimum: P4 prunes on objective - gap
            slack = 1e-9 * (1.0 + abs(ref.fun))
            assert sol.objective - sol.gap <= ref.fun + slack
            assert ref.fun <= sol.objective + slack


class TestAgainstActiveSetOracle:
    def test_random_strictly_convex_qps(self):
        rng = np.random.default_rng(3)
        for k in range(12):
            n, mi = 4, 4
            q = rng.uniform(0.5, 2.0, n)
            c = rng.normal(size=n)
            G = rng.normal(size=(mi, n))
            h = G @ rng.uniform(-0.5, 0.5, n) + rng.uniform(0.05, 1.0, mi)
            lo = np.full(n, -2.0)
            hi = np.full(n, 2.0)
            # fold boxes into dense rows for the oracle
            G_all = np.vstack([G, np.eye(n), -np.eye(n)])
            h_all = np.concatenate([h, hi, -lo])
            ref_val, ref_x = active_set_qp(q, c, None, None, G_all, h_all)
            sol = solve_qp(qp(q_diag=q, c_lin=c, G_ineq=sp.csr_matrix(G),
                              h_ineq=h, lo=lo, hi=hi))
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(ref_val, abs=1e-6)
            np.testing.assert_allclose(sol.x, ref_x, atol=1e-4)

    def test_with_equalities(self):
        rng = np.random.default_rng(11)
        for k in range(6):
            n, mi, me = 5, 3, 2
            q = rng.uniform(0.5, 2.0, n)
            c = rng.normal(size=n)
            A = rng.normal(size=(me, n))
            x0 = rng.uniform(-0.5, 0.5, n)
            b = A @ x0
            G = rng.normal(size=(mi, n))
            h = G @ x0 + rng.uniform(0.05, 1.0, mi)
            ref_val, _ = active_set_qp(q, c, A, b, G, h)
            sol = solve_qp(qp(q_diag=q, c_lin=c, A_eq=sp.csr_matrix(A),
                              b_eq=b, G_ineq=sp.csr_matrix(G), h_ineq=h))
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(ref_val, abs=1e-6)


class TestNumericalContracts:
    def build(self, seed=0):
        rng = np.random.default_rng(seed)
        n, mi, me = 8, 5, 2
        q = rng.uniform(0.1, 1.0, n)
        c = rng.normal(size=n)
        A = rng.normal(size=(me, n))
        x0 = rng.uniform(0.0, 1.0, n)
        G = rng.normal(size=(mi, n))
        return qp(q_diag=q, c_lin=c, A_eq=sp.csr_matrix(A), b_eq=A @ x0,
                  G_ineq=sp.csr_matrix(G),
                  h_ineq=G @ x0 + rng.uniform(0.1, 1.0, mi),
                  lo=np.full(n, -3.0), hi=np.full(n, 3.0))

    def test_kkt_residuals_small(self):
        p = self.build()
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert max(kkt_residuals(p, sol)) <= 1e-6

    def test_kkt_dimension_excludes_bounds(self, scenario_medium, monkeypatch):
        # bounds live on the (1,1) diagonal, so every factored matrix has
        # one row per variable, equality and general inequality
        seen = []
        splu = spla.splu

        def recording_splu(K, *args, **kwargs):
            seen.append((K.shape, K.nnz))
            return splu(K, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", recording_splu)
        p, _ = build_p1(scenario_medium, 0.6)
        assert np.isfinite(p.lo).sum() + np.isfinite(p.hi).sum() > 0
        assert solve_qp(p).status == "optimal"
        dim = p.n + p.m_eq + p.m_ineq
        assert seen and {shape for shape, _ in seen} == {(dim, dim)}
        assert len({nnz for _, nnz in seen}) == 1  # one fixed pattern

    def test_phase1_is_one_solve(self, scenario_medium, monkeypatch):
        # the elastic LP is solved once, at the tight gap, even on a
        # feasible probe whose phase-1 optimum sits near the threshold
        calls = []
        ipm = qpcore._ipm

        def counting_ipm(p, tol, tol_gap):
            calls.append(tol_gap)
            return ipm(p, tol, tol_gap)

        monkeypatch.setattr(qpcore, "_ipm", counting_ipm)
        probe = build_p3(scenario_medium, 0.6, check=False)
        assert check_feasibility(probe) == "feasible"
        assert len(calls) == 1
        assert calls[0] <= 1e-12

    def test_bit_identical_reruns(self):
        a = solve_qp(self.build())
        b = solve_qp(self.build())
        assert a.iterations == b.iterations
        assert (a.x == b.x).all()

    def test_objective_scaling(self):
        # scaling q and c by a constant scales the objective, not the point
        p1 = self.build(seed=5)
        p2 = self.build(seed=5)
        p2.q_diag = 10.0 * p2.q_diag
        p2.c_lin = 10.0 * p2.c_lin
        s1, s2 = solve_qp(p1), solve_qp(p2)
        assert s2.objective == pytest.approx(10.0 * s1.objective, rel=1e-6)
        np.testing.assert_allclose(s1.x, s2.x, atol=1e-4)
