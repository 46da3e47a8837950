"""Interior-point solver tests: hand problems, LP cross-checks, oracles."""

import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import linprog

from conftest import data_path, single_shed_scenario
from energyshed import qpcore
from energyshed.cli import EXIT_INFEASIBLE, main
from energyshed.problems import build_p1
from energyshed.qpcore import QPError, QuadProgram, check_feasibility, solve_qp
from oracles import active_set_qp, build_p3, farkas_ok, kkt_residuals, phase1_feasibility


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
        p = qp(q_diag=[1.0], c_lin=[0.0],
               G_ineq=sp.csr_matrix([[1.0]]), h_ineq=[-1.0],
               lo=[1.0], hi=[np.inf])
        sol = solve_qp(p)
        assert sol.status == "infeasible"
        assert farkas_ok(p, sol)

    def test_equality_outside_box(self):
        p = qp(q_diag=[1.0, 1.0], c_lin=[0.0, 0.0],
               A_eq=sp.csr_matrix([[1.0, 1.0]]), b_eq=[5.0],
               lo=[0.0, 0.0], hi=[1.0, 1.0])
        sol = solve_qp(p)
        assert sol.status == "infeasible"
        assert farkas_ok(p, sol)
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

    @pytest.mark.parametrize("rows, rhs, match", [
        ("A_eq", "b_eq", "^equality system dimension mismatch"),
        ("G_ineq", "h_ineq", "^inequality system dimension mismatch"),
    ], ids=["equality", "inequality"])
    def test_row_block_dimension_mismatch(self, rows, rhs, match):
        # a row block with too few columns, then a right-hand side of the
        # wrong length
        for kw in ({rows: sp.csr_matrix(np.ones((1, 1))), rhs: [1.0]},
                   {rows: sp.csr_matrix(np.ones((1, 2))), rhs: [1.0, 2.0]}):
            with pytest.raises(QPError, match=match):
                qp(n=2, q_diag=[1.0, 1.0], c_lin=[0.0, 0.0], **kw)

    def test_negative_curvature_rejected(self):
        with pytest.raises(QPError, match="convexity"):
            qp(q_diag=[-1.0], c_lin=[0.0])

    def test_crossed_bounds_rejected(self):
        with pytest.raises(QPError, match="bound"):
            qp(q_diag=[1.0], c_lin=[0.0], lo=[2.0], hi=[1.0])

    @pytest.mark.parametrize("field", ["q_diag", "c_lin", "A_eq", "b_eq", "G_ineq",
                                       "h_ineq", "lo", "hi"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, field, value):
        kw = dict(q_diag=[1.0, 1.0], c_lin=[0.0, 0.0],
                  A_eq=sp.csr_matrix([[1.0, 1.0]]), b_eq=[1.0],
                  G_ineq=sp.csr_matrix([[1.0, -1.0]]), h_ineq=[1.0],
                  lo=[0.0, 0.0], hi=[2.0, 2.0])
        if field in ("A_eq", "G_ineq"):
            kw[field] = sp.csr_matrix([[1.0, value]])
        else:
            kw[field] = np.array(kw[field])
            kw[field][0] = value
        # an infinite bound on its own side means "no bound"
        if (field, value) in (("lo", -np.inf), ("hi", np.inf)):
            assert solve_qp(qp(**kw)).status == "optimal"
            return
        with pytest.raises(QPError, match="non-finite|bounds must not"):
            qp(**kw)
        # data edited after construction: solve_qp re-validates and refuses
        p = qp(q_diag=[1.0, 1.0], c_lin=[0.0, 0.0], lo=[0.0, 0.0], hi=[2.0, 2.0])
        if field in ("q_diag", "c_lin", "lo", "hi"):
            getattr(p, field)[0] = value
            with pytest.raises(QPError, match="non-finite|bounds must not"):
                solve_qp(p)

    @pytest.mark.parametrize("rows", ["eq", "ineq", "none"])
    def test_absent_blocks_solve_as_empty_blocks(self, rows):
        kw = dict(q_diag=[1.0, 2.0], c_lin=[-4.0, 1.0], lo=[0.0, -np.inf],
                  hi=[1.0, np.inf])
        if rows == "eq":
            kw.update(A_eq=sp.csr_matrix([[1.0, 1.0]]), b_eq=[0.5])
        if rows == "ineq":
            kw.update(G_ineq=sp.csr_matrix([[1.0, -1.0]]), h_ineq=[0.25])
        empty = dict(A_eq=sp.csr_matrix((0, 2)), b_eq=np.zeros(0),
                     G_ineq=sp.csr_matrix((0, 2)), h_ineq=np.zeros(0))
        a = solve_qp(qp(**kw))
        b = solve_qp(qp(**{**empty, **kw}))
        assert a.status == b.status == "optimal"
        assert (a.iterations, a.objective, a.gap) == (b.iterations, b.objective, b.gap)
        for name in ("x", "duals_eq", "duals_ineq", "duals_lo", "duals_hi"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


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

    def test_random_lps_with_a_moved_row(self):
        # row i's right-hand side moved below (infeasible) or above
        # (feasible) the least value g_i'x that HiGHS finds over the other
        # constraints; the status must be HiGHS's
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(12):
            n, mi, me = 10, 6, 3
            A = rng.normal(size=(me, n))
            G = rng.normal(size=(mi, n))
            x0 = rng.uniform(0.0, 1.0, n)
            b = A @ x0
            h = G @ x0 + rng.uniform(0.1, 1.0, mi)
            kind = rng.permutation(np.arange(n) % 4)
            lo = np.where(kind % 2 == 1, rng.uniform(-4.0, -0.5, n), -np.inf)
            hi = np.where(kind >= 2, rng.uniform(1.5, 4.0, n), np.inf)
            w_lo = np.where(np.isfinite(lo), rng.uniform(0.0, 1.0, n), 0.0)
            w_hi = np.where(np.isfinite(hi), rng.uniform(0.0, 1.0, n), 0.0)
            c = (-A.T @ rng.normal(size=me) - G.T @ rng.uniform(0.0, 1.0, mi)
                 + w_lo - w_hi)
            i = int(rng.integers(mi))
            rest = np.arange(mi) != i
            least = linprog(G[i], A_ub=G[rest], b_ub=h[rest], A_eq=A, b_eq=b,
                            bounds=list(zip(lo, hi)), method="highs")
            if least.status != 0:  # g_i'x unbounded below: no row to move
                continue
            for shift in (-1.0, -1e-1, -1e-3, 1e-3, 1e-1):
                h_moved = h.copy()
                h_moved[i] = least.fun + shift * (1.0 + abs(least.fun))
                p = qp(q_diag=np.zeros(n), c_lin=c, A_eq=sp.csr_matrix(A), b_eq=b,
                       G_ineq=sp.csr_matrix(G), h_ineq=h_moved, lo=lo, hi=hi)
                sol = solve_qp(p)
                ref = linprog(c, A_ub=G, b_ub=h_moved, A_eq=A, b_eq=b,
                              bounds=list(zip(lo, hi)), method="highs")
                assert ref.status in (0, 2)
                assert sol.status == ("optimal" if ref.status == 0 else "infeasible")
                if ref.status == 2:
                    assert farkas_ok(p, sol)
                checked += 1
        assert checked >= 30


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

    @pytest.mark.parametrize("floor", [0.6, 3.0], ids=["optimal", "infeasible"])
    def test_one_ordering_and_one_live_factor(self, scenario_medium, monkeypatch,
                                              floor):
        # each solve computes one MMD ordering, from its first factor, and
        # factors every later (pre-permuted) KKT matrix with NATURAL; a
        # factor is freed before the next one is computed.  Every K is
        # canonical: _diag_pos indexes K.data by position, and splu would
        # sort unsorted indices in place.  Fill is compared by SuperLU's
        # stored L+U count: scipy's lu.L leaves out entries that cancel to
        # exactly 0, so L.nnz dips on some factors either way.
        solves = []  # per _ipm call: (permc_spec, lu.nnz) per factor
        alive = []   # per factor: whether it is still referenced
        splu, ipm = spla.splu, qpcore._ipm

        class Factor:
            def __init__(self, lu):
                self._lu = lu

            def __getattr__(self, name):
                return getattr(self._lu, name)

        def recording_splu(K, permc_spec, **kwargs):
            assert not any(alive), "splu called with an earlier factor alive"
            assert K.has_canonical_format, f"{permc_spec} factor of a non-canonical K"
            lu = splu(K, permc_spec=permc_spec, **kwargs)
            solves[-1].append((permc_spec, lu.nnz))
            factor = Factor(lu)
            weakref.finalize(factor, alive.__setitem__, len(alive), False)
            alive.append(True)
            return factor

        def recording_ipm(p):
            solves.append([])
            return ipm(p)

        monkeypatch.setattr(spla, "splu", recording_splu)
        monkeypatch.setattr(qpcore, "_ipm", recording_ipm)
        p, _ = build_p1(scenario_medium, floor)
        sol = solve_qp(p)
        assert sol.status == ("optimal" if floor < 1.0 else "infeasible")
        assert len(solves) == 1 and len(solves[0]) > 1
        specs, lu_nnz = zip(*solves[0])
        assert specs == ("MMD_AT_PLUS_A",) + ("NATURAL",) * (len(specs) - 1)
        assert len(set(lu_nnz)) == 1
        assert not any(alive)

    def test_infeasible_floor_is_one_solve(self, tmp_path, monkeypatch):
        # solve-p1 certifies an infeasible floor from its one IPM run, in no
        # more iterations than the feasible floor 0.5 takes
        runs = []
        ipm = qpcore._ipm

        def recording_ipm(p):
            sol = ipm(p)
            runs.append(sol)
            return sol

        monkeypatch.setattr(qpcore, "_ipm", recording_ipm)
        path = data_path("scenario_medium.json")
        iterations = {}
        for floor in (0.5, 1.5, 3.0):
            runs.clear()
            code = main(["solve-p1", "--scenario", path, "--x-min", str(floor),
                         "--out", str(tmp_path / str(floor))])
            assert code == (0 if floor == 0.5 else EXIT_INFEASIBLE)
            assert len(runs) == 1
            assert runs[0].status == ("optimal" if floor == 0.5 else "infeasible")
            assert (tmp_path / str(floor) / "manifest.json").is_file()
            iterations[floor] = runs[0].iterations
        assert max(iterations[1.5], iterations[3.0]) <= iterations[0.5]

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


class TestPhase1Oracle:
    """The Farkas certificate decides as the phase-1 elastic LP (oracles.py)."""

    @pytest.mark.parametrize("name", ["low", "medium", "high"])
    @pytest.mark.parametrize("floor", [0.5, 0.999, 1.5, 3.0])
    def test_bundled_floors(self, request, name, floor):
        scenario = request.getfixturevalue(f"scenario_{name}")
        for p in (build_p1(scenario, floor)[0],
                  build_p3(scenario, floor)):
            want = phase1_feasibility(p)
            assert want == ("feasible" if floor < 1.0 else "infeasible")
            assert check_feasibility(p) == want
            sol = solve_qp(p)
            assert sol.status == ("optimal" if want == "feasible" else "infeasible")
            if want == "infeasible":
                assert farkas_ok(p, sol)


# status and objective of solve_qp(build_p1(scenario, floor)) for each bundled
# scenario, recorded at commit 9743b61, where every factor computed its own
# MMD ordering.  Reusing the first factor's ordering changes the factors in
# their low-order digits only.  An infeasible solve's objective is that of
# the iterate at which the ray was found, not an optimum, so its certificate
# is checked instead.
BUNDLED_PINS = {
    ("low", 0.0): ("optimal", 165.67119971999733),
    ("low", 0.3): ("optimal", 165.67119775550725),
    ("low", 0.6): ("optimal", 166.87696089846216),
    ("low", 0.9): ("optimal", 184.55853160560375),
    ("low", 3.0): ("infeasible", None),
    ("medium", 0.0): ("optimal", 165.67119946839716),
    ("medium", 0.3): ("optimal", 165.67120710334473),
    ("medium", 0.6): ("optimal", 166.876960783947),
    ("medium", 0.9): ("optimal", 178.96458515490662),
    ("medium", 3.0): ("infeasible", None),
    ("high", 0.0): ("optimal", 165.6712005295471),
    ("high", 0.3): ("optimal", 165.67120089444046),
    ("high", 0.6): ("optimal", 165.6712398044745),
    ("high", 0.9): ("optimal", 165.67119719356145),
    ("high", 3.0): ("infeasible", None),
}


@pytest.mark.parametrize("name, floor", list(BUNDLED_PINS),
                         ids=[f"{n}-{f}" for n, f in BUNDLED_PINS])
def test_bundled_programs_match_pins(request, name, floor):
    p, _ = build_p1(request.getfixturevalue(f"scenario_{name}"), floor)
    sol = solve_qp(p)
    status, objective = BUNDLED_PINS[name, floor]
    assert sol.status == status
    if status == "optimal":
        assert sol.objective == pytest.approx(objective, rel=1e-9, abs=0.0)
        assert max(kkt_residuals(p, sol)) <= 1e-6
    else:
        assert farkas_ok(p, sol)


def _rows(p, kind, M, v):
    """p with its equality (kind "eq") or inequality rows replaced by M, v."""
    eq = dict(A_eq=M, b_eq=v) if kind == "eq" else dict(A_eq=p.A_eq, b_eq=p.b_eq)
    ineq = dict(G_ineq=M, h_ineq=v) if kind == "ineq" else dict(G_ineq=p.G_ineq,
                                                                 h_ineq=p.h_ineq)
    return QuadProgram(n=p.n, q_diag=p.q_diag, c_lin=p.c_lin, lo=p.lo, hi=p.hi,
                       **eq, **ineq)


def duplicate_row(p, kind, i):
    M, v = (p.A_eq, p.b_eq) if kind == "eq" else (p.G_ineq, p.h_ineq)
    return _rows(p, kind, sp.vstack([M, M[i]], format="csr"), np.append(v, v[i]))


def scale_row(p, kind, i, factor):
    M, v = (p.A_eq, p.b_eq) if kind == "eq" else (p.G_ineq, p.h_ineq)
    d = np.ones(M.shape[0])
    d[i] = factor
    return _rows(p, kind, sp.diags(d) @ M, d * v)


class TestStatusPins:
    """Statuses on degenerate, badly scaled and near-infeasible programs."""

    @pytest.mark.parametrize("limited", [False, True], ids=["free", "limited"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("delta", [-1e-4, -1e-6, 1e-6, 1e-4])
    def test_near_frontier_floors(self, seed, limited, delta):
        # single-shed line cases: the closed form is the exact frontier
        s, bound = single_shed_scenario(np.random.default_rng(seed), limited)
        feasible = delta < 0
        p3 = build_p3(s, bound + delta)
        assert check_feasibility(p3) == ("feasible" if feasible else "infeasible")
        for p in (p3, build_p1(s, bound + delta)[0]):
            sol = solve_qp(p)
            assert sol.status == ("optimal" if feasible else "infeasible")
            if not feasible:
                assert farkas_ok(p, sol)

    @pytest.mark.parametrize("edit", ["dup-eq", "dup-ineq", "scale-eq", "scale-ineq"])
    @pytest.mark.parametrize("delta", [-1e-3, 1e-3])
    def test_duplicated_and_scaled_rows(self, edit, delta):
        s, bound = single_shed_scenario(np.random.default_rng(5), False)
        p, _ = build_p1(s, bound + delta)
        kind = edit.split("-")[1]
        q = duplicate_row(p, kind, 0) if edit.startswith("dup") else scale_row(p, kind, 0, 1e6)
        sol = solve_qp(q)
        if delta < 0:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(solve_qp(p).objective, rel=1e-6, abs=1e-8)
        elif edit == "scale-eq":
            # the feasibility tolerance scales with the largest right-hand
            # side, which the 1e6 row raises to about 1e6: the floor's 1e-3
            # infeasibility then passes as optimal, violating rows and bounds
            assert sol.status == "optimal"
            x = sol.x
            assert max((q.G_ineq @ x - q.h_ineq).max(), (x - q.hi).max(),
                       (q.lo - x).max()) > 1e-4
        else:
            assert sol.status == "infeasible"
            assert farkas_ok(q, sol)

    def test_duplicated_and_scaled_hand_rows(self):
        # x <= -1 twice, and 1e6 x <= -1e6, against x >= 1
        for G, h in (([[1.0], [1.0]], [-1.0, -1.0]), ([[1e6]], [-1e6])):
            p = qp(q_diag=[1.0], c_lin=[0.0], G_ineq=sp.csr_matrix(G), h_ineq=h,
                   lo=[1.0], hi=[np.inf])
            sol = solve_qp(p)
            assert sol.status == "infeasible"
            assert farkas_ok(p, sol)

    def test_crossed_bounds(self):
        with pytest.raises(QPError, match="bound"):
            qp(q_diag=[1.0, 1.0], c_lin=[0.0, 0.0], lo=[0.0, 2.0], hi=[1.0, 1.0])
        # crossed after construction: check_feasibility reports it,
        # solve_qp re-validates and refuses
        p = qp(q_diag=[1.0, 1.0], c_lin=[0.0, 0.0], lo=[0.0, 0.0], hi=[1.0, 1.0])
        p.lo[1] = 2.0
        assert check_feasibility(p) == "infeasible"
        with pytest.raises(QPError, match="bound"):
            solve_qp(p)

    def test_fixed_variables(self):
        # lo == hi: the equality decides
        for total, status in ((2.0, "optimal"), (3.0, "infeasible")):
            p = qp(q_diag=[1.0, 1.0], c_lin=[0.0, 0.0],
                   A_eq=sp.csr_matrix([[1.0, 1.0]]), b_eq=[total],
                   lo=[1.0, 1.0], hi=[1.0, 1.0])
            sol = solve_qp(p)
            assert sol.status == status
            assert check_feasibility(p) == ("feasible" if status == "optimal" else "infeasible")
            if status == "infeasible":
                assert farkas_ok(p, sol)

    @pytest.mark.parametrize("q, c, lo, hi, status", [
        ([1.0, 2.0], [-4.0, 1.0], [0.0, 0.0], [1.0, 1.0], "optimal"),
        ([0.0, 0.0], [1.0, -1.0], [0.0, 0.0], [1.0, 1.0], "optimal"),
        ([1.0, 2.0], [-4.0, 1.0], [-np.inf, -np.inf], [np.inf, np.inf], "optimal"),
        ([0.0, 0.0], [1.0, 0.0], [-np.inf, -np.inf], [np.inf, np.inf], "max_iter"),
    ], ids=["boxed-qp", "boxed-lp", "free-qp", "unbounded-lp"])
    def test_no_rows(self, q, c, lo, hi, status):
        p = qp(q_diag=q, c_lin=c, lo=lo, hi=hi)
        assert solve_qp(p).status == status
        assert check_feasibility(p) == "feasible"
