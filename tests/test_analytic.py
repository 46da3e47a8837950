"""Closed-form ratio analysis against hand values and a vertex oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from energyshed.analytic import (
    AnalysisError,
    CommunitySeries,
    capacity_curve,
    max_ratio_constrained,
    max_ratio_unconstrained,
    required_budget,
)
from oracles import best_ratio_series


def series(**kw):
    kw.setdefault("gen", [1.0, 1.0])
    kw.setdefault("load", [2.0, 2.0])
    kw.setdefault("cap_plus", [0.4, 0.4])
    return CommunitySeries(**kw)


class TestUnconstrained:
    def test_hand_value(self):
        # x0 = 0.5, gamma = 4, budget 0.8 -> 0.5 + 0.8 / 4
        assert max_ratio_unconstrained(series()) == pytest.approx(0.7)

    def test_zero_budget_gives_base_ratio(self):
        c = series(cap_plus=[0.0, 0.0])
        assert max_ratio_unconstrained(c) == pytest.approx(c.base_ratio)

    def test_rejects_limited_series(self):
        c = series(export_limit=[1.0, 1.0])
        with pytest.raises(AnalysisError, match="export limit present"):
            max_ratio_unconstrained(c)


class TestConstrained:
    def test_islanded_community_saturates_at_one(self):
        # zero export: every surplus watt must be absorbed locally, so the
        # numerator and denominator grow together; 2.8 / 2.8 = 1 exactly
        c = series(gen=[0.4, 0.2], load=[1.0, 1.2], cap_plus=[1.0, 1.2],
                   export_limit=[0.6, 1.0])
        assert max_ratio_constrained(c) == pytest.approx(2.8 / 2.8)

    def test_hand_value_partial_spill(self):
        # step 1 spills cap - limit = 0.3 into added demand; 2.6 / 2.8
        c = series(gen=[0.5, 0.5], load=[1.0, 1.5], cap_plus=[1.2, 0.4],
                   export_limit=[0.9, 0.7])
        assert max_ratio_constrained(c) == pytest.approx(2.6 / 2.8)

    def test_sub_unity_regime_rejected(self):
        c = series(gen=[0.0, 0.0], load=[2.0, 2.0], cap_plus=[1.0, 1.0],
                   export_limit=[0.5, 0.5])
        with pytest.raises(AnalysisError, match="sub-unity"):
            max_ratio_constrained(c)

    def test_rejects_unlimited_series(self):
        with pytest.raises(AnalysisError, match="no export limit"):
            max_ratio_constrained(series())

    def test_loose_limits_match_unconstrained(self):
        c = series()
        loose = series(export_limit=[100.0, 100.0])
        assert max_ratio_constrained(loose) == pytest.approx(
            max_ratio_unconstrained(c))


class TestSeriesValidation:
    def test_length_mismatch(self):
        with pytest.raises(AnalysisError, match="length"):
            series(cap_plus=[0.4])

    def test_negative_values(self):
        with pytest.raises(AnalysisError, match="nonnegative"):
            series(gen=[-0.1, 1.0])

    def test_surplus_community_rejected(self):
        with pytest.raises(AnalysisError, match="deficit"):
            series(gen=[3.0, 3.0])


class TestCapacityCurve:
    def test_unconstrained_curve_is_affine_unit_slope(self):
        grid = np.linspace(0.0, 1.0, 11)
        pts = capacity_curve(series(), grid, mode="unconstrained")
        ratios = [p.max_ratio for p in pts]
        assert ratios[0] == pytest.approx(0.5)
        np.testing.assert_allclose(np.diff(ratios), 0.1, rtol=1e-12)

    def test_zero_export_curve_saturates_at_one(self):
        pts = capacity_curve(series(), [0.0, 0.5, 5.0], mode="zero_export")
        ratios = [p.max_ratio for p in pts]
        assert ratios == sorted(ratios)
        assert ratios[-1] == pytest.approx(1.0)
        assert all(r <= 1.0 + 1e-12 for r in ratios)

    def test_limits_curve_between_extremes(self):
        c = series(export_limit=[1.2, 1.2])
        grid = np.linspace(0.0, 2.0, 9)
        limited = [p.max_ratio for p in capacity_curve(c, grid, "limits")]
        free = [p.max_ratio
                for p in capacity_curve(series(), grid, "unconstrained")]
        island = [p.max_ratio for p in capacity_curve(series(), grid,
                                                      "zero_export")]
        for lo, mid, hi in zip(island, limited, free):
            assert lo - 1e-12 <= mid <= hi + 1e-12

    def test_decreasing_grid_rejected(self):
        with pytest.raises(AnalysisError, match="nondecreasing"):
            capacity_curve(series(), [1.0, 0.5])

    def test_limits_mode_needs_an_export_limit(self):
        with pytest.raises(AnalysisError, match="limits mode requires an export limit"):
            capacity_curve(series(), [0.0], mode="limits")

    def test_unknown_mode(self):
        with pytest.raises(AnalysisError, match="unknown mode"):
            capacity_curve(series(), [0.0], mode="ac")


class TestRequiredBudget:
    def test_inverts_the_line(self):
        c = series()
        target = max_ratio_unconstrained(c)
        budget = required_budget(target, c.base_ratio, c.gamma)
        assert budget == pytest.approx(float(c.cap_plus.sum()))

    @pytest.mark.parametrize("gamma", [0.0, -4.0])
    def test_nonpositive_gamma_rejected(self, gamma):
        with pytest.raises(AnalysisError, match="gamma must be positive"):
            required_budget(0.7, 0.5, gamma)

    def test_target_below_base_rejected(self):
        with pytest.raises(AnalysisError, match="below"):
            required_budget(0.2, 0.5, 4.0)


@st.composite
def community(draw, limited):
    steps = draw(st.integers(min_value=2, max_value=6))
    f = st.floats(min_value=0.0, max_value=3.0)
    load = [draw(st.floats(min_value=0.2, max_value=3.0)) for _ in range(steps)]
    gen = [min(draw(f), 0.9 * l) for l in load]
    cap = [draw(f) for _ in range(steps)]
    if not limited:
        return CommunitySeries(gen=gen, load=load, cap_plus=cap)
    # the closed form targets sub-unity communities: per-step caps within
    # the local deficit keep the achievable ratio at or below one, and the
    # total export capability must cover the deficit (supported regime)
    frac = st.floats(min_value=0.0, max_value=1.0)
    cap = [draw(frac) * (l - g) for g, l in zip(gen, load)]
    deficit = sum(load) - sum(gen)
    limit = [deficit / steps + draw(f) for _ in range(steps)]
    return CommunitySeries(gen=gen, load=load, cap_plus=cap,
                           export_limit=limit)


class TestAgainstOracle:
    @given(community(limited=False))
    @settings(max_examples=60, deadline=None)
    def test_unconstrained_matches_vertex_search(self, c):
        oracle = best_ratio_series(c.gen, c.load, c.cap_plus)
        assert max_ratio_unconstrained(c) == pytest.approx(oracle, abs=1e-9)

    @given(community(limited=True))
    @example(CommunitySeries(gen=[0.0] * 6, load=[1.0, 1.0, 1.25, 0.25, 0.25, 0.25],
                             cap_plus=[1.0, 1.0, 1.25, 0.25, 0.25, 0.25],
                             export_limit=[4 / 6] * 6))  # limits sum to 4 - 4e-16
    @settings(max_examples=60, deadline=None)
    def test_constrained_matches_vertex_search(self, c):
        oracle = best_ratio_series(c.gen, c.load, c.cap_plus, c.export_limit)
        assert max_ratio_constrained(c) == pytest.approx(oracle, abs=1e-9)
