"""Closed-form capacity analysis for a single community.

A community is collapsed to one node; the maximum achievable ratio of local
generation energy to local consumption energy follows in closed form from
the per-step capacity budget and (optionally) net-export limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AnalysisError(ValueError):
    pass


MODES = ("unconstrained", "limits", "zero_export")


@dataclass(frozen=True)
class CommunitySeries:
    gen: np.ndarray
    load: np.ndarray
    cap_plus: np.ndarray
    export_limit: np.ndarray | None = None

    def __post_init__(self):
        for name in ("gen", "load", "cap_plus"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.export_limit is not None:
            object.__setattr__(self, "export_limit",
                               np.asarray(self.export_limit, dtype=float))
        n = len(self.load)
        if len(self.gen) != n or len(self.cap_plus) != n or (
                self.export_limit is not None and len(self.export_limit) != n):
            raise AnalysisError("series length mismatch")
        if (self.gen < 0).any() or (self.load < 0).any() or (self.cap_plus < 0).any():
            raise AnalysisError("series values must be nonnegative")
        if float((self.load - self.gen).sum()) <= 0:
            raise AnalysisError("community must have a pre-flexibility energy deficit")

    @property
    def gamma(self):
        return float(self.load.sum())

    @property
    def base_ratio(self):
        return float(self.gen.sum() / self.load.sum())


def max_ratio_unconstrained(c: CommunitySeries) -> float:
    """Best achievable ratio when excess power can always be exported.

    Linear in the total budget: base ratio plus total capacity over total
    demand.
    """
    if c.export_limit is not None:
        raise AnalysisError("export limit present; use max_ratio_constrained")
    return c.base_ratio + float(c.cap_plus.sum()) / c.gamma


def max_ratio_constrained(c: CommunitySeries) -> float:
    """Best achievable ratio under per-step net-export limits.

    Capacity beyond the export limit at a step must be absorbed by added
    local demand, which inflates the denominator.  Only the regime where
    total export capability covers the pre-flexibility deficit is supported;
    the sub-unity regime is rejected.
    """
    if c.export_limit is None:
        raise AnalysisError("no export limit; use max_ratio_unconstrained")
    deficit = float((c.load - c.gen).sum())
    # relative slack: limits that sum to the deficit up to summation
    # roundoff are the supported boundary case, not the sub-unity regime
    if float(c.export_limit.sum()) < deficit * (1.0 - 1e-12):
        raise AnalysisError("sub-unity export regime: total export limit below deficit")
    spill = np.maximum(c.cap_plus - c.export_limit, 0.0)
    num = float((c.gen + c.cap_plus).sum())
    den = float((c.load + spill).sum())
    return num / den


@dataclass(frozen=True)
class CapacityCurvePoint:
    budget: float     # total capacity energy, normalized by total demand
    max_ratio: float


def capacity_curve(c: CommunitySeries, budget_grid, mode="unconstrained"):
    """Evaluate the budget-vs-max-ratio curve on a normalized budget grid.

    Budgets are fractions of total demand energy; each budget B (absolute
    B*gamma) is distributed load-proportionally across steps, which leaves
    the unconstrained value invariant and makes constrained curves
    reproducible.
    """
    if mode not in MODES:
        raise AnalysisError(f"unknown mode {mode!r}")
    grid = np.asarray(budget_grid, dtype=float)
    if (np.diff(grid) < 0).any():
        raise AnalysisError("budget grid must be nondecreasing")
    if mode == "limits" and c.export_limit is None:
        raise AnalysisError("limits mode requires an export limit")

    shape = c.load / c.gamma  # sums to 1
    limit = (None if mode == "unconstrained"
             else c.export_limit if mode == "limits" else c.load - c.gen)
    max_ratio = max_ratio_unconstrained if limit is None else max_ratio_constrained
    return [CapacityCurvePoint(budget=float(b), max_ratio=max_ratio(CommunitySeries(
                gen=c.gen, load=c.load, cap_plus=b * c.gamma * shape, export_limit=limit)))
            for b in grid]


def required_budget(target, x0, gamma):
    """Invert the unconstrained line: capacity energy needed for a target ratio."""
    if gamma <= 0:
        raise AnalysisError("gamma must be positive")
    if target < x0:
        raise AnalysisError(f"target {target} below existing ratio {x0}")
    return (target - x0) * gamma
