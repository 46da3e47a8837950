"""Energyshed policy design: network models, closed-form analysis,
dispatch optimization and ratio-floor policy search."""

from .analytic import (
    AnalysisError,
    CapacityCurvePoint,
    CommunitySeries,
    capacity_curve,
    max_ratio_constrained,
    max_ratio_unconstrained,
    required_budget,
)
from .netmodel import (
    Branch,
    Bus,
    CaseParseError,
    CostWeights,
    FlexBudget,
    Network,
    Partition,
    ProfileError,
    Profiles,
    Scenario,
    ScenarioError,
    TimeGrid,
    ValidationReport,
    load_scenario,
    parse_matpower_case,
    parse_profiles,
    profiles_to_csv,
    serialize_network_case,
    validate_scenario,
)
from .policy import (
    PolicyInputError,
    PolicyResult,
    baseline,
    pareto_front,
    solve_p2,
    solve_p4,
)
from .problems import (
    BuildError,
    InfeasibleError,
    OperationReport,
    PolicyError,
    VariableLayout,
    build_p1,
    evaluate_f_tau,
    extract_report,
)
from .qpcore import QuadProgram, Solution, check_feasibility, solve_qp

__version__ = "0.1.0"

__all__ = [
    "AnalysisError", "CapacityCurvePoint", "CommunitySeries",
    "capacity_curve", "max_ratio_constrained", "max_ratio_unconstrained",
    "required_budget",
    "Branch", "Bus", "CaseParseError", "CostWeights", "FlexBudget",
    "Network", "Partition", "ProfileError", "Profiles", "Scenario",
    "ScenarioError", "TimeGrid", "ValidationReport",
    "load_scenario", "parse_matpower_case", "parse_profiles",
    "profiles_to_csv", "serialize_network_case", "validate_scenario",
    "PolicyInputError", "PolicyResult",
    "baseline", "pareto_front", "solve_p2", "solve_p4",
    "BuildError", "InfeasibleError", "OperationReport", "PolicyError",
    "VariableLayout", "build_p1", "evaluate_f_tau", "extract_report",
    "QuadProgram", "Solution", "check_feasibility", "solve_qp",
]
