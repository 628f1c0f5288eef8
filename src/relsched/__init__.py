"""Reliability-driven task slicing for clouds of retrial-queue compute nodes.

The package models schedulers that split Poisson job streams across
failure-prone compute nodes, solves the induced non-cooperative game by
iterated closed-form best responses, and compares the result against a
balanced (residual-capacity-proportional) baseline.  An experiment harness
reproduces the standard sweep families as CSV artifacts.
"""

from .baseline import bsa_solve
from .best_response import BestResponseResult, best_response_row
from .equilibrium import EquilibriumReport, objective_all_schedulers, solve
from .errors import (
    AllNodesSaturated,
    AvailabilityOutOfRange,
    EmptyInput,
    NoFeasibleResponse,
    NotConverged,
    ParseError,
    RelschedError,
    ValidationError,
)
from .metrics import fairness_index, per_node_reciprocals
from .model import (
    Allocation,
    CheckResult,
    NodeParams,
    SchedulerParams,
    SystemConfig,
    ValidationReport,
    build_config,
    node_arrivals,
    objective,
    objective_curvature,
    objective_marginal,
    validate_config,
)
from .oracle import nash_check, numeric_best_response, traffic_empirical_rates
from .presets import PRESET_NAMES, REFERENCE_GAPS, preset

__version__ = "0.1.0"

__all__ = [
    "AllNodesSaturated",
    "Allocation",
    "AvailabilityOutOfRange",
    "BestResponseResult",
    "CheckResult",
    "EmptyInput",
    "EquilibriumReport",
    "NoFeasibleResponse",
    "NodeParams",
    "NotConverged",
    "ParseError",
    "PRESET_NAMES",
    "REFERENCE_GAPS",
    "RelschedError",
    "SchedulerParams",
    "SystemConfig",
    "ValidationError",
    "ValidationReport",
    "best_response_row",
    "bsa_solve",
    "build_config",
    "fairness_index",
    "nash_check",
    "node_arrivals",
    "numeric_best_response",
    "objective",
    "objective_all_schedulers",
    "objective_curvature",
    "objective_marginal",
    "per_node_reciprocals",
    "preset",
    "solve",
    "traffic_empirical_rates",
    "validate_config",
]
