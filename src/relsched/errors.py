"""Exception types shared across the package."""


class RelschedError(Exception):
    """Base class for all package-specific errors."""


class AvailabilityOutOfRange(RelschedError):
    """Steady-state availability outside (0, 1], NaN included: the offered
    load is infeasible and 1/A is undefined."""

    def __init__(self, node: int, value: float):
        super().__init__(
            f"availability of node {node} is {value:.6g}, outside (0, 1]"
        )
        self.node = node
        self.value = value


class NoFeasibleResponse(RelschedError):
    """Every candidate active set failed; the scheduler's load cannot be placed."""


class NotConverged(RelschedError):
    """Iteration cap reached before the objective change fell below threshold."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class AllNodesSaturated(RelschedError):
    """Balanced allocation impossible: no node has spare capacity left."""


class EmptyInput(RelschedError):
    """Metric invoked on an empty or all-zero value list."""


class ParseError(RelschedError):
    """Configuration file is structurally invalid."""


class ValidationError(RelschedError):
    """Configuration or allocation violates a feasibility constraint."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
