"""Exception types shared across the package."""


class RelschedError(Exception):
    """Base class for all package-specific errors.

    report is None unless the raiser hands over a partial result, such as
    the loop's last report on NotConverged.
    """

    def __init__(self, *args, report=None):
        super().__init__(*args)
        self.report = report


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
    """Scheduler i's stream cannot be placed given the others' loads; the
    game's best response and the balanced row both raise it."""


class NotConverged(RelschedError):
    """Iteration cap reached before the objective change fell below threshold."""


class ParseError(RelschedError):
    """Configuration file is structurally invalid."""


class ValidationError(RelschedError):
    """Configuration, allocation or argument violates a constraint."""
