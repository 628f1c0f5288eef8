"""The package's public surface: the names it exports and its errors."""

import inspect

import pytest

import relsched
from relsched import errors

PUBLIC_NAMES = [
    "Allocation", "AvailabilityOutOfRange", "BestResponseResult",
    "CheckResult", "EquilibriumReport", "NoFeasibleResponse", "NodeParams",
    "NotConverged", "PRESET_NAMES", "ParseError", "REFERENCE_GAPS",
    "RelschedError", "SchedulerParams", "SystemConfig", "ValidationError",
    "ValidationReport", "best_response_row", "bsa_solve", "build_config",
    "fairness_index", "nash_check", "node_arrivals", "numeric_best_response",
    "objective", "objective_all_schedulers", "objective_curvature",
    "objective_marginal", "per_node_reciprocals", "preset", "solve",
    "traffic_empirical_rates", "validate_config",
]

# The parameter names of every exported function, one line each, so that
# a signature change is one edited line here.
SIGNATURES = {
    "best_response_row": "i alloc config",
    "bsa_solve": "config single_pass",
    "build_config": "nodes schedulers rho settings",
    "fairness_index": "values",
    "nash_check": "alloc config tolerance",
    "node_arrivals": "alloc config",
    "numeric_best_response": "i alloc config",
    "objective": "alloc config",
    "objective_all_schedulers": "alloc config",
    "objective_curvature": "alloc config",
    "objective_marginal": "alloc config",
    "per_node_reciprocals": "alloc config",
    "preset": "name rho n_schedulers n_nodes settings",
    "solve": "config",
    "traffic_empirical_rates": "alloc config horizon seed",
    "validate_config": "alloc config",
}

ERRORS = [getattr(relsched, name) for name in PUBLIC_NAMES
          if inspect.isclass(getattr(relsched, name))
          and issubclass(getattr(relsched, name), BaseException)]


def make(cls, **kwargs):
    """An instance of cls built through its own constructor."""
    if cls is relsched.AvailabilityOutOfRange:
        return cls(3, -0.5, **kwargs)
    return cls("message", **kwargs)


def test_all_is_pinned_and_resolves():
    assert sorted(relsched.__all__) == PUBLIC_NAMES
    assert len(set(relsched.__all__)) == len(relsched.__all__) == 32
    for name in relsched.__all__:
        assert getattr(relsched, name) is not None


def test_exported_function_signatures_are_pinned():
    functions = {name: getattr(relsched, name) for name in relsched.__all__
                 if inspect.isfunction(getattr(relsched, name))}
    assert {name: " ".join(inspect.signature(function).parameters)
            for name, function in functions.items()} == SIGNATURES


def test_errors_module_defines_the_exported_errors():
    defined = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, BaseException)]
    assert sorted(cls.__name__ for cls in defined) == sorted(
        cls.__name__ for cls in ERRORS)
    assert len(ERRORS) == 6
    assert sorted(cls.__name__ for cls in ERRORS
                  if "__init__" in vars(cls)) == [
        "AvailabilityOutOfRange", "RelschedError"]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_is_a_relsched_error_with_a_report(cls):
    assert issubclass(cls, relsched.RelschedError)
    assert make(cls).report is None


@pytest.mark.parametrize("cls", [cls for cls in ERRORS
                                 if cls is not relsched.AvailabilityOutOfRange],
                         ids=lambda cls: cls.__name__)
def test_report_is_kept_when_given(cls):
    # AvailabilityOutOfRange builds its message from (node, value) and is
    # raised with no partial result, so its constructor takes no report
    report = object()
    error = make(cls, report=report)
    assert error.report is report
    assert str(error) == "message"
    assert error.args == ("message",)
