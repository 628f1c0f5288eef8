"""Round-robin best-response iteration to the game's equilibrium.

Starting from the uniform allocation, schedulers take turns replacing
their row with the closed-form best response, each update visible to the
next scheduler within the same sweep.  The sweep keeps the node load
vector current by a rank-1 update after each row, and the loop around it
resynchronises the loads exactly once per sweep, so a sweep costs
O(n*m log m) rather than recomputing every load for every row.  The loop
stops when the objective changes by no more than the configured threshold
between sweeps.  At least one sweep always runs.  The balanced baseline
runs the same loop with a sweep of its own (see baseline.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .best_response import _best_row
from .errors import NotConverged, ValidationError
from .model import (
    Allocation,
    SystemConfig,
    _objective_of_loads,
    availability_vector,
    objective,
)


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of an iterative solve.

    epsilon_trace holds the absolute objective change after each sweep;
    cycles is its length.  converged is False only on a partial report
    attached to a NotConverged error.
    """

    allocation: Allocation
    objective: float
    cycles: int
    epsilon_trace: tuple[float, ...]
    per_node_availability: tuple[float, ...]
    converged: bool


def _row_sweep(respond, config: SystemConfig):
    """A sweep(entries, delta) that replaces the rows one at a time with
    respond(i, lam_i, others), the new row of scheduler i.

    others is the per-node load of every scheduler except i.  Rows are
    written back immediately, so later schedulers in a sweep see earlier
    updates.  The sweep holds the node load vector, starting from the
    sweep's delta, and keeps it current with one rank-1 update per row, so
    a sweep costs n row kernels plus O(n*m).
    """
    rates = config.lam.tolist()

    def sweep(entries: np.ndarray, delta: np.ndarray) -> None:
        for i, lam_i in enumerate(rates):
            others = delta - lam_i * entries[i]
            row = respond(i, lam_i, others)
            entries[i] = row
            delta = others + lam_i * row

    return sweep


def _sweep_until_stable(config: SystemConfig, sweep,
                        initial: Allocation | None,
                        single_pass: bool) -> EquilibriumReport:
    """The one convergence loop of both solvers.

    sweep(entries, delta) advances every row of entries in place by one
    sweep, given the node loads delta = entries.T @ lam at its start.  The
    loop recomputes the loads exactly once per sweep, which also gives that
    sweep's objective, so rounding drift never outlives a sweep.  Raises
    ValidationError for an initial allocation that is not n x m, and
    NotConverged (with the partial report) when the cycle cap is hit first.
    """
    n, m = config.n_schedulers, config.n_nodes
    if initial is None:
        entries = np.full((n, m), 1.0 / m)
    else:
        entries = np.array(initial.entries)
        if entries.shape != (n, m):
            raise ValidationError(f"initial allocation has shape "
                                  f"{entries.shape}, expected {(n, m)}")
    lam, weights = config.lam, config.weights

    delta = entries.T @ lam
    latter = _objective_of_loads(delta, weights)
    trace: list[float] = []
    cycles = 0
    while True:
        former = latter
        sweep(entries, delta)
        cycles += 1
        delta = entries.T @ lam
        latter = _objective_of_loads(delta, weights)
        eps = abs(former - latter)
        trace.append(eps)
        if single_pass or eps <= config.epsilon_threshold:
            converged = eps <= config.epsilon_threshold
            break
        if cycles >= config.max_cycles:
            partial = _report(Allocation(entries), latter, cycles, trace,
                              config, False)
            raise NotConverged(
                f"no convergence within {config.max_cycles} cycles "
                f"(last epsilon {eps:.3g})",
                report=partial,
            )
    return _report(Allocation(entries), latter, cycles, trace, config,
                   converged)


def _report(alloc, value, cycles, trace, config, converged) -> EquilibriumReport:
    return EquilibriumReport(
        allocation=alloc,
        objective=value,
        cycles=cycles,
        epsilon_trace=tuple(trace),
        per_node_availability=tuple(availability_vector(alloc, config)),
        converged=converged,
    )


def solve(config: SystemConfig,
          initial: Allocation | None = None) -> EquilibriumReport:
    """Iterate best responses until the objective settles.

    At the returned allocation every scheduler's row is its own best
    response to the others, i.e. no scheduler can improve unilaterally.
    """
    weights = config.weights
    sweep = _row_sweep(
        lambda i, lam_i, others: _best_row(i, lam_i, others, weights)[0],
        config)
    return _sweep_until_stable(config, sweep, initial, single_pass=False)


def objective_all_schedulers(alloc: Allocation,
                             config: SystemConfig) -> list[float]:
    """Per-scheduler objective values.

    The objective depends only on the aggregate allocation, so the list
    holds the same number once per scheduler; it exists to feed fairness
    computations that expect per-player values.
    """
    value = objective(alloc, config)
    return [value] * config.n_schedulers
