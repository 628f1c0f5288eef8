"""Round-robin best-response iteration to the game's equilibrium.

Starting from the uniform allocation, schedulers take turns replacing
their row with the closed-form best response, each update visible to the
next scheduler within the same sweep.  The sweep loop keeps the node load
vector current by a rank-1 update after each row and resynchronises it
exactly once per sweep, so a sweep costs O(n*m log m) rather than
recomputing every load for every row.  The loop stops when the objective
changes by no more than the configured threshold between sweeps.  At least
one sweep always runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .best_response import _best_row
from .errors import NotConverged
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


def fixed_point_iteration(config: SystemConfig, respond,
                          initial: Allocation | None = None,
                          single_pass: bool = False) -> EquilibriumReport:
    """Shared sweep loop: respond(i, lam_i, others) -> new row for scheduler i.

    others is the per-node load of every scheduler except i.  Rows are
    written back immediately, so later schedulers in a sweep see earlier
    updates.  The loop holds the node load vector itself and keeps it
    current with one rank-1 update per row, so a sweep costs n row kernels
    plus O(n*m).  It recomputes the loads exactly once per sweep, which
    also gives that sweep's objective, so rounding drift never outlives a
    sweep.  Raises NotConverged (with the partial report) when the cycle
    cap is hit first.
    """
    n, m = config.n_schedulers, config.n_nodes
    if initial is None:
        initial = Allocation.uniform(n, m)
    entries = np.array(initial.entries)
    lam = config.arrival_rates()
    rates = lam.tolist()
    weights = config.load_weights()

    delta = entries.T @ lam
    latter = _objective_of_loads(delta, weights)
    trace: list[float] = []
    cycles = 0
    while True:
        former = latter
        for i, lam_i in enumerate(rates):
            others = delta - lam_i * entries[i]
            row = respond(i, lam_i, others)
            entries[i] = row
            delta = others + lam_i * row
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
    weights = config.load_weights()

    def respond(i, lam_i, others):
        return _best_row(i, lam_i, others, weights)[0]

    return fixed_point_iteration(config, respond, initial=initial)


def objective_all_schedulers(alloc: Allocation,
                             config: SystemConfig) -> list[float]:
    """Per-scheduler objective values.

    The objective depends only on the aggregate allocation, so the list
    holds the same number once per scheduler; it exists to feed fairness
    computations that expect per-player values.
    """
    value = objective(alloc, config)
    return [value] * config.n_schedulers
