"""Round-robin best-response iteration to the game's equilibrium.

Starting from the uniform allocation, schedulers take turns replacing
their row with the closed-form best response, each update visible to the
next scheduler within the same sweep.  The loop keeps the node load
vector current by a rank-1 update after each row, and resynchronises the
loads exactly once per sweep, so a sweep costs O(n*m log m) rather than
recomputing every load for every row.  The loop stops when the objective
changes by no more than the configured threshold between sweeps.  At
least one sweep always runs.  The balanced baseline hands the same loop
its own row rule, plus a prefix scan that takes a whole sweep at once
where it can (see baseline.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .best_response import _best_row
from .errors import NotConverged
from .model import (
    Allocation,
    SystemConfig,
    _availability,
    _objective_of_loads,
    objective,
)


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """Outcome of an iterative solve.

    epsilon_trace holds the absolute objective change after each sweep;
    cycles is its length.  loads is the read-only node load vector
    delta = entries.T @ lam of the last sweep's resync, the one the
    objective and per_node_availability were computed from.  converged is
    False when the last change exceeded epsilon_threshold: on a
    single_pass report, which is returned, or on the partial report
    attached to a NotConverged error.  Reports compare and hash by
    identity, so two solves of one config are unequal.
    """

    allocation: Allocation
    objective: float
    cycles: int
    epsilon_trace: tuple[float, ...]
    loads: np.ndarray
    per_node_availability: tuple[float, ...]
    converged: bool


def _sweep_until_stable(config: SystemConfig, respond, single_pass: bool,
                        scan=None) -> EquilibriumReport:
    """The one convergence loop of both solvers: the only code that replaces
    rows or builds a report.

    A sweep replaces the rows one at a time with respond(i, lam_i, others),
    the new row of scheduler i, where others is the per-node load of every
    scheduler except i.  Rows are written back immediately, so later
    schedulers in a sweep see earlier updates, and the node load vector
    delta is kept current with one rank-1 update per row, so a sweep costs
    n row kernels plus O(n*m).  scan(entries, delta, config), if given, is
    tried first: it takes the whole sweep in place or returns False and
    leaves it to the rows.  The loop recomputes delta = entries.T @ lam
    exactly once per sweep, which also gives that sweep's objective and the
    report's loads and availabilities, so rounding drift never outlives a
    sweep.
    Raises NotConverged (with the partial report) when the cycle cap is hit
    first.
    """
    n, m = config.n_schedulers, config.n_nodes
    entries = np.full((n, m), 1.0 / m)
    lam, weights = config.lam, config.weights
    rates = lam.tolist()

    delta = entries.T @ lam
    latter = _objective_of_loads(delta, weights)
    trace: list[float] = []
    while True:
        former = latter
        if scan is None or not scan(entries, delta, config):
            for i, lam_i in enumerate(rates):
                others = delta - lam_i * entries[i]
                row = respond(i, lam_i, others)
                entries[i] = row
                delta = others + lam_i * row
        delta = entries.T @ lam
        latter = _objective_of_loads(delta, weights)
        eps = abs(former - latter)
        trace.append(eps)
        converged = eps <= config.epsilon_threshold
        if single_pass or converged or len(trace) >= config.max_cycles:
            break
    entries.setflags(write=False)  # the report keeps it, uncopied
    delta.setflags(write=False)
    report = EquilibriumReport(
        allocation=Allocation(entries),
        objective=latter,
        cycles=len(trace),
        epsilon_trace=tuple(trace),
        loads=delta,
        per_node_availability=tuple(_availability(delta, weights)),
        converged=converged,
    )
    if not (single_pass or converged):
        raise NotConverged(f"no convergence within {config.max_cycles} "
                           f"cycles (last epsilon {eps:.3g})", report=report)
    return report


def solve(config: SystemConfig) -> EquilibriumReport:
    """Iterate best responses until the objective settles.

    At the returned allocation every scheduler's row is its own best
    response to the others, i.e. no scheduler can improve unilaterally.
    """
    weights = config.weights
    return _sweep_until_stable(
        config,
        lambda i, lam_i, others: _best_row(i, lam_i, others, weights)[0],
        single_pass=False)


def objective_all_schedulers(alloc: Allocation,
                             config: SystemConfig) -> list[float]:
    """Per-scheduler objective values.

    The objective depends only on the aggregate allocation, so the list
    holds the same number once per scheduler; it exists to feed fairness
    computations that expect per-player values.
    """
    value = objective(alloc, config)
    return [value] * config.n_schedulers
