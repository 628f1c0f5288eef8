"""Round-robin best-response iteration to the game's equilibrium.

Starting from the uniform allocation, schedulers take turns replacing
their row with the closed-form best response, each update visible to the
next scheduler within the same sweep.  The sweep keeps the node load
vector current by a rank-1 update after each row, and resynchronises the
loads exactly once at its end, so a sweep costs O(n*m log m) rather than
recomputing every load for every row.  The loop stops when the objective
changes by no more than the configured threshold between sweeps.  At
least one sweep always runs.  The balanced baseline hands the same loop
its own sweep, which takes a whole sweep at once as a prefix scan on two
coordinates per scheduler where it can (see baseline.py).

The first sweep already reaches the optimum's loads, the water-fill of
the whole stream; the second only confirms it.  Let x_j(v) be the load at
which node j's marginal W_j/A_j**2 reaches the level v (0 where it is
above v at zero load).  Scheduler k's exact best response fills the
others' loads o up to one level v_k: delta_j = max(o_j, x_j(v_k)).
(a) The level never has to fall: if v_{k+1} < v_k, no delta_j rises while
the total stays sum(lam), so the loads do not change and v_k is a valid
level for step k+1 too.  (b) By induction, the summed load of the
schedulers that have moved is at most x_j(v_k) on every node.  (c) When
the last scheduler moves all the others have moved, so o <= x(v) and
delta = max(o, x(v)) = x(v): the water-fill.  The argument needs a cost
separable and convex in the loads, one weight per node for every
scheduler and exact best responses; it holds from any feasible start and
in any sweep order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .best_response import _RowKernel
from .errors import NotConverged
from .model import (
    Allocation,
    SystemConfig,
    _availability,
    _objective_of_availability,
    _objective_of_loads,
    objective,
)


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """Outcome of an iterative solve.

    epsilon_trace holds the absolute objective change after each sweep;
    cycles is its length.  loads is the read-only node load vector
    delta = entries.T @ lam, computed once from the final matrix; the
    objective and per_node_availability are computed from it.  converged
    is False when the last change exceeded epsilon_threshold: on a
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


def _row_sweep(entries: np.ndarray, delta: np.ndarray, lam: np.ndarray,
               respond) -> np.ndarray:
    """One sweep that replaces the rows of entries in place, one at a time:
    respond(i, lam_i, others, row) writes scheduler i's new row into row,
    the view entries[i], where lam_i is the rate lam[i] as a 0-d array and
    others is the per-node load of every scheduler except i.  respond must
    raise before it writes, so a failed call leaves the row as it was.

    Later schedulers in the sweep see earlier updates, and the node loads
    delta of the sweep's start are kept current with one rank-1 update per
    row, so a sweep costs n row kernels plus O(n*m).  Returns the loads
    entries.T @ lam, recomputed once, so rounding drift never outlives a
    sweep.
    """
    for i in range(lam.size):
        # A 0-d array: numpy takes a Python float through a slower path.
        lam_i = lam[i, ...]
        row = entries[i]
        others = delta - lam_i * row
        respond(i, lam_i, others, row)
        delta = others + lam_i * row
    return entries.T @ lam


def _sweep_until_stable(config: SystemConfig, delta: np.ndarray, sweep, rows,
                        single_pass: bool) -> EquilibriumReport:
    """The one convergence loop of both solvers: the only code that keeps a
    trace, applies the stop test or builds a report.

    delta is the node load vector of the start, and sweep(delta) takes one
    sweep from the loads delta and returns the loads it leaves; each
    sweep's availabilities and objective are computed from them.  Once the
    loop stops, rows(delta), given the last sweep's loads, returns the
    solver's n x m matrix and its loads entries.T @ lam, which the report
    keeps, uncopied.  Where those loads are delta itself, the last sweep's
    own resync, the report reuses its availabilities and objective too.
    Raises NotConverged (with the partial report) when the cycle cap is hit
    first.
    """
    weights = config.weights
    latter = _objective_of_loads(delta, weights)
    trace: list[float] = []
    while True:
        former = latter
        delta = sweep(delta)
        avail = _availability(delta, weights)
        latter = _objective_of_availability(avail)
        eps = abs(former - latter)
        trace.append(eps)
        converged = eps <= config.epsilon_threshold
        if single_pass or converged or len(trace) >= config.max_cycles:
            break
    entries, loads = rows(delta)
    if loads is not delta:
        avail = _availability(loads, weights)
        latter = _objective_of_availability(avail)
    entries.setflags(write=False)  # the report keeps both, uncopied
    loads.setflags(write=False)
    report = EquilibriumReport(
        allocation=Allocation(entries),
        objective=latter,
        cycles=len(trace),
        epsilon_trace=tuple(trace),
        loads=loads,
        per_node_availability=tuple(avail),
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
    Every row is written by one _RowKernel, made for this solve: it holds
    what the rows share (see best_response.py).  The last sweep's loads,
    recomputed from the matrix at its end, are the report's.
    """
    lam = config.lam
    entries = np.full((config.n_schedulers, config.n_nodes),
                      1.0 / config.n_nodes)
    kernel = _RowKernel(config.weights)
    return _sweep_until_stable(
        config, entries.T @ lam,
        lambda delta: _row_sweep(entries, delta, lam, kernel.row),
        lambda delta: (entries, delta), single_pass=False)


def objective_all_schedulers(alloc: Allocation,
                             config: SystemConfig) -> list[float]:
    """Per-scheduler objective values.

    The objective depends only on the aggregate allocation, so the list
    holds the same number once per scheduler; it exists to feed fairness
    computations that expect per-player values.
    """
    value = objective(alloc, config)
    return [value] * config.n_schedulers
