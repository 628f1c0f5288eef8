"""Independent verification machinery.

Three checkers that deliberately avoid the closed-form solver's algebra:

* a numeric minimiser of one scheduler's row objective, used to validate
  the closed-form best response: an array kernel on the others' node
  loads, like best_response._RowKernel.row, that runs sweeps of pairwise
  line searches from a feasible row.  Each line search moves mass between two
  nodes, is clipped in closed form to the moves that keep both
  availabilities positive, evaluates only their two availability
  reciprocals, and keeps a move only when it strictly lowers them;
* an equilibrium checker that asks whether any scheduler could gain by
  switching to its numerically optimised row.  Its descents start from
  each scheduler's own row, not the uniform one: the row objective is
  strictly convex on the simplex, so any feasible start reaches the same
  optimum.  At a solved equilibrium a first sweep may still accept a move
  of rounding size (about 2e-7 of share on an ulp-level drop of two
  reciprocals), so a descent takes one sweep or two;
* a Monte-Carlo splitter that draws actual Poisson traffic and routes it
  by the allocation, validating the arrival-composition layer.

The availability A = 1 - delta*W is taken as given and is NOT re-derived
or simulated here.  It is the server's idle probability under these
assumptions: Poisson arrivals at rate delta, mean service time beta1,
crashes at rate mu_prime while busy and mean repair time gamma.  The
retrial time of blocked jobs does not enter A, and no test in this
repository simulates the queue yet.  Only the layer that composes
per-scheduler streams into per-node arrival rates is simulation-checked.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .model import (Allocation, SystemConfig, _allocation_entries, _checked,
                    _entries, _index, _objective_of_loads, objective,
                    others_load_vector)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Width at which a pair line search stops, in units of row share.
_LINE_TOL = 1e-9


def _pair(op: float, oq: float, wp: float, wq: float, lam_i: float,
          yp: float, yq: float) -> float:
    """The two availability reciprocals a pair line search minimises, with
    shares yp and yq on nodes p and q, or inf where either availability
    leaves (0, 1]."""
    ap = 1.0 - (op + lam_i * yp) * wp
    aq = 1.0 - (oq + lam_i * yq) * wq
    if not (0.0 < ap <= 1.0 and 0.0 < aq <= 1.0):
        return math.inf
    return 1.0 / ap + 1.0 / aq


def _line_search(row: list, p: int, q: int, others: list, weights: list,
                 caps: list, lam_i: float, tol: float) -> None:
    """Golden-section minimisation along moving mass from node q to node p.

    A move along (p, q) changes only the availabilities of p and q, so the
    search minimises their two reciprocals alone; every other term of the
    row objective is constant.  Both availabilities are linear in the move,
    so the search interval is clipped in closed form to the moves that
    keep both positive: caps[j] is the largest share node j can take
    before its availability reaches zero.  The row is updated in place
    only when the move strictly lowers those two terms.

    The loop's probe is written out in each of its two branches instead of
    calling _pair: a search makes about 43 probes, and the call costs more
    than their arithmetic.  Each copy keeps _pair's operation order, so
    every float is the one _pair gives; tests/test_oracle.py's
    TestReferenceDescent pins that order bit for bit against a reference
    search that makes every probe through one closure.  _pair is a module
    function, not a closure, so the search's floats stay plain locals.
    """
    xp, xq = row[p], row[q]
    # Conditional expressions stand in for max and min, here and at the
    # clip below, with their exact results (max keeps its first argument
    # unless the second is greater) and without a builtin call each.
    lo, hi = xq - caps[q], caps[p] - xp
    lo = lo if lo > -xp else -xp  # max(-xp, xq - caps[q])
    hi = hi if hi < xq else xq  # min(xq, caps[p] - xp)
    if hi - lo <= tol:
        return
    op, oq, wp, wq = others[p], others[q], weights[p], weights[q]

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = _pair(op, oq, wp, wq, lam_i, xp + x1, xq - x1)
    f2 = _pair(op, oq, wp, wq, lam_i, xp + x2, xq - x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            ap = 1.0 - (op + lam_i * (xp + x1)) * wp
            aq = 1.0 - (oq + lam_i * (xq - x1)) * wq
            f1 = (1.0 / ap + 1.0 / aq
                  if 0.0 < ap <= 1.0 and 0.0 < aq <= 1.0 else math.inf)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            ap = 1.0 - (op + lam_i * (xp + x2)) * wp
            aq = 1.0 - (oq + lam_i * (xq - x2)) * wq
            f2 = (1.0 / ap + 1.0 / aq
                  if 0.0 < ap <= 1.0 and 0.0 < aq <= 1.0 else math.inf)
    t = (a + b) / 2.0
    bp, bq = xp + t, xq - t  # each clipped as min(max(y, 0.0), 1.0)
    bp = 0.0 if 0.0 > bp else (1.0 if 1.0 < bp else bp)
    bq = 0.0 if 0.0 > bq else (1.0 if 1.0 < bq else bq)
    if (_pair(op, oq, wp, wq, lam_i, bp, bq)
            < _pair(op, oq, wp, wq, lam_i, xp, xq)):
        row[p], row[q] = bp, bq


def _descend(lam_i: float, others: np.ndarray, weights: np.ndarray,
             row: np.ndarray) -> np.ndarray:
    """Row optimum of a scheduler of rate lam_i > 0, given the others'
    per-node load others and the load weights W: sweeps of _line_search
    over every node pair from row, a start at which every availability is
    positive.  Each sweep makes a new row, clipped at 0 and normalised;
    they stop once one moves no entry by 1e-10, or after 500."""
    caps = (1.0 / weights - others) / lam_i
    m = row.size
    others, weights, caps = others.tolist(), weights.tolist(), caps.tolist()
    for _ in range(500):
        before = row
        trial = row.tolist()
        for p in range(m):
            for q in range(p + 1, m):
                _line_search(trial, p, q, others, weights, caps, lam_i,
                             _LINE_TOL)
        row = np.maximum(trial, 0.0)
        row /= row.sum()
        if np.max(np.abs(row - before)) < 1e-10:
            break
    return row


def numeric_best_response(i: int, alloc: Allocation,
                          config: SystemConfig) -> np.ndarray:
    """Minimise scheduler i's row objective without the closed form.

    Sweeps of pairwise mass-moving golden-section searches descend from
    the uniform row; they converge to the global optimum because the row
    objective is strictly convex on the simplex.  When the uniform row
    would overload a node and some node has spare capacity, the descent
    starts instead from the row proportional to each node's residual
    capacity max(1/W_j - o_j, 0), which is feasible whenever any row is.

    Each line search is clipped in closed form to the moves that keep
    both of its nodes' availabilities positive, evaluates only the two
    reciprocals its move changes, on Python floats, and keeps a move only
    when it strictly lowers them, so equal-valued jitter never counts as
    progress.  Each search stops at width _LINE_TOL.

    A scheduler with zero arrival rate has a flat objective; a copy of its
    current row is returned.  i is an integer from 0 to n - 1 and alloc
    is n x m for config, else a ValidationError.
    """
    i = _index("i", i, config.n_schedulers)
    others = others_load_vector(i, alloc, config)
    lam_i, weights = float(config.lam[i]), config.weights
    if lam_i == 0.0:
        return np.array(_entries(alloc, config)[i])
    row = np.full(config.n_nodes, 1.0 / config.n_nodes)
    spare = np.maximum((1.0 / weights - others) / lam_i, 0.0)
    if (spare <= row).any() and spare.sum() > 0.0:
        row = spare / spare.sum()
    return _descend(lam_i, others, weights, row)


def nash_check(alloc: Allocation, config: SystemConfig,
               tolerance: float = 1e-6) -> tuple[bool, float]:
    """Can any scheduler lower the objective by switching to its numeric
    best response?  Returns (no_scheduler_can, worst_gain).  tolerance,
    the largest gain counted as none, is checked by its _BOUNDS rule.

    Each scheduler's descent starts from its own row, which is feasible
    because the objective at alloc is defined (it is computed first).  The
    row objective is strictly convex on the simplex, so the descent
    reaches the same optimum from any feasible start and the gain does not
    depend on it, up to rounding.  At an equilibrium a descent stops after
    one sweep, or two where the first accepts a move of rounding size.
    A zero-rate scheduler's candidate is its own row (a flat objective).
    alloc is read as an Allocation, n x m for config, else a ValidationError.

    The loads delta = entries.T @ lam are computed once per check: they
    give the current objective, and each descent's others load is
    delta - lam_i * entries[i], which is others_load_vector's result.
    Each candidate row is scored on a raw copy of the matrix with row i
    replaced, the matrix replace_row would build, without validating it
    as an Allocation: the descent's row is nonnegative and normalised.
    """
    _checked("tolerance", tolerance)
    entries = _allocation_entries(alloc, config)
    lam, weights = config.lam, config.weights
    delta = entries.T @ lam
    current = _objective_of_loads(delta, weights)
    worst = 0.0
    for i, lam_i in enumerate(lam.tolist()):
        candidate = entries[i] if lam_i == 0.0 else _descend(
            lam_i, delta - lam_i * entries[i], weights, entries[i])
        trial = entries.copy()
        trial[i] = candidate
        worst = max(worst, current - objective(trial, config))
    return worst <= tolerance, worst


def traffic_empirical_rates(alloc: Allocation, config: SystemConfig,
                            horizon: float, seed: int) -> np.ndarray:
    """Simulate Poisson traffic through the allocation and measure per-node rates.

    Each scheduler's arrival count over the horizon is Poisson with mean
    lam_i * horizon, and the arrivals are split across nodes by one
    multinomial draw with the row's probabilities, which is exactly
    independent per-arrival thinning.  Randomness comes from numpy's
    seeded PCG64 generator, so runs are bit-reproducible and portable.
    horizon (> 0) and seed (an integer >= 0) are checked by their _BOUNDS
    rules before any draw, and alloc is read as an Allocation, n x m for
    config; a horizon that puts a Poisson mean beyond numpy's sampler
    (about 9.2e18) is a ValidationError too.
    """
    _checked("horizon", horizon)
    _checked("seed", seed)
    entries = _allocation_entries(alloc, config)
    rng = np.random.default_rng(seed)
    counts = np.zeros(config.n_nodes)
    for i, lam_i in enumerate(config.lam.tolist()):
        try:
            arrivals = int(rng.poisson(lam_i * horizon))
        except ValueError as exc:
            raise ValidationError(f"horizon {horizon:g} is too long for "
                                  f"scheduler {i}: {exc}") from exc
        if arrivals == 0:
            continue
        row = entries[i]
        counts += rng.multinomial(arrivals, row / row.sum())
    return counts / horizon
