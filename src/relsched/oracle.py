"""Independent verification machinery.

Three checkers that deliberately avoid the closed-form solver's algebra:

* a numeric minimiser of one scheduler's row objective, used to validate
  the closed-form best response: an array kernel on the others' node
  loads, like best_response._RowKernel.row, that runs sweeps of exact
  pairwise steps from a feasible row.  Each step moves mass between two
  nodes to the minimiser of their two availability reciprocals, the move
  at which W_p/A_p^2 = W_q/A_q^2, clipped to the moves that keep both
  shares nonnegative (which keeps both availabilities positive too), and
  keeps a move only when it strictly lowers the two reciprocals.  A step
  reads only its pair's availabilities and weights: no sort, active set
  or multiplier, so the row's active set comes out of the sweeps;
* an equilibrium checker that asks whether any scheduler could gain by
  switching to its numerically optimised row.  Its descents start from
  each scheduler's own row, not the uniform one: the row objective is
  strictly convex on the simplex, so any feasible start reaches the same
  optimum.  Until a row's first move, every step of its first sweep
  reads the row as it started, so one array pass over every row and
  every pair (_first_moves) finds each row's first moving pair, and each
  descent's first sweep starts there.  At solve's output on the
  benchmark's five instances no step moves, so no descent runs a pair
  step at all;
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
                    _entries, _feasible, _index, _objective_of_loads,
                    objective, others_load_vector)


def _pair(op: float, oq: float, wp: float, wq: float, lam_i: float,
          yp: float, yq: float) -> float:
    """The two availability reciprocals a pair step minimises, with shares
    yp and yq on nodes p and q, or inf where either availability leaves
    (0, 1]."""
    ap = 1.0 - (op + lam_i * yp) * wp
    aq = 1.0 - (oq + lam_i * yq) * wq
    if not (0.0 < ap <= 1.0 and 0.0 < aq <= 1.0):
        return math.inf
    return 1.0 / ap + 1.0 / aq


def _pair_step(row: list, p: int, q: int, others: list, weights: list,
               lam_i: float) -> None:
    """Move mass from node q to node p to the exact minimiser of their two
    availability reciprocals.

    A move t along (p, q) changes only the availabilities of p and q, so
    the step minimises 1/A_p + 1/A_q alone; every other term of the row
    objective is constant.  A_p = a_p - lam_i*W_p*t and A_q = a_q +
    lam_i*W_q*t are linear in t, so the sum is strictly convex in t where
    both are positive, and its stationary point W_p/A_p^2 = W_q/A_q^2,
    A_p = s*A_q with s = sqrt(W_p/W_q), gives

        t = (a_p - s*a_q) / (lam_i*(W_p + s*W_q)).

    That point keeps both availabilities positive from a feasible start:
    there A_p = s*A_q has A_q's sign, and W_q*A_p + W_p*A_q does not
    depend on t, so it stays positive as at the start.  t is clipped to
    the moves that keep both shares nonnegative, [-x_p, x_q], which hold
    the start t = 0, so the clipped move lies between the start and the
    stationary point, where both availabilities stay positive, and is
    the pair's minimiser over that interval.  The row is updated in place
    only when the move strictly lowers the two terms.
    """
    xp, xq = row[p], row[q]
    if xp == 0.0 and xq == 0.0:  # the one move is 0
        return
    op, oq, wp, wq = others[p], others[q], weights[p], weights[q]
    ap = 1.0 - (op + lam_i * xp) * wp
    aq = 1.0 - (oq + lam_i * xq) * wq
    s = math.sqrt(wp / wq)
    t = (ap - s * aq) / (lam_i * (wp + s * wq))
    # Conditional expressions stand in for max and min, here and at the
    # share clips below, with their exact results (max keeps its first
    # argument unless the second is greater) and without a builtin call.
    t = -xp if -xp > t else t  # min(max(t, -xp), xq)
    t = xq if xq < t else t
    bp, bq = xp + t, xq - t  # each clipped as min(max(y, 0.0), 1.0)
    bp = 0.0 if 0.0 > bp else (1.0 if 1.0 < bp else bp)
    bq = 0.0 if 0.0 > bq else (1.0 if 1.0 < bq else bq)
    if (_pair(op, oq, wp, wq, lam_i, bp, bq)
            < _pair(op, oq, wp, wq, lam_i, xp, xq)):
        row[p], row[q] = bp, bq


def _pair_sums(ap: np.ndarray, aq: np.ndarray) -> np.ndarray:
    """_pair's value on arrays of availabilities: 1/ap + 1/aq, or inf where
    either leaves (0, 1]."""
    return np.where(_feasible(ap) & _feasible(aq), 1.0 / ap + 1.0 / aq,
                    math.inf)


def _first_moves(entries: np.ndarray, lam: np.ndarray, weights: np.ndarray,
                 delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each row's first descent sweep first moves: the index, in
    sweep order, of the first pair (p, q) at which _pair_step would change
    row i of entries, or the pair count if none would (as for every
    zero-rate row, which has no descent), with the others' loads delta -
    lam_i * entries[i] of every row.

    Until a step moves, every step of the sweep reads the row as it
    started, so one array pass over all n rows and all m(m-1)/2 pairs
    decides each pair's step at once.  It runs _pair_step's IEEE
    operations in the same order on the same operands, each conditional
    expression as an np.where and _pair's inf branch as a mask, so its
    floats, ties and signed zeros are the step's.  Errors are ignored
    because Python floats raise none here: a zero-rate row divides by
    zero, a masked-out availability may be 0, and whatever overflows
    does so to inf, as in the step.
    """
    nodes = np.arange(weights.size)
    ps, qs = np.nonzero(nodes[:, None] < nodes)  # p < q, by p then q
    rate = lam[:, None]
    others = delta - rate * entries
    xp, xq, wp, wq = entries[:, ps], entries[:, qs], weights[ps], weights[qs]
    op, oq = others[:, ps], others[:, qs]
    with np.errstate(all="ignore"):
        ap = 1.0 - (op + rate * xp) * wp
        aq = 1.0 - (oq + rate * xq) * wq
        s = np.sqrt(wp / wq)
        t = (ap - s * aq) / (rate * (wp + s * wq))
        lo = -xp
        t = np.where(lo > t, lo, t)
        t = np.where(xq < t, xq, t)
        bp, bq = xp + t, xq - t
        bp = np.where(0.0 > bp, 0.0, np.where(1.0 < bp, 1.0, bp))
        bq = np.where(0.0 > bq, 0.0, np.where(1.0 < bq, 1.0, bq))
        # No mask is needed where the step has an early return or no
        # descent runs: on a pair holding no share the clips pin t to 0 (or
        # keep a NaN), and a zero-rate row's shares leave its
        # availabilities as they are, so neither moves.  A last column of
        # True makes the pair count the index of no move.
        moves = np.ones((rate.size, ps.size + 1), dtype=bool)
        np.less(_pair_sums(1.0 - (op + rate * bp) * wp,
                           1.0 - (oq + rate * bq) * wq),
                _pair_sums(ap, aq), out=moves[:, :-1])
    return moves.argmax(axis=1), others


def _descend(lam_i: float, others: np.ndarray, weights: np.ndarray,
             row: np.ndarray, start: int = 0) -> np.ndarray:
    """Row optimum of a scheduler of rate lam_i > 0, given the others'
    per-node load others and the load weights W: sweeps of _pair_step
    over every node pair, in the order p < q by p then q, from row, a
    start at which every availability is positive.  Each sweep makes a
    new row, clipped at 0 and normalised; they stop once one moves no
    entry by 1e-10, or after 500.

    The first sweep begins at pair number start of that order, which the
    caller knows no earlier step of that sweep would move (_first_moves
    decides this for nash_check; numeric_best_response starts at 0), so
    the result is the full sweep's bit for bit.  The lists the steps read
    are built only when a sweep has a step to run.
    """
    m = row.size
    n_pairs = m * (m - 1) // 2
    pairs = None
    for _ in range(500):
        before = trial = row
        if start < n_pairs:
            if pairs is None:
                pairs = [(p, q) for p in range(m) for q in range(p + 1, m)]
                others, weights = others.tolist(), weights.tolist()
            trial = row.tolist()
            for p, q in pairs[start:]:
                _pair_step(trial, p, q, others, weights, lam_i)
        row = np.maximum(trial, 0.0)
        start = 0
        row /= row.sum()
        if np.max(np.abs(row - before)) < 1e-10:
            break
    return row


def numeric_best_response(i: int, alloc: Allocation,
                          config: SystemConfig) -> np.ndarray:
    """Minimise scheduler i's row objective without the closed form.

    Sweeps of exact pairwise mass-moving steps descend from the uniform
    row; they converge to the global optimum because the row objective is
    strictly convex on the simplex.  When the uniform row would overload a
    node and some node has spare capacity, the descent starts instead from
    the row proportional to each node's residual capacity
    max(1/W_j - o_j, 0), which is feasible whenever any row is.

    Each step moves mass between two nodes to the closed-form minimiser of
    their two availability reciprocals, clipped to the moves that keep
    both shares nonnegative (both availabilities stay positive), on Python
    floats, and keeps a move only when it strictly lowers those two
    reciprocals, so equal-valued jitter never counts as progress.

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
    depend on it, up to rounding.
    A zero-rate scheduler's candidate is its own row (a flat objective).
    alloc is read as an Allocation, n x m for config, else a ValidationError.

    The loads delta = entries.T @ lam are computed once per check: they
    give the current objective, and one _first_moves pass gives every
    row's others load delta - lam_i * entries[i], which is
    others_load_vector's result, and the pair at which its first sweep
    first moves.  Each descent's first sweep starts at that pair, so a
    row that no step moves is normalised and returned with no pair step
    run: at solve's output on the benchmark's five instances that is
    every row.
    Each candidate row is scored on a raw copy of the matrix with row i
    replaced, the matrix replace_row would build, without validating it
    as an Allocation: the descent's row is nonnegative and normalised.
    """
    _checked("tolerance", tolerance)
    entries = _allocation_entries(alloc, config)
    lam, weights = config.lam, config.weights
    delta = entries.T @ lam
    current = _objective_of_loads(delta, weights)
    first, others = _first_moves(entries, lam, weights, delta)
    worst = 0.0
    for i, (lam_i, start) in enumerate(zip(lam.tolist(), first.tolist())):
        candidate = entries[i] if lam_i == 0.0 else _descend(
            lam_i, others[i], weights, entries[i], start)
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
