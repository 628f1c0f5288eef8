"""Independent verification machinery.

Three checkers that deliberately avoid the closed-form solver's algebra:

* a numeric minimiser of one scheduler's row objective (sweeps of
  pairwise line searches descending from the uniform row, or from the
  residual-capacity row when uniform would overload a node), used to
  validate the closed-form best response.  Each line search moves mass
  between two nodes, is clipped in closed form to the moves that keep
  both availabilities positive, evaluates only their two availability
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
from .model import (Allocation, SystemConfig, _checked, _entries, _index,
                    objective, others_load_vector)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Width at which a pair line search stops, in units of row share.
_LINE_TOL = 1e-9


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
    """
    xp, xq = row[p], row[q]
    lo, hi = max(-xp, xq - caps[q]), min(xq, caps[p] - xp)
    if hi - lo <= tol:
        return
    op, oq, wp, wq = others[p], others[q], weights[p], weights[q]

    def pair(yp: float, yq: float) -> float:
        ap = 1.0 - (op + lam_i * yp) * wp
        aq = 1.0 - (oq + lam_i * yq) * wq
        if not (0.0 < ap <= 1.0 and 0.0 < aq <= 1.0):
            return math.inf
        return 1.0 / ap + 1.0 / aq

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = pair(xp + x1, xq - x1), pair(xp + x2, xq - x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = pair(xp + x1, xq - x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = pair(xp + x2, xq - x2)
    t = (a + b) / 2.0
    bp = min(max(xp + t, 0.0), 1.0)
    bq = min(max(xq - t, 0.0), 1.0)
    if pair(bp, bq) < pair(xp, xq):
        row[p], row[q] = bp, bq


def _descend(i: int, alloc: Allocation, config: SystemConfig,
             start=None) -> np.ndarray:
    """Scheduler i's row optimum by the descent numeric_best_response
    describes, from start, a row at which every availability is positive,
    or, when start is None, from numeric_best_response's start.  Sweeps
    stop once one moves no entry by 1e-10."""
    m = config.n_nodes
    lam_i = float(config.lam[i])
    others = others_load_vector(i, alloc, config)  # checks alloc's shape
    if lam_i == 0.0:
        return np.array(alloc.entries[i])
    if m == 1:
        return np.ones(1)

    weights = config.weights
    caps = (1.0 / weights - others) / lam_i
    if start is not None:
        row = np.array(start, dtype=float)
    else:
        row = np.full(m, 1.0 / m)
        if (caps <= row).any():
            spare = np.maximum(caps, 0.0)
            if spare.sum() > 0.0:  # else the others saturate every node
                row = spare / spare.sum()

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
    would overload a node, the descent starts instead from the row
    proportional to each node's residual capacity max(1/W_j - o_j, 0),
    which is feasible whenever any row is.

    Each line search is clipped in closed form to the moves that keep
    both of its nodes' availabilities positive, evaluates only the two
    reciprocals its move changes, on Python floats, and keeps a move only
    when it strictly lowers them, so equal-valued jitter never counts as
    progress.  Each search stops at width _LINE_TOL.

    A scheduler with zero arrival rate has a flat objective; its current
    row is returned unchanged.  i is an integer from 0 to n - 1 and alloc
    is n x m for config, else a ValidationError.
    """
    return _descend(_index("i", i, config.n_schedulers), alloc, config)


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
    alloc must be n x m for config, else a ValidationError.
    """
    _checked("tolerance", tolerance)
    worst = 0.0
    current = objective(alloc, config)
    for i in range(config.n_schedulers):
        candidate = _descend(i, alloc, config, alloc.entries[i])
        value = objective(alloc.replace_row(i, candidate), config)
        worst = max(worst, current - value)
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
    rules before any draw, and so is alloc's shape, n x m for config; a
    horizon that puts a Poisson mean beyond numpy's sampler (about 9.2e18)
    is a ValidationError too.
    """
    _checked("horizon", horizon)
    _checked("seed", seed)
    entries = _entries(alloc, config)
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
