"""Independent verification machinery.

Three checkers that deliberately avoid the closed-form solver's algebra:

* a numeric minimiser of one scheduler's row objective (grid enumeration
  over the simplex refined by pairwise line searches), used to validate
  the closed-form best response.  The lattice is built once per node
  count and refinement; each line search moves mass between two nodes
  and so evaluates only their two availability reciprocals, and keeps a
  move only when it strictly lowers them;
* an equilibrium checker that asks whether any scheduler could gain by
  switching to its numerically optimised row;
* a Monte-Carlo splitter that draws actual Poisson traffic and routes it
  by the allocation, validating the arrival-composition layer.

The availability formula itself is taken as given and is NOT re-derived
or simulated here: reproducing the underlying retrial/crash queue would
require distributional details the model does not pin down.  Only the
layer that composes per-scheduler streams into per-node arrival rates is
simulation-checked.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import Allocation, SystemConfig, objective

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_GRID_POINTS = 100_000


def _grid_levels(m: int, resolution: float) -> int:
    """Largest grid refinement whose simplex lattice stays enumerable."""
    levels = max(1, round(1.0 / resolution))
    while levels > 1 and math.comb(levels + m - 1, m - 1) > _MAX_GRID_POINTS:
        levels -= 1
    return levels


@lru_cache(maxsize=2)
def _simplex_lattice(m: int, levels: int) -> np.ndarray:
    """All length-m nonnegative integer compositions of `levels`, scaled to 1.

    Rows come in lexicographic order of their first m-1 parts, which is
    the order `itertools.combinations` gives the cut positions, so argmin
    ties resolve as they always have.  Each pass appends one part to every
    prefix: a prefix with r units left spawns the r+1 children 0..r in
    ascending order.  The result is cached per (m, levels) and read-only.
    """
    parts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([levels])
    for _ in range(m - 1):
        counts = left + 1
        starts = np.cumsum(counts) - counts
        first = np.arange(counts.sum()) - np.repeat(starts, counts)
        parts = np.column_stack((np.repeat(parts, counts, axis=0), first))
        left = np.repeat(left, counts) - first
    lattice = np.column_stack((parts, left)) / levels
    lattice.setflags(write=False)
    return lattice


def _line_search(row: list, p: int, q: int, others: list, weights: list,
                 lam_i: float, tol: float) -> None:
    """Golden-section minimisation along moving mass from node q to node p.

    A move along (p, q) changes only the availabilities of p and q, so the
    search minimises their two reciprocals alone; every other term of the
    row objective is constant.  The row is updated in place only when the
    move strictly lowers those two terms.
    """
    xp, xq = row[p], row[q]
    lo, hi = -xp, xq
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


def numeric_best_response(i: int, alloc: Allocation, config: SystemConfig,
                          resolution: float = 1e-3) -> np.ndarray:
    """Minimise scheduler i's row objective without the closed form.

    Small node counts (m <= 6) are seeded by enumerating a simplex lattice
    (the lattice is coarsened automatically when a full grid at the given
    resolution would not be enumerable, and is built once per node count
    and refinement); the seed is then refined by sweeps of pairwise
    mass-moving golden-section searches, which converge to the global
    optimum because the row objective is strictly convex on the simplex.
    Larger instances skip the lattice and descend from uniform.

    Each line search evaluates only the two availability reciprocals its
    move changes, on Python floats, and a move is kept only when it
    strictly lowers them, so equal-valued jitter never counts as progress.

    A scheduler with zero arrival rate has a flat objective; its current
    row is returned unchanged.
    """
    m = config.n_nodes
    lam_i = config.schedulers[i].lam
    if lam_i == 0.0:
        return np.array(alloc.entries[i])
    if m == 1:
        return np.ones(1)

    lam = config.arrival_rates()
    weights = config.load_weights()
    others = alloc.entries.T @ lam - lam[i] * alloc.entries[i]
    if m <= 6:
        lattice = _simplex_lattice(m, _grid_levels(m, resolution))
        avail = 1.0 - (others + lam_i * lattice) * weights
        feasible = (avail > 0.0).all(axis=1)
        values = np.full(lattice.shape[0], np.inf)
        values[feasible] = np.sum(1.0 / avail[feasible], axis=1)
        row = np.array(lattice[int(np.argmin(values))])
    else:
        row = np.full(m, 1.0 / m)
    avail = 1.0 - (others + lam_i * row) * weights
    if (avail <= 0.0).any() or (avail > 1.0).any():
        row = np.full(m, 1.0 / m)

    tol = min(resolution, 1e-6) * 1e-3
    others, weights = others.tolist(), weights.tolist()
    for _ in range(500):
        before = row
        trial = row.tolist()
        for p in range(m):
            for q in range(p + 1, m):
                _line_search(trial, p, q, others, weights, lam_i, tol)
        row = np.maximum(trial, 0.0)
        row /= row.sum()
        if np.max(np.abs(row - before)) < 1e-10:
            break
    return row


def nash_check(alloc: Allocation, config: SystemConfig,
               tolerance: float = 1e-6) -> tuple[bool, float]:
    """Can any scheduler lower the objective by switching to its numeric
    best response?  Returns (no_scheduler_can, worst_gain)."""
    worst = 0.0
    current = objective(alloc, config)
    for i in range(config.n_schedulers):
        candidate = numeric_best_response(i, alloc, config)
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
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    rng = np.random.default_rng(seed)
    counts = np.zeros(config.n_nodes)
    for i in range(config.n_schedulers):
        lam_i = config.schedulers[i].lam
        arrivals = int(rng.poisson(lam_i * horizon))
        if arrivals == 0:
            continue
        row = np.asarray(alloc.entries[i], dtype=float)
        counts += rng.multinomial(arrivals, row / row.sum())
    return counts / horizon
