"""Closed-form best response of a single scheduler.

With every other scheduler's row held fixed, minimising the objective over
one scheduler's simplex is a water-filling problem: rank nodes by the
marginal cost of sending them the first sliver of traffic, compute the
closed-form Lagrange multiplier of every candidate active-set size in one
vectorised pass (prefix sums over the ranked nodes), and accept the
largest size whose fractions are all nonnegative.  No numeric root
finding is involved, and a row costs O(m log m): the solvers pass in the
load of the other schedulers instead of the whole allocation.  The array
kernel ``_best_row`` is the only implementation of these formulas; the
solvers call it directly and ``best_response_row`` wraps it for one row
of an Allocation.  The kernel writes the row in place, into the solver's
matrix, and takes 1/sqrt(W_j), which depends on the weights alone, from
its caller, which computes it once per solve.  Both are elementwise, so
the row has the same bits as one built fresh with 1/sqrt(W_j) per call.

Writing W_j for a node's load weight, o_j for the load the other
schedulers already impose on it and theta_j = W_j*lam_i/(1 - W_j*o_j)**2
for its zero-load marginal, the multiplier of the d cheapest nodes is

    alpha_d = (S_d / (R_d - 1))**2 / lam_i

where S_d sums 1/sqrt(W_j) and R_d sums (1 - W_j*o_j)/(W_j*lam_i) over
those d nodes (the trailing -1 is what makes the fractions sum to one),
and the fraction given to an active node is

    a_ij = (1 - W_j*o_j - sqrt(W_j*lam_i/alpha)) / (W_j*lam_i)

A node receives traffic exactly when alpha is at least theta_j.  A
nonpositive multiplier denominator means the candidate active set cannot
absorb the scheduler's whole stream.

Only the sizes with R_d > 1 have a multiplier, and they form a suffix of
the ranking, found by one binary search (searchsorted) on R.  R is
monotone: each term (1 - W_j*o_j)/(W_j*lam_i) is positive on a node with
headroom, and a floating-point running sum of nonnegative terms never
decreases, since rounding is monotone.  The multipliers are computed on
that suffix alone.  Nodes the others saturate (no headroom) get an
infinite marginal, sort last and are cut off before R is formed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoFeasibleResponse
from .model import Allocation, SystemConfig, _index, others_load_vector


@dataclass(frozen=True, eq=False)
class BestResponseResult:
    """One scheduler's optimal row with the other rows fixed.

    active_count is the size of the accepted active set; an entry of that
    set can be exactly zero when the multiplier sits on its boundary.
    Results compare and hash by identity.
    """

    row: np.ndarray
    active_count: int
    alpha: float

    def __post_init__(self):
        row = np.array(self.row, dtype=float)
        row.setflags(write=False)
        object.__setattr__(self, "row", row)


def _best_row(i: int, lam_i: float, others: np.ndarray, weights: np.ndarray,
              inv_sqrt_w: np.ndarray, out: np.ndarray) -> tuple[int, float]:
    """Array-level core of best_response_row; used directly by the solvers.

    Writes scheduler i's row into out and returns (active_count, alpha).
    others is the per-node load of every scheduler except i, so one call
    costs O(m log m) whatever the number of schedulers; inv_sqrt_w is
    1/sqrt(weights), which depends on the weights alone.  Every raise
    comes before the first write, so a failed call leaves out as it was.
    """
    headroom = 1.0 - others * weights
    usable = headroom > 0.0
    count = int(np.count_nonzero(usable))
    if count == 0:
        raise NoFeasibleResponse(
            f"all nodes are saturated by schedulers other than {i}"
        )
    if lam_i == 0.0:
        # Objective is flat in this row; spread it uniformly over the
        # usable nodes for a deterministic result.
        np.divide(usable, count, out=out)
        return count, 0.0

    wl = weights * lam_i
    if count == others.size:
        marginals = wl / headroom ** 2
        order = marginals.argsort(kind="stable")
    else:
        # Saturated nodes sort last on an infinite marginal and are cut off.
        marginals = np.full(others.size, np.inf)
        np.divide(wl, headroom ** 2, out=marginals, where=usable)
        order = marginals.argsort(kind="stable")[:count]
    theta_sorted = marginals[order]
    h_sorted = headroom[order]
    wl_sorted = wl[order]
    root_sum = np.add.accumulate(inv_sqrt_w[order])
    spare = np.add.accumulate(h_sorted / wl_sorted)

    # Only sizes whose spare capacity absorbs the stream (spare > 1) have
    # a multiplier; spare is monotone, so they form a suffix.
    k = int(spare.searchsorted(1.0, side="right"))
    alphas = (root_sum[k:] / (spare[k:] - 1.0)) ** 2 / lam_i
    # Every fraction is >= 0 iff alpha >= the largest active marginal;
    # equality puts the boundary node at exactly zero and is accepted.
    # The largest accepted size is the water-filling solution.
    accepted = (alphas >= theta_sorted[k:]).nonzero()[0]
    if accepted.size == 0:
        raise NoFeasibleResponse(
            f"no active-set size admits a feasible row for scheduler {i}"
        )
    d = k + int(accepted[-1]) + 1
    alpha = float(alphas[d - 1 - k])
    wl_active = wl_sorted[:d]
    vals = (h_sorted[:d] - np.sqrt(wl_active / alpha)) / wl_active
    # Accepted sets guarantee values in [0, 1]; strip a few ulp of
    # rounding noise at the boundaries.
    np.maximum(vals, 0.0, out=vals)
    np.minimum(vals, 1.0, out=vals)
    out.fill(0.0)
    out[order[:d]] = vals
    return d, alpha


def best_response_row(i: int, alloc: Allocation,
                      config: SystemConfig) -> BestResponseResult:
    """Row minimising the objective for scheduler i, other rows fixed.

    Nodes outside the accepted active set receive exactly zero.  Raises
    NoFeasibleResponse when the other schedulers saturate every node, and
    ValidationError unless i is an integer from 0 to n - 1 and alloc is
    n x m for config.
    """
    i = _index("i", i, config.n_schedulers)
    weights = config.weights
    row = np.empty(config.n_nodes)
    active_count, alpha = _best_row(
        i, float(config.lam[i]), others_load_vector(i, alloc, config),
        weights, 1.0 / np.sqrt(weights), row)
    return BestResponseResult(row=row, active_count=active_count, alpha=alpha)
