"""Closed-form best response of a single scheduler.

With every other scheduler's row held fixed, minimising the objective over
one scheduler's simplex is a water-filling problem: rank nodes by the
marginal cost of sending them the first sliver of traffic, compute the
closed-form Lagrange multiplier of every candidate active-set size in one
vectorised pass (prefix sums over the ranked nodes), and accept the
largest size whose fractions are all nonnegative.  No numeric root
finding is involved, and a row costs O(m log m): the solvers pass in the
load of the other schedulers instead of the whole allocation.

Writing W_j for a node's load weight and o_j for the load the other
schedulers already impose on it, the fraction given to an active node is

    a_ij = (1 - W_j*o_j - sqrt(W_j*lam_i/alpha)) / (W_j*lam_i)

and a node receives traffic exactly when alpha is at least its zero-load
marginal.  A nonpositive multiplier denominator means the candidate active
set cannot absorb the scheduler's whole stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateActiveSet,
    NodeSaturatedByOthers,
    NoFeasibleResponse,
)
from .model import Allocation, SystemConfig, others_load_vector


@dataclass(frozen=True)
class SortedNodeIndex:
    """Nodes a scheduler may use, cheapest zero-load marginal first.

    Nodes saturated by the other schedulers are excluded entirely, so
    ``order`` is a permutation of the unsaturated subset.  Ties are broken
    by ascending node index to keep the ranking deterministic.
    """

    order: tuple[int, ...]
    marginals: tuple[float, ...]


@dataclass(frozen=True)
class BestResponseResult:
    """One scheduler's optimal row with the other rows fixed.

    active_count is the size of the accepted active set; an entry of that
    set can be exactly zero when the multiplier sits on its boundary.
    """

    row: np.ndarray
    active_count: int
    alpha: float

    def __post_init__(self):
        row = np.array(self.row, dtype=float)
        row.setflags(write=False)
        object.__setattr__(self, "row", row)


def marginal_at_zero(i: int, j: int, alloc: Allocation,
                     config: SystemConfig) -> float:
    """Derivative of the objective in a_ij evaluated at a_ij = 0.

    This is the cost of routing the first sliver of scheduler i's stream
    to node j, used to rank nodes for water filling.
    """
    w = config.nodes[j].load_weight
    others = float(others_load_vector(i, alloc, config)[j])
    headroom = 1.0 - others * w
    if headroom <= 0.0:
        raise NodeSaturatedByOthers(i, j)
    lam_i = config.schedulers[i].lam
    if lam_i == 0.0:
        return 0.0
    return w * lam_i / headroom**2


def rank_nodes(i: int, alloc: Allocation, config: SystemConfig) -> SortedNodeIndex:
    """Rank the nodes scheduler i can still use by ascending zero-load marginal."""
    weights = config.load_weights()
    others = others_load_vector(i, alloc, config)
    lam_i = config.schedulers[i].lam
    headroom = 1.0 - others * weights
    usable = np.nonzero(headroom > 0.0)[0]
    marginals = weights[usable] * lam_i / headroom[usable] ** 2
    sort = np.argsort(marginals, kind="stable")
    return SortedNodeIndex(
        order=tuple(int(j) for j in usable[sort]),
        marginals=tuple(float(t) for t in marginals[sort]),
    )


def solve_alpha(i: int, active, alloc: Allocation,
                config: SystemConfig) -> float:
    """Multiplier such that the closed-form fractions over the active set sum to 1.

    alpha = (sum_j 1/sqrt(W_j) / (sum_j (1 - W_j*o_j)/(W_j*lam_i) - 1))**2 / lam_i

    The trailing "-1" in the denominator is required for the fractions to
    actually sum to one; dropping it does not solve the row-sum equation.
    Requires lam_i > 0 and every active node unsaturated.
    """
    active = list(active)
    if not active:
        raise DegenerateActiveSet("empty active set")
    lam_i = config.schedulers[i].lam
    others = others_load_vector(i, alloc, config)
    inv_sqrt_w = 0.0
    spare = 0.0
    for j in active:
        w = config.nodes[j].load_weight
        headroom = 1.0 - others[j] * w
        if headroom <= 0.0:
            raise NodeSaturatedByOthers(i, j)
        inv_sqrt_w += 1.0 / math.sqrt(w)
        spare += headroom / (w * lam_i)
    denom = spare - 1.0
    if denom <= 0.0:
        raise DegenerateActiveSet(
            f"active set of scheduler {i} cannot absorb its stream"
        )
    return (inv_sqrt_w / denom) ** 2 / lam_i


def slice_fraction(i: int, j: int, alpha: float, alloc: Allocation,
                   config: SystemConfig) -> float:
    """Closed-form slicing fraction for node j at a given multiplier.

    May be negative; a negative value signals that the node should receive
    nothing at this multiplier (the caller zeroes it or shrinks the active
    set), not an error.
    """
    lam_i = config.schedulers[i].lam
    w = config.nodes[j].load_weight
    others = float(others_load_vector(i, alloc, config)[j])
    return (1.0 - w * others - math.sqrt(w * lam_i / alpha)) / (w * lam_i)


def _best_row(i: int, lam_i: float, others: np.ndarray,
              weights: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Array-level core of best_response_row; used directly by the solvers.

    others is the per-node load of every scheduler except i, so one call
    costs O(m log m) whatever the number of schedulers.
    """
    headroom = 1.0 - others * weights
    usable = np.flatnonzero(headroom > 0.0)
    if usable.size == 0:
        raise NoFeasibleResponse(
            f"all nodes are saturated by schedulers other than {i}"
        )

    row = np.zeros(others.size)
    if lam_i == 0.0:
        # Objective is flat in this row; spread it uniformly over the
        # usable nodes for a deterministic result.
        row[usable] = 1.0 / usable.size
        return row, int(usable.size), 0.0

    marginals = weights[usable] * lam_i / headroom[usable] ** 2
    sort = np.argsort(marginals, kind="stable")
    order = usable[sort]
    theta_sorted = marginals[sort]

    w_sorted = weights[order]
    inv_sqrt_w = (1.0 / np.sqrt(w_sorted)).cumsum()
    spare = (headroom[order] / (w_sorted * lam_i)).cumsum()

    # Multiplier of every candidate size d = 1..len(order) at once.  A
    # candidate whose spare capacity cannot absorb the stream
    # (spare - 1 <= 0) gets -inf and is never accepted.
    denom = spare - 1.0
    absorbs = denom > 0.0
    alphas = np.full(order.size, -np.inf)
    alphas[absorbs] = (inv_sqrt_w[absorbs] / denom[absorbs]) ** 2 / lam_i
    # Every fraction is >= 0 iff alpha >= the largest active marginal;
    # equality puts the boundary node at exactly zero and is accepted.
    # The largest accepted size is the water-filling solution.
    accepted = np.flatnonzero(alphas >= theta_sorted)
    if accepted.size == 0:
        raise NoFeasibleResponse(
            f"no active-set size admits a feasible row for scheduler {i}"
        )
    d = int(accepted[-1]) + 1
    alpha = float(alphas[d - 1])
    active = order[:d]
    w_active = weights[active]
    vals = (headroom[active] - np.sqrt(w_active * lam_i / alpha)) / (
        w_active * lam_i)
    # Accepted sets guarantee values in [0, 1]; strip a few ulp of
    # rounding noise at the boundaries.
    row[active] = np.minimum(np.maximum(vals, 0.0), 1.0)
    return row, d, alpha


def best_response_row(i: int, alloc: Allocation,
                      config: SystemConfig) -> BestResponseResult:
    """Row minimising the objective for scheduler i, other rows fixed.

    Nodes outside the accepted active set receive exactly zero.  Raises
    NoFeasibleResponse when the other schedulers saturate every node.
    """
    row, active_count, alpha = _best_row(
        i, float(config.schedulers[i].lam),
        others_load_vector(i, alloc, config), config.load_weights(),
    )
    return BestResponseResult(row=row, active_count=active_count, alpha=alpha)
