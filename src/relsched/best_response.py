"""Closed-form best response of a single scheduler.

With every other scheduler's row held fixed, minimising the objective over
one scheduler's simplex is a water-filling problem: rank nodes by the
marginal cost of sending them the first sliver of traffic, compute the
closed-form Lagrange multiplier of every candidate active-set size in one
vectorised pass (prefix sums over the ranked nodes), and accept the
largest size whose fractions are all nonnegative.  No numeric root
finding is involved, and a row costs O(m log m): the solvers pass in the
load of the other schedulers instead of the whole allocation.
``_RowKernel.row`` is the only implementation of these formulas: a solver
makes one _RowKernel per solve, and ``best_response_row`` one per row.
The kernel computes 1/sqrt(W_j) once and writes the row in place; both
are elementwise, so the row has the bits of one built fresh.

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

The largest size is tried first: its multiplier and the test against its
last marginal are the vector form's IEEE operations on its last entries,
done as scalars, so they decide it as the vector would.  Only when it is
rejected does the kernel search the suffix.  On 400-node pools at 85 %
utilisation 710-718 of a solve's 800 rows accept every node, and a row of
every node is written by one scatter.

For a light scheduler the closed form cancels: each a_ij is a difference
of terms near h_j/(W_j*lam_i), so the row sum is off by up to about
eps * R_d, which grows as 1/lam_i.  Where R_d exceeds _LIGHT_ROW_SPARE the
kernel divides the row by its sum; every other row keeps its bits.

Within one sweep consecutive rows see nearly the same loads, so the
ranking of one row mostly ranks the next as well.  On pools of
_RANKING_MIN_NODES nodes or more the kernel keeps the last ranking it
stored, order, with its prefix sums S = accumulate(1/sqrt(W)[order]), the
weights in that order and the places where the node index falls along it.
A row with a positive rate works in one frame, the held order or, where
none is held, node order: it gathers the other schedulers' loads by that
order once and forms the headroom, W_j*lam_i and the marginals in it, the
same elementwise operations on the same operands, so the same floats.
argsort(kind="stable") in node order ranks the nodes by marginal and then
by node index.  So if one count shows that every node has headroom and
the marginals in the held order strictly increase, or tie only where the
node index rises, the held order is what that argsort returns, and S,
which depends on the order and the weights alone, is the same too: the
kernel skips the sort and the prefix sum and keeps every bit.  Otherwise
it sorts the marginals within the frame, where a held order leaves them
nearly sorted, so the sort is about four times cheaper, and composes the
result with the held order.  Where a tie run then lists its nodes out of
index order, as the nodes a row leaves unused, which share the water
level exactly, often do, it sorts afresh in node order instead.  Either way the order is the one a
sort in node order gives; it is stored where reuse is on, and one fill
computes the water-fill from the ranked arrays.  A row with a saturated
node clears the ranking (its order is cut short), and a zero-rate row
leaves it as it is.  On 400-node pools at 85 % utilisation 86-94 of a
solve's 800 rows store a new ranking; on 400 nodes of 8 machine types,
whose nodes of one type tie in every row, 44 of 800 do.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoFeasibleResponse
from .model import Allocation, SystemConfig, _index, others_load_vector

# Smallest pool on which a kernel reuses the last row's ranking.  Below it
# the check and the gathers of the held order mostly cost more than the
# short sorts they save: with it on every size, solve ran about 25 %
# slower on the presets (683 against 547 us); on 85 %-loaded pools of 8
# machine types 12-19 % slower at m = 16-32, 7 % at 64, 2 % at 96 and at
# parity at 128; on pools of distinct rates 2-9 % slower at m = 16-32 and
# 3-4 % faster at 64-96.
_RANKING_MIN_NODES = 128

# R_d above which a row is divided by its sum (see above).  Below it a
# row's sum is off by at most about eps * 1e5 = 2e-11, well within the
# Allocation check's 1e-9.  Preset rows reach 1.3e4 (rho 0.05-0.95, every
# n and m cut), the benchmark's 85 %-loaded pools 144.
_LIGHT_ROW_SPARE = 1e5

# Read-only 0-d operands: numpy takes a Python float through its scalar
# path, about 0.2 us more per operation at m = 400.
_ONE, _ZERO = np.array(1.0), np.array(0.0)
_ONE.setflags(write=False)
_ZERO.setflags(write=False)


@dataclass(frozen=True, eq=False)
class BestResponseResult:
    """One scheduler's optimal row with the other rows fixed.

    active_count is the size of the accepted active set; an entry of that
    set can be exactly zero when the multiplier sits on its boundary.
    row is read-only and owns its data: best_response_row builds it fresh
    and hands it over.  Results compare and hash by identity.
    """

    row: np.ndarray
    active_count: int
    alpha: float


class _RowKernel:
    """The water-fill row of one solve: its weights, inv_sqrt_w, and where
    reuse is on, the last ranking of every node, order, with root_sum =
    accumulate(inv_sqrt_w[order]), ranked_weights = weights[order] and
    falls, 1 where order[k + 1] < order[k] and 0 elsewhere, all read-only,
    or all None."""

    __slots__ = ("weights", "inv_sqrt_w", "order", "root_sum",
                 "ranked_weights", "falls", "reuse")

    def __init__(self, weights: np.ndarray) -> None:
        self.weights = weights
        self.inv_sqrt_w = 1.0 / np.sqrt(weights)
        self.order = self.root_sum = self.ranked_weights = self.falls = None
        self.reuse = weights.size >= _RANKING_MIN_NODES

    def _hold(self, order: np.ndarray, root_sum: np.ndarray,
              falls: np.ndarray | None = None) -> None:
        """Keep order as the ranking held, with its prefix sums root_sum,
        ranked_weights and falls (computed here unless given), all
        read-only."""
        ranked_weights = self.weights[order]
        if falls is None:
            falls = _falls(order)
        for held in (order, root_sum, ranked_weights, falls):
            held.setflags(write=False)
        self.order, self.root_sum = order, root_sum
        self.ranked_weights, self.falls = ranked_weights, falls

    def row(self, i: int, lam_i: float | np.ndarray, others: np.ndarray,
            out: np.ndarray) -> tuple[int, float]:
        """Write into out scheduler i's best response to others, the
        per-node load of every other scheduler; return (active_count,
        alpha).  lam_i is a float or a 0-d array.  The bits do not depend
        on the ranking held.  Every raise comes before the first write, so
        a failed call leaves out as is."""
        rate = float(lam_i)
        held = self.order
        # At most twice: in the frame of the held order, then, where that
        # order is neither kept nor re-ranked, in node order.  The frame's
        # elementwise operations on gathered operands give the same
        # floats; each temporary is fresh, so it is worked in place.
        while rate > 0.0:
            if held is None:
                weights = self.weights
                headroom = others * weights
            else:
                weights = self.ranked_weights
                headroom = others[held]
                headroom *= weights
            np.subtract(_ONE, headroom, out=headroom)
            # A count, not a minimum: it is cheaper, and a NaN fails both.
            if np.count_nonzero(headroom > _ZERO) < headroom.size:
                break
            wl = weights * lam_i
            theta = headroom ** 2
            np.divide(wl, theta, out=theta)
            # The held order is kept where the marginals strictly increase
            # along it, or, tested only where they do not, tie only where
            # the node index rises.
            if held is not None and (
                    np.count_nonzero(theta[1:] <= theta[:-1]) == 0
                    or _misranked(theta, self.falls) == 0):
                return self._fill(i, rate, held, self.root_sum, headroom,
                                  wl, theta, out)
            # Sort within the frame: a held order leaves the marginals
            # nearly sorted, and the sort is then cheaper.
            rank = theta.argsort(kind="stable")
            ranked = theta[rank]
            if held is None:
                order, falls = rank, None
            else:
                order = held[rank]
                falls = _falls(order)
                if _misranked(ranked, falls):
                    held = None  # a tie run out of node order: sort afresh
                    continue
            root_sum = np.add.accumulate(self.inv_sqrt_w[order])
            if self.reuse:
                self._hold(order, root_sum, falls)
            return self._fill(i, rate, order, root_sum, headroom[rank],
                              wl[rank], ranked, out)
        weights = self.weights
        headroom = 1.0 - others * weights
        usable = headroom > 0.0
        count = int(np.count_nonzero(usable))
        if count == 0:
            raise NoFeasibleResponse(
                f"all nodes are saturated by schedulers other than {i}"
            )
        if rate == 0.0:
            # Objective is flat in this row; spread it uniformly over the
            # usable nodes for a deterministic result.
            np.divide(usable, count, out=out)
            return count, 0.0
        # A ranking cut short is not held.  Saturated nodes sort last on an
        # infinite marginal and are cut off.
        self.order = self.root_sum = self.ranked_weights = self.falls = None
        wl = weights * lam_i
        marginals = np.full(others.size, np.inf)
        np.divide(wl, headroom ** 2, out=marginals, where=usable)
        order = marginals.argsort(kind="stable")[:count]
        root_sum = np.add.accumulate(self.inv_sqrt_w[order])
        return self._fill(i, rate, order, root_sum, headroom[order],
                          wl[order], marginals[order], out)

    @staticmethod
    def _fill(i: int, lam_i: float, order: np.ndarray, root_sum: np.ndarray,
              headroom: np.ndarray, wl: np.ndarray, theta: np.ndarray,
              out: np.ndarray) -> tuple[int, float]:
        """The water-fill of the ranking order, given its prefix sums
        root_sum and its nodes' headroom, W_j*lam_i and marginals theta in
        that order: row's work once the ranking is decided."""
        spare = np.add.accumulate(headroom / wl)
        # Only sizes whose spare capacity absorbs the stream (spare > 1)
        # have a multiplier; spare is monotone, so they form a suffix.
        # Every fraction is >= 0 iff alpha >= the largest active marginal;
        # equality puts the boundary node at exactly zero and is accepted.
        # The largest accepted size is the water-filling solution.  The
        # largest size is tried first, as scalars with the vector form's
        # operations: most rows of a loaded pool accept it.
        d = order.size
        last = float(spare[-1])
        if last > 1.0:
            ratio = float(root_sum[-1]) / (last - 1.0)
            # numpy's ** 2 is the exact square; Python's ** calls pow
            alpha = ratio * ratio / lam_i
        if not (last > 1.0 and alpha >= theta[-1]):
            k = int(spare.searchsorted(1.0, side="right"))
            alphas = (root_sum[k:] / (spare[k:] - _ONE)) ** 2 / lam_i
            accepted = (alphas >= theta[k:]).nonzero()[0]
            if accepted.size == 0:
                raise NoFeasibleResponse(
                    f"no active-set size admits a feasible row for "
                    f"scheduler {i}"
                )
            d = k + int(accepted[-1]) + 1
            alpha = float(alphas[d - 1 - k])
            headroom, wl, order = headroom[:d], wl[:d], order[:d]
        vals = wl / alpha
        np.sqrt(vals, out=vals)
        np.subtract(headroom, vals, out=vals)
        np.divide(vals, wl, out=vals)
        # Accepted sets guarantee values in [0, 1]; strip a few ulp of
        # rounding noise at the boundaries.
        np.maximum(vals, _ZERO, out=vals)
        np.minimum(vals, _ONE, out=vals)
        if spare[d - 1] > _LIGHT_ROW_SPARE:
            vals /= np.add.reduce(vals)
        if d < out.size:
            out.fill(0.0)
        out[order] = vals
        return d, alpha


def _falls(order: np.ndarray) -> np.ndarray:
    """1 where order[k + 1] < order[k], else 0, as int64."""
    return (order[1:] < order[:-1]).astype(np.int64)


def _misranked(theta: np.ndarray, falls: np.ndarray) -> int:
    """How many neighbours of a ranking, given its marginals theta and its
    falls, are out of (marginal, node index) order, the order that
    argsort(kind="stable") gives in node order: the marginal falls, or it
    ties where the node index falls.  The marginals W_j*lam_i/h_j**2 are
    nonnegative, so their bits as int64 rank as they do and tie exactly
    where they tie."""
    bits = theta.view(np.int64)
    return np.count_nonzero(bits[1:] - bits[:-1] < falls)


def best_response_row(i: int, alloc: Allocation,
                      config: SystemConfig) -> BestResponseResult:
    """Row minimising the objective for scheduler i, other rows fixed.

    Nodes outside the accepted active set receive exactly zero.  Raises
    NoFeasibleResponse when the other schedulers saturate every node, and
    ValidationError unless i is an integer from 0 to n - 1 and alloc is
    n x m for config.
    """
    i = _index("i", i, config.n_schedulers)
    row = np.empty(config.n_nodes)
    active_count, alpha = _RowKernel(config.weights).row(
        i, float(config.lam[i]), others_load_vector(i, alloc, config), row)
    row.setflags(write=False)
    return BestResponseResult(row=row, active_count=active_count, alpha=alpha)
