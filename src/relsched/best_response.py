"""Closed-form best response of a single scheduler.

With every other scheduler's row held fixed, minimising the objective over
one scheduler's simplex is a water-filling problem: rank nodes by the
marginal cost of sending them the first sliver of traffic, compute the
closed-form Lagrange multiplier of every candidate active-set size in one
vectorised pass (prefix sums over the ranked nodes), and accept the
largest size whose fractions are all nonnegative.  No numeric root
finding is involved, and a row costs O(m log m): the solvers pass in the
load of the other schedulers instead of the whole allocation.
A solver makes one _RowKernel per solve, and ``best_response_row`` one
per row.  The kernel computes 1/sqrt(W_j) once and writes the row in
place; both are elementwise, so the row has the bits of one built fresh.
It has two paths.  The array kernel, described below, takes any row and
is the only one on pools of _ARRAY_MIN_NODES nodes or more.  On a smaller
pool a row first tries a scalar pass on Python floats, which handles the
common case alone: a positive rate, headroom on every node, finite
marginals, a feasible size and a row that is not light.  In every other
case it returns before it writes and the array kernel, the one home of
those rules, decides.  At these sizes a row's time is numpy's per-call
overhead (about 30 calls on 15 nodes), which Python floats do not pay.
The pass keeps the array kernel's bits because it performs the same IEEE
operations on the same operands in the same order: the elementwise ones
node by node, the stable argsort as Python's stable sort of the
marginals, np.add.accumulate as itertools.accumulate (both sum left to
right), ** 2 as h * h (numpy's square is that product), np.sqrt as
math.sqrt (both correctly rounded), and the clip so that -0.0 becomes
0.0 and NaN stays, as np.maximum and np.minimum have it.  Tests hold the
two paths to each other bit for bit.

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
A row with a positive rate works first in the frame of the held order,
where one is held: it gathers the other schedulers' loads by that order
once and forms the headroom, W_j*lam_i and the marginals in it, the same
elementwise operations on the same operands, so the same floats.
argsort(kind="stable") in node order ranks the nodes by marginal and then
by node index.  So if one count shows that every node has headroom and
the marginals in the held order strictly increase, or tie only where the
node index rises, the held order is what that argsort returns, and S,
which depends on the order and the weights alone, is the same too: the
kernel skips the sort and the prefix sum and keeps every bit.  Otherwise,
or where no order is held, the row forms its marginals in node order and
sorts them there; the order is stored where reuse is on, and one fill
computes the water-fill from the ranked arrays.  A sort of the held
frame's nearly sorted marginals would be cheaper, but tie runs, such as
the unused nodes at the water level, often come out of it against node
order and must be sorted again; with it a solve on 400-node pools took
within 2 % of the time.  A row with a saturated node clears the ranking
(its order is cut short), and a zero-rate row leaves it as it is.  On
400-node pools at 85 % utilisation 86-94 of a solve's 800 rows store a
new ranking; on 400 nodes of 8 machine types, whose nodes of one type
tie in every row, 44 of 800 do.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import inf, sqrt

import numpy as np

from .errors import NoFeasibleResponse
from .model import Allocation, SystemConfig, _index, others_load_vector

# Smallest pool on which a kernel reuses the last row's ranking.  Below it
# the check and the gathers of the held order cost pools whose nodes tie
# more than the short sorts they save.  With it on from the array
# kernel's 21 nodes, solve on 85 %-loaded pools of 8 machine types ran
# 16-19 % slower at m = 24, 15 % at 32, 11-12 % at 48, 8-10 % at 64,
# 3-5 % at 96 and 1-2 % faster at 127; on pools of distinct rates 1-4 %
# slower at 24-32, within 2 % at 48-64 and 4-10 % faster at 96-127
# (seeds 0 and 1, medians of 15 interleaved rounds; 2 vCPUs, Python
# 3.11.7, numpy 2.4.6).  The presets' pools, of at most 20 nodes, would
# gain nothing from a lower gate: each of their rows with a rate takes
# the scalar pass, which holds no ranking.
_RANKING_MIN_NODES = 128

# Smallest pool whose rows all take the array kernel; a row of a smaller
# pool first tries the scalar pass (see above).  Per solve, scalar pass
# against array kernel, medians of 300 solves interleaved call by call
# (2 vCPUs, Python 3.11.7, numpy 2.4.6): the presets 0.80 at their 15
# and 20 nodes, and 0.75 / 0.81 / 0.88 cut to 12 / 16 / 20 nodes; pools
# with mu spread +-70 % at 20 % load 0.74 / 0.81 / 0.92 / 1.02 at
# m = 12 / 16 / 20 / 24.  On pools at 85 % load, where every row fills
# every node, the scalar pass loses from about 13 nodes: 0.95-1.03 at
# m = 12, 1.07 at 14, 1.12-1.14 at 16, 1.18 at 18 and 1.28 at 20.  No
# benchmark workload runs such pools below 400 nodes, and the paper's
# 20-node presets are worth about 3 points of its grid: its 17 commands
# in process took 0.86 of the array kernel's cycle with the gate at 16
# and 0.83 at 21 (20 of 20 interleaved rounds each).
_ARRAY_MIN_NODES = 21

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
    or all None; below _ARRAY_MIN_NODES nodes also floats, the weights and
    inv_sqrt_w as lists of Python floats for the scalar pass, else None."""

    __slots__ = ("weights", "inv_sqrt_w", "order", "root_sum",
                 "ranked_weights", "falls", "reuse", "floats")

    def __init__(self, weights: np.ndarray) -> None:
        self.weights = weights
        self.inv_sqrt_w = 1.0 / np.sqrt(weights)
        self.order = self.root_sum = self.ranked_weights = self.falls = None
        self.reuse = weights.size >= _RANKING_MIN_NODES
        self.floats = (None if weights.size >= _ARRAY_MIN_NODES else
                       (weights.tolist(), self.inv_sqrt_w.tolist()))

    def _hold(self, order: np.ndarray, root_sum: np.ndarray) -> None:
        """Keep order as the ranking held, with its prefix sums root_sum,
        ranked_weights and falls, all read-only."""
        ranked_weights, falls = self.weights[order], _falls(order)
        for held in (order, root_sum, ranked_weights, falls):
            held.setflags(write=False)
        self.order, self.root_sum = order, root_sum
        self.ranked_weights, self.falls = ranked_weights, falls

    def row(self, i: int, lam_i: float | np.ndarray, others: np.ndarray,
            out: np.ndarray) -> tuple[int, float]:
        """Write into out scheduler i's best response to others, the
        per-node load of every other scheduler; return (active_count,
        alpha).  lam_i is a float or a 0-d array.  The bits depend neither
        on the ranking held nor on the path taken.  Every raise comes
        before the first write, so a failed call leaves out as is."""
        rate = float(lam_i)
        if self.floats is not None and rate > 0.0:
            try:
                done = self._scalar_row(rate, others, out)
            except ZeroDivisionError:  # where numpy would divide by zero
                done = None
            if done is not None:
                return done
        held = self.order
        # At most twice: in the frame of the held order, then, where that
        # order fails its check, in node order.  The frame's elementwise
        # operations on gathered operands give the same floats; each
        # temporary is fresh, so it is worked in place.
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
            if held is None:
                order = theta.argsort(kind="stable")
                root_sum = np.add.accumulate(self.inv_sqrt_w[order])
                if self.reuse:
                    self._hold(order, root_sum)
                return self._fill(i, rate, order, root_sum, headroom[order],
                                  wl[order], theta[order], out)
            # The held order is kept where the marginals strictly increase
            # along it, or, tested only where they do not, tie only where
            # the node index rises.
            if (np.count_nonzero(theta[1:] <= theta[:-1]) == 0
                    or _misranked(theta, self.falls) == 0):
                return self._fill(i, rate, held, self.root_sum, headroom,
                                  wl, theta, out)
            held = None
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

    def _scalar_row(self, rate: float, others: np.ndarray,
                    out: np.ndarray) -> tuple[int, float] | None:
        """row's common case on Python floats (module docstring): the array
        kernel's operations, in its order, on the same operands, so the
        same floats.  Writes out and returns (active_count, alpha), or
        returns None before any write where the array kernel is to decide:
        a node without headroom, a NaN, a marginal that overflows, no
        feasible size or a light row.  rate is positive."""
        weights, inv_sqrt_w = self.floats
        headroom = [1.0 - o * w for o, w in zip(others.tolist(), weights)]
        if not min(headroom) > 0.0:
            return None
        wl = [w * rate for w in weights]
        theta = [x / (h * h) for x, h in zip(wl, headroom)]
        if not sum(theta) < inf:  # a NaN load, or W_j*lam_i overflowing,
            return None           # on which numpy warns
        order = sorted(range(len(theta)), key=theta.__getitem__)  # stable
        spare = list(accumulate([headroom[j] / wl[j] for j in order]))
        root_sum = list(accumulate([inv_sqrt_w[j] for j in order]))
        d = len(order)
        while d:
            last = spare[d - 1]
            if not last > 1.0:
                return None  # no size admits a feasible row
            ratio = root_sum[d - 1] / (last - 1.0)
            alpha = ratio * ratio / rate
            if alpha >= theta[order[d - 1]]:
                break
            d -= 1
        else:
            return None
        if last > _LIGHT_ROW_SPARE:
            return None
        # The clip is np.maximum(v, 0.0), then np.minimum(v, 1.0), which
        # also turn -0.0 into 0.0.  A row that is not light has every v
        # finite.
        if d == len(order):  # every node, in node order
            row = [(h - sqrt(x / alpha)) / x for h, x in zip(headroom, wl)]
            if not (min(row) > 0.0 and max(row) <= 1.0):
                row = [0.0 if v <= 0.0 else 1.0 if v > 1.0 else v
                       for v in row]
        else:
            row = [0.0] * len(order)
            for j in order[:d]:
                x = wl[j]
                v = (headroom[j] - sqrt(x / alpha)) / x
                row[j] = 0.0 if v <= 0.0 else 1.0 if v > 1.0 else v
        out[...] = row
        return d, alpha

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
