"""The row kernels write in place and keep the plain sweep's bits.

The solvers' row kernels write each row straight into the matrix, and the
game's kernel, one _RowKernel per solve, computes 1/sqrt(W) once.  These
tests hold both solvers to the sweep that came before: a fresh row per
call, written back by entries[i] = row, with 1/sqrt(W) gathered per row
and prefix sums by cumsum.  Entries, loads, epsilon trace and cycle count
must match it byte for byte.  They also check the in-place contract:
whatever out held never shows through, and a raise leaves it untouched;
and the warm start: a row of a kernel that holds the last row's ranking
has the bits of one sorted afresh, whatever ranking the kernel holds,
also where nodes of one machine type tie.
Pinned rows check the edges of the largest-size-first rule: the last
size accepted at equality or rejected, a light row of every node and a
saturated node while a ranking is held.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relsched import NoFeasibleResponse, bsa_solve, solve
from relsched import baseline, equilibrium
from relsched.baseline import _balanced_row
from relsched.best_response import (
    _LIGHT_ROW_SPARE,
    _RANKING_MIN_NODES,
    _RowKernel,
)

from conftest import best_row
from test_sweep_kernels import (
    SPAN_CASES,
    clamped_pool,
    hot_pool,
    row_problems,
    span_config,
    types_pool,
    zero_spare_config,
)


def reference_best_row(i, lam_i, others, weights):
    """The water-fill kernel with a fresh row per call, 1/sqrt(W) gathered
    per row and cumsum: (row, active_count, alpha).  Like the kernel, it
    divides a light scheduler's row by its sum."""
    headroom = 1.0 - others * weights
    usable = headroom > 0.0
    count = int(np.count_nonzero(usable))
    if count == 0:
        raise NoFeasibleResponse("all nodes saturated")
    if lam_i == 0.0:
        return usable / count, count, 0.0
    wl = weights * lam_i
    marginals = np.full(others.size, np.inf)
    np.divide(wl, headroom ** 2, out=marginals, where=usable)
    order = marginals.argsort(kind="stable")[:count]
    theta_sorted = marginals[order]
    h_sorted = headroom[order]
    wl_sorted = wl[order]
    inv_sqrt_w = (1.0 / np.sqrt(weights[order])).cumsum()
    spare = (h_sorted / wl_sorted).cumsum()
    k = int(spare.searchsorted(1.0, side="right"))
    alphas = (inv_sqrt_w[k:] / (spare[k:] - 1.0)) ** 2 / lam_i
    accepted = (alphas >= theta_sorted[k:]).nonzero()[0]
    if accepted.size == 0:
        raise NoFeasibleResponse("no feasible active-set size")
    d = k + int(accepted[-1]) + 1
    alpha = float(alphas[d - 1 - k])
    wl_active = wl_sorted[:d]
    vals = (h_sorted[:d] - np.sqrt(wl_active / alpha)) / wl_active
    vals = np.minimum(np.maximum(vals, 0.0), 1.0)
    if spare[d - 1] > _LIGHT_ROW_SPARE:
        vals /= vals.sum()
    row = np.zeros(others.size)
    row[order[:d]] = vals
    return row, d, alpha


def reference_balanced_row(i, others, mu):
    """The balanced row as a fresh array."""
    residual = np.maximum(mu - others, 0.0)
    total = np.add.reduce(residual)
    if total <= 0.0:
        raise NoFeasibleResponse("no spare capacity")
    return residual / total


def reference_row_sweep(respond, calls):
    """A stand-in for equilibrium._row_sweep that writes back a fresh row
    per scheduler, respond(i, lam_i, others), and counts its rows."""
    def sweep(entries, delta, lam, _respond):
        for i, lam_i in enumerate(lam.tolist()):
            others = delta - lam_i * entries[i]
            row = respond(i, lam_i, others)
            entries[i] = row
            delta = others + lam_i * row
            calls.append(i)
        return entries.T @ lam
    return sweep


def assert_same_bits(got, want):
    assert got.cycles == want.cycles
    assert np.array(got.epsilon_trace).tobytes() == \
        np.array(want.epsilon_trace).tobytes()
    assert got.allocation.entries.tobytes() == \
        want.allocation.entries.tobytes()
    assert got.loads.tobytes() == want.loads.tobytes()


def game_config(case):
    if case.startswith("pool160-"):
        return hot_pool(int(case[-1]), 160)
    if case.startswith("types"):
        return types_pool(0, int(case[len("types"):]))
    return hot_pool(0, 400) if case == "pool400" else span_config(case)


class TestSameBitsAsFreshRows:
    @pytest.mark.parametrize("case", [*SPAN_CASES,
                                      *(f"pool160-{s}" for s in range(4)),
                                      "pool400", "types160", "types400"])
    def test_solve(self, case, monkeypatch):
        config = game_config(case)
        got = solve(config)
        weights, calls = config.weights, []
        monkeypatch.setattr(equilibrium, "_row_sweep", reference_row_sweep(
            lambda i, lam_i, others:
            reference_best_row(i, lam_i, others, weights)[0], calls))
        want = solve(config)
        assert len(calls) == want.cycles * config.n_schedulers
        assert_same_bits(got, want)

    @pytest.mark.parametrize("make", [clamped_pool, zero_spare_config],
                             ids=["clamped60", "zero-spare"])
    def test_bsa_solve_row_path(self, make, monkeypatch):
        config = make(60) if make is clamped_pool else make()
        got = bsa_solve(config)
        mu, calls = config.mu, []
        monkeypatch.setattr(baseline, "_row_sweep", reference_row_sweep(
            lambda i, lam_i, others: reference_balanced_row(i, others, mu),
            calls))
        want = bsa_solve(config)
        assert calls[:config.n_schedulers] == list(range(config.n_schedulers))
        assert_same_bits(got, want)


def kernel_row(case):
    """(lam_i, others, weights) of 12 nodes: every node usable, some
    saturated (headroom zero or negative), or a zero rate with some
    saturated."""
    rng = np.random.default_rng(7)
    weights = 1.5 / (0.03 * rng.uniform(0.5, 1.5, 12))
    headroom = rng.uniform(0.05, 1.0, 12)
    if case != "all-usable":
        headroom[[2, 5, 9]] = [0.0, -0.3, 0.0]
    others = (1.0 - headroom) / weights
    capacity = np.sum(np.maximum(1.0 - others * weights, 0.0) / weights)
    lam_i = 0.0 if case == "zero-rate" else 0.4 * capacity
    return lam_i, others, weights


KERNEL_CASES = ["all-usable", "some-saturated", "zero-rate"]


def call_into(out, lam_i, others, weights):
    return _RowKernel(weights).row(0, lam_i, others, out)


class TestInPlaceContract:
    @pytest.mark.parametrize("fill", [np.nan, 7.0])
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_dirty_out_gives_the_fresh_row(self, case, fill):
        lam_i, others, weights = kernel_row(case)
        usable = np.count_nonzero(1.0 - others * weights > 0.0)
        assert (usable == others.size) == (case == "all-usable")
        out = np.full(others.size, fill)
        count, alpha = call_into(out, lam_i, others, weights)
        row, want_count, want_alpha = reference_best_row(0, lam_i, others,
                                                         weights)
        assert out.tobytes() == row.tobytes() == \
            best_row(0, lam_i, others, weights)[0].tobytes()
        assert (count, alpha) == (want_count, want_alpha)
        assert type(count) is int and type(alpha) is float
        if case != "zero-rate":
            assert 1 < count and alpha > 0.0

    @pytest.mark.parametrize("case", KERNEL_CASES[:2])
    def test_each_marginal_branch_is_taken(self, case):
        """The masked marginals, an infinite array filled where a node has
        headroom, are built only when some node has none."""
        lam_i, others, weights = kernel_row(case)
        with mock.patch("numpy.full", wraps=np.full) as full:
            call_into(np.empty(others.size), lam_i, others, weights)
        assert full.called == (case == "some-saturated")

    @pytest.mark.parametrize("lam_i, others, weights", [
        (1.0, np.array([4.0, 3.0]), np.array([0.25, 0.5])),  # all saturated
        (1.0, np.array([3.0]), np.array([0.25])),  # spare exactly 1
        (3.0, np.array([1.0, 0.0]), np.array([0.5, 1.0])),  # beyond spare
    ], ids=["saturated", "spare-one", "beyond-spare"])
    def test_no_feasible_response_leaves_out(self, lam_i, others, weights):
        out = np.array([np.nan, 7.0])[:others.size]
        before = out.tobytes()
        with pytest.raises(NoFeasibleResponse):
            call_into(out, lam_i, others, weights)
        assert out.tobytes() == before

    def test_all_nodes_saturated_leaves_out(self):
        out = np.array([np.nan, 7.0, -0.0])
        before = out.tobytes()
        with pytest.raises(NoFeasibleResponse):
            _balanced_row(0, np.array([1.0, 2.5, 3.0]),
                          np.array([1.0, 2.0, 3.0]), out)
        assert out.tobytes() == before

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(row_problems(), st.sampled_from([np.nan, 7.0, -0.0]))
    def test_best_row_through_dirty_out(self, problem, fill):
        lam_i, others, weights = problem
        out = np.full(others.size, fill)
        before = out.tobytes()
        try:
            row, count, alpha = reference_best_row(0, lam_i, others, weights)
        except NoFeasibleResponse:
            with pytest.raises(NoFeasibleResponse):
                call_into(out, lam_i, others, weights)
            assert out.tobytes() == before
            return
        assert call_into(out, lam_i, others, weights) == (count, alpha)
        assert out.tobytes() == row.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(row_problems(), st.sampled_from([np.nan, 7.0, -0.0]))
    def test_balanced_row_through_dirty_out(self, problem, fill):
        _, others, weights = problem
        mu = 1.0 / weights
        out = np.full(others.size, fill)
        before = out.tobytes()
        try:
            row = reference_balanced_row(0, others, mu)
        except NoFeasibleResponse:
            with pytest.raises(NoFeasibleResponse):
                _balanced_row(0, others, mu, out)
            assert out.tobytes() == before
            return
        _balanced_row(0, others, mu, out)
        assert out.tobytes() == row.tobytes()


@st.composite
def ranked_rows(draw):
    """(lam_i, others, weights, order) for one row of 1-40 nodes or of up
    to 72 beyond the size from which a kernel keeps its ranking.  The nodes
    have distinct weights and headroom, come in twin pairs, or are
    machines of 1-4 types; twins, and machines of one type, share weight
    and headroom, so their marginals tie exactly.  Some nodes may be
    saturated, and the rate runs from zero to a quarter beyond what the
    usable nodes absorb.  order, the ranking the kernel holds, is the
    ranking of the row's marginals, that ranking with one adjacent pair
    swapped or with its longest tie run reversed, or a random
    permutation."""
    m = draw(st.one_of(st.integers(1, 40),
                       st.integers(_RANKING_MIN_NODES,
                                   _RANKING_MIN_NODES + 72)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = 1.5 / (0.03 * rng.uniform(0.5, 1.5, m))
    headroom = rng.uniform(1e-3, 1.0, m)
    nodes = draw(st.sampled_from(["distinct", "twins", "types"]))
    if nodes == "twins":
        weights = np.repeat(weights[::2], 2)[:m]
        headroom = np.repeat(headroom[::2], 2)[:m]
    elif nodes == "types":
        types = rng.integers(0, min(draw(st.integers(1, 4)), m), m)
        weights, headroom = weights[types], headroom[types]
    if draw(st.booleans()):
        headroom[rng.random(m) < 0.2] = draw(st.sampled_from([0.0, -0.25]))
    others = (1.0 - headroom) / weights
    capacity = float(np.sum(np.maximum(1.0 - others * weights, 0.0)
                            / weights))
    lam_i = draw(st.sampled_from([0.0, 1.0, None]))
    lam_i = capacity * (draw(st.floats(1e-9, 1.25)) if lam_i is None
                        else lam_i)
    kind = draw(st.sampled_from(["ranking", "swap", "tie-reversed",
                                 "random"]))
    if kind == "random":
        order = rng.permutation(m)
    else:
        marginals = np.full(m, np.inf)
        np.divide(weights * lam_i, headroom ** 2, out=marginals,
                  where=headroom > 0.0)
        order = marginals.argsort(kind="stable")
        if kind == "swap" and m > 1:
            k = int(rng.integers(m - 1))
            order[[k, k + 1]] = order[[k + 1, k]]
        elif kind == "tie-reversed":
            # the longest run of equal marginals, listed in falling index
            ranked = marginals[order]
            starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
            ends = np.r_[starts[1:], m]
            k = int(np.argmax(ends - starts))
            order[starts[k]:ends[k]] = order[starts[k]:ends[k]][::-1]
    return lam_i, others, weights, order


def ranked_kernel(weights, order):
    """A kernel that holds order as its last ranking, whatever its size,
    stored as a row stores it."""
    kernel = _RowKernel(weights)
    kernel._hold(order, np.add.accumulate(kernel.inv_sqrt_w[order]))
    return kernel


def recorded_rows(config):
    """Solve config and return, for each row, whether its kernel held a
    ranking before the row and whether the row stored a new one."""
    rows = []
    row = _RowKernel.row

    def recording_row(kernel, i, lam_i, others, out):
        order = kernel.order
        count = row(kernel, i, lam_i, others, out)
        rows.append((order is not None, kernel.order is not order))
        return count

    with mock.patch.object(_RowKernel, "row", recording_row):
        report = solve(config)
    assert len(rows) == report.cycles * config.n_schedulers
    return rows


class TestSortHint:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ranked_rows(), st.booleans())
    def test_hint_keeps_the_row_bits(self, problem, empty):
        """Holding no ranking or any ranking, a kernel gives the row,
        active count and multiplier of a fresh kernel that holds none.  A
        row with every node usable leaves its stable ranking in the
        kernel, the one held if that is it, even through ties; one of
        fewer than _RANKING_MIN_NODES nodes stores none, a row with a
        saturated node clears the ranking and a zero-rate row leaves it."""
        lam_i, others, weights, order = problem
        kernel = _RowKernel(weights) if empty else \
            ranked_kernel(weights, order)
        before = (kernel.order, kernel.root_sum, kernel.ranked_weights,
                  kernel.falls)
        want_out, got_out = np.full(others.size, np.nan), \
            np.full(others.size, np.nan)
        try:
            want = call_into(want_out, lam_i, others, weights)
        except NoFeasibleResponse:
            with pytest.raises(NoFeasibleResponse):
                kernel.row(0, lam_i, others, got_out)
            assert np.isnan(got_out).all()
        else:
            got = kernel.row(0, lam_i, others, got_out)
            assert got == want
            assert type(got[0]) is int and type(got[1]) is float
            assert got_out.tobytes() == want_out.tobytes()
        headroom = 1.0 - others * weights
        held = (kernel.order, kernel.root_sum, kernel.ranked_weights,
                kernel.falls)
        if lam_i == 0.0 or not (headroom > 0.0).any():
            assert held == before
        elif not (headroom > 0.0).all():
            assert held == (None, None, None, None)
        elif others.size < _RANKING_MIN_NODES:
            assert held == before
        else:
            marginals = weights * lam_i / headroom ** 2
            stable = marginals.argsort(kind="stable")
            assert np.array_equal(kernel.order, stable)
            if not empty and np.array_equal(order, stable):
                assert held == before  # kept, not sorted afresh
            assert kernel.root_sum.tobytes() == \
                np.add.accumulate(kernel.inv_sqrt_w[kernel.order]).tobytes()
            assert kernel.ranked_weights.tobytes() == \
                weights[kernel.order].tobytes()
            assert kernel.falls.tolist() == \
                (np.diff(kernel.order) < 0).astype(int).tolist()
            for cached in held:
                with pytest.raises(ValueError, match="read-only"):
                    cached[0] = cached[-1]

    @pytest.mark.parametrize("make", [hot_pool, types_pool],
                             ids=["distinct", "tied"])
    def test_large_pool_sorts_few_rows(self, make):
        """From _RANKING_MIN_NODES nodes a solve's kernel stores a new
        ranking in at most a quarter of its rows: about 11 % of them on
        this pool of distinct rates and 6 % on 8 machine types, whose
        nodes of one type tie in every row."""
        config = make(0, 400)
        assert config.n_nodes >= _RANKING_MIN_NODES
        rows = recorded_rows(config)
        sorted_rows = [stored for _, stored in rows]
        assert 0 < sum(sorted_rows) <= len(sorted_rows) / 4
        assert sorted_rows[0]

    def test_small_pool_passes_no_hint(self):
        rows = recorded_rows(hot_pool(0, _RANKING_MIN_NODES - 1))
        assert rows and set(rows) == {(False, False)}


# (lam_i, others, weights, active count) of rows at the edges of the
# largest-size-first rule, each of whose marginals strictly increase.
PINNED_ROWS = {
    # headroom 3/4 and 1/2: at size 2 = m, alpha = (4/(5 - 1))**2 = 1.0, the
    # last node's marginal 0.25/0.5**2 exactly, so that node gets zero
    "last-size-at-equality": (1.0, np.array([1.0, 2.0]),
                              np.array([0.25, 0.25]), 2),
    # headroom 3/4, 3/4 - 2**-40, 1/4: size 3 has alpha about 1, below its
    # last marginal 4, and size 2 is accepted
    "last-size-rejected": (1.0, np.array([1.0, 1.0 + 2.0**-38, 3.0]),
                           np.full(3, 0.25), 2),
    # near-twin nodes under a rate of 1e-8: every node is active, R_4 is
    # about 4e8 > _LIGHT_ROW_SPARE, and the row is divided by its sum
    "light-row-all-nodes": (1e-8, np.zeros(4),
                            1.0 + 1e-12 * np.arange(4), 4),
}


class TestPinnedRows:
    @pytest.mark.parametrize("held", [False, True], ids=["fresh", "held"])
    @pytest.mark.parametrize("case", sorted(PINNED_ROWS))
    def test_row_matches_reference(self, case, held):
        """A kernel holding no ranking, or the row's own ranking, which it
        then takes without sorting, writes the reference row."""
        lam_i, others, weights, count = PINNED_ROWS[case]
        headroom = 1.0 - others * weights
        theta = weights * lam_i / headroom ** 2
        order = theta.argsort(kind="stable")
        assert (np.diff(theta[order]) > 0.0).all()
        kernel = ranked_kernel(weights, order) if held else \
            _RowKernel(weights)
        out = np.full(others.size, np.nan)
        d, alpha = kernel.row(0, lam_i, others, out)
        row, want_d, want_alpha = reference_best_row(0, lam_i, others,
                                                     weights)
        assert out.tobytes() == row.tobytes()
        assert d == want_d == count and alpha == want_alpha
        assert type(d) is int and type(alpha) is float
        assert (kernel.order is order) == held
        spare = np.add.accumulate(headroom[order] / (weights * lam_i)[order])
        if case == "last-size-at-equality":
            assert alpha == theta[order[-1]] == 1.0 and row[1] == 0.0
        elif case == "last-size-rejected":
            assert d < others.size and (row > 0.0).sum() == d
        else:
            assert spare[-1] > _LIGHT_ROW_SPARE and (row > 0.0).all()

    def test_saturated_node_while_a_ranking_is_held(self):
        """A row that finds a node saturated drops the ranking the last
        row stored and writes the reference row over the usable nodes."""
        m = _RANKING_MIN_NODES
        rng = np.random.default_rng(11)
        weights = 1.5 / (0.03 * rng.uniform(0.9, 1.1, m))
        others = (1.0 - rng.uniform(0.05, 1.0, m)) / weights
        lam_i = 0.4 * float(np.sum((1.0 - others * weights) / weights))
        kernel = _RowKernel(weights)
        kernel.row(0, lam_i, others, np.empty(m))
        assert kernel.order is not None
        others = others.copy()
        others[[3, 70]] = 2.0 / weights[[3, 70]]  # headroom -1
        out = np.full(m, np.nan)
        d, alpha = kernel.row(1, lam_i, others, out)
        row, want_d, want_alpha = reference_best_row(1, lam_i, others,
                                                     weights)
        assert out.tobytes() == row.tobytes()
        assert (d, alpha) == (want_d, want_alpha)
        assert type(d) is int and type(alpha) is float
        assert out[[3, 70]].tolist() == [0.0, 0.0]
        assert (kernel.order, kernel.root_sum, kernel.ranked_weights,
                kernel.falls) == (None, None, None, None)

    def test_loaded_pool_rows_take_every_node(self):
        """On a 400-node pool at 85 % utilisation most rows accept the
        largest size, the first one the kernel tries (710 of 800 here)."""
        config = hot_pool(0, 400)
        counts = []
        row = _RowKernel.row

        def recording_row(kernel, i, lam_i, others, out):
            result = row(kernel, i, lam_i, others, out)
            counts.append(result[0])
            return result

        with mock.patch.object(_RowKernel, "row", recording_row):
            solve(config)
        full = sum(count == config.n_nodes for count in counts)
        assert full >= 0.85 * len(counts)
        assert full < len(counts)  # and some row searches
