"""The row kernels write in place and keep the plain sweep's bits.

The solvers' row kernels write each row straight into the matrix, and the
game's kernel takes 1/sqrt(W) from its caller, computed once per solve.
These tests hold both solvers to the sweep that came before: a fresh row
per call, written back by entries[i] = row, with 1/sqrt(W) gathered per
row and prefix sums by cumsum.  Entries, loads, epsilon trace and cycle
count must match it byte for byte.  They also check the in-place contract:
whatever out held never shows through, and a raise leaves it untouched;
and the warm start: a row handed the last row's ranking as a hint has the
bits of one sorted afresh, whatever ranking the hint holds.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relsched import NoFeasibleResponse, bsa_solve, solve
from relsched import baseline, equilibrium
from relsched.baseline import _balanced_row
from relsched.best_response import _best_row, _SortHint
from relsched.equilibrium import _SORT_HINT_MIN_NODES

from conftest import best_row
from test_sweep_kernels import (
    SPAN_CASES,
    clamped_pool,
    hot_pool,
    row_problems,
    span_config,
    zero_spare_config,
)


def reference_best_row(i, lam_i, others, weights):
    """The water-fill kernel with a fresh row per call, 1/sqrt(W) gathered
    per row and cumsum: (row, active_count, alpha)."""
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
    row = np.zeros(others.size)
    row[order[:d]] = np.minimum(np.maximum(vals, 0.0), 1.0)
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
    return hot_pool(0, 400) if case == "pool400" else span_config(case)


class TestSameBitsAsFreshRows:
    @pytest.mark.parametrize("case", [*SPAN_CASES,
                                      *(f"pool160-{s}" for s in range(4)),
                                      "pool400"])
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
    return _best_row(0, lam_i, others, weights, 1.0 / np.sqrt(weights), out)


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
def hinted_rows(draw):
    """(lam_i, others, weights, hint order) for one row of 1-40 nodes or
    of up to 72 beyond the gate at which solve starts to pass a hint.  In
    a twin pool the nodes come in pairs with the same weight and headroom,
    whose marginals tie exactly.  Some nodes may be saturated, and the
    rate runs from zero to a quarter beyond what the usable nodes absorb.
    The hint is the ranking of the row's marginals, that ranking with one
    adjacent pair swapped, or a random permutation."""
    m = draw(st.one_of(st.integers(1, 40),
                       st.integers(_SORT_HINT_MIN_NODES,
                                   _SORT_HINT_MIN_NODES + 72)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = 1.5 / (0.03 * rng.uniform(0.5, 1.5, m))
    headroom = rng.uniform(1e-3, 1.0, m)
    if draw(st.booleans()):  # twin nodes
        weights = np.repeat(weights[::2], 2)[:m]
        headroom = np.repeat(headroom[::2], 2)[:m]
    if draw(st.booleans()):
        headroom[rng.random(m) < 0.2] = draw(st.sampled_from([0.0, -0.25]))
    others = (1.0 - headroom) / weights
    capacity = float(np.sum(np.maximum(1.0 - others * weights, 0.0)
                            / weights))
    lam_i = draw(st.sampled_from([0.0, 1.0, None]))
    lam_i = capacity * (draw(st.floats(1e-9, 1.25)) if lam_i is None
                        else lam_i)
    kind = draw(st.sampled_from(["ranking", "swap", "random"]))
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
    return lam_i, others, weights, order


def stored_hint(order, inv_sqrt_w):
    hint = _SortHint()
    hint.order, hint.root_sum = order, np.add.accumulate(inv_sqrt_w[order])
    hint.order.setflags(write=False)
    hint.root_sum.setflags(write=False)
    return hint


class TestSortHint:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(hinted_rows(), st.booleans())
    def test_hint_keeps_the_row_bits(self, problem, empty):
        """With a hint, empty or holding any ranking, the row, its active
        count and multiplier are those of the row without one.  A row with
        every node usable leaves its stable ranking in the hint, a row
        with a saturated node clears it and a zero-rate row leaves it."""
        lam_i, others, weights, order = problem
        inv_sqrt_w = 1.0 / np.sqrt(weights)
        hint = _SortHint() if empty else stored_hint(order, inv_sqrt_w)
        before = hint.order, hint.root_sum
        want_out, got_out = np.full(others.size, np.nan), \
            np.full(others.size, np.nan)
        try:
            want = _best_row(0, lam_i, others, weights, inv_sqrt_w, want_out)
        except NoFeasibleResponse:
            with pytest.raises(NoFeasibleResponse):
                _best_row(0, lam_i, others, weights, inv_sqrt_w, got_out,
                          hint)
            assert np.isnan(got_out).all()
        else:
            got = _best_row(0, lam_i, others, weights, inv_sqrt_w, got_out,
                            hint)
            assert got == want
            assert type(got[0]) is int and type(got[1]) is float
            assert got_out.tobytes() == want_out.tobytes()
        headroom = 1.0 - others * weights
        if lam_i == 0.0 or not (headroom > 0.0).any():
            assert (hint.order, hint.root_sum) == before
        elif not (headroom > 0.0).all():
            assert hint.order is None and hint.root_sum is None
        else:
            marginals = weights * lam_i / headroom ** 2
            assert np.array_equal(hint.order,
                                  marginals.argsort(kind="stable"))
            assert hint.root_sum.tobytes() == \
                np.add.accumulate(inv_sqrt_w[hint.order]).tobytes()
            for cached in (hint.order, hint.root_sum):
                with pytest.raises(ValueError, match="read-only"):
                    cached[0] = cached[-1]

    def test_large_pool_sorts_few_rows(self):
        """Above the gate solve sorts afresh in at most a quarter of its
        rows (about 11 % on this pool), and only there does it pass a
        hint."""
        config = hot_pool(0, 400)
        assert config.n_nodes >= _SORT_HINT_MIN_NODES
        sorted_rows = []

        def recording_best_row(i, lam_i, others, weights, inv_sqrt_w, out,
                               hint):
            order = hint.order
            count = _best_row(i, lam_i, others, weights, inv_sqrt_w, out,
                              hint)
            sorted_rows.append(hint.order is not order)
            return count

        with mock.patch.object(equilibrium, "_best_row", recording_best_row):
            report = solve(config)
        assert len(sorted_rows) == report.cycles * config.n_schedulers
        assert 0 < sum(sorted_rows) <= len(sorted_rows) / 4
        assert sorted_rows[0]

    def test_small_pool_passes_no_hint(self):
        hints = []

        def recording_best_row(*args):
            hints.append(args[6])
            return _best_row(*args)

        with mock.patch.object(equilibrium, "_best_row", recording_best_row):
            solve(hot_pool(0, _SORT_HINT_MIN_NODES - 1))
        assert hints and set(hints) == {None}
