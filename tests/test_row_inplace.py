"""The row kernels write in place and keep the plain sweep's bits.

The solvers' row kernels write each row straight into the matrix, and the
game's kernel takes 1/sqrt(W) from its caller, computed once per solve.
These tests hold both solvers to the sweep that came before: a fresh row
per call, written back by entries[i] = row, with 1/sqrt(W) gathered per
row and prefix sums by cumsum.  Entries, loads, epsilon trace and cycle
count must match it byte for byte.  They also check the in-place contract:
whatever out held never shows through, and a raise leaves it untouched.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relsched import NoFeasibleResponse, bsa_solve, solve
from relsched import baseline, equilibrium
from relsched.baseline import _balanced_row
from relsched.best_response import _best_row

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
    return hot_pool(0, 400) if case == "pool400" else span_config(case)


class TestSameBitsAsFreshRows:
    @pytest.mark.parametrize("case", [*SPAN_CASES, "pool400"])
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
