"""Water-filling best response: frozen examples, KKT invariants, oracles."""

import numpy as np
import pytest

from relsched import (
    Allocation,
    AvailabilityOutOfRange,
    NodeParams,
    NoFeasibleResponse,
    SchedulerParams,
    best_response_row,
    build_config,
    objective,
    objective_marginal,
)
from relsched.presets import preset

from conftest import closed_form_fractions, feasible_random_allocation


def zero_load_marginals(i, alloc, config):
    """Cost of the first sliver of scheduler i's stream at every node,
    W_j*lam_i/(1 - W_j*o_j)**2, computed from the arrays."""
    lam = config.lam
    weights = config.weights
    others = alloc.entries.T @ lam - lam[i] * alloc.entries[i]
    return weights * lam[i] / (1.0 - others * weights) ** 2


def bisect_alpha(i, active, alloc, config, lo=1e-12, hi=1e12, iters=200):
    """Independent multiplier oracle: root of sum(slice fractions) - 1.

    The fraction sum is increasing in alpha, so plain bisection on the
    simplex constraint brackets the closed-form value.
    """
    def total(alpha):
        fractions = closed_form_fractions(i, alpha, alloc, config)
        return sum(float(fractions[j]) for j in active) - 1.0

    assert total(lo) < 0 < total(hi)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if total(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestMarginalAtZero:
    """The zero-load marginal is objective_marginal with the scheduler's
    own entry cleared; the best response ranks nodes by it."""

    def test_single_scheduler_values(self, two_node_config, even_split):
        for j, value in ((0, 0.375), (1, 0.1875)):
            cleared = np.array(even_split.entries)
            cleared[0, j] = 0.0
            assert objective_marginal(0, j, cleared, two_node_config) == value

    def test_zero_rate_scheduler(self, two_node_config):
        config = build_config(
            nodes=two_node_config.nodes,
            schedulers=[SchedulerParams(phi=0.0, lam=0.0)],
            rho=0.5,
        )
        alloc = Allocation.uniform(1, 2)
        assert objective_marginal(0, 0, alloc, config) == 0.0
        assert objective_marginal(0, 1, alloc, config) == 0.0

    def test_saturated_node_raises(self):
        config = build_config(
            nodes=[NodeParams.from_rate(0.02)],
            schedulers=[SchedulerParams(phi=0.0, lam=0.001),
                        SchedulerParams(phi=0.0, lam=0.019)],
            rho=0.5,
        )
        # the second scheduler alone pushes node availability below zero
        alloc = Allocation(np.array([[1.0], [1.0]]))
        cleared = np.array([[0.0], [1.0]])
        with pytest.raises(AvailabilityOutOfRange):
            objective_marginal(0, 0, cleared, config)
        with pytest.raises(NoFeasibleResponse):
            best_response_row(0, alloc, config)

    def test_equals_marginal_with_own_entry_zeroed(self, table12):
        rng = np.random.default_rng(5)
        alloc = feasible_random_allocation(rng, table12)
        i, j = 3, 7
        cleared = np.array(alloc.entries)
        cleared[i, j] = 0.0
        assert zero_load_marginals(i, alloc, table12)[j] == pytest.approx(
            objective_marginal(i, j, cleared, table12), rel=1e-12
        )


class TestRankNodes:
    def test_orders_by_marginal_with_index_ties(self, table13):
        alloc = Allocation.uniform(table13.n_schedulers, table13.n_nodes)
        marginals = zero_load_marginals(0, alloc, table13)
        order = np.argsort(marginals, kind="stable")
        # equal-rate nodes have equal marginals and keep index order
        for a, b in zip(order, order[1:]):
            if table13.nodes[a].mu == table13.nodes[b].mu:
                assert a < b
        # the accepted active set is a prefix of that order
        result = best_response_row(0, alloc, table13)
        active = order[:result.active_count]
        assert set(np.flatnonzero(result.row > 0.0)) <= set(active)
        assert all(result.row[j] == 0.0 for j in order[result.active_count:])


class TestSolveAlpha:
    def test_single_active_node_forces_full_fraction(self, two_node_config):
        alloc = Allocation(np.array([[0.5, 0.5]]))
        result = best_response_row(0, alloc, two_node_config)
        assert result.active_count == 1
        frac = closed_form_fractions(0, result.alpha, alloc,
                                     two_node_config)[1]
        assert frac == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_nodes_split_evenly(self, twin_node_config):
        alloc = Allocation(np.array([[0.5, 0.5]]))
        result = best_response_row(0, alloc, twin_node_config)
        assert result.active_count == 2
        fractions = closed_form_fractions(0, result.alpha, alloc,
                                          twin_node_config)
        for j in (0, 1):
            assert fractions[j] == pytest.approx(0.5, abs=1e-12)

    def test_matches_bisection_oracle_on_reference_preset(self, table12):
        alloc = Allocation.uniform(table12.n_schedulers, table12.n_nodes)
        result = best_response_row(0, alloc, table12)
        active = list(np.flatnonzero(result.row > 0.0))
        oracle_alpha = bisect_alpha(0, active, alloc, table12)
        assert result.alpha == pytest.approx(oracle_alpha, rel=1e-9)

    def test_closure_sums_to_one(self, table12):
        rng = np.random.default_rng(2)
        alloc = feasible_random_allocation(rng, table12)
        for i in (0, 4, 9):
            result = best_response_row(i, alloc, table12)
            fractions = closed_form_fractions(i, result.alpha, alloc, table12)
            total = sum(float(fractions[j])
                        for j in np.flatnonzero(result.row > 0.0))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_active_set(self):
        # one scheduler whose stream exceeds what the single node can absorb
        config = build_config(
            nodes=[NodeParams.from_rate(0.02)],
            schedulers=[SchedulerParams(phi=0.0, lam=0.015)],
            rho=0.5,
        )
        alloc = Allocation(np.array([[1.0]]))
        with pytest.raises(NoFeasibleResponse):
            best_response_row(0, alloc, config)


class TestSliceFraction:
    def test_negative_below_waterline(self, two_node_config, even_split):
        alpha = bisect_alpha(0, [0, 1], even_split, two_node_config)
        value = closed_form_fractions(0, alpha, even_split,
                                      two_node_config)[0]
        assert value == pytest.approx(-0.23283, abs=5e-6)
        # the multiplier sits below the slow node's zero-load marginal
        assert alpha < zero_load_marginals(0, even_split, two_node_config)[0]


class TestBestResponseRow:
    def test_symmetric_split(self, twin_node_config):
        alloc = Allocation(np.array([[0.9, 0.1]]))
        result = best_response_row(0, alloc, twin_node_config)
        assert result.row.tolist() == pytest.approx([0.5, 0.5], abs=1e-12)
        assert result.active_count == 2

    def test_concentrates_on_fast_node(self, two_node_config, even_split):
        result = best_response_row(0, even_split, two_node_config)
        assert result.row.tolist() == [0.0, 1.0]
        assert result.active_count == 1
        best = objective(Allocation(result.row.reshape(1, -1)),
                         two_node_config)
        assert best == pytest.approx(2.23077, abs=5e-6)
        assert objective(even_split, two_node_config) == pytest.approx(
            2.33422, abs=5e-6
        )
        assert best < objective(even_split, two_node_config)

    def test_kkt_point(self, table12):
        rng = np.random.default_rng(8)
        alloc = feasible_random_allocation(rng, table12)
        for i in (0, 5):
            result = best_response_row(i, alloc, table12)
            updated = alloc.replace_row(i, result.row)
            for j in range(table12.n_nodes):
                marginal = objective_marginal(i, j, updated, table12)
                if result.row[j] > 0.0:
                    assert marginal == pytest.approx(result.alpha, rel=1e-9)
                else:
                    assert marginal >= result.alpha - 1e-8

    def test_no_unilateral_improvement(self, table12):
        rng = np.random.default_rng(21)
        alloc = feasible_random_allocation(rng, table12)
        i = 1
        result = best_response_row(i, alloc, table12)
        updated = alloc.replace_row(i, result.row)
        base = objective(updated, table12)
        eps = 1e-4
        m = table12.n_nodes
        for p in range(m):
            for q in range(m):
                if p == q or result.row[q] < eps:
                    continue
                probe = np.array(updated.entries)
                probe[i, p] += eps
                probe[i, q] -= eps
                assert objective(probe, table12) >= base - 1e-9

    def test_water_filling_monotonicity(self, table12):
        rng = np.random.default_rng(31)
        alloc = feasible_random_allocation(rng, table12)
        for i in (2, 7):
            result = best_response_row(i, alloc, table12)
            marg = zero_load_marginals(i, alloc, table12)
            for p in range(table12.n_nodes):
                for q in range(table12.n_nodes):
                    if marg[p] <= marg[q] and result.row[q] > 0.0:
                        assert result.row[p] > 0.0 or marg[p] == marg[q]

    def test_deterministic(self, table12):
        alloc = Allocation.uniform(table12.n_schedulers, table12.n_nodes)
        first = best_response_row(3, alloc, table12)
        second = best_response_row(3, alloc, table12)
        assert np.array_equal(first.row, second.row)
        assert first.alpha == second.alpha
        assert first.active_count == second.active_count

    def test_zero_rate_scheduler_spreads_uniformly(self, two_node_config):
        config = build_config(
            nodes=two_node_config.nodes,
            schedulers=[SchedulerParams(phi=0.0, lam=0.0)],
            rho=0.5,
        )
        result = best_response_row(0, Allocation.uniform(1, 2), config)
        assert result.row.tolist() == [0.5, 0.5]
        assert result.alpha == 0.0

    def test_all_nodes_saturated_by_others(self):
        config = build_config(
            nodes=[NodeParams.from_rate(0.02), NodeParams.from_rate(0.02)],
            schedulers=[SchedulerParams(phi=0.0, lam=0.005),
                        SchedulerParams(phi=0.0, lam=0.03)],
            rho=0.5,
        )
        alloc = Allocation(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(NoFeasibleResponse):
            best_response_row(0, alloc, config)

    def test_row_sums_to_one_with_zeros_outside_active_set(self, table12):
        alloc = Allocation.uniform(table12.n_schedulers, table12.n_nodes)
        result = best_response_row(0, alloc, table12)
        assert result.row.sum() == pytest.approx(1.0, abs=1e-12)
        order = np.argsort(zero_load_marginals(0, alloc, table12),
                           kind="stable")
        inactive = order[result.active_count:]
        assert all(result.row[j] == 0.0 for j in inactive)
        # positive entries reproduce the closed form at the reported alpha
        implied = closed_form_fractions(0, result.alpha, alloc, table12)
        for j in np.nonzero(result.row > 0.0)[0]:
            assert abs(result.row[j] - implied[j]) <= 1e-10


class TestAgainstNumericMinimum:
    @pytest.mark.parametrize("n_nodes", [2, 3, 4])
    def test_matches_grid_refined_minimum(self, n_nodes):
        from relsched import numeric_best_response

        config = preset("table1-table2", n_nodes=n_nodes)
        alloc = Allocation.uniform(config.n_schedulers, n_nodes)
        for i in (0, 6):
            closed = best_response_row(i, alloc, config)
            numeric = numeric_best_response(i, alloc, config)
            assert np.max(np.abs(closed.row - numeric)) < 1e-4
