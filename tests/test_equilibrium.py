"""Sweep-loop behaviour: convergence, traces, equilibrium properties."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relsched import (
    Allocation,
    AvailabilityOutOfRange,
    NodeParams,
    NotConverged,
    SchedulerParams,
    best_response_row,
    bsa_solve,
    build_config,
    node_arrivals,
    objective,
    objective_all_schedulers,
    solve,
    validate_config,
)
from relsched.model import _objective_of_loads
from relsched.presets import TABLE1_PHI, TABLE2_MU, preset

from conftest import first_sweep_and_water_fill


def solve_with_order(config, order):
    """Reference sweep loop with a custom scheduler visiting order."""
    n, m = config.n_schedulers, config.n_nodes
    entries = np.full((n, m), 1.0 / m)
    latter = objective(Allocation(entries.copy()), config)
    for _ in range(config.max_cycles):
        former = latter
        for i in order:
            entries[i] = best_response_row(i, Allocation(entries), config).row
        latter = objective(Allocation(entries.copy()), config)
        if abs(former - latter) <= config.epsilon_threshold:
            return Allocation(entries.copy())
    raise AssertionError("did not converge")


class TestSolve:
    def test_single_scheduler_takes_two_cycles(self, two_node_config):
        report = solve(two_node_config)
        assert report.cycles == 2
        assert report.converged
        assert report.allocation.entries[0].tolist() == [0.0, 1.0]

    def test_symmetric_system_stays_uniform(self):
        config = build_config(
            nodes=[NodeParams.from_rate(0.02)] * 3,
            schedulers=[SchedulerParams(phi=0.01)] * 4,
            rho=0.5,
        )
        report = solve(config)
        assert np.allclose(report.allocation.entries, 1.0 / 3, atol=1e-12)

    @pytest.mark.parametrize("name", ["table1-table2", "table1-table3"])
    def test_reference_presets_converge_quickly(self, name):
        report = solve(preset(name))
        assert report.converged
        assert report.cycles <= 5
        assert report.epsilon_trace[-1] <= 1e-6

    def test_report_invariants(self, table12):
        report = solve(table12)
        assert validate_config(report.allocation, table12).all_passed
        assert report.objective == pytest.approx(
            objective(report.allocation, table12), rel=1e-15
        )
        assert len(report.epsilon_trace) == report.cycles
        # Nash property: each row is its own best response
        for i in range(table12.n_schedulers):
            response = best_response_row(i, report.allocation, table12)
            assert np.max(np.abs(response.row
                                 - report.allocation.entries[i])) <= 1e-8

    def test_epsilon_trace_non_increasing(self, table12):
        report = solve(table12)
        for earlier, later in zip(report.epsilon_trace,
                                  report.epsilon_trace[1:]):
            assert later <= earlier + 1e-12

    def test_objective_never_increases_across_sweeps(self, table12):
        n, m = table12.n_schedulers, table12.n_nodes
        entries = np.full((n, m), 1.0 / m)
        values = [objective(Allocation(entries.copy()), table12)]
        for _ in range(6):
            for i in range(n):
                entries[i] = best_response_row(
                    i, Allocation(entries), table12).row
            values.append(objective(Allocation(entries.copy()), table12))
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12

    def test_sweep_order_changes_loads_not_at_all(self, table12):
        forward = solve_with_order(table12, range(table12.n_schedulers))
        backward = solve_with_order(
            table12, reversed(range(table12.n_schedulers))
        )
        lam = table12.lam
        assert np.allclose(node_arrivals(forward, table12),
                           node_arrivals(backward, table12), atol=1e-12)
        assert objective(forward, table12) == pytest.approx(
            objective(backward, table12), abs=1e-9
        )

    @pytest.mark.xfail(
        reason="the equilibrium matrix is not unique for n >= 2: any "
        "nonnegative matrix with row sums 1 and the equilibrium column "
        "loads satisfies every scheduler's optimality condition, and "
        "different sweep orders settle on different row decompositions; "
        "only the induced node loads and the objective are unique",
        strict=True,
    )
    def test_sweep_order_reversal_keeps_rows_identical(self, table12):
        forward = solve_with_order(table12, range(table12.n_schedulers))
        backward = solve_with_order(
            table12, reversed(range(table12.n_schedulers))
        )
        assert np.max(np.abs(forward.entries - backward.entries)) <= 1e-6

    @pytest.mark.parametrize("phi", [1e-8, 1e-10, 1e-12])
    def test_light_scheduler_row_sums_to_one(self, phi):
        """table1-table2 with its last scheduler's weight cut from 0.001 to
        phi, a valid instance.  The closed-form row (h_j -
        sqrt(W_j*lam_i/alpha)) / (W_j*lam_i) cancels for a light
        scheduler, so its sum is off by up to about eps * R_d, which grows
        as 1/lam_i (1.0000000025 at phi 1e-8, beyond the Allocation
        check); the kernel divides such a row by its sum."""
        config = build_config(
            nodes=[NodeParams.from_rate(mu) for mu in TABLE2_MU],
            schedulers=[SchedulerParams(phi=weight)
                        for weight in (*TABLE1_PHI[:-1], phi)],
            rho=0.5,
        )
        report = solve(config)
        assert report.converged
        sums = report.allocation.entries.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-13

    def test_change_equal_to_the_threshold_converges(self):
        # the second sweep changes D by exactly 0, which a threshold of 0
        # accepts: the loop stops at eps <= threshold, not eps < threshold
        report = solve(preset("table1-table2", epsilon_threshold=0.0,
                              max_cycles=3))
        assert report.cycles == 2
        assert report.converged
        assert report.epsilon_trace[-1] == 0.0

    def test_cycle_cap_raises_with_partial_report(self, table12):
        config = preset("table1-table2", max_cycles=1)
        with pytest.raises(NotConverged) as err:
            solve(config)
        partial = err.value.report
        assert partial is not None
        assert not partial.converged
        assert partial.cycles == 1
        assert validate_config(partial.allocation, config).all_passed


class TestIdentityEquality:
    # reports, allocations and best-response results hold ndarrays, so they
    # compare and hash by identity, as SystemConfig does: field equality
    # over an ndarray has no single truth value

    def test_reports_compare_by_identity(self, table12):
        first, second = solve(table12), solve(table12)
        assert first == first
        assert first != second
        assert first.allocation == first.allocation
        assert first.allocation != second.allocation
        assert np.array_equal(first.allocation.entries,
                              second.allocation.entries)

    def test_hashable(self, table12):
        report = solve(table12)
        result = best_response_row(0, report.allocation, table12)
        assert result == result
        assert result != best_response_row(0, report.allocation, table12)
        assert len({report, report.allocation, result, report}) == 3
        assert hash(report.allocation) == hash(report.allocation)


class TestObjectiveAllSchedulers:
    def test_identical_entries(self, table12):
        alloc = Allocation.uniform(table12.n_schedulers, table12.n_nodes)
        values = objective_all_schedulers(alloc, table12)
        assert len(values) == table12.n_schedulers
        assert len(set(values)) == 1

    def test_zero_load_gives_node_count(self):
        config = build_config(
            nodes=[NodeParams.from_rate(0.02)] * 3,
            schedulers=[SchedulerParams(phi=0.0, lam=0.0)] * 2,
            rho=0.5,
        )
        assert objective_all_schedulers(Allocation.uniform(2, 3), config) == \
            [3.0, 3.0]


@st.composite
def instances(draw, feasible=True):
    """1-12 schedulers on 1-15 nodes with processing rates in [0.005, 0.1]
    and the default node fields.  A feasible instance offers 1-95 % of
    what the uniform start can carry, m * min_j 1/W_j, so both solvers
    start inside the feasible set.  An infeasible one offers 1.001-3
    times the whole capacity sum_j 1/W_j, more than any allocation can
    place (the margin keeps rounding from landing the total on the
    feasible side)."""
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=15))
    nodes = [NodeParams.from_rate(mu) for mu in draw(st.lists(
        st.floats(min_value=0.005, max_value=0.1), min_size=m, max_size=m))]
    shares = np.array(draw(st.lists(
        st.floats(min_value=0.1, max_value=1.0), min_size=n, max_size=n)))
    unloaded = build_config(nodes, [SchedulerParams(lam=0.0)] * n, rho=0.5)
    capacity = 1.0 / unloaded.weights
    if feasible:
        total = draw(st.floats(min_value=0.01, max_value=0.95)) * (
            m * capacity.min())
    else:
        total = draw(st.floats(min_value=1.001, max_value=3.0)) * (
            capacity.sum())
    return dataclasses.replace(unloaded, lam=total * shares / shares.sum())


class TestSolverProperties:
    """Both solvers on random instances: the game's loads are optimal (one
    marginal W_j/A_j**2 on every loaded node), the baseline does no better,
    and both place the whole stream."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(instances())
    def test_feasible_instance(self, config):
        game, balanced = solve(config), bsa_solve(config)
        # Where the baseline also reaches the optimum (twin nodes, say),
        # the game's closed-form rows can sit a few ulp off it: 2 nodes
        # gave 4.000000000000002 against 4.0.
        assert game.objective <= balanced.objective * (1.0 + 1e-12)
        total = float(config.lam.sum())
        for report in (game, balanced):
            loads = node_arrivals(report.allocation, config)
            assert abs(float(loads.sum()) - total) <= 1e-9 * total
        weights = config.weights
        loads = node_arrivals(game.allocation, config)
        marginal = (weights / (1.0 - loads * weights) ** 2)[loads > 0.0]
        assert (marginal.max() - marginal.min()) / marginal.min() <= 1e-9

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(instances())
    def test_first_sweep_reaches_the_optimum(self, config):
        # D is flat near the optimum, so its loads are less well
        # conditioned than D itself: hence the looser load tolerance
        loads, fill = first_sweep_and_water_fill(config)
        weights = config.weights
        assert _objective_of_loads(loads, weights) == pytest.approx(
            _objective_of_loads(fill, weights), rel=1e-12)
        assert np.abs(loads - fill).max() <= 1e-9 * fill.max()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(instances(feasible=False))
    def test_infeasible_instance_raises(self, config):
        # The uniform start already overloads the node of least 1/W_j.
        for run in (solve, bsa_solve):
            with pytest.raises(AvailabilityOutOfRange):
                run(config)
