"""Numeric-minimiser and traffic-simulation oracles."""

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relsched import (
    Allocation,
    NodeParams,
    SchedulerParams,
    ValidationError,
    best_response_row,
    build_config,
    nash_check,
    node_arrivals,
    numeric_best_response,
    objective,
    solve,
    traffic_empirical_rates,
)
from relsched.model import others_load_vector
from relsched.presets import preset


def combinations_lattice(m, levels):
    """Every row with entries in multiples of 1/levels, enumerated one cut
    set at a time: a brute-force reference for the descent."""
    points = []
    for cuts in combinations(range(levels + m - 1), m - 1):
        prev = -1
        comp = []
        for c in cuts:
            comp.append(c - prev - 1)
            prev = c
        comp.append(levels + m - 2 - prev)
        points.append(comp)
    return np.array(points, dtype=float) / levels


class TestSimplexLattice:
    @pytest.mark.parametrize("m,levels", [
        (1, 1), (1, 7), (2, 1), (2, 1000), (3, 1), (3, 445), (4, 81),
        (5, 35), (6, 23), (6, 2),
    ])
    def test_matches_combinations_enumeration(self, m, levels):
        # on unequal nodes that can each take the whole rate, the descent
        # must match or beat every point of an exhaustive simplex lattice
        # of up to ~1e5 rows
        lattice = combinations_lattice(m, levels)
        assert lattice.shape == (comb(levels + m - 1, m - 1), m)
        assert np.allclose(lattice.sum(axis=1), 1.0)
        mus = [0.02, 0.04, 0.03, 0.015, 0.035, 0.025][:m]
        config = single_scheduler(mus, 0.009)
        alloc = Allocation.uniform(1, m)
        lam_i = config.schedulers[0].lam
        avail = 1.0 - ((others_load_vector(0, alloc, config)
                        + lam_i * lattice) * config.weights)
        assert ((avail > 0.0) & (avail <= 1.0)).all()
        best = np.sum(1.0 / avail, axis=1).min()
        numeric = numeric_best_response(0, alloc, config)
        assert numeric.shape == (m,)
        assert objective(alloc.replace_row(0, numeric), config) <= best + 1e-9


class TestNumericBestResponse:
    def test_symmetric_split(self, twin_node_config):
        alloc = Allocation(np.array([[0.9, 0.1]]))
        row = numeric_best_response(0, alloc, twin_node_config)
        assert np.max(np.abs(row - 0.5)) < 1e-4

    def test_concentrates_on_fast_node(self, two_node_config, even_split):
        row = numeric_best_response(0, even_split, two_node_config)
        assert np.max(np.abs(row - np.array([0.0, 1.0]))) < 1e-4

    @pytest.mark.parametrize("n_nodes", [3, 4, 5])
    def test_never_beats_closed_form_by_more_than_noise(self, n_nodes):
        config = preset("table1-table2", n_nodes=n_nodes)
        alloc = Allocation.uniform(config.n_schedulers, n_nodes)
        for i in (0, 3):
            closed = best_response_row(i, alloc, config)
            numeric = numeric_best_response(i, alloc, config)
            closed_val = objective(alloc.replace_row(i, closed.row), config)
            numeric_val = objective(alloc.replace_row(i, numeric), config)
            assert numeric_val >= closed_val - 1e-6

    def test_descent_path_used_beyond_grid_limit(self, table12):
        # no node count takes a lattice seed any more; the full 15 nodes,
        # beyond the old grid limit, must still descend to the optimum
        alloc = Allocation.uniform(table12.n_schedulers, table12.n_nodes)
        closed = best_response_row(0, alloc, table12)
        numeric = numeric_best_response(0, alloc, table12)
        assert np.max(np.abs(closed.row - numeric)) < 1e-4


def single_scheduler(mus, lam):
    return build_config(nodes=[NodeParams.from_rate(mu) for mu in mus],
                        schedulers=[SchedulerParams(phi=1.0, lam=lam)],
                        rho=0.5)


SLOW_NODES = {
    2: ([0.1], [0.01], 0.03),
    4: ([0.1] * 2, [0.01] * 2, 0.1),
    8: ([0.2] * 6, [0.01] * 2, 0.3),
}


@pytest.mark.parametrize("slow", ["first", "last"])
@pytest.mark.parametrize("m", sorted(SLOW_NODES))
def test_uniform_infeasible_row(m, slow):
    # the uniform row overloads the slow nodes, so the descent starts from
    # the residual-capacity row and every line search stays feasible
    fast, slow_mus, lam = SLOW_NODES[m]
    config = single_scheduler(
        slow_mus + fast if slow == "first" else fast + slow_mus, lam)
    uniform = Allocation.uniform(1, m)
    closed = best_response_row(0, uniform, config).row
    numeric = numeric_best_response(0, uniform, config)
    assert np.max(np.abs(closed - numeric)) < 1e-4
    ok, worst = nash_check(Allocation(closed.reshape(1, -1)), config,
                           tolerance=1e-6)
    assert ok
    assert worst <= 1e-6


@st.composite
def feasible_rows(draw):
    """A single row's problem: load weights W, the others' loads o below
    each node's capacity 1/W, and a rate below the total residual
    capacity sum(1/W - o), as a config whose scheduler 0 owns the row and
    whose scheduler k + 1 puts o_k on node k."""
    m = draw(st.integers(min_value=2, max_value=12))
    unit = st.floats(min_value=0.0, max_value=1.0)
    weights = np.array([10.0 ** draw(st.floats(min_value=-1.0, max_value=2.0))
                        for _ in range(m)])
    others = np.array([0.95 * draw(unit) for _ in range(m)]) / weights
    spare = (1.0 / weights - others).sum()
    lam_i = spare * draw(st.floats(min_value=0.01, max_value=0.95))
    config = build_config(
        nodes=[NodeParams(mu=1.0, mu_prime=0.0, gamma=0.0, beta1=w)
               for w in weights],
        schedulers=[SchedulerParams(lam=lam_i)]
        + [SchedulerParams(lam=o) for o in others],
        rho=0.5,
    )
    return config, Allocation(np.vstack([np.full(m, 1.0 / m), np.eye(m)]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(feasible_rows())
def test_numeric_row_matches_closed_form(problem):
    config, alloc = problem
    closed = best_response_row(0, alloc, config).row
    numeric = numeric_best_response(0, alloc, config)
    assert np.max(np.abs(closed - numeric)) < 1e-4
    closed_val = objective(alloc.replace_row(0, closed), config)
    numeric_val = objective(alloc.replace_row(0, numeric), config)
    assert numeric_val >= closed_val - 1e-9


@pytest.mark.parametrize("name", ["table1-table2", "table1-table3"])
def test_full_preset_equilibrium_matches_closed_form(name):
    # m = 15 takes the descent path; the criterion-6 tolerances apply
    config = preset(name)
    alloc = solve(config).allocation
    for i in range(config.n_schedulers):
        closed = best_response_row(i, alloc, config)
        numeric = numeric_best_response(i, alloc, config)
        assert np.max(np.abs(closed.row - numeric)) < 1e-4
    ok, worst = nash_check(alloc, config, tolerance=1e-6)
    assert ok
    assert worst <= 1e-6


class TestNashCheck:
    def test_equilibrium_passes(self):
        config = preset("table1-table2", n_nodes=4)
        report = solve(config)
        ok, worst = nash_check(report.allocation, config, tolerance=1e-6)
        assert ok
        assert worst <= 1e-6

    def test_uniform_on_asymmetric_nodes_fails(self, two_node_config,
                                               even_split):
        ok, worst = nash_check(even_split, two_node_config, tolerance=1e-6)
        assert not ok
        assert worst == pytest.approx(0.1034, abs=5e-4)

    def test_single_player_best_response_passes(self, two_node_config):
        result = best_response_row(
            0, Allocation.uniform(1, 2), two_node_config
        )
        alloc = Allocation(result.row.reshape(1, -1))
        ok, worst = nash_check(alloc, two_node_config, tolerance=1e-6)
        assert ok

    @pytest.mark.parametrize("tolerance", [np.nan, -1.0])
    def test_rejects_bad_tolerance(self, two_node_config, even_split,
                                   tolerance):
        # a NaN tolerance used to make every check FAIL without a word
        with pytest.raises(ValidationError, match="tolerance"):
            nash_check(even_split, two_node_config, tolerance=tolerance)


class TestTrafficEmpiricalRates:
    def test_all_mass_on_one_node(self, two_node_config):
        alloc = Allocation(np.array([[1.0, 0.0]]))
        rates = traffic_empirical_rates(alloc, two_node_config,
                                        horizon=1e6, seed=42)
        assert rates[1] == 0.0
        sigma = np.sqrt(0.005 / 1e6)
        assert abs(rates[0] - 0.005) <= 3 * sigma

    def test_even_split_within_three_sigma(self, twin_node_config,
                                           even_split):
        horizon = 1e7
        rates = traffic_empirical_rates(even_split, twin_node_config,
                                        horizon=horizon, seed=7)
        sigma = np.sqrt(0.0025 / horizon)
        assert np.all(np.abs(rates - 0.0025) <= 3 * sigma)

    def test_equilibrium_loads_reproduced(self, table12):
        report = solve(table12)
        expected = node_arrivals(report.allocation, table12)
        horizon = 1e7
        rates = traffic_empirical_rates(report.allocation, table12,
                                        horizon=horizon, seed=3)
        sigma = np.sqrt(expected / horizon)
        assert np.all(np.abs(rates - expected) <= 3 * sigma + 1e-15)

    def test_seeded_runs_bit_reproducible(self, table12):
        alloc = Allocation.uniform(table12.n_schedulers, table12.n_nodes)
        first = traffic_empirical_rates(alloc, table12, horizon=1e5, seed=11)
        second = traffic_empirical_rates(alloc, table12, horizon=1e5, seed=11)
        assert np.array_equal(first, second)

    def test_variance_shrinks_with_horizon(self, twin_node_config,
                                           even_split):
        horizons = (4e5, 8e5, 1.6e6)
        variances = []
        for horizon in horizons:
            errors = [
                traffic_empirical_rates(even_split, twin_node_config,
                                        horizon=horizon, seed=seed)[0]
                - 0.0025
                for seed in range(60)
            ]
            variances.append(np.var(errors))
        # doubling the horizon should roughly halve the variance
        for shorter, longer in zip(variances, variances[1:]):
            ratio = shorter / longer
            assert 1.0 <= ratio <= 4.0

    def test_rejects_nonpositive_horizon(self, twin_node_config, even_split):
        # the rule oracle-check applies before it solves: a typed error for
        # a horizon that is not positive and finite (an int beyond float
        # range too), or a seed that is not an integer >= 0; a boolean is
        # not taken as 1, nor a string parsed
        for horizon, seed in ((0.0, 1), (-1.0, 1), (np.nan, 1), (np.inf, 1),
                              (True, 1), ("1e6", 1), (10**400, 1), (1e5, -1),
                              (1e5, True), (1e5, 1.5), (1e5, "x")):
            with pytest.raises(ValidationError):
                traffic_empirical_rates(even_split, twin_node_config,
                                        horizon=horizon, seed=seed)
