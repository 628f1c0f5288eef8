"""Numeric-minimiser and traffic-simulation oracles."""

from itertools import combinations

import numpy as np
import pytest

from relsched import (
    Allocation,
    best_response_row,
    nash_check,
    node_arrivals,
    numeric_best_response,
    objective,
    solve,
    traffic_empirical_rates,
)
from relsched.oracle import _simplex_lattice
from relsched.presets import preset


def combinations_lattice(m, levels):
    """The lattice as first enumerated, one cut set at a time: the
    reference order for argmin ties."""
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
        lattice = _simplex_lattice(m, levels)
        expected = combinations_lattice(m, levels)
        assert lattice.shape == expected.shape
        assert lattice.dtype == expected.dtype
        assert lattice.tobytes() == expected.tobytes()

    def test_built_once_and_read_only(self):
        lattice = _simplex_lattice(4, 10)
        assert _simplex_lattice(4, 10) is lattice
        assert not lattice.flags.writeable


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
        # m = 15 skips the lattice seed but must still land on the optimum
        alloc = Allocation.uniform(table12.n_schedulers, table12.n_nodes)
        closed = best_response_row(0, alloc, table12)
        numeric = numeric_best_response(0, alloc, table12)
        assert np.max(np.abs(closed.row - numeric)) < 1e-4


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
        with pytest.raises(ValueError):
            traffic_empirical_rates(even_split, twin_node_config,
                                    horizon=0.0, seed=1)
