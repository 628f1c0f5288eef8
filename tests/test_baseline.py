"""Balanced baseline: proportional rows, fixed point, ordering vs the game."""

import numpy as np
import pytest

from relsched import (
    Allocation,
    AllNodesSaturated,
    NodeParams,
    SchedulerParams,
    bsa_solve,
    build_config,
    solve,
)
from relsched.model import others_load_vector
from relsched.presets import preset

from conftest import balanced_row


def bsa_row(alloc, config):
    """Balanced row of scheduler 0 against the other rows of alloc."""
    return balanced_row(0, others_load_vector(0, alloc, config), config.mu)


def unit_weight_node(mu):
    """A node whose load weight is 1, so it can take arrivals beyond its
    processing rate and still have a feasible availability."""
    return NodeParams(mu=mu, mu_prime=0.0, gamma=0.0, beta1=1.0)


class TestBsaRow:
    def test_single_scheduler_proportional_to_rates(self, two_node_config):
        row = bsa_row(Allocation.uniform(1, 2), two_node_config)
        assert row.tolist() == pytest.approx([1 / 3, 2 / 3], rel=1e-12)

    def test_identical_nodes_uniform(self):
        config = build_config(
            nodes=[NodeParams.from_rate(0.02)] * 4,
            schedulers=[SchedulerParams(phi=1.0, lam=0.005)],
            rho=0.5,
        )
        row = bsa_row(Allocation.uniform(1, 4), config)
        assert np.allclose(row, 0.25, atol=1e-15)

    def test_saturated_node_excluded(self):
        config = build_config(
            nodes=[unit_weight_node(0.02), unit_weight_node(0.03)],
            schedulers=[SchedulerParams(phi=0.0, lam=0.001),
                        SchedulerParams(phi=0.0, lam=0.025)],
            rho=0.5,
        )
        # scheduler 1 dumps everything on node 0, overloading it
        alloc = Allocation(np.array([[0.5, 0.5], [1.0, 0.0]]))
        row = bsa_row(alloc, config)
        assert row[0] == 0.0
        assert row[1] == 1.0

    def test_all_nodes_saturated(self):
        config = build_config(
            nodes=[unit_weight_node(0.01), unit_weight_node(0.01)],
            schedulers=[SchedulerParams(phi=0.0, lam=0.001),
                        SchedulerParams(phi=0.0, lam=0.025)],
            rho=0.5,
        )
        alloc = Allocation(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(AllNodesSaturated):
            bsa_row(alloc, config)


class TestBsaSolve:
    def test_single_scheduler_single_pass_equivalent(self, two_node_config):
        iterated = bsa_solve(two_node_config)
        single = bsa_solve(two_node_config, single_pass=True)
        assert np.allclose(iterated.allocation.entries,
                           single.allocation.entries, atol=1e-12)
        assert np.allclose(iterated.allocation.entries[0], [1 / 3, 2 / 3],
                           atol=1e-12)
        # a single pass is returned, not raised, even when its one sweep
        # still changed the objective by more than the threshold
        one_pass = bsa_solve(preset("table1-table2"), single_pass=True)
        assert not one_pass.converged
        assert one_pass.epsilon_trace == (pytest.approx(0.0367823, rel=1e-5),)

    @pytest.mark.parametrize("name", ["table1-table2", "table1-table3"])
    def test_fixed_point_is_rate_proportional(self, name):
        config = preset(name)
        report = bsa_solve(config)
        mu = config.mu
        assert np.max(np.abs(report.allocation.entries - mu / mu.sum())) < 1e-6

    def test_rows_nonnegative_and_normalised(self, table12):
        report = bsa_solve(table12)
        assert (report.allocation.entries >= 0).all()
        assert np.allclose(report.allocation.entries.sum(axis=1), 1.0,
                           atol=1e-9)

    @pytest.mark.parametrize("name,rho", [
        ("table1-table2", 0.3), ("table1-table2", 0.7),
        ("table1-table3", 0.5), ("table4-table5", 0.6),
        ("table6-table7", 0.6),
    ])
    def test_game_never_loses_to_baseline(self, name, rho):
        config = preset(name, rho=rho)
        assert solve(config).objective <= bsa_solve(config).objective + 1e-9

    def test_single_pass_is_keyword_only(self, table12):
        # a truthy second argument must not become a single-pass solve
        with pytest.raises(TypeError):
            bsa_solve(table12, Allocation.uniform(10, 15))

    def test_game_never_loses_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, 4))
            config = build_config(
                nodes=[NodeParams.from_rate(float(mu))
                       for mu in rng.uniform(0.01, 0.06, size=m)],
                schedulers=[SchedulerParams(phi=float(phi))
                            for phi in rng.uniform(0.001, 0.02, size=n)],
                rho=float(rng.uniform(0.1, 0.8)),
            )
            assert solve(config).objective <= \
                bsa_solve(config).objective + 1e-9
