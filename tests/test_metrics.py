"""Fairness index and per-node reciprocals."""

import numpy as np
import pytest

from relsched import (
    Allocation,
    EmptyInput,
    NodeParams,
    SchedulerParams,
    ValidationError,
    build_config,
    fairness_index,
    objective,
    objective_all_schedulers,
    per_node_reciprocals,
    solve,
)


class TestFairnessIndex:
    def test_equal_values(self):
        assert fairness_index([5.0, 5.0, 5.0]) == 1.0

    def test_two_unequal_values(self):
        assert fairness_index([1.0, 3.0]) == pytest.approx(16 / 20, rel=1e-12)

    def test_equilibrium_objectives_are_fair(self, table12):
        report = solve(table12)
        values = objective_all_schedulers(report.allocation, table12)
        assert fairness_index(values) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(23)
        values = rng.uniform(0.5, 3.0, size=8)
        for c in (0.1, 2.0, 117.0):
            assert fairness_index(c * values) == pytest.approx(
                fairness_index(values), rel=1e-12
            )

    def test_permutation_invariant(self):
        rng = np.random.default_rng(29)
        values = rng.uniform(0.5, 3.0, size=8)
        shuffled = rng.permutation(values)
        assert fairness_index(shuffled) == pytest.approx(
            fairness_index(values), rel=1e-12
        )

    def test_empty_and_all_zero_raise(self):
        with pytest.raises(EmptyInput):
            fairness_index([])
        with pytest.raises(EmptyInput):
            fairness_index([0.0, 0.0])

    @pytest.mark.parametrize("values,error", [
        ([float("nan"), 1.0], "values[0] must be a finite number >= 0, "
                              "got nan"),
        ([1.0, float("inf")], "values[1] must be a finite number >= 0, "
                              "got inf"),
        ([True, False], "values[0] must be a finite number >= 0, got True"),
        ([1.0, True], "values[1] must be a finite number >= 0, got True"),
        (np.array([True, False]), "values[0] must be a finite number >= 0, "
                                  "got True"),
        (["1", "2"], "values[0] must be a finite number >= 0, got '1'"),
        ([-1.0, 2.0], "values[0] must be a finite number >= 0, got -1.0"),
        ([[1.0, 2.0]], "values must be a nonempty 1-D array, "
                       "got shape (1, 2)"),
        (np.ones((2, 2)), "values must be a nonempty 1-D array, "
                          "got shape (2, 2)"),
    ])
    def test_values_that_are_not_finite_nonnegative_numbers_are_rejected(
            self, values, error):
        # used to return nan, 0.5, 0.9 or 0.1, or to flatten a matrix
        with pytest.raises(ValidationError) as got:
            fairness_index(values)
        assert str(got.value) == error

    @pytest.mark.parametrize("values,index", [
        ([1e-200, 1e-200], 1.0),  # used to raise EmptyInput ("all-zero")
        ([1e200, 1e200], 1.0),  # used to raise a bare OverflowError
        ([5e-324, 1e-323], 0.9),
        ([1e200, 3e200], 0.8),
        ([1e-200, 3e-200], 0.8),
    ])
    def test_extreme_scales_give_the_index(self, values, index):
        assert fairness_index(values) == pytest.approx(index, rel=1e-12)


class TestPerNodeReciprocals:
    def test_zero_load_all_ones(self):
        config = build_config(
            nodes=[NodeParams.from_rate(0.02)] * 3,
            schedulers=[SchedulerParams(phi=0.0, lam=0.0)],
            rho=0.5,
        )
        assert per_node_reciprocals(Allocation.uniform(1, 3), config) == \
            [1.0, 1.0, 1.0]

    def test_canonical_even_split(self, twin_node_config, even_split):
        values = per_node_reciprocals(even_split, twin_node_config)
        assert values == pytest.approx([1.23077, 1.23077], abs=5e-6)

    def test_sum_equals_objective(self, table12):
        alloc = Allocation.uniform(table12.n_schedulers, table12.n_nodes)
        total = sum(per_node_reciprocals(alloc, table12))
        assert total == pytest.approx(objective(alloc, table12), abs=1e-12)
