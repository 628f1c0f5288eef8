"""Formula-level tests: frozen hand-computed values plus model invariants."""

import dataclasses
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from relsched import (
    Allocation,
    AvailabilityOutOfRange,
    NodeParams,
    SchedulerParams,
    SystemConfig,
    ValidationError,
    best_response_row,
    bsa_solve,
    build_config,
    nash_check,
    node_arrivals,
    numeric_best_response,
    objective,
    objective_all_schedulers,
    objective_curvature,
    objective_marginal,
    per_node_reciprocals,
    solve,
    traffic_empirical_rates,
    validate_config,
)
from relsched.cli import load_config
from relsched.model import _availability, _checked
from relsched.presets import (
    _PRESETS,
    PRESET_NAMES,
    TABLE1_PHI,
    TABLE2_MU,
    preset,
)

from conftest import best_row, feasible_random_allocation

GOLDEN = Path(__file__).parent / "golden"


class TestNodeParams:
    def test_defaults_make_failure_retrial_product_half(self):
        node = NodeParams.from_rate(0.02)
        assert node.mu_prime == 0.02 / 10
        assert node.gamma == 5 / 0.02
        assert node.mu_prime * node.gamma == 0.5
        assert node.beta1 == 1 / 0.02

    def test_load_weight(self):
        assert weights_of(NodeParams.from_rate(0.02),
                          NodeParams.from_rate(0.04)) == [75.0, 37.5]

    def test_overrides_kept(self):
        node = NodeParams.from_rate(0.02, beta1=10.0, mu_prime=0.001, gamma=2.0)
        assert node.beta1 == 10.0
        assert weights_of(node) == [(1 + 0.002) * 10.0]

    @pytest.mark.parametrize("kwargs", [
        dict(mu=0.0, mu_prime=0.0, gamma=0.0, beta1=1.0),
        dict(mu=0.02, mu_prime=-1.0, gamma=0.0, beta1=1.0),
        dict(mu=0.02, mu_prime=0.0, gamma=-1.0, beta1=1.0),
        dict(mu=0.02, mu_prime=0.0, gamma=0.0, beta1=0.0),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValidationError):
            NodeParams(**kwargs)

    GOOD_NODE = dict(mu=0.02, mu_prime=0.002, gamma=250.0, beta1=50.0)
    GOOD_SCHEDULER = dict(phi=0.01, lam=0.004)

    # a boolean, a string or an int beyond float range (which compares
    # below inf) is rejected like a non-finite number, with a
    # ValidationError naming the field rather than a TypeError
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True, "0.02",
                                       10**400])
    @pytest.mark.parametrize("cls,name", [
        *((NodeParams, name) for name in GOOD_NODE),
        *((SchedulerParams, name) for name in GOOD_SCHEDULER),
    ])
    def test_rejects_non_finite_fields(self, cls, name, value):
        good = self.GOOD_NODE if cls is NodeParams else self.GOOD_SCHEDULER
        with pytest.raises(ValidationError, match=name):
            cls(**dict(good, **{name: value}))

    def test_largest_float_is_a_number(self):
        # the bound is the largest finite float itself; only an int beyond
        # it (10**400 above) is no float
        assert _checked("mu", sys.float_info.max) == sys.float_info.max

    @pytest.mark.parametrize("value", [np.nan, np.inf, "0.02", True, 10**400])
    @pytest.mark.parametrize("name", ["mu", "mu_prime", "gamma", "beta1"])
    def test_from_rate_rejects_non_finite(self, name, value):
        # mu is checked before the defaults mu/10, 5/mu and 1/mu are formed
        # (10**400 / 10.0 raised a bare OverflowError)
        kwargs = {"mu": 0.02, name: value}
        with pytest.raises(ValidationError, match=f"^{name} "):
            NodeParams.from_rate(kwargs.pop("mu"), **kwargs)


def weights_of(*nodes):
    """The load weights W_j of an instance of the given nodes."""
    config = build_config(nodes, [SchedulerParams(lam=0.0)], 0.5)
    return config.weights.tolist()


class TestAllocation:
    def test_rows_must_hit_simplex(self):
        with pytest.raises(ValidationError):
            Allocation(np.array([[0.6, 0.6]]))
        with pytest.raises(ValidationError):
            Allocation(np.array([[1.5, -0.5]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, value):
        with pytest.raises(ValidationError):
            Allocation(np.array([[value, 1.0]]))

    def test_row_sum_tolerance(self):
        Allocation(np.array([[0.5, 0.5 + 5e-10]]))
        with pytest.raises(ValidationError):
            Allocation(np.array([[0.5, 0.5 + 5e-9]]))

    def test_rejects_one_dimensional_array(self):
        with pytest.raises(ValidationError, match="2-D"):
            Allocation(np.array([0.5, 0.5]))

    def test_entries_read_only(self):
        alloc = Allocation.uniform(2, 3)
        with pytest.raises(ValueError):
            alloc.entries[0, 0] = 1.0

    def test_replace_row(self):
        alloc = Allocation.uniform(2, 2)
        new = alloc.replace_row(0, [0.25, 0.75])
        assert new.entries[0].tolist() == [0.25, 0.75]
        assert alloc.entries[0].tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("rows, message", [
        ([[1.5, -0.5]], "allocation entry (0, 1) is -0.5, expected a finite "
                        "number >= 0"),
        ([[0.5, 0.5], [0.5, np.nan]], "allocation entry (1, 1) is nan, "
                                      "expected a finite number >= 0"),
        ([[-np.inf, 1.0]], "allocation entry (0, 0) is -inf, expected a "
                           "finite number >= 0"),
        ([[np.inf, 1.0]], "allocation row 0 sums to inf, expected 1"),
        ([[0.5, 0.5], [0.6, 0.6]], "allocation row 1 sums to "
                                   f"{0.6 + 0.6!r}, expected 1"),
        ([0.5, 0.5], "allocation must be a 2-D matrix"),
    ])
    def test_rejection_messages(self, rows, message):
        array = np.array(rows)
        array.setflags(write=False)  # kept uncopied, checked all the same
        for given in (rows, array):
            with pytest.raises(ValidationError) as got:
                Allocation(given)
            assert str(got.value) == message


class TestAllocationCopies:
    """A read-only float64 array that owns its data is kept as given;
    every other input is copied, so changing it later changes nothing."""

    @staticmethod
    def halves():
        return np.full((2, 2), 0.5)

    def test_writable_array_is_copied(self):
        array = self.halves()
        alloc = Allocation(array)
        array[0] = [1.0, 0.0]
        assert alloc.entries is not array
        assert alloc.entries.tolist() == [[0.5, 0.5], [0.5, 0.5]]
        assert not alloc.entries.flags.writeable

    def test_read_only_owned_array_is_kept(self):
        array = self.halves()
        array.setflags(write=False)
        assert Allocation(array).entries is array

    def test_read_only_view_is_copied(self):
        owner = np.full((3, 2), 0.5)
        view = owner[:2]
        view.setflags(write=False)
        alloc = Allocation(view)
        owner[0] = [1.0, 0.0]
        assert alloc.entries is not view
        assert alloc.entries.base is None
        assert alloc.entries.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_float32_array_is_copied(self):
        array = self.halves().astype(np.float32)
        array.setflags(write=False)
        alloc = Allocation(array)
        assert alloc.entries is not array
        assert alloc.entries.dtype == np.float64

    def test_list_is_copied(self):
        rows = [[0.5, 0.5], [0.25, 0.75]]
        alloc = Allocation(rows)
        rows[0][0] = 1.0
        assert alloc.entries.tolist() == [[0.5, 0.5], [0.25, 0.75]]
        assert not alloc.entries.flags.writeable

    def test_uniform_and_replace_row_hand_over_their_matrix(self):
        alloc = Allocation.uniform(2, 2)
        new = alloc.replace_row(1, [0.25, 0.75])
        for entries in (alloc.entries, new.entries):
            assert entries.base is None and not entries.flags.writeable
        assert Allocation(new.entries).entries is new.entries


class TestCountsAndIndices:
    """A count is a whole number >= 1 and an index an integer from 0 to
    size - 1; anything else, a boolean included, is a ValidationError
    naming it, never a wrapped negative index or a numpy IndexError."""

    @pytest.mark.parametrize("counts, name", [
        ((2, 0), "n_nodes"), ((0, 3), "n_schedulers"),
        ((True, 3), "n_schedulers"), ((2, False), "n_nodes"),
        ((2.0, 3), "n_schedulers"), ((2, -1), "n_nodes"),
        (("2", 3), "n_schedulers"),
    ])
    def test_uniform_rejects_bad_counts(self, counts, name):
        with pytest.raises(ValidationError, match=f"^{name} must be an "
                                                  "integer >= 1"):
            Allocation.uniform(*counts)

    def test_uniform_takes_numpy_integers(self):
        alloc = Allocation.uniform(np.int64(2), np.int32(4))
        assert alloc.entries.shape == (2, 4)

    CALLS = {
        "replace_row": lambda i, alloc, config: alloc.replace_row(
            i, alloc.entries[0]).entries,
        "best_response_row": lambda i, alloc, config: best_response_row(
            i, alloc, config).row,
        "numeric_best_response": lambda i, alloc, config:
            numeric_best_response(i, alloc, config),
    }

    @pytest.mark.parametrize("i", [-1, 10, True, 1.0, "1", None])
    @pytest.mark.parametrize("call", CALLS)
    def test_scheduler_index_is_checked(self, table12, call, i):
        alloc = Allocation.uniform(table12.n_schedulers, table12.n_nodes)
        with pytest.raises(ValidationError,
                           match=r"^i must be an integer from 0 to 9, got "):
            self.CALLS[call](i, alloc, table12)

    @pytest.mark.parametrize("call", CALLS)
    def test_last_scheduler_and_numpy_integers_pass(self, table12, call):
        alloc = Allocation.uniform(table12.n_schedulers, table12.n_nodes)
        assert np.array_equal(self.CALLS[call](9, alloc, table12),
                              self.CALLS[call](np.int64(9), alloc, table12))


class TestAllocationShape:
    """Every public function that reads an allocation against a config
    rejects one that is not n x m, naming both shapes, where numpy used to
    raise a bare ValueError or the traffic oracle returned rates."""

    CALLS = {
        "node_arrivals": node_arrivals,
        "objective": objective,
        "objective_all_schedulers": objective_all_schedulers,
        "per_node_reciprocals": per_node_reciprocals,
        "validate_config": validate_config,
        "nash_check": nash_check,
        "best_response_row": lambda alloc, config: best_response_row(
            0, alloc, config),
        "numeric_best_response": lambda alloc, config: numeric_best_response(
            0, alloc, config),
        "objective_marginal": objective_marginal,
        "objective_curvature": objective_curvature,
        "traffic_empirical_rates": lambda alloc, config:
            traffic_empirical_rates(alloc, config, 10.0, 0),
    }

    @pytest.mark.parametrize("shape", [(2, 3), (10, 4), (15, 10)])
    @pytest.mark.parametrize("call", CALLS)
    def test_wrong_shape_is_rejected(self, table12, call, shape):
        with pytest.raises(ValidationError) as got:
            self.CALLS[call](Allocation.uniform(*shape), table12)
        assert str(got.value) == (f"allocation has shape {shape}, "
                                  "expected (10, 15)")

    @pytest.mark.parametrize("call", ["node_arrivals", "objective",
                                      "validate_config", "objective_marginal"])
    def test_raw_matrix_of_wrong_shape_is_rejected(self, table12, call):
        with pytest.raises(ValidationError, match=re.escape(
                "allocation has shape (15,), expected (10, 15)")):
            self.CALLS[call](np.full(15, 0.1), table12)


class TestAllocationBoundary:
    """nash_check and the traffic oracle read a raw matrix as an
    Allocation, so one that is not an allocation is the ValidationError
    naming its entry or row.  nash_check used to pass a zero row, and the
    traffic oracle raised numpy's bare ValueError or renormalised a row
    summing to 1.4."""

    CALLS = {
        "nash_check": nash_check,
        "traffic_empirical_rates": lambda alloc, config:
            traffic_empirical_rates(alloc, config, 10.0, 0),
    }

    @pytest.mark.parametrize("matrix,error", [
        ([[-0.5, 1.5]], "allocation entry (0, 0) is -0.5, expected a finite "
                        "number >= 0"),
        ([[0.0, 0.0]], "allocation row 0 sums to 0.0, expected 1"),
        ([[0.7, 0.7]], "allocation row 0 sums to 1.4, expected 1"),
    ])
    @pytest.mark.parametrize("call", CALLS)
    def test_raw_matrix_that_is_not_an_allocation_is_rejected(
            self, two_node_config, call, matrix, error):
        with pytest.raises(ValidationError) as got:
            self.CALLS[call](np.array(matrix), two_node_config)
        assert str(got.value) == error


class TestDeriveLambdas:
    """A missing rate is derived as lam_i = phi_i * rho * sum_j mu_j, by
    build_config from records and by preset from a preset's source."""

    def test_zero_weight_gives_zero_rate(self):
        nodes = [NodeParams.from_rate(0.02)]
        scheds = [SchedulerParams(phi=0.0), SchedulerParams(phi=0.5)]
        lams = build_config(nodes, scheds, 0.5).lam
        assert lams[0] == 0.0

    def test_first_scheduler_of_reference_workload(self):
        nodes = [NodeParams.from_rate(mu) for mu in TABLE2_MU]
        total_mu = sum(TABLE2_MU)
        assert total_mu == pytest.approx(0.35051, abs=1e-12)
        for lams in (
                build_config(nodes, [SchedulerParams(phi=TABLE1_PHI[0])],
                             0.5).lam,
                preset("table1-table2").lam):
            assert lams[0] == pytest.approx(0.0035 * 0.5 * 0.35051,
                                            rel=1e-12)
            assert lams[0] == pytest.approx(6.134e-4, rel=1e-3)

    def test_single_node_direct_value(self):
        lams = build_config(
            [NodeParams.from_rate(0.02)], [SchedulerParams(phi=1.0)], 0.5
        ).lam
        assert lams[0] == pytest.approx(0.01, rel=1e-12)

    def test_node_rates_summed_left_to_right(self):
        # sum(mu) runs left to right: numpy's pairwise sum of the first 10
        # rates of table 2 is 0.239, one ulp below the running sum
        lams = preset("table1-table2", n_nodes=10).lam.tolist()
        assert lams == [phi * 0.5 * sum(TABLE2_MU[:10]) for phi in TABLE1_PHI]

    @pytest.mark.parametrize("rho", [0.0, 1.0, 1.5, -0.1])
    def test_rejects_rho_outside_unit_interval(self, rho):
        # rho is checked even where no rate is derived from it
        for scheduler in (SchedulerParams(phi=1.0),
                          SchedulerParams(phi=1.0, lam=0.001)):
            with pytest.raises(ValidationError, match="^rho "):
                build_config([NodeParams.from_rate(0.02)], [scheduler], rho)
        with pytest.raises(ValidationError, match="^rho "):
            preset("table1-table2", rho=rho)


class TestSystemConfig:
    @pytest.mark.parametrize("epsilon", [-1.0, -1e-300, float("nan")])
    def test_rejects_bad_epsilon_threshold(self, epsilon):
        # a negative threshold can never be met, so every solve would run
        # max_cycles sweeps and raise NotConverged
        with pytest.raises(ValidationError, match="epsilon_threshold"):
            preset("table1-table2", epsilon_threshold=epsilon)

    @pytest.mark.parametrize("field,good,bad", [
        ("rho", 0.5, 1.0),
        ("rho", 0.5, "0.5"),
        ("epsilon_threshold", 0.0, float("nan")),
        ("epsilon_threshold", 0.0, float("inf")),
        ("epsilon_threshold", 0.0, True),
        ("epsilon_threshold", 0.0, "x"),
        ("epsilon_threshold", 0.0, 10**400),
        ("max_cycles", 1, 0),
        ("max_cycles", 10**400, 0),  # an integer row takes any int
        ("max_cycles", 1, 2.5),
        ("max_cycles", 1, True),
    ])
    def test_each_setting_rule_is_the_configs(self, table12, field, good,
                                              bad):
        # the CLI checks a setting every sweep point shares by the same
        # row of the rule table SystemConfig uses, so the two cannot drift
        # apart; a string or a boolean is a ValidationError, not a
        # TypeError or a 1
        assert _checked(field, good) == good
        assert dataclasses.replace(table12, **{field: good})
        for reject in (lambda: _checked(field, bad),
                       lambda: dataclasses.replace(table12, **{field: bad})):
            with pytest.raises(ValidationError, match=field):
                reject()

    def test_zero_epsilon_threshold_allowed(self):
        assert preset("table1-table2", epsilon_threshold=0.0
                      ).epsilon_threshold == 0.0

    def test_rate_arrays_are_read_only_per_record_values(self, table12):
        source = _PRESETS["table1-table2"]
        values = {name: source[name].tolist() for name in FIELDS}
        # a preset gives no rate, so every rate is derived at its own rho
        assert all(map(np.isnan, values["lam"]))
        total_mu = sum(values["mu"])
        arrays = {
            "lam": [phi * source["rho"] * total_mu for phi in values["phi"]],
            "phi": values["phi"],
            **{name: values[name] for name in NODE_FIELDS},
            "weights": [(1.0 + mu_prime * gamma) * beta1 for mu_prime, gamma,
                        beta1 in zip(values["mu_prime"], values["gamma"],
                                     values["beta1"])],
        }
        for name in FIELDS:  # the source is shared by every instance
            with pytest.raises(ValueError, match="read-only"):
                source[name][0] = 0.0
        for name, expected in arrays.items():
            array = getattr(table12, name)
            assert array.dtype == float
            assert array.tolist() == expected
            assert getattr(table12, name) is array
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_rate_arrays_follow_replace(self, table12):
        cut = {name: getattr(table12, name)[:3] for name in NODE_FIELDS}
        changed = dataclasses.replace(table12, **cut, phi=[0.0, 0.0],
                                      lam=[0.001, 0.002])
        assert changed.lam.tolist() == [0.001, 0.002]
        assert changed.mu.tolist() == table12.mu[:3].tolist()
        assert changed.weights.tolist() == table12.weights[:3].tolist()
        assert not changed.weights.flags.writeable

    def test_replace_rederives_weights(self, table12):
        changed = dataclasses.replace(table12, beta1=2.0 * table12.beta1)
        assert changed.weights.tolist() == (2.0 * table12.weights).tolist()
        assert table12.weights.tolist() == preset("table1-table2"
                                                  ).weights.tolist()


NODE_FIELDS = ("mu", "mu_prime", "gamma", "beta1")
FIELDS = (*NODE_FIELDS, "phi", "lam")
# An entry just outside each field's bound.
BELOW = {"mu": 0.0, "mu_prime": -1e-300, "gamma": -1.0, "beta1": 0.0,
         "phi": -0.5, "lam": -1e-9}


def array_fields(n_schedulers=4, n_nodes=5):
    """Valid array fields of a small instance with default node fields."""
    mu = np.linspace(0.02, 0.04, n_nodes)
    return dict(mu=mu, mu_prime=mu / 10.0, gamma=5.0 / mu, beta1=1.0 / mu,
                phi=np.full(n_schedulers, 0.1),
                lam=np.full(n_schedulers, 0.001))


class TestArrayBoundary:
    """SystemConfig built straight from arrays: every entry of every field
    is checked, and a rejection names the field and the first bad index."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "below"])
    @pytest.mark.parametrize("name", FIELDS)
    def test_bad_entry_named_with_index(self, name, bad):
        fields = array_fields()
        values = np.array(fields[name])
        values[3] = BELOW[name] if bad == "below" else bad
        with pytest.raises(ValidationError, match=rf"^{name}\[3\] "):
            SystemConfig(**dict(fields, **{name: values}), rho=0.5)

    @pytest.mark.parametrize("kind,index", [
        ("bool", 0), ("str", 0), ("object", 3), ("object-bool", 3),
        ("object-huge", 3), ("list-bool", 1), ("list-str", 1),
    ])
    @pytest.mark.parametrize("name", FIELDS)
    def test_non_number_array_named_with_index(self, name, kind, index):
        # a plain list is checked entry by entry as given: numpy used to
        # turn [0.02, True] into [0.02, 1.0], and [0.02, "x"] into strings
        # reported at index 0
        fields = array_fields()
        good = fields[name]
        first, *rest = good.tolist()
        values = {
            "list-bool": [first, True, *rest[1:]],
            "list-str": [first, "x", *rest[1:]],
            "bool": np.ones(good.size, dtype=bool),
            "str": good.astype(str),
            "object": np.array([*good[:3], object(), *good[4:]], dtype=object),
            "object-bool": np.array([*good[:3], True, *good[4:]],
                                    dtype=object),
            "object-huge": np.array([*good[:3], 10**400, *good[4:]],
                                    dtype=object),
        }[kind]
        with pytest.raises(ValidationError, match=rf"^{name}\[{index}\] "):
            SystemConfig(**dict(fields, **{name: values}), rho=0.5)

    @pytest.mark.parametrize("name", FIELDS)
    def test_unequal_lengths_rejected(self, name):
        fields = array_fields()
        with pytest.raises(ValidationError, match="differ in length"):
            SystemConfig(**dict(fields, **{name: fields[name][:-1]}),
                         rho=0.5)

    @pytest.mark.parametrize("shape", ["empty", "2-D", "scalar"])
    @pytest.mark.parametrize("name", FIELDS)
    def test_empty_scalar_or_2d_field_rejected(self, name, shape):
        fields = array_fields()
        value = {"empty": np.empty(0), "2-D": fields[name].reshape(1, -1),
                 "scalar": fields[name][0]}[shape]
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            SystemConfig(**dict(fields, **{name: value}), rho=0.5)

    def test_arrays_are_read_only_copies(self):
        fields = array_fields()
        config = SystemConfig(**fields, rho=0.5)
        fields["mu"][0] = 1.0  # the caller's array is not the config's
        assert config.mu[0] == 0.02
        for name in (*FIELDS, "weights"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(config, name)[0] = 0.0

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_records_round_trip_byte_for_byte(self, name):
        config = preset(name)
        again = build_config(config.nodes, config.schedulers, config.rho)
        for field in (*FIELDS, "weights"):
            assert getattr(again, field).tobytes() == \
                getattr(config, field).tobytes()

    def test_scale_instance_from_arrays(self):
        # n = m = 1e5 at 50 % utilisation: phi sums to 2/3 and W = 1.5/mu
        rng = np.random.default_rng(5)
        size = 100_000
        mu = rng.uniform(0.01, 0.06, size)
        phi = rng.uniform(0.5, 1.5, size)
        phi *= (2.0 / 3.0) / phi.sum()
        config = SystemConfig(mu=mu, mu_prime=mu / 10.0, gamma=5.0 / mu,
                              beta1=1.0 / mu, phi=phi,
                              lam=phi * 0.5 * mu.sum(), rho=0.5)
        assert config.n_nodes == config.n_schedulers == size
        for j in rng.integers(size, size=100).tolist():
            node = (config.mu_prime[j], config.gamma[j], config.beta1[j])
            mu_prime, gamma, beta1 = map(float, node)
            assert config.weights[j] == (1.0 + mu_prime * gamma) * beta1
        row, _, _ = best_row(0, float(config.lam.sum()), np.zeros(size),
                             config.weights)
        assert (row >= 0.0).all()
        assert abs(row.sum() - 1.0) <= 1e-9


def with_rates(config, lambdas):
    """The config's nodes with schedulers at the given direct rates."""
    return build_config(
        nodes=config.nodes,
        schedulers=[SchedulerParams(lam=lam) for lam in lambdas],
        rho=config.rho,
    )


class TestAggregateArrival:
    def test_half_of_single_stream(self, two_node_config, even_split):
        assert node_arrivals(even_split, two_node_config)[0] == 0.0025

    def test_two_streams_hand_sum(self, two_node_config):
        alloc = Allocation(np.array([[0.25, 0.75], [0.5, 0.5]]))
        config = with_rates(two_node_config, [0.004, 0.006])
        assert node_arrivals(alloc, config)[0] == pytest.approx(
            0.001 + 0.003, rel=1e-12
        )

    def test_zero_column(self, two_node_config):
        alloc = Allocation(np.array([[0.0, 1.0]]))
        assert node_arrivals(alloc, two_node_config)[0] == 0.0

    def test_linearity_in_rates(self, table12):
        rng = np.random.default_rng(7)
        alloc = feasible_random_allocation(rng, table12)
        lam = table12.lam
        single = node_arrivals(alloc, table12)
        double = node_arrivals(alloc, with_rates(table12, 2.0 * lam))
        assert double == pytest.approx(2.0 * single, rel=1e-12)


def availabilities(alloc, config):
    """Every node's availability at the allocation's loads."""
    return _availability(node_arrivals(alloc, config), config.weights)


class TestAvailability:
    def test_canonical_half_load(self, two_node_config, even_split):
        assert availabilities(even_split, two_node_config)[0] == 0.8125

    def test_unloaded_node(self, two_node_config):
        alloc = Allocation(np.array([[0.0, 1.0]]))
        assert availabilities(alloc, two_node_config)[0] == 1.0

    def test_overload_raises_instead_of_clamping(self):
        config = build_config(
            nodes=[NodeParams.from_rate(0.02)],
            schedulers=[SchedulerParams(phi=1.0, lam=0.02)],
            rho=0.5,
        )
        alloc = Allocation(np.array([[1.0]]))
        with pytest.raises(AvailabilityOutOfRange) as err:
            availabilities(alloc, config)
        assert err.value.value == pytest.approx(-0.5, rel=1e-12)

    def test_first_failing_node_named(self):
        # W = 3 on both nodes: node 0 at A = 0, node 1 at A = -2; the zero
        # is the first node outside (0, 1], so it is the one named
        config = build_config(
            nodes=[NodeParams.from_rate(0.5)] * 2,
            schedulers=[SchedulerParams(lam=1 / 3), SchedulerParams(lam=1)],
            rho=0.5,
        )
        with pytest.raises(AvailabilityOutOfRange) as err:
            availabilities(np.eye(2), config)
        assert (err.value.node, err.value.value) == (0, 0.0)

    @pytest.mark.parametrize("call", [
        objective, per_node_reciprocals,
        objective_marginal, objective_curvature,
    ], ids=["objective", "per_node_reciprocals", "objective_marginal",
            "objective_curvature"])
    def test_nan_entry_raises_naming_node(self, table12, call):
        """A raw matrix is not checked as an Allocation, so a NaN entry
        reaches the loads; 0 < A <= 1 is a positive test, so NaN fails it
        instead of passing on as a NaN objective."""
        entries = np.array(Allocation.uniform(table12.n_schedulers,
                                              table12.n_nodes).entries)
        entries[0, 0] = np.nan
        with pytest.raises(AvailabilityOutOfRange,
                           match=r"^availability of node 0 is nan") as err:
            call(entries, table12)
        assert err.value.node == 0 and np.isnan(err.value.value)

    def test_strictly_decreasing_in_own_fraction(self, two_node_config):
        values = []
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            alloc = Allocation(np.array([[frac, 1.0 - frac]]))
            values.append(availabilities(alloc, two_node_config)[0])
        assert all(a > b for a, b in zip(values, values[1:]))


class TestObjective:
    def test_two_identical_nodes(self, twin_node_config, even_split):
        assert objective(even_split, twin_node_config) == pytest.approx(
            2 / 0.8125, rel=1e-12
        )

    def test_zero_load_equals_node_count(self):
        config = build_config(
            nodes=[NodeParams.from_rate(0.02), NodeParams.from_rate(0.04)],
            schedulers=[SchedulerParams(phi=0.0, lam=0.0)],
            rho=0.5,
        )
        assert objective(Allocation.uniform(1, 2), config) == 2.0

    def test_zero_availability_raises(self):
        # W = 2 * (1 + 0.05 * 10) = 3 and lam * W = 1 exactly: the
        # reciprocal is undefined, so it raises instead of giving inf
        config = build_config(
            nodes=[NodeParams.from_rate(0.5)],
            schedulers=[SchedulerParams(lam=1 / 3)],
            rho=0.5,
        )
        delta = node_arrivals(Allocation(np.array([[1.0]])), config)
        assert 1.0 - delta[0] * config.weights[0] == 0.0
        with pytest.raises(AvailabilityOutOfRange,
                           match=r"^availability of node 0 is 0, "
                                 r"outside \(0, 1\]$") as err:
            objective(Allocation(np.array([[1.0]])), config)
        assert (err.value.node, err.value.value) == (0, 0.0)

    def test_concentrated_on_fast_node(self, two_node_config):
        alloc = Allocation(np.array([[0.0, 1.0]]))
        assert objective(alloc, two_node_config) == pytest.approx(
            1 + 1 / 0.8125, rel=1e-12
        )

    def test_permutation_of_equal_rate_rows(self, table13):
        rng = np.random.default_rng(3)
        lam = table13.lam
        # schedulers 1..4 share the same weight, hence the same rate
        assert lam[1] == lam[2]
        alloc = feasible_random_allocation(rng, table13)
        entries = np.array(alloc.entries)
        entries[[1, 2]] = entries[[2, 1]]
        swapped = Allocation(entries)
        assert objective(swapped, table13) == pytest.approx(
            objective(alloc, table13), rel=1e-14
        )


def residual_capacity(i, alloc, config):
    """Capacity every node still offers scheduler i: mu_j minus the load of
    the other schedulers, which the balanced baseline allocates by."""
    own = config.lam[i] * alloc.entries[i]
    return config.mu - (node_arrivals(alloc, config) - own)


class TestResidualCapacity:
    def test_single_scheduler_sees_full_rate(self, two_node_config, even_split):
        residual = residual_capacity(0, even_split, two_node_config)
        assert residual.tolist() == [0.02, 0.04]

    def test_other_scheduler_load_subtracted(self):
        config = build_config(
            nodes=[NodeParams.from_rate(0.03)],
            schedulers=[SchedulerParams(phi=0.0, lam=0.002),
                        SchedulerParams(phi=0.0, lam=0.01)],
            rho=0.5,
        )
        alloc = Allocation(np.array([[1.0], [1.0]]))
        assert residual_capacity(0, alloc, config)[0] == pytest.approx(
            0.02, rel=1e-12
        )

    def test_full_saturation_hits_zero(self):
        config = build_config(
            nodes=[NodeParams.from_rate(0.03)],
            schedulers=[SchedulerParams(phi=0.0, lam=0.001),
                        SchedulerParams(phi=0.0, lam=0.03)],
            rho=0.5,
        )
        alloc = Allocation(np.array([[1.0], [1.0]]))
        assert residual_capacity(0, alloc, config)[0] == pytest.approx(
            0.0, abs=1e-15
        )


class TestDerivatives:
    @pytest.mark.parametrize("name", ["table1-table2", "table1-table3"])
    def test_marginal_matches_central_differences(self, name):
        config = preset(name)
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(10):
            alloc = feasible_random_allocation(rng, config)
            i = int(rng.integers(config.n_schedulers))
            j = int(rng.integers(config.n_nodes))
            analytic = objective_marginal(alloc, config)[i, j]
            assert analytic > 0.0
            up, down = np.array(alloc.entries), np.array(alloc.entries)
            up[i, j] += h
            down[i, j] -= h
            numeric = (
                objective(up, config) - objective(down, config)
            ) / (2 * h)
            assert numeric == pytest.approx(analytic, rel=1e-5)

    def test_curvature_positive_and_matches_marginal_slope(self, table12):
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(10):
            alloc = feasible_random_allocation(rng, table12)
            i = int(rng.integers(table12.n_schedulers))
            j = int(rng.integers(table12.n_nodes))
            analytic = objective_curvature(alloc, table12)[i, j]
            assert analytic > 0.0
            up = np.array(alloc.entries)
            down = np.array(alloc.entries)
            up[i, j] += h
            down[i, j] -= h
            numeric = (
                objective_marginal(up, table12)[i, j]
                - objective_marginal(down, table12)[i, j]
            ) / (2 * h)
            assert numeric == pytest.approx(analytic, rel=1e-5)


    @pytest.mark.parametrize("point", ["uniform", "random-raw"])
    def test_arrays_hold_the_per_entry_formulas_bit_for_bit(self, table12,
                                                          point):
        """Every entry has the bits of the scalar formulas on Python floats,
        the derivatives' values when they returned one entry per call."""
        alloc = Allocation.uniform(table12.n_schedulers, table12.n_nodes)
        if point == "random-raw":
            alloc = np.array(feasible_random_allocation(
                np.random.default_rng(2), table12).entries)
        marginal = objective_marginal(alloc, table12)
        curvature = objective_curvature(alloc, table12)
        assert marginal.shape == curvature.shape == (10, 15)
        avail = _availability(node_arrivals(alloc, table12), table12.weights)
        for i, lam_i in enumerate(table12.lam.tolist()):
            for j, (w, a) in enumerate(zip(table12.weights.tolist(),
                                           avail.tolist())):
                assert marginal[i, j] == w * lam_i / a**2
                assert curvature[i, j] == 2.0 * w**2 * lam_i**2 / a**3


class TestValidateConfig:
    def test_reference_preset_uniform_is_clean(self, table12):
        report = validate_config(
            Allocation.uniform(table12.n_schedulers, table12.n_nodes), table12
        )
        assert report.all_passed
        assert [c.name for c in report.checks] == [
            "row-simplex", "availability-range"]

    def test_total_stability_failure(self):
        # sum(lam) beyond the nodes' whole capacity sum_j 1/W_j: rows that
        # sum to 1 put all of it on the nodes, so availability-range fails
        mu = np.array(TABLE2_MU)
        config = SystemConfig(mu=mu, mu_prime=mu / 10.0, gamma=5.0 / mu,
                              beta1=1.0 / mu, phi=[0.0], lam=[0.5], rho=0.5)
        report = validate_config(Allocation.uniform(1, len(TABLE2_MU)), config)
        assert 0.5 > (1.0 / config.weights).sum()
        failed = {c.name: c.offending for c in report.failed()}
        assert failed == {"availability-range": tuple(range(len(mu)))}

    def test_bad_row_reported_not_raised(self, two_node_config):
        report = validate_config(np.array([[0.6, 0.6]]), two_node_config)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["row-simplex"].passed
        assert by_name["row-simplex"].offending == (0,)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_flagged(self, two_node_config, value):
        report = validate_config(np.array([[value, 1.0]]), two_node_config)
        by_name = {c.name: c for c in report.checks}
        assert not report.all_passed
        assert by_name["row-simplex"].offending == (0,)

    def test_overloaded_node_flagged_with_index(self):
        config = build_config(
            nodes=[NodeParams.from_rate(0.02), NodeParams.from_rate(0.04)],
            schedulers=[SchedulerParams(phi=0.0, lam=0.03)],
            rho=0.5,
        )
        report = validate_config(np.array([[1.0, 0.0]]), config)
        by_name = {c.name: c for c in report.checks}
        assert by_name["row-simplex"].passed
        assert not by_name["availability-range"].passed
        assert by_name["availability-range"].offending == (0,)

    def test_nan_and_zero_availability_flagged(self):
        # W = 3 on both nodes; lam * W = 1 puts node 0 at A = 0 exactly
        config = build_config(
            nodes=[NodeParams.from_rate(0.5)] * 3,
            schedulers=[SchedulerParams(lam=1 / 3)],
            rho=0.5,
        )
        report = validate_config(np.array([[1.0, 0.0, 0.0]]), config)
        assert [c.name for c in report.failed()] == ["availability-range"]
        assert report.failed()[0].offending == (0,)
        report = validate_config(np.array([[np.nan, 0.0, 1.0]]), config)
        by_name = {c.name: c for c in report.checks}
        assert by_name["row-simplex"].offending == (0,)
        assert by_name["availability-range"].offending == (0, 2)

    def test_agrees_with_the_solvers_where_w_mu_below_one(self):
        """Both solvers solve a pool whose nodes have W_j * mu_j < 1, and
        validate_config passes both reports: the model has no
        delta_j < mu_j rule."""
        config = load_config(GOLDEN / "w-mu-below-one.json")
        assert (config.weights * config.mu < 1.0).all()
        for report in (solve(config), bsa_solve(config)):
            assert validate_config(report.allocation, config).all_passed


class TestNodeLoad:
    def test_view_bundles_consistent_numbers(self, two_node_config, even_split):
        delta = node_arrivals(even_split, two_node_config)
        avail = availabilities(even_split, two_node_config)
        assert delta[0] == 0.0025
        assert avail[0] == 0.8125
        assert avail.tolist() == list(
            1.0 - delta * two_node_config.weights)
        assert residual_capacity(0, even_split, two_node_config)[0] == 0.02
