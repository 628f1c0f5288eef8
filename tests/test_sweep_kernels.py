"""Row kernels and the sweep loop against their straightforward references.

The solvers keep the node load vector current by rank-1 updates and search
the active set in one vectorised pass.  These tests hold that machinery to
the plain versions it replaced: a descending scalar search over active-set
sizes, and a sweep that recomputes every load for every row.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relsched import (
    PRESET_NAMES,
    AllNodesSaturated,
    Allocation,
    AvailabilityOutOfRange,
    NodeParams,
    NoFeasibleResponse,
    NotConverged,
    SchedulerParams,
    bsa_solve,
    build_config,
    node_arrivals,
    objective,
    solve,
)
from relsched.baseline import _balanced_row
from relsched.best_response import _best_row
from relsched.equilibrium import fixed_point_iteration
from relsched.presets import preset

LOAD_RTOL = 1e-12


def loop_best_row(i, lam_i, others, weights, libm_square=False):
    """Reference active-set search: walk the size down from all usable
    nodes and accept the first size whose fractions are feasible.

    The seed's loop squared a numpy scalar with ``**``, which calls the C
    library's pow(); that is not always correctly rounded and can differ
    in the last bit from the array square of the vectorised search.  By
    default the loop squares by multiplication, which is the same
    correctly rounded operation; libm_square=True keeps the seed's form.
    """
    headroom = 1.0 - others * weights
    usable = np.nonzero(headroom > 0.0)[0]
    if usable.size == 0:
        raise NoFeasibleResponse("all nodes saturated")
    row = np.zeros(others.size)
    if lam_i == 0.0:
        row[usable] = 1.0 / usable.size
        return row, int(usable.size), 0.0
    marginals = weights[usable] * lam_i / headroom[usable] ** 2
    sort = np.argsort(marginals, kind="stable")
    order = usable[sort]
    theta_sorted = marginals[sort]
    w_sorted = weights[order]
    inv_sqrt_w = np.cumsum(1.0 / np.sqrt(w_sorted))
    spare = np.cumsum(headroom[order] / (w_sorted * lam_i))
    for d in range(order.size, 0, -1):
        denom = spare[d - 1] - 1.0
        if denom <= 0.0:
            continue
        ratio = inv_sqrt_w[d - 1] / denom
        alpha = (ratio ** 2 if libm_square else ratio * ratio) / lam_i
        if alpha >= theta_sorted[d - 1]:
            active = order[:d]
            vals = (headroom[active]
                    - np.sqrt(weights[active] * lam_i / alpha)) / (
                        weights[active] * lam_i)
            row[active] = np.clip(vals, 0.0, 1.0)
            return row, int(d), float(alpha)
    raise NoFeasibleResponse("no feasible active-set size")


def assert_same_response(lam_i, others, weights):
    """The vectorised search matches the loop bit for bit, or both raise."""
    try:
        expected = loop_best_row(0, lam_i, others, weights)
    except NoFeasibleResponse:
        with pytest.raises(NoFeasibleResponse):
            _best_row(0, lam_i, others, weights)
        return None
    row, count, alpha = _best_row(0, lam_i, others, weights)
    assert row.tobytes() == expected[0].tobytes()
    assert count == expected[1]
    assert alpha == expected[2] and type(alpha) is float
    return count


def assert_near_seed_loop(lam_i, others, weights):
    """Against the seed's pow()-based loop: the same active set, and a
    multiplier and row that differ by at most a few ulp."""
    try:
        seed = loop_best_row(0, lam_i, others, weights, libm_square=True)
    except NoFeasibleResponse:
        with pytest.raises(NoFeasibleResponse):
            _best_row(0, lam_i, others, weights)
        return
    row, count, alpha = _best_row(0, lam_i, others, weights)
    assert count == seed[1]
    assert alpha == pytest.approx(seed[2], rel=4 * np.finfo(float).eps)
    np.testing.assert_allclose(row, seed[0], rtol=1e-12, atol=1e-15)


def hot_pool(seed, size, utilisation=0.85, max_cycles=1000):
    """Loaded size x size pool; the scheduler weights sum to 2/3, so with
    W_j = 1.5/mu_j rho is also the effective utilisation."""
    rng = np.random.default_rng(seed)
    mu = 0.03 * rng.uniform(0.9, 1.1, size)
    phi = rng.uniform(0.5, 1.5, size)
    phi *= (2.0 / 3.0) / phi.sum()
    return build_config(
        nodes=[NodeParams.from_rate(float(x)) for x in mu],
        schedulers=[SchedulerParams(phi=float(p)) for p in phi],
        rho=utilisation,
        max_cycles=max_cycles,
    )


def visited_rows(config):
    """Every (lam_i, others) the game solver hands its row kernel."""
    weights = config.load_weights()
    calls = []

    def respond(i, lam_i, others):
        calls.append((lam_i, others.copy()))
        return _best_row(i, lam_i, others, weights)[0]

    fixed_point_iteration(config, respond)
    return calls


def reference_iteration(config, respond, single_pass=False):
    """Sweep loop that recomputes entries.T @ lam for every row.

    Returns the final matrix and the epsilon trace; raises NotConverged at
    the cycle cap like the solvers, with the reached matrix as report.
    """
    lam = config.arrival_rates()
    n, m = config.n_schedulers, config.n_nodes
    entries = np.full((n, m), 1.0 / m)
    latter = objective(entries, config)
    trace = []
    while True:
        former = latter
        for i in range(n):
            others = entries.T @ lam - lam[i] * entries[i]
            entries[i] = respond(i, float(lam[i]), others)
        latter = objective(entries, config)
        trace.append(abs(former - latter))
        if single_pass or trace[-1] <= config.epsilon_threshold:
            return entries, trace
        if len(trace) >= config.max_cycles:
            raise NotConverged("cycle cap", report=(entries, trace))


def game_response(config):
    weights = config.load_weights()
    return lambda i, lam_i, others: _best_row(i, lam_i, others, weights)[0]


def balanced_response(config):
    mu = config.service_rates()
    return lambda i, lam_i, others: _balanced_row(i, others, mu)


SOLVERS = {
    "game": (solve, game_response),
    "balanced": (bsa_solve, balanced_response),
}

SWEEP_CASES = [*PRESET_NAMES, "pool60"]


def sweep_config(name, max_cycles=1000):
    if name == "pool60":
        return hot_pool(seed=3, size=60, max_cycles=max_cycles)
    return preset(name, max_cycles=max_cycles)


class TestActiveSetSearch:
    @pytest.mark.parametrize("rho", [None, 0.5, 0.9])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_row_matches_loop(self, name, rho):
        config = preset(name, rho=rho)
        weights = config.load_weights()
        calls = visited_rows(config)
        assert len(calls) >= config.n_schedulers
        for lam_i, others in calls:
            assert assert_same_response(lam_i, others, weights) is not None
            assert_near_seed_loop(lam_i, others, weights)

    @pytest.mark.parametrize("seed", range(4))
    def test_loaded_pool_rows_match_loop(self, seed):
        config = hot_pool(seed, size=40)
        weights = config.load_weights()
        for lam_i, others in visited_rows(config):
            assert_same_response(lam_i, others, weights)
            assert_near_seed_loop(lam_i, others, weights)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_rows_match_loop(self, seed):
        """Random headroom, some of it saturated, and rates from tiny to
        beyond what the usable nodes can absorb."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 60))
        weights = 1.5 / (0.03 * rng.uniform(0.5, 1.5, m))
        headroom = rng.uniform(-0.2, 1.0, m)
        others = (1.0 - headroom) / weights
        capacity = np.sum(np.maximum(headroom, 0.0) / weights)
        counts = set()
        for share in (1e-6, 0.01, 0.2, 0.6, 0.95, 1.5):
            counts.add(assert_same_response(share * capacity, others,
                                            weights))
            assert_near_seed_loop(share * capacity, others, weights)
        assert counts - {None}

    def test_zero_rate_spreads_over_usable_nodes(self):
        weights = np.array([0.25, 0.25, 0.5])
        others = np.array([0.0, 5.0, 1.0])  # node 1 is saturated
        assert assert_same_response(0.0, others, weights) == 2
        row, _, alpha = _best_row(0, 0.0, others, weights)
        assert row.tolist() == [0.5, 0.0, 0.5]
        assert alpha == 0.0

    def test_multiplier_on_boundary_marginal(self):
        """Exact arithmetic: at size 2 the multiplier equals node 1's
        zero-load marginal, so node 1 is active with a zero fraction."""
        weights = np.array([0.25, 0.25, 0.25])
        others = np.array([1.0, 2.0, 3.0])  # headroom 3/4, 1/2, 1/4
        assert assert_same_response(1.0, others, weights) == 2
        row, count, alpha = _best_row(0, 1.0, others, weights)
        theta = weights[1] * 1.0 / (1.0 - others[1] * weights[1]) ** 2
        assert alpha == theta == 1.0
        assert row.tolist() == [1.0, 0.0, 0.0]

    def test_all_nodes_saturated(self):
        weights = np.array([0.25, 0.5])
        others = np.array([4.0, 3.0])
        assert assert_same_response(1.0, others, weights) is None

    def test_no_size_absorbs_the_stream(self):
        weights = np.array([0.25])
        others = np.array([3.0])  # spare capacity exactly 1: degenerate
        assert assert_same_response(1.0, others, weights) is None


@st.composite
def row_problems(draw):
    """One row of 1-40 nodes: load weights spread over a decade, headroom
    1 - W_j*o_j that is positive except on a random set of nodes the other
    schedulers saturate (headroom exactly zero or negative), and a rate
    from zero to a quarter beyond what the usable nodes can absorb,
    including exactly what they can."""
    m = draw(st.integers(min_value=1, max_value=40))
    weights = np.array(draw(st.lists(
        st.floats(min_value=25.0, max_value=250.0), min_size=m, max_size=m)))
    headroom = np.array(draw(st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=m, max_size=m)))
    saturated = sorted(draw(st.sets(st.integers(min_value=0,
                                                max_value=m - 1))))
    headroom[saturated] = draw(st.sampled_from([0.0, -0.25]))
    others = (1.0 - headroom) / weights
    capacity = float(np.sum(np.maximum(1.0 - others * weights, 0.0)
                            / weights))
    share = draw(st.sampled_from([None, 1.0, 0.0]))
    if share is None:
        share = draw(st.floats(min_value=1e-9, max_value=1.25))
    return share * capacity, others, weights


class TestRowKernelProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(row_problems())
    def test_best_row_matches_loop(self, problem):
        assert_same_response(*problem)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(row_problems())
    def test_balanced_row_is_the_plain_formula(self, problem):
        """max(mu - others, 0) / its sum, with the sum taken exactly."""
        _, others, weights = problem
        mu = 1.0 / weights
        residual = [max(a - b, 0.0) for a, b in zip(mu.tolist(),
                                                   others.tolist())]
        total = math.fsum(residual)
        if total <= 0.0:
            with pytest.raises(AllNodesSaturated):
                _balanced_row(0, others, mu)
            return
        row = _balanced_row(0, others, mu)
        expected = np.array(residual) / total
        assert (row == 0.0).tolist() == (expected == 0.0).tolist()
        np.testing.assert_allclose(row, expected, rtol=1e-14, atol=0.0)


class TestSweepLoop:
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("name", SWEEP_CASES)
    def test_matches_per_row_recomputation(self, name, solver):
        config = sweep_config(name)
        run, response = SOLVERS[solver]
        report = run(config)
        entries, trace = reference_iteration(config, response(config))
        assert report.cycles == len(trace)
        np.testing.assert_allclose(
            node_arrivals(report.allocation, config),
            entries.T @ config.arrival_rates(), rtol=LOAD_RTOL, atol=0.0)

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("name", ["table1-table2", "pool60"])
    def test_cycle_cap_hits_at_the_same_sweep(self, name, solver):
        run, response = SOLVERS[solver]
        full = run(sweep_config(name))
        cap = full.cycles - 1
        assert cap >= 1
        config = sweep_config(name, max_cycles=cap)
        with pytest.raises(NotConverged) as got:
            run(config)
        with pytest.raises(NotConverged) as want:
            reference_iteration(config, response(config))
        partial = got.value.report
        entries, trace = want.value.report
        assert not partial.converged
        assert partial.cycles == len(trace) == cap
        assert partial.epsilon_trace == full.epsilon_trace[:cap]
        np.testing.assert_allclose(
            node_arrivals(partial.allocation, config),
            entries.T @ config.arrival_rates(), rtol=LOAD_RTOL, atol=0.0)

    def test_infeasible_start_raises_before_any_sweep(self):
        config = overload_config(lam=2.5)
        for run, response in SOLVERS.values():
            with pytest.raises(AvailabilityOutOfRange) as got:
                run(config)
            with pytest.raises(AvailabilityOutOfRange) as want:
                reference_iteration(config, response(config))
            assert got.value.node == want.value.node == 1

    def test_balanced_overload_raises_after_first_sweep(self):
        """The uniform start is feasible; the balanced row then sends
        three quarters of the stream to the node with the larger weight."""
        config = overload_config(lam=1.5)
        assert objective(Allocation.uniform(1, 2).entries, config) > 0.0
        with pytest.raises(AvailabilityOutOfRange) as got:
            bsa_solve(config, single_pass=True)
        with pytest.raises(AvailabilityOutOfRange) as want:
            reference_iteration(config, balanced_response(config),
                                single_pass=True)
        assert got.value.node == want.value.node == 1
        assert got.value.value == pytest.approx(want.value.value, rel=1e-12)


def overload_config(lam):
    """Node 1 has three times node 0's rate but ten times its weight."""
    return build_config(
        nodes=[NodeParams(mu=1.0, mu_prime=0.0, gamma=0.0, beta1=0.1),
               NodeParams(mu=3.0, mu_prime=0.0, gamma=0.0, beta1=1.0)],
        schedulers=[SchedulerParams(lam=lam)],
        rho=0.5,
    )
