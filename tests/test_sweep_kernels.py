"""Row kernels and the sweep loop against their straightforward references.

The solvers keep the node load vector current by rank-1 updates and search
the active set in one vectorised pass.  These tests hold that machinery to
the plain versions it replaced: a descending scalar search over active-set
sizes, and a sweep that recomputes every load for every row.  The balanced
baseline's prefix-scan sweep is held to the row-by-row sweep it replaces,
and to the facts about those sweeps that let it scan two coordinates per
scheduler instead of the matrix.
"""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relsched import (
    PRESET_NAMES,
    Allocation,
    AvailabilityOutOfRange,
    NodeParams,
    NoFeasibleResponse,
    NotConverged,
    RelschedError,
    SchedulerParams,
    bsa_solve,
    build_config,
    node_arrivals,
    objective,
    solve,
)
from relsched import baseline
from relsched.baseline import _SPARE_RTOL, _balanced_row
from relsched.best_response import _LIGHT_ROW_SPARE, _RowKernel
from relsched.model import _availability
from relsched.presets import preset

from conftest import balanced_row, best_row, first_sweep_and_water_fill

LOAD_RTOL = 1e-12


def loop_best_row(i, lam_i, others, weights, libm_square=False):
    """Reference active-set search: walk the size down from all usable
    nodes and accept the first size whose fractions are feasible.

    The seed's loop squared a numpy scalar with ``**``, which calls the C
    library's pow(); that is not always correctly rounded and can differ
    in the last bit from the array square of the vectorised search.  By
    default the loop squares by multiplication, which is the same
    correctly rounded operation; libm_square=True keeps the seed's form.
    Like the kernel, it divides a light scheduler's row, one whose
    accepted set's spare sum exceeds _LIGHT_ROW_SPARE, by its sum.
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
            vals = np.clip(vals, 0.0, 1.0)
            if spare[d - 1] > _LIGHT_ROW_SPARE:
                vals /= vals.sum()
            row[active] = vals
            return row, int(d), float(alpha)
    raise NoFeasibleResponse("no feasible active-set size")


def assert_same_response(lam_i, others, weights):
    """The vectorised search matches the loop bit for bit, or both raise."""
    try:
        expected = loop_best_row(0, lam_i, others, weights)
    except NoFeasibleResponse:
        with pytest.raises(NoFeasibleResponse):
            best_row(0, lam_i, others, weights)
        return None
    row, count, alpha = best_row(0, lam_i, others, weights)
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
            best_row(0, lam_i, others, weights)
        return
    row, count, alpha = best_row(0, lam_i, others, weights)
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


def types_pool(seed, size):
    """hot_pool's kind of pool whose nodes are machines of 8 types: each
    takes one of 8 rates, so the nodes of one type tie."""
    rng = np.random.default_rng(seed)
    rates = 0.03 * rng.uniform(0.9, 1.1, 8)
    mu = rates[rng.integers(0, 8, size)]
    phi = rng.uniform(0.5, 1.5, size)
    phi *= (2.0 / 3.0) / phi.sum()
    return build_config(
        nodes=[NodeParams.from_rate(float(x)) for x in mu],
        schedulers=[SchedulerParams(phi=float(p)) for p in phi],
        rho=0.85,
    )


def visited_rows(config):
    """Every (lam_i, others) the game solver hands its row kernel."""
    calls = []
    row = _RowKernel.row

    def recording_row(kernel, i, lam_i, others, out):
        calls.append((lam_i, others.copy()))
        return row(kernel, i, lam_i, others, out)

    with mock.patch.object(_RowKernel, "row", recording_row):
        solve(config)
    return calls


def reference_iteration(config, respond, single_pass=False):
    """Sweep loop that recomputes entries.T @ lam for every row.

    Returns the final matrix and the epsilon trace; raises NotConverged at
    the cycle cap like the solvers, with the reached matrix as report.
    """
    lam = config.lam
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
    weights = config.weights
    return lambda i, lam_i, others: best_row(i, lam_i, others, weights)[0]


def balanced_response(config):
    mu = config.mu
    return lambda i, lam_i, others: balanced_row(i, others, mu)


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
        weights = config.weights
        calls = visited_rows(config)
        assert len(calls) >= config.n_schedulers
        for lam_i, others in calls:
            assert assert_same_response(lam_i, others, weights) is not None
            assert_near_seed_loop(lam_i, others, weights)

    @pytest.mark.parametrize("seed", range(4))
    def test_loaded_pool_rows_match_loop(self, seed):
        config = hot_pool(seed, size=40)
        weights = config.weights
        calls = visited_rows(config)
        assert len(calls) >= config.n_schedulers
        for lam_i, others in calls:
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
        row, _, alpha = best_row(0, 0.0, others, weights)
        assert row.tolist() == [0.5, 0.0, 0.5]
        assert alpha == 0.0

    def test_multiplier_on_boundary_marginal(self):
        """Exact arithmetic: at size 2 the multiplier equals node 1's
        zero-load marginal, so node 1 is active with a zero fraction."""
        weights = np.array([0.25, 0.25, 0.25])
        others = np.array([1.0, 2.0, 3.0])  # headroom 3/4, 1/2, 1/4
        assert assert_same_response(1.0, others, weights) == 2
        row, count, alpha = best_row(0, 1.0, others, weights)
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
        """max(mu - others, 0) / its sum, with the sum taken exactly; a
        raise where that sum is no spare, at most _SPARE_RTOL * sum(mu)."""
        _, others, weights = problem
        mu = 1.0 / weights
        residual = [max(a - b, 0.0) for a, b in zip(mu.tolist(),
                                                   others.tolist())]
        total = math.fsum(residual)
        if total <= _SPARE_RTOL * math.fsum(mu.tolist()):
            with pytest.raises(NoFeasibleResponse):
                balanced_row(0, others, mu)
            return
        row = balanced_row(0, others, mu)
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
            entries.T @ config.lam, rtol=LOAD_RTOL, atol=0.0)

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
            entries.T @ config.lam, rtol=LOAD_RTOL, atol=0.0)

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


REPORTERS = {
    "solve": solve,
    "bsa_solve": bsa_solve,
    "bsa_single_pass": lambda config: bsa_solve(config, single_pass=True),
}


def assert_report_loads(report, config):
    """The report's loads are the read-only node_arrivals of its
    allocation, bit for bit, and its availabilities and objective are
    theirs."""
    assert not report.loads.flags.writeable
    assert report.loads.tobytes() == \
        node_arrivals(report.allocation, config).tobytes()
    assert report.per_node_availability == \
        tuple(_availability(report.loads, config.weights))
    assert report.objective == objective(report.allocation, config)


class TestReportLoads:
    @pytest.mark.parametrize("solver", REPORTERS)
    @pytest.mark.parametrize("rho", [None, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_reports(self, name, rho, solver):
        config = preset(name, rho=rho)
        assert_report_loads(REPORTERS[solver](config), config)

    @pytest.mark.parametrize("solver", REPORTERS)
    @pytest.mark.parametrize(
        "pool", [*range(4), "clamped60", "underflow", "zero_spare"])
    def test_loaded_pool_reports(self, pool, solver):
        """40-node pools by seed, and three pools on which the baseline
        holds its matrix as the rows' coordinates: built for a first sweep
        that clamps and then scanned, or held from the start where the
        scan cannot run (an underflowing product, s = 0)."""
        config = {"clamped60": lambda: clamped_pool(60),
                  "underflow": underflow_config,
                  "zero_spare": zero_spare_config,
                  }.get(pool, lambda: hot_pool(pool, size=40))()
        assert_report_loads(REPORTERS[solver](config), config)

    @pytest.mark.parametrize("solver", ["solve", "bsa_solve"])
    def test_partial_report(self, solver):
        config = preset("table1-table2", max_cycles=1)
        with pytest.raises(NotConverged) as got:
            REPORTERS[solver](config)
        assert not got.value.report.converged
        assert_report_loads(got.value.report, config)


class TestPeakMemory:
    """A solve holds one n x m matrix at its peak: the report keeps the
    solver's working matrix instead of a copy, and checking it builds no
    n x m temporary.  So does replace_row, which nash_check calls once per
    scheduler."""

    PEAK_PER_MATRIX = 1.25

    @staticmethod
    def peak_bytes(call):
        """Bytes traced above the start while call runs."""
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()  # the tracer may already be running
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    @pytest.mark.parametrize("call", ["solve", "bsa_solve", "replace_row"])
    def test_peak_is_one_matrix(self, call):
        config = hot_pool(0, 300)
        alloc = solve(config).allocation
        calls = {
            "solve": lambda: solve(config),
            "bsa_solve": lambda: bsa_solve(config),
            "replace_row": lambda: alloc.replace_row(0, alloc.entries[1]),
        }
        peak = self.peak_bytes(calls[call])
        assert peak <= self.PEAK_PER_MATRIX * alloc.entries.nbytes


@st.composite
def balanced_instances(draw):
    """1-12 schedulers, some with rate zero, on 1-10 nodes whose W_j*mu_j
    is 1.0001, 1.05, 1.5 or 3, carrying up to 97 % of the largest total
    rate the uniform start keeps feasible, m * min_j 1/W_j (so also at
    most 97 % of the pool's capacity sum_j 1/W_j)."""
    m = draw(st.integers(min_value=1, max_value=10))
    n = draw(st.integers(min_value=1, max_value=12))
    mu = np.array(draw(st.lists(st.floats(min_value=0.005, max_value=0.1),
                                min_size=m, max_size=m)))
    ratio = np.array(draw(st.lists(st.sampled_from([1.0001, 1.05, 1.5, 3.0]),
                                   min_size=m, max_size=m)))
    share = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0)),
        min_size=n, max_size=n)))
    utilisation = draw(st.floats(min_value=0.01, max_value=0.97))
    if share.sum() > 0.0:
        share *= utilisation * m * np.min(mu / ratio) / share.sum()
    return build_config(
        nodes=[NodeParams(mu=float(a), mu_prime=0.0, gamma=0.0,
                          beta1=float(b / a)) for a, b in zip(mu, ratio)],
        schedulers=[SchedulerParams(lam=float(x)) for x in share],
        rho=0.5,
    )


def assert_balanced_matches_rows(config, single_pass=False):
    """bsa_solve against the per-row reference loop: the same cycles and
    loads within LOAD_RTOL, or the same error from both."""
    try:
        report = bsa_solve(config, single_pass=single_pass)
    except RelschedError as exc:
        with pytest.raises(type(exc)):
            reference_iteration(config, balanced_response(config),
                                single_pass=single_pass)
        return None
    entries, trace = reference_iteration(config, balanced_response(config),
                                         single_pass=single_pass)
    assert report.cycles == len(trace)
    np.testing.assert_allclose(
        node_arrivals(report.allocation, config),
        entries.T @ config.lam, rtol=LOAD_RTOL, atol=0.0)
    return report


def underflow_config():
    """600 schedulers on 4 equal nodes with W*mu = 1.00001 at 99.999 % of
    capacity: the scan's running product of s/(s + lam_i) falls to about
    exp(-2660), far below the smallest double."""
    capacity = 4 / 1.00001
    return build_config(
        nodes=[NodeParams(mu=1.0, mu_prime=0.0, gamma=0.0, beta1=1.00001)] * 4,
        schedulers=[SchedulerParams(lam=0.99999 * capacity / 600)] * 600,
        rho=0.5,
    )


def count_balanced_rows(monkeypatch):
    calls = []

    def counted(i, others, mu, out):
        calls.append(i)
        _balanced_row(i, others, mu, out)

    monkeypatch.setattr(baseline, "_balanced_row", counted)
    return calls


class TestBalancedScan:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(balanced_instances(), st.booleans())
    def test_matches_row_by_row_sweeps(self, config, single_pass):
        assert_balanced_matches_rows(config, single_pass)

    @pytest.mark.parametrize("name", SWEEP_CASES)
    def test_unsaturated_sweeps_make_no_row_calls(self, name, monkeypatch):
        calls = count_balanced_rows(monkeypatch)
        assert bsa_solve(sweep_config(name)).cycles >= 1
        assert calls == []

    def test_saturating_start_runs_row_by_row(self, monkeypatch):
        """W*mu = 0.8 on node 1: the uniform start loads it with 0.22,
        beyond its service rate 0.2 but inside its availability range."""
        config = build_config(
            nodes=[NodeParams(mu=1.0, mu_prime=0.0, gamma=0.0, beta1=0.1),
                   NodeParams(mu=0.2, mu_prime=0.0, gamma=0.0, beta1=4.0)],
            schedulers=[SchedulerParams(lam=0.22)] * 2,
            rho=0.5,
        )
        calls = count_balanced_rows(monkeypatch)
        assert assert_balanced_matches_rows(config, single_pass=True)
        assert calls == [0, 1]

    def test_underflowing_product_runs_row_by_row(self, monkeypatch):
        config = underflow_config()
        lam = config.lam
        spare = config.mu - lam.sum() / config.n_nodes
        assert (spare > 0.0).all()
        s = spare.sum()
        assert np.sum(np.log(s / (s + lam))) < -2000.0
        calls = count_balanced_rows(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = assert_balanced_matches_rows(config)
        assert len(calls) == config.n_schedulers
        assert report.cycles == 1
        assert report.objective == pytest.approx(400000.0000151431,
                                                 rel=1e-9)


def clamped_pool(size, seed=0):
    """hot_pool's kind of pool with node 0 at a third of the others' rate
    but their weight, so W_0*mu_0 = 1/2: the uniform start loads node 0
    beyond its service rate, so the first sweep runs row by row."""
    rng = np.random.default_rng(seed)
    mu = 0.03 * rng.uniform(0.9, 1.1, size)
    nodes = [NodeParams.from_rate(float(x)) for x in mu]
    nodes[0] = NodeParams(mu=0.01, mu_prime=0.0, gamma=0.0, beta1=50.0)
    phi = rng.uniform(0.5, 1.5, size)
    phi *= (2.0 / 3.0) / phi.sum()
    return build_config(
        nodes=nodes,
        schedulers=[SchedulerParams(phi=float(p)) for p in phi],
        rho=0.85,
    )


def zero_spare_config():
    """Two schedulers of rate 0.03 on three nodes of rate 0.02: the loads
    fill every node exactly, so sum(mu) - sum(lam) is 0."""
    return build_config(
        nodes=[NodeParams(mu=0.02, mu_prime=0.0, gamma=0.0, beta1=10.0)] * 3,
        schedulers=[SchedulerParams(lam=0.03)] * 2,
        rho=0.5,
    )


# Instances whose uniform start leaves every node spare capacity.
SPAN_CASES = [*(f"{name}@{rho}" for name in PRESET_NAMES
                for rho in (None, 0.1, 0.5, 0.9)),
              *(f"pool60-{seed}" for seed in range(4))]


def span_config(case):
    name, _, arg = case.partition("@")
    if name.startswith("pool60-"):
        return hot_pool(int(name[-1]), 60)
    return preset(name, rho=None if arg == "None" else float(arg))


def span_residual(entries, mu):
    """Per row, the largest residual of its least-squares fit by
    x_i*1 + y_i*mu, relative to the row's largest entry."""
    basis = np.column_stack((np.ones(mu.size), mu))
    coords = np.linalg.lstsq(basis, entries.T, rcond=None)[0]
    return np.abs(basis @ coords - entries.T).max(axis=0) / entries.max(axis=1)


@st.composite
def spread_instances(draw):
    """1-12 schedulers, some with rate zero, on 1-10 nodes whose rates
    spread over up to six decades and whose W_j*mu_j is 0.5, 1, 1.5 or 3.
    They carry up to all of the largest total rate that leaves the uniform
    start's spare capacity mu_j - Lambda/m nonnegative and 1 % of every
    node's availability.  So the slowest nodes may start with no spare
    capacity at all, but not every node: then the total spare s, and with
    it a zero-rate scheduler's row c/s, would be rounding noise.  Nor is
    an availability exactly zero: there rounding alone decides whether
    the start is feasible."""
    m = draw(st.integers(min_value=1, max_value=10))
    n = draw(st.integers(min_value=1, max_value=12))
    decades = draw(st.lists(st.floats(min_value=0.0, max_value=6.0),
                            min_size=m, max_size=m))
    mu = 1e-4 * 10.0 ** np.array(decades)
    ratio = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 3.0]),
                                   min_size=m, max_size=m)))
    share = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0)),
        min_size=n, max_size=n)))
    utilisation = draw(st.one_of(st.floats(min_value=0.01, max_value=0.99),
                                 st.just(1.0)))
    if share.sum() > 0.0:
        bound = m * min(mu.min(), 0.99 * (mu / ratio).min())
        if mu.sum() - m * mu.min() <= 1e-6 * mu.sum():
            bound *= 0.99  # every node would start without spare capacity
        share *= utilisation * bound / share.sum()
    return build_config(
        nodes=[NodeParams(mu=float(a), mu_prime=0.0, gamma=0.0,
                          beta1=float(b / a)) for a, b in zip(mu, ratio)],
        schedulers=[SchedulerParams(lam=float(x)) for x in share],
        rho=0.5,
    )


class TestBalancedSpan:
    """The coordinate scan rests on two facts, checked here on the plain
    row-by-row sweeps: from a start with spare capacity everywhere, every
    row is x_i*1 + y_i*mu, and the spare capacity sums to sum(mu) - Lambda
    in every sweep.  bsa_solve is then held to those sweeps entry by entry
    and to the closed-form fixed point mu/sum(mu)."""

    @pytest.mark.parametrize("single_pass", [True, False])
    @pytest.mark.parametrize("case", SPAN_CASES)
    def test_rows_stay_in_the_span(self, case, single_pass):
        config = span_config(case)
        mu, lam = config.mu, config.lam
        assert (mu - lam.sum() / config.n_nodes).min() >= 0.0
        entries, _ = reference_iteration(config, balanced_response(config),
                                         single_pass=single_pass)
        assert span_residual(entries, mu).max() <= 1e-12
        spare = np.sum(mu - entries.T @ lam)
        assert spare == pytest.approx(mu.sum() - lam.sum(), rel=1e-12)

    @pytest.mark.parametrize("case", [*SPAN_CASES, "clamped60"])
    def test_entries_match_row_by_row(self, case):
        config = clamped_pool(60) if case == "clamped60" else span_config(case)
        report = bsa_solve(config)
        entries, trace = reference_iteration(config,
                                             balanced_response(config))
        assert report.cycles == len(trace)
        assert np.abs(report.allocation.entries - entries).max() <= \
            1e-12 * entries.max()

    @pytest.mark.parametrize("case", SPAN_CASES)
    def test_fixed_point_is_the_rate_share(self, case):
        config = span_config(case)
        mu = config.mu
        entries = bsa_solve(config).allocation.entries
        assert np.abs(entries - mu / mu.sum()).max() <= 1e-6

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(spread_instances(), st.booleans())
    def test_spread_rates_match_row_by_row(self, config, single_pass):
        report = assert_balanced_matches_rows(config, single_pass)
        if report is not None:
            assert report.allocation.entries.min() >= 0.0

    def test_node_without_spare_keeps_entries_nonnegative(self):
        """Node 0's start spare mu_0 - Lambda/m is exactly zero, so the
        zero-rate scheduler's entry there is x_0 + y_0*mu_0 = 0, a sum that
        cancels: evaluated as a fused multiply-add and not clipped, it is
        -4.9e-18, which no allocation may hold."""
        config = build_config(
            nodes=[NodeParams(mu=1e-4, mu_prime=0.0, gamma=0.0, beta1=5e3),
                   NodeParams(mu=1e-3, mu_prime=0.0, gamma=0.0, beta1=5e2)],
            schedulers=[SchedulerParams(lam=0.0), SchedulerParams(lam=2e-4)],
            rho=0.5,
        )
        assert config.mu[0] - config.lam.sum() / config.n_nodes == 0.0
        report = assert_balanced_matches_rows(config, single_pass=True)
        assert report.allocation.entries.min() >= 0.0

    def test_zero_spare_runs_row_by_row(self, monkeypatch):
        config = zero_spare_config()
        assert config.mu.sum() - config.lam.sum() == 0.0
        calls = count_balanced_rows(monkeypatch)
        report = assert_balanced_matches_rows(config)
        assert calls == [0, 1]
        assert report.cycles == 1
        assert report.objective == pytest.approx(3.75, rel=1e-12)

    def test_clamped_pool_runs_one_row_sweep(self, monkeypatch):
        """Only the clamped first sweep runs row by row; the later sweeps
        scan the matrix it built."""
        config = clamped_pool(60)
        assert config.mu[0] < config.lam.sum() / config.n_nodes
        calls = count_balanced_rows(monkeypatch)
        report = bsa_solve(config)
        assert report.cycles > 1
        assert calls == list(range(config.n_schedulers))

    def test_coordinate_sweeps_hold_no_matrix(self, monkeypatch):
        """The sweeps of an unclamped solve allocate O(n + m) bytes; the
        matrix is built once, for the report."""
        config = hot_pool(0, 300)
        held = {}

        def capture(config, delta, sweep, rows, single_pass):
            held.update(delta=delta, sweep=sweep)

        monkeypatch.setattr(baseline, "_sweep_until_stable", capture)
        bsa_solve(config)
        delta, sweep = held["delta"], held["sweep"]
        matrix_bytes = config.n_schedulers * config.n_nodes * 8
        peak = TestPeakMemory.peak_bytes(
            lambda: [sweep(delta) for _ in range(5)])
        assert peak <= 0.1 * matrix_bytes


class TestFirstSweep:
    """Round robin's first sweep reaches the optimum's loads (the proof
    sketch in equilibrium.py): from the uniform start, one sweep of exact
    best responses leaves the water-fill of the whole stream."""

    @pytest.mark.parametrize("case", SPAN_CASES)
    def test_first_sweep_leaves_the_water_fill(self, case):
        loads, fill = first_sweep_and_water_fill(span_config(case))
        assert np.abs(loads - fill).max() <= 1e-12 * fill.max()


def overload_config(lam):
    """Node 1 has three times node 0's rate but ten times its weight."""
    return build_config(
        nodes=[NodeParams(mu=1.0, mu_prime=0.0, gamma=0.0, beta1=0.1),
               NodeParams(mu=3.0, mu_prime=0.0, gamma=0.0, beta1=1.0)],
        schedulers=[SchedulerParams(lam=lam)],
        rho=0.5,
    )


# Rates of nine schedulers, four without one, on one node whose rate they
# sum to within rounding: sum(mu) - Lambda is +2.2e-19 exactly.
ROUNDING_SPARE_MU = 0.004300932554429321
ROUNDING_SPARE_RATES = [0.0, 0.00044792300740543426, 0.0,
                        0.0007820082821110926, 0.0008835279778086252,
                        0.0010409062849514432, 0.0, 0.001146567002152726,
                        0.0]


def rounding_spare_config(mu, rates):
    """One node at W*mu = 0.5, so every A_j stays above 0 at full load."""
    return build_config(
        nodes=[NodeParams(mu=mu, mu_prime=0.0, gamma=0.0, beta1=0.5 / mu)],
        schedulers=[SchedulerParams(lam=x) for x in rates],
        rho=0.5,
    )


class TestSpareWithinRounding:
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_idle_scheduler_finds_no_spare(self, ulps):
        """Whichever way sum(mu) - Lambda rounds, a scheduler without a
        rate finds no spare capacity: bsa_solve raises NoFeasibleResponse.
        It used to return, for ulps 0, a row of zeros that the report's
        Allocation refused with a ValidationError."""
        mu = ROUNDING_SPARE_MU
        for _ in range(abs(ulps)):
            mu = float(np.nextafter(mu, ulps * np.inf))
        config = rounding_spare_config(mu, ROUNDING_SPARE_RATES)
        assert abs(config.mu.sum() - config.lam.sum()) <= 2 * np.spacing(mu)
        with pytest.raises(NoFeasibleResponse):
            bsa_solve(config)
        assert solve(config).objective == pytest.approx(2.0)

    def test_busy_schedulers_solve(self):
        """Without the idle schedulers every row has its own rate to place:
        the solve runs row by row and returns."""
        rates = [x for x in ROUNDING_SPARE_RATES if x > 0.0]
        config = rounding_spare_config(sum(rates), rates)
        report = bsa_solve(config)
        assert report.allocation.entries.tolist() == [[1.0]] * len(rates)
