"""Numeric-minimiser and traffic-simulation oracles."""

import math
from itertools import combinations
from math import comb
from unittest import mock

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
from relsched import oracle
from relsched.model import others_load_vector
from relsched.presets import PRESET_NAMES, preset


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

    def test_zero_rate_scheduler_keeps_its_row(self):
        # a flat objective: the current row comes back as it is, a copy
        config = build_config(
            nodes=[NodeParams.from_rate(0.02), NodeParams.from_rate(0.04)],
            schedulers=[SchedulerParams(lam=0.0), SchedulerParams(lam=0.005)],
            rho=0.5,
        )
        alloc = Allocation(np.array([[0.9, 0.1], [0.5, 0.5]]))
        row = numeric_best_response(0, alloc, config)
        assert row.tolist() == [0.9, 0.1]
        assert not np.shares_memory(row, alloc.entries)

    @pytest.mark.parametrize("raw", [False, True], ids=["allocation", "raw"])
    def test_zero_rate_scheduler_at_equilibrium(self, raw):
        # scheduler 0's row does not move the loads, so the others' solved
        # rows stay an equilibrium whatever it holds; on a raw matrix both
        # calls used to raise AttributeError reading alloc.entries
        config = build_config(
            nodes=[NodeParams.from_rate(0.02), NodeParams.from_rate(0.04)],
            schedulers=[SchedulerParams(lam=0.0), SchedulerParams(lam=0.005)],
            rho=0.5,
        )
        entries = np.array(solve(config).allocation.entries)
        entries[0] = [0.9, 0.1]
        alloc = entries if raw else Allocation(entries)
        assert nash_check(alloc, config) == (True, 0.0)
        row = numeric_best_response(0, alloc, config)
        assert row.tolist() == [0.9, 0.1]
        assert not np.shares_memory(row, alloc if raw else alloc.entries)

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
    # the residual-capacity row and every pair step stays feasible
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


@st.composite
def loaded_rows(draw):
    """n rows over m nodes of load weights W, some shares exactly 0 and
    some rates 0, with the rates scaled so that the busiest node runs at
    a load from 1 % to 99.9 % of its capacity."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=2, max_value=8))
    weights = np.array([10.0 ** draw(st.floats(min_value=-1.0, max_value=2.0))
                        for _ in range(m)])
    share = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))
    entries = np.array([[draw(share) for _ in range(m)] for _ in range(n)])
    entries[entries.sum(axis=1) == 0.0] = 1.0
    entries /= entries.sum(axis=1, keepdims=True)
    rate = st.floats(min_value=0.01, max_value=1.0)
    maybe_zero = st.one_of(st.just(0.0), rate)
    lam = np.array([draw(rate)] + [draw(maybe_zero) for _ in range(n - 1)])
    load = draw(st.floats(min_value=0.01, max_value=0.999))
    lam *= load / ((entries.T @ lam) * weights).max()
    return entries, lam, weights


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


def from_uniform_gain(alloc, config):
    """nash_check's worst gain, with every descent started where
    numeric_best_response starts it instead of at the scheduler's row."""
    current = objective(alloc, config)
    return max(0.0, *(
        current - objective(alloc.replace_row(
            i, numeric_best_response(i, alloc, config)), config)
        for i in range(config.n_schedulers)))


def nudged_equilibrium(config):
    """solve's allocation with 1e-3 of scheduler 0's mass moved from its
    most to its second most loaded node."""
    entries = np.array(solve(config).allocation.entries)
    p, q = np.argsort(entries[0])[::-1][:2]
    entries[0, p] -= 1e-3
    entries[0, q] += 1e-3
    return Allocation(entries)


class TestNashCheckStart:
    # nash_check descends from each scheduler's own row; by strict
    # convexity of the row objective the start must not change the answer

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("where", ["uniform", "nudged"])
    def test_same_verdict_as_uniform_start(self, name, where):
        config = preset(name)
        alloc = (Allocation.uniform(config.n_schedulers, config.n_nodes)
                 if where == "uniform" else nudged_equilibrium(config))
        tolerance = 1e-6
        ok, worst = nash_check(alloc, config, tolerance=tolerance)
        reference = from_uniform_gain(alloc, config)
        assert ok == (reference <= tolerance)
        assert worst == pytest.approx(reference, rel=0.0, abs=1e-9)

    def test_equilibrium_checked_in_at_most_two_sweeps(self):
        # at an equilibrium most descents stop after their first sweep, and
        # each first sweep starts at its row's first moving pair: fewer
        # steps in all than one full sweep per scheduler, which a check
        # that ran every first sweep from pair 0 would already take.  On
        # solved table1-table3 and table6-table7 some steps do run
        for name in PRESET_NAMES:
            config = preset(name)
            alloc = solve(config).allocation
            with mock.patch.object(oracle, "_pair_step",
                                   wraps=oracle._pair_step) as spy:
                ok, _ = nash_check(alloc, config)
            n, m = config.n_schedulers, config.n_nodes
            assert ok
            assert spy.call_count < n * m * (m - 1) // 2

    def test_zero_gain_passes_at_zero_tolerance(self):
        # solve's output on table1-table2 has a worst gain of exactly 0,
        # and a gain equal to the tolerance counts as none
        config = preset("table1-table2")
        alloc = solve(config).allocation
        assert nash_check(alloc, config, tolerance=0.0) == (True, 0.0)


def reference_pair_step(row, p, q, others, weights, caps, lam_i):
    """Plain reference for oracle._pair_step: both reciprocal sums go
    through one pair closure, and min and max clip."""
    xp, xq = row[p], row[q]
    lo, hi = max(-xp, xq - caps[q]), min(xq, caps[p] - xp)
    if hi <= lo:
        return
    op, oq, wp, wq = others[p], others[q], weights[p], weights[q]

    def pair(yp, yq):
        ap = 1.0 - (op + lam_i * yp) * wp
        aq = 1.0 - (oq + lam_i * yq) * wq
        if not (0.0 < ap <= 1.0 and 0.0 < aq <= 1.0):
            return math.inf
        return 1.0 / ap + 1.0 / aq

    ap = 1.0 - (op + lam_i * xp) * wp
    aq = 1.0 - (oq + lam_i * xq) * wq
    s = math.sqrt(wp / wq)
    t = min(max((ap - s * aq) / (lam_i * (wp + s * wq)), lo), hi)
    bp = min(max(xp + t, 0.0), 1.0)
    bq = min(max(xq - t, 0.0), 1.0)
    if pair(bp, bq) < pair(xp, xq):
        row[p], row[q] = bp, bq


def reference_descend(i, alloc, config, start=None):
    """Plain reference for oracle._descend, on reference_pair_step and
    others_load_vector."""
    m = config.n_nodes
    lam_i = float(config.lam[i])
    others = others_load_vector(i, alloc, config)
    if lam_i == 0.0:
        return np.array(alloc.entries[i])
    if m == 1:
        return np.ones(1)
    weights = config.weights
    caps = (1.0 / weights - others) / lam_i
    if start is not None:
        row = np.array(start, dtype=float)
    else:
        row = np.full(m, 1.0 / m)
        if (caps <= row).any():
            spare = np.maximum(caps, 0.0)
            if spare.sum() > 0.0:
                row = spare / spare.sum()
    others, weights, caps = others.tolist(), weights.tolist(), caps.tolist()
    for _ in range(500):
        before = row
        trial = row.tolist()
        for p in range(m):
            for q in range(p + 1, m):
                reference_pair_step(trial, p, q, others, weights, caps,
                                    lam_i)
        row = np.maximum(trial, 0.0)
        row /= row.sum()
        if np.max(np.abs(row - before)) < 1e-10:
            break
    return row


def reference_nash_check(alloc, config):
    """Plain reference for nash_check at its default tolerance: (ok, worst)
    and every candidate row's bytes, each candidate scored on a validated
    Allocation."""
    worst = 0.0
    rows = []
    current = objective(alloc, config)
    for i in range(config.n_schedulers):
        candidate = reference_descend(i, alloc, config, alloc.entries[i])
        rows.append(candidate.tobytes())
        value = objective(alloc.replace_row(i, candidate), config)
        worst = max(worst, current - value)
    return (worst <= 1e-6, worst), rows


def package_nash_check(alloc, config):
    """nash_check's (ok, worst) and the bytes of every candidate row its
    descents return."""
    rows = []
    descend = oracle._descend

    def recorded(*args, **kwargs):
        row = descend(*args, **kwargs)
        rows.append(row.tobytes())
        return row

    with mock.patch.object(oracle, "_descend", recorded):
        verdict = nash_check(alloc, config)
    return verdict, rows


# the benchmark's oracle-verify instances: (preset, node count)
ORACLE_VERIFY = [("table1-table2", 4), ("table6-table7", 6),
                 ("table1-table2", 10), ("table6-table7", 15),
                 ("table1-table2", None)]


@pytest.mark.parametrize("name,m", ORACLE_VERIFY)
def test_solved_instance_checked_in_one_sweep(name, m):
    # at solve's output the array pass finds no pair step that moves any
    # row, so no descent runs a single _pair_step
    config = preset(name, n_nodes=m)
    alloc = solve(config).allocation
    entries = np.array(alloc.entries)
    first, _ = oracle._first_moves(entries, config.lam, config.weights,
                                   entries.T @ config.lam)
    m = config.n_nodes
    assert first.tolist() == [m * (m - 1) // 2] * config.n_schedulers
    with mock.patch.object(oracle, "_pair_step",
                           wraps=oracle._pair_step) as spy:
        ok, _ = nash_check(alloc, config)
    assert ok and spy.call_count == 0


class TestReferenceDescent:
    # the package's step clips without min and max and calls _pair, not a
    # closure, and nash_check forms the loads once; all must give the
    # reference's floats bit for bit

    # solved table1-table3 and table4-table5 have rows whose first move
    # comes at an interior pair, so their first sweeps start mid-sweep
    @pytest.mark.parametrize("name,m", ORACLE_VERIFY + [
        ("table1-table3", None), ("table4-table5", None)])
    def test_nash_check_at_equilibrium(self, name, m):
        config = preset(name, n_nodes=m)
        alloc = solve(config).allocation
        assert (package_nash_check(alloc, config)
                == reference_nash_check(alloc, config))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("where", ["uniform", "nudged"])
    def test_nash_check_off_equilibrium(self, name, where):
        config = preset(name)
        alloc = (Allocation.uniform(config.n_schedulers, config.n_nodes)
                 if where == "uniform" else nudged_equilibrium(config))
        assert (package_nash_check(alloc, config)
                == reference_nash_check(alloc, config))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(feasible_rows())
    def test_numeric_best_response_on_random_rows(self, problem):
        # the reference keeps the capacity clip that _pair_step dropped
        config, alloc = problem
        assert (numeric_best_response(0, alloc, config).tobytes()
                == reference_descend(0, alloc, config).tobytes())

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(loaded_rows())
    def test_nash_check_on_random_rows(self, problem):
        entries, lam, weights = problem
        config = build_config(
            nodes=[NodeParams(mu=1.0, mu_prime=0.0, gamma=0.0, beta1=w)
                   for w in weights],
            schedulers=[SchedulerParams(lam=x) for x in lam], rho=0.5)
        alloc = Allocation(entries)
        verdict, rows = reference_nash_check(alloc, config)
        # nash_check descends only the rows of positive rate
        assert package_nash_check(alloc, config) == (
            verdict, [row for row, x in zip(rows, lam) if x > 0.0])

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_numeric_best_response_from_uniform(self, name):
        config = preset(name)
        alloc = Allocation.uniform(config.n_schedulers, config.n_nodes)
        for i in (0, config.n_schedulers - 1):
            assert (numeric_best_response(i, alloc, config).tobytes()
                    == reference_descend(i, alloc, config).tobytes())


def test_one_node_rows_are_exactly_one():
    # with one node every descent returns its start divided by itself
    config = preset("table1-table2", n_nodes=1)
    alloc = Allocation.uniform(config.n_schedulers, 1)
    verdict, rows = package_nash_check(alloc, config)
    assert verdict == (True, 0.0)
    assert rows == [np.ones(1).tobytes()] * config.n_schedulers
    for i in range(config.n_schedulers):
        assert numeric_best_response(i, alloc, config).tolist() == [1.0]


def pair_step(mus, lam, row, p=0, q=1):
    """One oracle._pair_step along (p, q) on the one-scheduler instance of
    node rates mus and rate lam, from row; returns the row it leaves and
    the load weights."""
    weights = single_scheduler(mus, lam).weights.tolist()
    row = list(row)
    oracle._pair_step(row, p, q, [0.0] * len(mus), weights, lam)
    return row, weights


def availabilities(row, weights, lam):
    return [1.0 - lam * y * w for y, w in zip(row, weights)]


class TestPairStep:
    # the step against the pair's optimality condition and its clips, not
    # against a copy of its arithmetic

    @pytest.mark.parametrize("start", [0.5, 0.1, 0.9])
    @pytest.mark.parametrize("p,q", [(0, 1), (1, 0)])
    def test_interior_step_balances_the_pair(self, start, p, q):
        # one step lands where W_p/A_p^2 = W_q/A_q^2, the stationary point
        # of 1/A_p + 1/A_q, whatever the start and the pair's orientation
        mus, lam = (0.02, 0.03), 0.009
        row, weights = pair_step(mus, lam, [start, 1.0 - start], p, q)
        a0, a1 = availabilities(row, weights, lam)
        assert 0.0 < row[0] < 1.0 and sum(row) == pytest.approx(1.0)
        assert weights[0] / a0 ** 2 == pytest.approx(weights[1] / a1 ** 2,
                                                     rel=1e-14, abs=0.0)
        closed = best_response_row(0, Allocation.uniform(1, 2),
                                   single_scheduler(mus, lam)).row
        assert np.max(np.abs(np.array(row) - closed)) < 1e-12

    @pytest.mark.parametrize("p,q", [(0, 1), (1, 0)])
    def test_idle_slow_node_clipped_to_zero(self, p, q):
        # node 0 (rate 0.02) is idle at the optimum: the unclipped move
        # overshoots, the clip stops its share at exactly 0, and a second
        # step leaves the row where it is
        mus, lam = (0.02, 0.04), 0.005
        row, weights = pair_step(mus, lam, [0.5, 0.5], p, q)
        assert row == [0.0, 1.0]
        again, _ = pair_step(mus, lam, row, p, q)
        assert again == [0.0, 1.0]

    @pytest.mark.parametrize("gap", [1e-3, 1e-9, 1e-15])
    @pytest.mark.parametrize("p,q", [(0, 1), (1, 0)])
    def test_start_near_capacity_stays_feasible(self, gap, p, q):
        # node 0's availability starts gap above zero; the step moves mass
        # off it and both availabilities stay in (0, 1]
        mus, lam = (0.02, 0.04), 0.02
        weights = single_scheduler(mus, lam).weights.tolist()
        start = (1.0 - gap) / (lam * weights[0])
        before = availabilities([start, 1.0 - start], weights, lam)
        assert 0.0 < before[0] < 2 * gap
        row, _ = pair_step(mus, lam, [start, 1.0 - start], p, q)
        after = availabilities(row, weights, lam)
        assert row[0] < start
        assert all(0.0 < a <= 1.0 for a in after)


class TestPair:
    # the pair's reciprocal sum, and inf outside (0, 1], exactly at each
    # end of the interval

    def test_share_past_capacity_is_inf(self):
        # with o = 0, lam = 1 and W = 1, a share y gives A = 1 - y exactly
        assert oracle._pair(0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.75) == 6.0
        assert oracle._pair(0.0, 0.0, 1.0, 1.0, 1.0, 1.5, 0.5) == math.inf
        assert oracle._pair(0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 1.5) == math.inf

    def test_availability_zero_is_inf_and_one_is_finite(self):
        assert oracle._pair(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.5) == math.inf
        assert oracle._pair(0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 1.0) == math.inf
        assert oracle._pair(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.5) == 3.0
        assert oracle._pair(0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.0) == 3.0

    def test_availability_above_one_is_inf(self):
        # a negative share lifts A above 1, which no row reaches
        assert oracle._pair(0.0, 0.0, 1.0, 1.0, 1.0, -0.5, 0.5) == math.inf
        assert oracle._pair(0.0, 0.0, 1.0, 1.0, 1.0, 0.5, -0.5) == math.inf


def stepwise_first_moves(entries, lam, weights):
    """Reference for oracle._first_moves: for each row, the first pair in
    sweep order at which one _pair_step changes a fresh copy of the row,
    or the pair count if none does or the row's rate is zero."""
    pairs = list(combinations(range(weights.size), 2))
    delta = entries.T @ lam
    firsts = []
    for i, lam_i in enumerate(lam.tolist()):
        others = (delta - lam_i * entries[i]).tolist()
        start = entries[i].tolist()
        firsts.append(len(pairs))
        for k, (p, q) in enumerate(pairs if lam_i > 0.0 else []):
            row = list(start)
            oracle._pair_step(row, p, q, others, weights.tolist(), lam_i)
            if row != start:
                firsts[-1] = k
                break
    return firsts


def first_moves(entries, lam, weights):
    """oracle._first_moves' first moving pairs, after checking them against
    stepwise_first_moves and its others' loads against the per-row
    expression bit for bit."""
    entries, lam = np.array(entries, dtype=float), np.array(lam, dtype=float)
    weights = np.array(weights, dtype=float)
    delta = entries.T @ lam
    first, others = oracle._first_moves(entries, lam, weights, delta)
    assert first.tolist() == stepwise_first_moves(entries, lam, weights)
    for i, lam_i in enumerate(lam.tolist()):
        assert (others[i].tobytes()
                == (delta - lam_i * entries[i]).tobytes())
    return first.tolist()


def near_capacity_row(gap):
    """One scheduler over nodes of rates 0.02 and 0.04 whose row leaves
    node 0's availability gap above zero."""
    mus, lam = (0.02, 0.04), 0.02
    weights = single_scheduler(mus, lam).weights
    start = (1.0 - gap) / (lam * weights[0])
    return [[start, 1.0 - start]], [lam], weights


def two_node_row(mus, row, lam=0.005):
    return [row], [lam], single_scheduler(mus, lam).weights


class TestFirstMoves:
    # the array pass against _pair_step itself, pair by pair

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(loaded_rows())
    def test_matches_the_first_step_that_moves(self, problem):
        first_moves(*problem)

    @pytest.mark.parametrize("mus,row,first", [
        # the slow node 0 is idle at the optimum: the step is clipped at
        # share 0, or, from there, clipped to no move at all
        ((0.02, 0.04), [0.5, 0.5], 0),
        ((0.02, 0.04), [0.0, 1.0], 1),
        # the fast node 0 takes the whole row: clipped at share 1
        ((0.04, 0.02), [0.5, 0.5], 0),
        ((0.04, 0.02), [1.0, 0.0], 1),
    ])
    def test_clipped_steps(self, mus, row, first):
        assert first_moves(*two_node_row(mus, row)) == [first]

    def test_two_idle_nodes_are_skipped(self):
        # pair (0, 1) holds no share, where the step returns at once, so
        # the first move is at pair (0, 2), onto the faster node 0
        weights = single_scheduler([0.04, 0.02, 0.03], 0.005).weights
        assert first_moves([[0.0, 0.0, 1.0]], [0.005], weights) == [1]

    @pytest.mark.parametrize("gap", [1e-3, 1e-9, 1e-15])
    def test_availability_just_above_zero(self, gap):
        assert first_moves(*near_capacity_row(gap)) == [0]

    def test_zero_rate_rows_have_no_move(self):
        # a zero rate would divide by zero in the step; the pass reports
        # the pair count for it, and nash_check never descends its row
        weights = single_scheduler([0.02, 0.04, 0.03], 0.005).weights
        entries = [[0.5, 0.2, 0.3], [0.9, 0.0, 0.1], [0.2, 0.3, 0.5]]
        assert first_moves(entries, [0.0, 0.005, 0.0], weights) == [3, 0, 3]

    def test_one_node_has_no_pairs(self):
        assert first_moves([[1.0], [1.0]], [0.004, 0.0], [50.0]) == [0, 0]


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

    @pytest.mark.parametrize("horizon", [1e22, 1e300])
    def test_rejects_horizon_beyond_poisson_sampler(self, table12, horizon):
        # numpy draws a Poisson count of mean up to about 9.2e18; beyond
        # it numpy raised a bare ValueError
        alloc = Allocation.uniform(table12.n_schedulers, table12.n_nodes)
        with pytest.raises(ValidationError, match="horizon"):
            traffic_empirical_rates(alloc, table12, horizon=horizon, seed=1)
        assert traffic_empirical_rates(alloc, table12, horizon=1e21,
                                       seed=1).shape == (table12.n_nodes,)

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
