"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 2 is a quantitative reproduction attempt against
bundled reference gap values; the measured numbers are also recorded in
the README reproduction report.
"""

import time

import numpy as np
import pytest

from relsched import (
    Allocation,
    best_response_row,
    bsa_solve,
    fairness_index,
    nash_check,
    node_arrivals,
    numeric_best_response,
    objective,
    objective_all_schedulers,
    objective_curvature,
    objective_marginal,
    solve,
    traffic_empirical_rates,
)
from relsched.presets import REFERENCE_GAPS, preset

from conftest import closed_form_fractions, feasible_random_allocation

RHOS = [round(0.1 * k, 12) for k in range(1, 10)]
SCHEDULER_COUNTS = range(5, 21)
NODE_COUNTS = range(10, 21)


def _criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {state}{suffix}")


def _grid_points():
    for rho in RHOS:
        yield preset("table1-table2", rho=rho)
        yield preset("table1-table3", rho=rho)
        for n in SCHEDULER_COUNTS:
            yield preset("table4-table5", rho=rho, n_schedulers=n)
        for m in NODE_COUNTS:
            yield preset("table6-table7", rho=rho, n_nodes=m)


def test_criterion_1_ordering_and_runtime():
    start = time.perf_counter()
    worst = -np.inf
    points = 0
    for config in _grid_points():
        gap = bsa_solve(config).objective - solve(config).objective
        worst = max(worst, -gap)
        points += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _criterion(1, "ordering", ok,
               f"{points} points, worst RBSA excess {worst:.3g}, "
               f"{elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


@pytest.mark.parametrize("name", ["table1-table2", "table1-table3"])
def test_criterion_2_reference_gap(name):
    config = preset(name, rho=0.5)
    measured = bsa_solve(config).objective - solve(config).objective
    reference = REFERENCE_GAPS[name]
    sign_ok = measured > 0.0
    magnitude_ok = 0.5 * reference <= measured <= 1.5 * reference
    ok = sign_ok and magnitude_ok
    _criterion(2, f"reference gap {name}", ok,
               f"measured {measured:.6g} vs reference {reference:.6g}")
    assert sign_ok
    assert magnitude_ok, (
        f"{name}: measured gap {measured:.6g} outside +/-50% of the "
        f"reference {reference:.6g}"
    )


def test_criterion_3_monotone_in_load():
    d_game, d_bal = [], []
    for rho in RHOS:
        config = preset("table1-table2", rho=rho)
        d_game.append(solve(config).objective)
        d_bal.append(bsa_solve(config).objective)
    gaps = [b - g for g, b in zip(d_game, d_bal)]
    increasing = all(
        later > earlier + 1e-9
        for series in (d_game, d_bal)
        for earlier, later in zip(series, series[1:])
    )
    widening = all(
        later >= earlier - 1e-9 for earlier, later in zip(gaps, gaps[1:])
    )
    _criterion(3, "monotone objectives and gap", increasing and widening,
               f"gap {gaps[0]:.3g} -> {gaps[-1]:.3g}")
    assert increasing
    assert widening


def test_criterion_4_fairness_everywhere():
    worst = 0.0

    def check(config):
        nonlocal worst
        for report in (solve(config), bsa_solve(config)):
            values = objective_all_schedulers(report.allocation, config)
            worst = max(worst, abs(fairness_index(values) - 1.0))

    for rho in RHOS:
        check(preset("table1-table2", rho=rho))
    for n in SCHEDULER_COUNTS:
        check(preset("table4-table5", n_schedulers=n))
    for m in NODE_COUNTS:
        check(preset("table6-table7", n_nodes=m))
    ok = worst <= 1e-9
    _criterion(4, "fairness index", ok, f"worst |FI-1| {worst:.3g}")
    assert ok


def test_criterion_5_convergence_speed():
    worst_cycles = 0
    trace_ok = True
    for config in _grid_points():
        report = solve(config)
        worst_cycles = max(worst_cycles, report.cycles)
        for earlier, later in zip(report.epsilon_trace,
                                  report.epsilon_trace[1:]):
            trace_ok = trace_ok and later <= earlier + 1e-12
    ok = worst_cycles <= 5 and trace_ok
    _criterion(5, "convergence", ok, f"max cycles {worst_cycles}")
    assert worst_cycles <= 5
    assert trace_ok


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    small_instances = [
        preset("table1-table2", n_nodes=m) for m in (2, 4, 6)
    ] + [
        preset("table1-table3", n_nodes=m) for m in (3, 5)
    ] + [
        preset("table6-table7", n_nodes=m) for m in (4, 6)
    ]
    worst_entry = 0.0
    worst_value = 0.0
    worst_gain = 0.0
    for config in small_instances:
        uniform = Allocation.uniform(config.n_schedulers, config.n_nodes)
        report = solve(config)
        for alloc in (uniform, report.allocation):
            for i in (0, config.n_schedulers - 1):
                closed = best_response_row(i, alloc, config)
                numeric = numeric_best_response(i, alloc, config)
                worst_entry = max(
                    worst_entry, float(np.max(np.abs(closed.row - numeric)))
                )
                closed_val = objective(
                    alloc.replace_row(i, closed.row), config)
                numeric_val = objective(alloc.replace_row(i, numeric), config)
                worst_value = max(worst_value, closed_val - numeric_val)
        ok_i, gain = nash_check(report.allocation, config, tolerance=1e-6)
        worst_gain = max(worst_gain, gain)
        assert ok_i
    elapsed = time.perf_counter() - start
    ok = worst_entry < 1e-4 and worst_value <= 1e-6 and \
        worst_gain <= 1e-6 and elapsed < 60.0
    _criterion(6, "oracle equivalence", ok,
               f"worst entry dev {worst_entry:.3g}, worst objective excess "
               f"{worst_value:.3g}, worst nash gain {worst_gain:.3g}, "
               f"{elapsed:.1f}s")
    assert worst_entry < 1e-4
    assert worst_value <= 1e-6
    assert worst_gain <= 1e-6
    assert elapsed < 60.0


@pytest.mark.parametrize("name", [
    "table1-table2", "table1-table3", "table4-table5", "table6-table7",
])
def test_criterion_7_derivatives(name):
    config = preset(name)
    lam = config.lam
    weights = config.weights
    rng = np.random.default_rng(97)
    h = 1e-6

    def objective_fn(entries):
        avail = 1.0 - (entries.T @ lam) * weights
        assert avail.min() > 0.0
        return float(np.sum(1.0 / avail))

    worst_first = 0.0
    worst_second = 0.0
    for _ in range(100):
        alloc = feasible_random_allocation(rng, config)
        entries = np.array(alloc.entries)
        i = int(rng.integers(config.n_schedulers))
        for j in range(config.n_nodes):
            analytic = objective_marginal(i, j, entries, config)
            up, down = entries.copy(), entries.copy()
            up[i, j] += h
            down[i, j] -= h
            numeric = (objective_fn(up) - objective_fn(down)) / (2 * h)
            worst_first = max(worst_first,
                              abs(numeric - analytic) / analytic)

            curvature = objective_curvature(i, j, entries, config)
            assert curvature > 0.0
            # double differencing of the objective at h = 1e-6 drowns in
            # float64 roundoff, so the curvature is checked against the
            # central difference of the analytic first derivative
            slope = (objective_marginal(i, j, up, config)
                     - objective_marginal(i, j, down, config)) / (2 * h)
            worst_second = max(worst_second,
                               abs(slope - curvature) / curvature)
    ok = worst_first <= 1e-5 and worst_second <= 1e-5
    _criterion(7, f"derivatives {name}", ok,
               f"worst rel err first {worst_first:.3g}, "
               f"second {worst_second:.3g}")
    assert worst_first <= 1e-5
    assert worst_second <= 1e-5


def test_criterion_8_multiplier_closure():
    worst = 0.0
    rng = np.random.default_rng(41)
    for name in ("table1-table2", "table1-table3", "table4-table5",
                 "table6-table7"):
        config = preset(name)
        allocations = [
            Allocation.uniform(config.n_schedulers, config.n_nodes),
            feasible_random_allocation(rng, config),
            solve(config).allocation,
        ]
        for alloc in allocations:
            for i in range(config.n_schedulers):
                result = best_response_row(i, alloc, config)
                active = np.nonzero(result.row > 0.0)[0]
                fractions = closed_form_fractions(i, result.alpha, alloc,
                                                  config)
                total = sum(float(fractions[j]) for j in active)
                worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-10
    _criterion(8, "multiplier closure", ok, f"worst |sum-1| {worst:.3g}")
    assert ok


def test_criterion_9_traffic_oracle():
    config = preset("table1-table2")
    report = solve(config)
    expected = node_arrivals(report.allocation, config)
    horizon = 1e7
    sigma = np.sqrt(expected / horizon)
    hits = 0
    trials = 0
    for seed in range(20):
        measured = traffic_empirical_rates(report.allocation, config,
                                           horizon=horizon, seed=seed)
        within = np.abs(measured - expected) <= 3.0 * sigma
        hits += int(within.sum())
        trials += config.n_nodes
    fraction = hits / trials
    ok = fraction >= 0.95
    _criterion(9, "traffic oracle", ok,
               f"{hits}/{trials} node-runs within 3 sigma")
    assert ok
