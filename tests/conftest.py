import numpy as np
import pytest

from relsched import (
    Allocation,
    NodeParams,
    SchedulerParams,
    build_config,
    preset,
)
from relsched.baseline import _balanced_row
from relsched.best_response import _RowKernel
from relsched.equilibrium import _row_sweep


@pytest.fixture
def two_node_config():
    """Single scheduler at rate 0.005 over nodes with rates 0.02 and 0.04."""
    return build_config(
        nodes=[NodeParams.from_rate(0.02), NodeParams.from_rate(0.04)],
        schedulers=[SchedulerParams(phi=1.0, lam=0.005)],
        rho=0.5,
    )


@pytest.fixture
def twin_node_config():
    """Single scheduler over two identical 0.02-rate nodes."""
    return build_config(
        nodes=[NodeParams.from_rate(0.02), NodeParams.from_rate(0.02)],
        schedulers=[SchedulerParams(phi=1.0, lam=0.005)],
        rho=0.5,
    )


@pytest.fixture
def no_records(monkeypatch):
    """NodeParams and SchedulerParams refuse to be built: presets, config
    files and the CLI work on columns of numbers and never make one."""
    def refuse(record):
        raise AssertionError(f"{type(record).__name__} built")
    for cls in (NodeParams, SchedulerParams):
        monkeypatch.setattr(cls, "__post_init__", refuse)


@pytest.fixture
def even_split():
    return Allocation(np.array([[0.5, 0.5]]))


@pytest.fixture
def table12():
    return preset("table1-table2")


@pytest.fixture
def table13():
    return preset("table1-table3")


def feasible_random_allocation(rng, config, min_availability=0.2):
    """Dirichlet rows resampled until every node keeps clear headroom."""
    weights = config.weights
    lam = config.lam
    n, m = config.n_schedulers, config.n_nodes
    for _ in range(1000):
        entries = rng.dirichlet(np.ones(m), size=n)
        avail = 1.0 - (entries.T @ lam) * weights
        if avail.min() >= min_availability:
            return Allocation(entries)
    raise AssertionError("could not sample a feasible allocation")


def closed_form_fractions(i, alpha, alloc, config):
    """Closed-form slicing fraction of every node for scheduler i at
    multiplier alpha: (1 - W_j*o_j - sqrt(W_j*lam_i/alpha)) / (W_j*lam_i),
    where o_j is the load the other schedulers put on node j.  Negative
    where the node should receive nothing at this multiplier."""
    lam = config.lam
    weights = config.weights
    others = alloc.entries.T @ lam - lam[i] * alloc.entries[i]
    return (1.0 - weights * others - np.sqrt(weights * lam[i] / alpha)) / (
        weights * lam[i])


def best_row(i, lam_i, others, weights):
    """A fresh kernel's row written into a fresh array: (row, active_count,
    alpha)."""
    row = np.empty(others.size)
    count, alpha = _RowKernel(weights).row(i, lam_i, others, row)
    return row, count, alpha


def balanced_row(i, others, mu):
    """_balanced_row written into a fresh row, which it returns."""
    row = np.empty(others.size)
    _balanced_row(i, others, mu, row)
    return row


def first_sweep_and_water_fill(config):
    """The node loads one round-robin sweep of best responses leaves from
    the uniform start, and the water-fill: the loads of one scheduler that
    places the whole stream Lambda alone, best_row(0, Lambda, 0, W) *
    Lambda, which are the optimum's loads."""
    lam, weights = config.lam, config.weights
    entries = np.full((config.n_schedulers, config.n_nodes),
                      1.0 / config.n_nodes)
    loads = _row_sweep(entries, entries.T @ lam, lam,
                       _RowKernel(weights).row)
    total = float(lam.sum())
    fill = best_row(0, total, np.zeros(config.n_nodes), weights)[0] * total
    return loads, fill
