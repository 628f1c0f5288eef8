"""Balanced scheduling baseline: allocate proportionally to residual capacity.

Each scheduler's row is the normalised vector of capacities the nodes
still offer it.  Because those capacities depend on the other schedulers'
rows, the system-wide allocation is resolved by the same sweep-until-
stable loop as the game solver, from the same uniform start, which keeps
the comparison between the two algorithms symmetric.  That loop hands each
row the other schedulers' load from the load vector it keeps current by
rank-1 updates (resynchronised once per sweep), so a balanced row costs
O(m).  A single-pass mode (one sweep, no iteration) is available for
sensitivity checks.
"""

from __future__ import annotations

import numpy as np

from .equilibrium import EquilibriumReport, fixed_point_iteration
from .errors import AllNodesSaturated
from .model import Allocation, SystemConfig


def _balanced_row(i: int, others: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Balanced row for scheduler i: the residual capacity mu - others that
    each node still offers it, normalised; others is the per-node load of
    every scheduler except i."""
    # A node saturated by the others gets no share rather than a negative one.
    residual = np.maximum(mu - others, 0.0)
    total = np.add.reduce(residual)
    if total <= 0.0:
        raise AllNodesSaturated(
            f"no node has spare capacity for scheduler {i}"
        )
    return residual / total


def bsa_solve(config: SystemConfig, initial: Allocation | None = None,
              single_pass: bool = False) -> EquilibriumReport:
    """Iterate balanced rows to a fixed point (or one sweep if single_pass)."""
    mu = config.service_rates()

    def respond(i, lam_i, others):
        return _balanced_row(i, others, mu)

    return fixed_point_iteration(
        config, respond, initial=initial, single_pass=single_pass
    )
