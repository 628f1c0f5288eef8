"""Balanced scheduling baseline: allocate proportionally to residual capacity.

Each scheduler's row is the normalised vector of capacities the nodes
still offer it.  Because those capacities depend on the other schedulers'
rows, the system-wide allocation is resolved by the same sweep-until-
stable loop as the game solver, from the same uniform start, which keeps
the comparison between the two algorithms symmetric.  A single-pass mode
(one sweep, no iteration) is available for sensitivity checks.

A sweep replaces the rows in order, each row seeing the rows before it.
Row i is r_i = max(mu - o_i, 0) / its sum, where o_i is the load of every
scheduler but i.  Write a_i for row i before the sweep, c_i = mu - delta
for the spare capacity once rows 1..i are replaced, and s = sum(c_0).
Then mu - o_i = c_{i-1} + lam_i*a_i.  If c_0 >= 0, no row clamps for the
whole sweep, by induction: while c_{i-1} = s*r_{i-1} (r_0 = c_0/s), the
residual c_{i-1} + lam_i*a_i is a nonnegative combination of c_0 and
earlier rows, so the clamp is idle; it sums to s + lam_i because a_i sums
to 1, and c_i = c_{i-1} + lam_i*a_i - lam_i*r_i = s*r_i again.  So

    r_i = w_i*r_{i-1} + (1 - w_i)*a_i,   r_0 = c_0/s,   w_i = s/(s + lam_i).

That first-order linear recurrence has the closed form

    r_i = P_i * (c_0/s + sum_{k<=i} (1 - w_k)/P_k * a_k),   P_i = w_1...w_i,

one cumprod over the schedulers and one cumsum down the columns, which
_scan_sweep computes in place on the entries.  Every term is nonnegative,
so the sums carry only rounding error relative to the entry.  A sweep the
scan cannot take is left to the loop, which runs it row by row through
_balanced_row; the input alone decides which:

- some node starts the sweep loaded beyond its service rate (c_0 < 0), so
  the clamp may bind.  From the uniform start this needs a node with
  W_j*mu_j < 1, which a config file may give the CLI;
- s <= 0: no spare capacity at all;
- P_n is below the smallest normal double, so 1/P_k loses precision or
  overflows (many heavy schedulers on little spare capacity).
"""

from __future__ import annotations

import numpy as np

from .equilibrium import EquilibriumReport, _sweep_until_stable
from .errors import AllNodesSaturated
from .model import SystemConfig

# The scan divides by the running products P_k of the weights; below the
# smallest normal double a product loses precision and its reciprocal can
# overflow, so such a sweep runs row by row.
_SMALLEST_SCAN_PRODUCT = np.finfo(float).tiny


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


def _scan_sweep(entries: np.ndarray, delta: np.ndarray,
                config: SystemConfig) -> bool:
    """One balanced sweep as a prefix scan, in place, from the node loads
    delta at the sweep's start.  Returns False, leaving entries untouched,
    when the sweep must run row by row (see the module docstring)."""
    spare, lam = config.mu - delta, config.lam
    if spare.min() < 0.0:
        return False
    s = float(np.add.reduce(spare))
    if s <= 0.0:
        return False
    total = s + lam
    weight = s / total
    product = np.cumprod(weight)
    if product[-1] < _SMALLEST_SCAN_PRODUCT:
        return False
    # lam/total is 1 - weight without the cancellation where lam << s.
    entries *= (lam / total / product)[:, None]
    np.cumsum(entries, axis=0, out=entries)
    entries += spare / s
    entries *= product[:, None]
    return True


def bsa_solve(config: SystemConfig, *,
              single_pass: bool = False) -> EquilibriumReport:
    """Iterate balanced rows to a fixed point (or one sweep if single_pass)."""
    mu = config.mu
    return _sweep_until_stable(
        config, lambda i, lam_i, others: _balanced_row(i, others, mu),
        single_pass, scan=_scan_sweep)
