"""Balanced scheduling baseline: allocate proportionally to residual capacity.

Each scheduler's row is the normalised vector of capacities the nodes
still offer it.  Because those capacities depend on the other schedulers'
rows, the system-wide allocation is resolved by the same sweep-until-
stable loop as the game solver, from the same uniform start, which keeps
the comparison between the two algorithms symmetric.  A single-pass mode
(one sweep, no iteration) is available for sensitivity checks.

A sweep replaces the rows in order, each row seeing the rows before it.
Row i becomes r_i = max(mu - o_i, 0) / its sum, where o_i is the load of
every scheduler but i.  Every row sums to 1, so the loads sum to
Lambda = sum(lam), and the spare capacity c = mu - delta sums to

    s = sum(mu) - Lambda

at the start of every sweep.  Where c >= 0 no row clamps during the
sweep: with a_i the old row i, row i's residual is c_{i-1} + lam_i*a_i, a
nonnegative vector that sums to s + lam_i, and c_i = s*r_i, by induction
from r_0 = c/s.  So r_i = w_i*r_{i-1} + (1 - w_i)*a_i, a prefix scan:

    r_i = P_i/s * (c + sum_{k<=i} lam_k*w_k/P_k * a_k),
    w_k = s/(s + lam_k),   P_i = w_1...w_i.

The weights and products depend on lam and s alone, so a solve computes
them once.

The scan is linear in c and the old rows, so it keeps the rows in any
span that holds c and them.  The uniform start is (1/m, 0) in the basis
{1, mu}.  If the rows are x_i*1 + y_i*mu and (X, Y) = lam @ (x, y), the
loads are X*1 + Y*mu and c is -X*1 + (1 - Y)*mu, in the span again.  So
_scan runs on the n x 2 coordinates, a sweep costs O(n + m), and the
n x m matrix is built once, for the report.

A sweep whose start has c < 0 on some node, possible only where
W_j*mu_j < 1, runs row by row through _balanced_row.  It needs the n x m
matrix, so rows() builds it once and makes it the coordinates, in the
identity basis; later sweeps scan it.  If s is at most _SPARE_RTOL *
sum(mu), or if P_n is below the smallest normal double (so 1/P_k loses
precision or overflows), the solve starts in the identity basis and runs
row by row, where a scheduler offered no more spare than that raises.
"""

from __future__ import annotations

import numpy as np

from .equilibrium import EquilibriumReport, _row_sweep, _sweep_until_stable
from .errors import NoFeasibleResponse
from .model import SystemConfig

_SMALLEST_SCAN_PRODUCT = np.finfo(float).tiny

# Spare capacity, relative to sum(mu), at or below which there is none:
# the scan needs s above it, and a row whose residual capacity sums to no
# more raises NoFeasibleResponse.  A scheduler without a rate gets the
# spare vector over s, whose sum is off by its rounding, a few eps*sum(mu),
# over s: noise over noise where s is zero to within rounding (a row of
# zeros, or a raise, by how s rounds), a few 1e-10 at this floor, inside
# the Allocation check's 1e-9.  On one node at W*mu = 0.5 with 9
# schedulers, some without a rate, a floor of 1e-9 left s at 1.5e-9
# relative to give 19 such rows in 500 draws; with this one, s at 1.01e-6
# to 1e-5 gave none.
_SPARE_RTOL = 1e-6


def _no_spare(spare: float, mu: np.ndarray) -> bool:
    """spare, a sum of residual capacities, is at most _SPARE_RTOL times
    the summed rates mu: no spare capacity at all."""
    return spare <= _SPARE_RTOL * float(np.add.reduce(mu))


def _balanced_row(i: int, others: np.ndarray, mu: np.ndarray,
                  out: np.ndarray) -> None:
    """Write scheduler i's balanced row into out: the residual capacity
    mu - others that each node still offers it, normalised; others is the
    per-node load of every scheduler except i.  Raises NoFeasibleResponse,
    before it writes, when the others leave no spare capacity (at most
    _SPARE_RTOL * sum(mu) in all): the same error as the game's best
    response."""
    # A node saturated by the others gets no share rather than a negative one.
    residual = np.maximum(mu - others, 0.0)
    total = np.add.reduce(residual)
    if _no_spare(total, mu):
        raise NoFeasibleResponse(
            f"no node has spare capacity for scheduler {i}"
        )
    np.divide(residual, total, out=out)


def _scan(coords: np.ndarray, spare: np.ndarray, scale: np.ndarray,
          product: np.ndarray) -> None:
    """One balanced sweep as a prefix scan, in place, on the rows'
    coordinates in one basis: spare holds the coordinates of c, scale the
    column lam*w/P and product the column P/s, so that row i ends as
    P_i/s * (c + sum_{k<=i} lam_k*w_k/P_k * a_k) (module docstring)."""
    coords *= scale
    np.add.accumulate(coords, axis=0, out=coords)
    coords += spare
    coords *= product


def bsa_solve(config: SystemConfig, *,
              single_pass: bool = False) -> EquilibriumReport:
    """Iterate balanced rows to a fixed point (or one sweep if single_pass)."""
    mu, lam = config.mu, config.lam
    n, m = config.n_schedulers, config.n_nodes
    s = float(np.add.reduce(mu)) - float(np.add.reduce(lam))
    scans = not _no_spare(s, mu)
    if scans:
        weight = s / (s + lam)
        product = np.multiply.accumulate(weight)
        scans = product[-1] >= _SMALLEST_SCAN_PRODUCT
    if scans:
        scale = (lam * weight / product)[:, None]
        product = (product / s)[:, None]
        basis = np.ones((2, m))
        basis[1] = mu
        mu_coords = np.array([0.0, 1.0])  # mu itself, in that basis
        coords = np.full((n, 2), [1.0 / m, 0.0])  # the uniform start
    else:
        # Row sweeps return the loads of their matrix, so the start's loads
        # come from its matrix too: a sweep that leaves the rows as they
        # were then changes the objective by exactly zero.
        basis, mu_coords = None, mu  # the identity basis
        coords = np.full((n, m), 1.0 / m)
    xy = lam @ coords  # the loads, in the basis

    def loads():
        return xy if basis is None else xy @ basis

    def rows():
        nonlocal coords, basis, mu_coords
        if basis is not None:
            # Built by ufuncs, not a matrix product: where a process makes
            # no other, BLAS's buffer for one adds about 0.3 MB resident.
            entries = np.multiply.outer(coords[:, 1], mu)
            entries += coords[:, :1]
            # Where an entry is zero (a zero-rate scheduler's row c/s on a
            # node without spare), x_i + y_i*mu_j cancels and may round
            # below zero (-4.9e-18 as a fused multiply-add): clip it.
            np.maximum(entries, 0.0, out=entries)
            coords, basis, mu_coords = entries, None, mu
        return coords

    def respond(i, lam_i, others, row):
        _balanced_row(i, others, mu, row)

    def sweep(delta):
        nonlocal xy
        if scans and (mu - delta).min() >= 0.0:
            _scan(coords, mu_coords - xy, scale, product)
            xy = lam @ coords
        else:
            xy = _row_sweep(rows(), delta, lam, respond)
        return loads()

    def report_rows(_delta):
        # A scan's loads come from the basis, not the matrix: resync them.
        entries = rows()
        return entries, entries.T @ lam

    return _sweep_until_stable(config, loads(), sweep, report_rows,
                               single_pass)
