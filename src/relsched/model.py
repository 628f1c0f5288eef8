"""Domain types and steady-state availability formulas.

A system is a set of schedulers (players) that split independent Poisson
job streams across compute nodes, each modelled as an M/G/1 queue with
retrials and server crashes.  A node that receives jobs at aggregate rate
``delta`` provides steady-state availability

    A = 1 - delta * beta1 * (1 + mu_prime * gamma)

and the shared game objective is the sum of availability reciprocals over
all nodes, D = sum_j 1/A_j.  Each formula has one implementation, on
whole vectors: the node loads are delta = entries.T @ lam, availability is
range-checked in one helper, and the objective and its derivatives accept
an Allocation or a raw matrix.  Every function here is pure and every type
is immutable after construction, so evaluation is thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AvailabilityOutOfRange,
    DivisionByZeroAvailability,
    ValidationError,
)

ROW_SUM_TOL = 1e-9


def _require_finite(params) -> None:
    """Reject NaN and infinities in any numeric field of a parameter record."""
    for name in params.__dataclass_fields__:
        value = getattr(params, name)
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


def check_rho(rho: float, name: str = "rho") -> None:
    """Reject an overall system load outside the open interval (0, 1)."""
    if not 0.0 < rho < 1.0:
        raise ValidationError(f"{name} must be in (0, 1), got {rho}")


@dataclass(frozen=True)
class NodeParams:
    """Queueing and reliability parameters of one compute node.

    mu        average job processing rate (jobs/second)
    mu_prime  average failure rate while busy (failures/second)
    gamma     average retrial time (seconds)
    beta1     mean service time (seconds)
    """

    mu: float
    mu_prime: float
    gamma: float
    beta1: float

    def __post_init__(self):
        _require_finite(self)
        if self.mu <= 0:
            raise ValidationError(f"mu must be positive, got {self.mu}")
        if self.mu_prime < 0:
            raise ValidationError(f"mu_prime must be >= 0, got {self.mu_prime}")
        if self.gamma < 0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}")
        if self.beta1 <= 0:
            raise ValidationError(f"beta1 must be positive, got {self.beta1}")

    @classmethod
    def from_rate(cls, mu: float, *, mu_prime: float | None = None,
                  gamma: float | None = None,
                  beta1: float | None = None) -> "NodeParams":
        """Build a node from its processing rate, filling defaults.

        Omitted fields use the standard derivation: failure rate one tenth
        of the processing rate, retrial time 5/mu (so mu_prime*gamma is
        exactly 0.5) and mean service time 1/mu.  All three are overridable
        for nodes with measured values.
        """
        if mu <= 0:
            raise ValidationError(f"mu must be positive, got {mu}")
        return cls(
            mu=mu,
            mu_prime=mu / 10.0 if mu_prime is None else mu_prime,
            gamma=5.0 / mu if gamma is None else gamma,
            beta1=1.0 / mu if beta1 is None else beta1,
        )

    @property
    def load_weight(self) -> float:
        """Availability lost per unit of arrival rate: beta1*(1 + mu_prime*gamma)."""
        return (1.0 + self.mu_prime * self.gamma) * self.beta1


@dataclass(frozen=True)
class SchedulerParams:
    """One scheduler's arrival description.

    phi  relative job arrival rate (dimensionless weight)
    lam  average job issue rate (jobs/second); None until derived
    """

    phi: float = 0.0
    lam: float | None = None

    def __post_init__(self):
        _require_finite(self)
        if self.phi < 0:
            raise ValidationError(f"phi must be >= 0, got {self.phi}")
        if self.lam is not None and self.lam < 0:
            raise ValidationError(f"lam must be >= 0, got {self.lam}")


@dataclass(frozen=True)
class Allocation:
    """Task-slicing matrix: entry (i, j) is the fraction of scheduler i's
    stream sent to node j.  Entries are finite and nonnegative and every
    row sums to 1 within ROW_SUM_TOL; the wrapped array is read-only."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2:
            raise ValidationError("allocation must be a 2-D matrix")
        # NaN fails the test; an infinite entry fails its row's sum.
        valid = entries >= 0.0
        if not valid.all():
            i, j = np.argwhere(~valid)[0]
            raise ValidationError(
                f"allocation entry ({i}, {j}) is {float(entries[i, j])!r}, "
                "expected a finite number >= 0"
            )
        sums = entries.sum(axis=1)
        off = np.abs(sums - 1.0) > ROW_SUM_TOL
        if off.any():
            i = int(np.argmax(off))
            raise ValidationError(
                f"allocation row {i} sums to {sums[i]!r}, expected 1"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def uniform(cls, n_schedulers: int, n_nodes: int) -> "Allocation":
        return cls(np.full((n_schedulers, n_nodes), 1.0 / n_nodes))

    @property
    def n_schedulers(self) -> int:
        return self.entries.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.entries.shape[1]

    def row(self, i: int) -> np.ndarray:
        return self.entries[i]

    def replace_row(self, i: int, row) -> "Allocation":
        entries = np.array(self.entries)
        entries[i] = row
        return Allocation(entries)


@dataclass(frozen=True)
class SystemConfig:
    """Full problem instance: node set, scheduler set and solver knobs.

    rho is the required overall average system load used when arrival
    rates are derived from the relative weights; every scheduler must have
    its lam set before the config is used by a solver.
    """

    nodes: tuple[NodeParams, ...]
    schedulers: tuple[SchedulerParams, ...]
    rho: float
    epsilon_threshold: float = 1e-6
    max_cycles: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "schedulers", tuple(self.schedulers))
        if len(self.nodes) < 1:
            raise ValidationError("at least one node required")
        if len(self.schedulers) < 1:
            raise ValidationError("at least one scheduler required")
        check_rho(self.rho)
        if self.max_cycles < 1:
            raise ValidationError("max_cycles must be >= 1")
        if not self.epsilon_threshold >= 0.0:
            raise ValidationError(
                f"epsilon_threshold must be >= 0, got {self.epsilon_threshold}")
        for i, s in enumerate(self.schedulers):
            if s.lam is None:
                raise ValidationError(
                    f"scheduler {i} has no arrival rate; derive it first"
                )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_schedulers(self) -> int:
        return len(self.schedulers)

    def arrival_rates(self) -> np.ndarray:
        return np.array([s.lam for s in self.schedulers], dtype=float)

    def service_rates(self) -> np.ndarray:
        return np.array([node.mu for node in self.nodes], dtype=float)

    def load_weights(self) -> np.ndarray:
        return np.array([node.load_weight for node in self.nodes], dtype=float)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    offending: tuple[int, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def derive_lambdas(schedulers, nodes, rho: float) -> list[float]:
    """Arrival rate of each scheduler: lam_i = phi_i * rho * sum_j mu_j.

    The relative weights are applied as given; they are not normalised to
    sum to 1.
    """
    check_rho(rho)
    total_mu = float(sum(node.mu for node in nodes))
    return [s.phi * rho * total_mu for s in schedulers]


def build_config(nodes, schedulers, rho: float,
                 epsilon_threshold: float = 1e-6,
                 max_cycles: int = 1000) -> SystemConfig:
    """Assemble a SystemConfig, deriving any missing arrival rates from the
    relative weights.  Derivation overwrites nothing that was set directly."""
    nodes = tuple(nodes)
    schedulers = tuple(schedulers)
    lams = derive_lambdas(schedulers, nodes, rho)
    filled = tuple(
        s if s.lam is not None else SchedulerParams(phi=s.phi, lam=lam)
        for s, lam in zip(schedulers, lams)
    )
    return SystemConfig(
        nodes=nodes,
        schedulers=filled,
        rho=rho,
        epsilon_threshold=epsilon_threshold,
        max_cycles=max_cycles,
    )


def node_arrivals(alloc: Allocation, config: SystemConfig) -> np.ndarray:
    """Aggregate Poisson arrival rate at every node: delta_j = sum_i lam_i a_ij."""
    return alloc.entries.T @ config.arrival_rates()


def _entries(alloc) -> np.ndarray:
    """The slicing matrix of an Allocation, or a raw matrix as given."""
    return np.asarray(
        alloc.entries if isinstance(alloc, Allocation) else alloc, dtype=float
    )


def _availability(delta: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A_j = 1 - delta_j * W_j for every node.

    Out-of-range results raise AvailabilityOutOfRange (at the first such
    node) rather than being clamped: a clamp would silently hide an
    infeasible load.
    """
    avail = 1.0 - delta * weights
    bad = (avail < 0.0) | (avail > 1.0)
    if bad.any():
        j = int(np.argmax(bad))
        raise AvailabilityOutOfRange(j, float(avail[j]))
    return avail


def _nonzero_availability(delta: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """As _availability, and raises DivisionByZeroAvailability where a node's
    availability is exactly zero, for callers that divide by it."""
    avail = _availability(delta, weights)
    zero = avail == 0.0
    if zero.any():
        raise DivisionByZeroAvailability(int(np.argmax(zero)))
    return avail


def availability_vector(alloc: Allocation, config: SystemConfig) -> np.ndarray:
    """Steady-state availability of every node; raises if any leaves [0, 1]."""
    return _availability(node_arrivals(alloc, config), config.load_weights())


def objective(alloc, config: SystemConfig) -> float:
    """Sum of availability reciprocals over all nodes.

    The value is the same for every scheduler, so a single number is
    returned.  It is at least the node count, with equality only when all
    nodes are unloaded.  Accepts a raw matrix as well as an Allocation, so
    derivative stencils and numeric oracles can probe points slightly off
    the simplex; availability range errors still apply.
    """
    return _objective_of_loads(_entries(alloc).T @ config.arrival_rates(),
                               config.load_weights())


def _objective_of_loads(delta: np.ndarray, weights: np.ndarray) -> float:
    """Objective from the node loads delta_j = sum_i lam_i a_ij; the sweep
    loop calls it directly with the load vector it already holds."""
    return float(np.add.reduce(1.0 / _nonzero_availability(delta, weights)))


def others_load_vector(i: int, alloc: Allocation,
                       config: SystemConfig) -> np.ndarray:
    """Per-node load imposed by every scheduler except i."""
    lam = config.arrival_rates()
    return alloc.entries.T @ lam - lam[i] * alloc.entries[i]


def _availability_of(j: int, alloc, config: SystemConfig) -> float:
    """Availability of node j; the range check covers every node, because
    the objective is defined only where all of them are feasible."""
    avail = _nonzero_availability(
        _entries(alloc).T @ config.arrival_rates(), config.load_weights())
    return float(avail[j])


def objective_marginal(i: int, j: int, alloc, config: SystemConfig) -> float:
    """First derivative of the objective in the (i, j) slicing fraction:
    W_j * lam_i / A_j**2.  Strictly positive whenever lam_i > 0.

    Accepts a raw matrix as well as an Allocation so stencil points just
    off the simplex can be probed.
    """
    avail = _availability_of(j, alloc, config)
    lam_i = config.schedulers[i].lam
    w = config.nodes[j].load_weight
    return w * lam_i / avail**2


def objective_curvature(i: int, j: int, alloc, config: SystemConfig) -> float:
    """Second derivative in the (i, j) fraction: 2 * W_j**2 * lam_i**2 / A_j**3.
    Strictly positive at every feasible point, which makes each scheduler's
    subproblem strictly convex."""
    avail = _availability_of(j, alloc, config)
    lam_i = config.schedulers[i].lam
    w = config.nodes[j].load_weight
    return 2.0 * w**2 * lam_i**2 / avail**3


def validate_config(alloc, config: SystemConfig) -> ValidationReport:
    """Run every feasibility check and report pass/fail per check.

    Accepts a raw matrix as well as an Allocation so that malformed inputs
    can be diagnosed instead of rejected at construction.  Never raises.
    """
    entries = _entries(alloc)
    lam = config.arrival_rates()
    mu = config.service_rates()
    weights = config.load_weights()

    # Written so that a NaN entry fails both tests.
    row_ok = (entries >= 0.0).all(axis=1) & (
        np.abs(entries.sum(axis=1) - 1.0) <= ROW_SUM_TOL)
    row_bad = tuple(np.flatnonzero(~row_ok).tolist())
    total_ok = float(lam.sum()) < float(mu.sum())
    deltas = entries.T @ lam
    node_bad = tuple(np.flatnonzero(deltas >= mu).tolist())
    avail = 1.0 - deltas * weights
    avail_bad = tuple(np.flatnonzero((avail < 0.0) | (avail > 1.0)).tolist())

    return ValidationReport(checks=(
        CheckResult("row-simplex", not row_bad, row_bad),
        CheckResult("total-stability", total_ok, ()),
        CheckResult("per-node-stability", not node_bad, node_bad),
        CheckResult("availability-range", not avail_bad, avail_bad),
    ))
