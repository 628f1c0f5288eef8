"""Domain types and steady-state availability formulas.

A system is a set of schedulers (players) that split independent Poisson
job streams across compute nodes, each modelled as an M/G/1 queue with
retrials and server crashes.  A node that receives jobs at aggregate rate
``delta`` provides steady-state availability

    A = 1 - delta * W,  where  W = beta1 * (1 + mu_prime * gamma)

and the shared game objective is D = sum_j 1/A_j.  A SystemConfig holds
an instance as read-only float arrays: mu, mu_prime, gamma, beta1 and W
per node, phi and lam per scheduler.  The NodeParams and SchedulerParams
records exist only at the boundary, checked by the same rules.  Each
formula has one implementation, on whole vectors: the node loads are
delta = entries.T @ lam, and the objective and its derivatives accept an
Allocation or a raw matrix.  Every function here is pure and every type
is immutable after construction, so evaluation is thread-safe.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AvailabilityOutOfRange,
    DivisionByZeroAvailability,
    ValidationError,
)

ROW_SUM_TOL = 1e-9

# Each per-node and per-scheduler field holds finite numbers above their
# lower bound, or at it too where the flag is True.
_BOUNDS = dict(mu=(0.0, False), mu_prime=(0.0, True), gamma=(0.0, True),
               beta1=(0.0, False), phi=(0.0, True), lam=(0.0, True))
_NODE_FIELDS = ("mu", "mu_prime", "gamma", "beta1")


def _is_number(value) -> bool:
    return type(value) is float or (
        isinstance(value, numbers.Real)
        and not isinstance(value, (bool, np.bool_)))


def _checked(name: str, values):
    """values checked by the rule of field name: a record's number comes
    back as given, a list, tuple or array (nonempty, 1-D) as a new
    read-only float array.  A boolean, a non-number, NaN, an infinity or a
    value out of bounds is a ValidationError naming the field, the first
    bad index and its value."""
    low, inclusive = _BOUNDS[name]

    def within(x):  # on one number, or entrywise on an array
        return (x >= low if inclusive else x > low) & (x < np.inf)

    if not isinstance(values, (list, tuple, np.ndarray)):
        if _is_number(values) and within(values):
            return values
        where, value = name, values
    else:
        given = np.asarray(values)
        if given.ndim != 1 or given.size == 0:
            raise ValidationError(f"{name} must be a nonempty 1-D array, "
                                  f"got shape {given.shape}")
        bad = None
        if given.dtype.kind not in "iuf":
            bad = next((k for k, value in enumerate(given)
                        if not _is_number(value)), None)
        if bad is None:
            array = given.astype(float)
            ok = within(array)
            if ok.all():
                array.setflags(write=False)
                return array
            bad = int(ok.argmin())
        where, value = f"{name}[{bad}]", given.tolist()[bad]
    raise ValidationError(f"{where} must be a finite number "
                          f"{'>=' if inclusive else '>'} {low:g}, "
                          f"got {value!r}")


def check_rho(rho: float, name: str = "rho") -> None:
    """Reject an overall system load outside the open interval (0, 1)."""
    if not 0.0 < rho < 1.0:
        raise ValidationError(f"{name} must be in (0, 1), got {rho}")


def check_epsilon(epsilon: float, name: str = "epsilon_threshold") -> None:
    """Reject a negative or NaN convergence threshold."""
    if not epsilon >= 0.0:
        raise ValidationError(f"{name} must be >= 0, got {epsilon}")


def check_max_cycles(max_cycles: int) -> None:
    """Reject a sweep cap that is not an integer of at least one: at least
    one sweep always runs, and a run is a whole number of sweeps."""
    if (type(max_cycles) is bool
            or not isinstance(max_cycles, (int, np.integer))
            or max_cycles < 1):
        raise ValidationError(
            f"max_cycles must be an integer >= 1, got {max_cycles!r}")


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
        for name in _NODE_FIELDS:
            _checked(name, getattr(self, name))

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
        _checked("mu", mu)
        return cls(
            mu=mu,
            mu_prime=mu / 10.0 if mu_prime is None else mu_prime,
            gamma=5.0 / mu if gamma is None else gamma,
            beta1=1.0 / mu if beta1 is None else beta1,
        )


@dataclass(frozen=True)
class SchedulerParams:
    """One scheduler's arrival description.

    phi  relative job arrival rate (dimensionless weight)
    lam  average job issue rate (jobs/second); None until derived
    """

    phi: float = 0.0
    lam: float | None = None

    def __post_init__(self):
        _checked("phi", self.phi)
        if self.lam is not None:
            _checked("lam", self.lam)


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


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """Full problem instance: read-only float arrays and solver knobs.

    mu, mu_prime, gamma and beta1 hold one entry per node and phi and lam
    one per scheduler, each kept to its rule in _BOUNDS; weights (W) is
    derived from them, again by dataclasses.replace.  rho is the load the
    rates were derived at.  build_config makes one from records, nodes and
    schedulers rebuild them.  Instances compare by identity."""

    mu: np.ndarray
    mu_prime: np.ndarray
    gamma: np.ndarray
    beta1: np.ndarray
    phi: np.ndarray
    lam: np.ndarray
    rho: float
    epsilon_threshold: float = 1e-6
    max_cycles: int = 1000
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in _BOUNDS:  # as arrays, so one number is a shape error
            array = _checked(name, np.asarray(getattr(self, name)))
            object.__setattr__(self, name, array)
        for name in (*_NODE_FIELDS, "phi"):
            like = "lam" if name == "phi" else "mu"
            if getattr(self, name).size != getattr(self, like).size:
                raise ValidationError(f"{name} and {like} differ in length")
        check_rho(self.rho)
        check_epsilon(self.epsilon_threshold)
        check_max_cycles(self.max_cycles)
        weights = (1.0 + self.mu_prime * self.gamma) * self.beta1
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return self.mu.size

    @property
    def n_schedulers(self) -> int:
        return self.lam.size

    @property
    def nodes(self) -> tuple[NodeParams, ...]:
        """One record per node, rebuilt from the arrays."""
        return tuple(map(NodeParams, *(getattr(self, name).tolist()
                                       for name in _NODE_FIELDS)))

    @property
    def schedulers(self) -> tuple[SchedulerParams, ...]:
        """One record per scheduler, rebuilt from the arrays."""
        return tuple(map(SchedulerParams, self.phi.tolist(),
                         self.lam.tolist()))


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


def build_config(nodes, schedulers, rho: float, **settings) -> SystemConfig:
    """The SystemConfig of node and scheduler records.  A missing arrival
    rate is derived from the relative weights; a given one stands.
    Settings pass through to SystemConfig, which holds their defaults."""
    nodes, schedulers = tuple(nodes), tuple(schedulers)
    derived = derive_lambdas(schedulers, nodes, rho)
    return SystemConfig(
        **{name: [getattr(node, name) for node in nodes]
           for name in _NODE_FIELDS},
        phi=[s.phi for s in schedulers],
        lam=[lam if s.lam is None else s.lam
             for s, lam in zip(schedulers, derived)],
        rho=rho, **settings)


def node_arrivals(alloc, config: SystemConfig) -> np.ndarray:
    """Aggregate Poisson arrival rate at every node: delta_j = sum_i lam_i a_ij."""
    return _entries(alloc).T @ config.lam


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
    return _availability(node_arrivals(alloc, config), config.weights)


def objective(alloc, config: SystemConfig) -> float:
    """Sum of availability reciprocals over all nodes.

    The value is the same for every scheduler, so a single number is
    returned.  It is at least the node count, with equality only when all
    nodes are unloaded.  Accepts a raw matrix as well as an Allocation, so
    derivative stencils and numeric oracles can probe points slightly off
    the simplex; availability range errors still apply.
    """
    return _objective_of_loads(node_arrivals(alloc, config), config.weights)


def _objective_of_loads(delta: np.ndarray, weights: np.ndarray) -> float:
    """Objective from the node loads delta_j = sum_i lam_i a_ij; the sweep
    loop calls it directly with the load vector it already holds."""
    return float(np.add.reduce(1.0 / _nonzero_availability(delta, weights)))


def others_load_vector(i: int, alloc: Allocation,
                       config: SystemConfig) -> np.ndarray:
    """Per-node load imposed by every scheduler except i."""
    return alloc.entries.T @ config.lam - config.lam[i] * alloc.entries[i]


def _derivative_terms(i: int, j: int, alloc,
                      config: SystemConfig) -> tuple[float, float, float]:
    """lam_i, W_j and the availability A_j; the range check covers every
    node, because the objective is defined only where all are feasible."""
    avail = _nonzero_availability(node_arrivals(alloc, config), config.weights)
    return float(config.lam[i]), float(config.weights[j]), float(avail[j])


def objective_marginal(i: int, j: int, alloc, config: SystemConfig) -> float:
    """First derivative of the objective in the (i, j) slicing fraction:
    W_j * lam_i / A_j**2.  Strictly positive whenever lam_i > 0.

    Accepts a raw matrix as well as an Allocation so stencil points just
    off the simplex can be probed.
    """
    lam_i, w, avail = _derivative_terms(i, j, alloc, config)
    return w * lam_i / avail**2


def objective_curvature(i: int, j: int, alloc, config: SystemConfig) -> float:
    """Second derivative in the (i, j) fraction: 2 * W_j**2 * lam_i**2 / A_j**3.
    Strictly positive at every feasible point, which makes each scheduler's
    subproblem strictly convex."""
    lam_i, w, avail = _derivative_terms(i, j, alloc, config)
    return 2.0 * w**2 * lam_i**2 / avail**3


def validate_config(alloc, config: SystemConfig) -> ValidationReport:
    """Run every feasibility check and report pass/fail per check.

    Accepts a raw matrix as well as an Allocation so that malformed inputs
    can be diagnosed instead of rejected at construction.  Never raises.
    """
    entries = _entries(alloc)
    lam, mu, weights = config.lam, config.mu, config.weights

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
