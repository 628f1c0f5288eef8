"""Domain types and steady-state availability formulas.

A system is a set of schedulers (players) that split independent Poisson
job streams across compute nodes, each modelled as an M/G/1 queue with
retrials and server crashes.  A node that receives jobs at aggregate rate
``delta`` provides steady-state availability

    A = 1 - delta * W,  where  W = beta1 * (1 + mu_prime * gamma)

and the shared game objective is D = sum_j 1/A_j.  A SystemConfig holds
an instance as read-only float arrays: mu, mu_prime, gamma, beta1 and W
per node, phi and lam per scheduler; build_instance makes every instance
from a source, the same arrays with unknown rates NaN.  The records exist
only at the boundary.  Every input number is checked by its row of one
rule table, _BOUNDS.  Each formula has one implementation,
on whole vectors: the node loads are delta = entries.T @ lam, and the
objective and its derivatives accept an Allocation or a raw matrix.
Every function here is pure and every type is immutable after
construction, so evaluation is thread-safe.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AvailabilityOutOfRange,
    DivisionByZeroAvailability,
    ValidationError,
)

ROW_SUM_TOL = 1e-9

# The one table of input rules, name: (low, low allowed, high, integer).
# A value is a number (an integer where flagged), not a boolean, above low
# (or at it where allowed) and below high; high = inf rejects infinities.
_INF = np.inf
_BOUNDS = dict(
    mu=(0.0, False, _INF, False), mu_prime=(0.0, True, _INF, False),
    gamma=(0.0, True, _INF, False), beta1=(0.0, False, _INF, False),
    phi=(0.0, True, _INF, False), lam=(0.0, True, _INF, False),
    rho=(0.0, False, 1.0, False), epsilon_threshold=(0.0, True, _INF, False),
    max_cycles=(1, True, _INF, True), horizon=(0.0, False, _INF, False),
    seed=(0, True, _INF, True), tolerance=(0.0, True, _INF, False))
_NODE_FIELDS = ("mu", "mu_prime", "gamma", "beta1")
_ARRAY_FIELDS = (*_NODE_FIELDS, "phi", "lam")


def _is_number(value, integer: bool = False) -> bool:
    """value is a real number, an integer if integer, and not a boolean."""
    kind = type(value)
    if kind is float or kind is int:  # the common cases, without ABC checks
        return kind is int or not integer
    return (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, (bool, np.bool_)))


def _is_float(value) -> bool:
    """value is a number a float holds (an int beyond that is < inf)."""
    return _is_number(value) and abs(value) <= sys.float_info.max


def _within(x, low, inclusive, high):
    """x within a rule's bounds, as one number or entrywise on an array."""
    return (x >= low if inclusive else x > low) & (x < high)


def _checked(name: str, values, label: str | None = None):
    """values checked by the rule of name in _BOUNDS: a number comes back
    as given, an array (nonempty, 1-D) of a per-node or per-scheduler field
    as a new read-only float array.  Anything else, or a value the rule
    rejects, is a ValidationError naming label (default name), the first
    bad index and its value."""
    low, inclusive, high, integer = _BOUNDS[name]
    label = label or name
    if not (isinstance(values, np.ndarray) and name in _ARRAY_FIELDS):
        if ((_is_number(values, True) if integer else _is_float(values))
                and _within(values, low, inclusive, high)):
            return values
        where, value = label, values
    else:
        if values.ndim != 1 or values.size == 0:
            raise ValidationError(f"{label} must be a nonempty 1-D array, "
                                  f"got shape {values.shape}")
        bad = None
        if values.dtype.kind not in "iuf":
            bad = next((k for k, value in enumerate(values)
                        if not _is_float(value)), None)
        if bad is None:
            array = values.astype(float)
            ok = _within(array, low, inclusive, high)
            bad = int(ok.argmin())  # the first entry out of bounds, if any
            if ok[bad]:
                array.setflags(write=False)
                return array
        where, value = f"{label}[{bad}]", values.tolist()[bad]
    upper = f" and < {high:g}" if high < _INF else ""
    raise ValidationError(
        f"{where} must be {'an integer' if integer else 'a finite number'} "
        f"{'>=' if inclusive else '>'} {low:g}{upper}, got {value!r}")


@dataclass(frozen=True)
class NodeParams:
    """Queueing and reliability parameters of one compute node.

    mu        average job processing rate (jobs/second)
    mu_prime  average failure rate while busy (failures/second)
    gamma     mean repair time: how long a crash keeps the node down
              (seconds); the retrial time of blocked jobs does not enter A
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
        of the processing rate, repair time 5/mu (so mu_prime*gamma is
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
    rates were derived at.  build_instance makes one; nodes and schedulers
    rebuild the records.  Instances compare by identity."""

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
        for name in _ARRAY_FIELDS:  # as arrays, so one number is a shape error
            array = _checked(name, np.asarray(getattr(self, name)))
            object.__setattr__(self, name, array)
        for name in (*_NODE_FIELDS, "phi"):
            like = "lam" if name == "phi" else "mu"
            if getattr(self, name).size != getattr(self, like).size:
                raise ValidationError(f"{name} and {like} differ in length")
        for name in ("rho", "epsilon_threshold", "max_cycles"):
            _checked(name, getattr(self, name))
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


def _fields(nodes, schedulers, rho, **settings) -> dict:
    """The source of an instance of node and scheduler records: the fields
    SystemConfig takes, with NaN (no input can be NaN) for a missing rate."""
    fields = {name: np.array([getattr(node, name) for node in nodes], float)
              for name in _NODE_FIELDS}
    fields["phi"] = np.array([s.phi for s in schedulers], float)
    fields["lam"] = np.array([np.nan if s.lam is None else s.lam
                              for s in schedulers], float)
    for array in fields.values():  # a preset's source is shared
        array.setflags(write=False)
    return dict(fields, rho=rho, **settings)


def build_instance(source: dict, rho: float | None = None,
                   n_schedulers: int | None = None,
                   n_nodes: int | None = None, **settings) -> SystemConfig:
    """The instance of a source cut to its first n_schedulers and n_nodes
    (a ValidationError unless a whole number from 1 to its size), at load
    rho (default its own), plus settings the source does not hold.  A
    missing rate is lam_i = phi_i * rho * sum_j mu_j (phi not normalised);
    a given one stands unless the load or the node set is not the source's,
    when each scheduler with a positive phi has its rate derived again."""
    point = dict(source)
    for key, names, count in (("schedulers", ("phi", "lam"), n_schedulers),
                              ("nodes", _NODE_FIELDS, n_nodes)):
        size = source[names[0]].size
        if count is not None and not (_is_number(count, integer=True)
                                      and 1 <= count <= size):
            raise ValidationError(f"instance supports 1..{size} {key}")
        point.update((name, source[name][:count]) for name in names)
    point["rho"] = rho = _checked("rho", source["rho"] if rho is None else rho)
    phi, lam, mu = point["phi"], point["lam"], point["mu"]
    changed = rho != source["rho"] or mu.size < source["mu"].size
    derive = np.isnan(lam) | (changed & (phi > 0.0))
    if derive.any():
        total_mu = sum(mu.tolist())  # left to right: mu.sum() is pairwise
        point["lam"] = np.where(derive, phi * rho * total_mu, lam)
    return SystemConfig(**point, **settings)


def build_config(nodes, schedulers, rho: float, **settings) -> SystemConfig:
    """The SystemConfig of node and scheduler records.  A missing arrival
    rate is derived from the relative weights; a given one stands.
    Settings pass through to SystemConfig, which holds their defaults."""
    return build_instance(_fields(tuple(nodes), tuple(schedulers), rho,
                                  **settings))


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
