"""Domain types and steady-state availability formulas.

A system is a set of schedulers (players) that split independent Poisson
job streams across compute nodes, each modelled as an M/G/1 queue with
retrials and server crashes.  A node that receives jobs at aggregate rate
``delta`` provides steady-state availability

    A = 1 - delta * W,  where  W = beta1 * (1 + mu_prime * gamma)

and the shared game objective is D = sum_j 1/A_j.  A SystemConfig holds
an instance as read-only float arrays: mu, mu_prime, gamma, beta1 and W
per node, phi and lam per scheduler; build_instance makes every instance
from a source, the same arrays with unknown rates NaN, formed by
_from_columns from columns of numbers; the records are a library
convenience that presets and files never build.  Every input number is
checked by its row of one rule table, _BOUNDS.  Each formula has one
vector implementation: the node loads are delta = entries.T @ lam, and
the objective and its derivatives accept an Allocation or a raw matrix;
the derivatives return n x m arrays, one entry per fraction a_ij.
Every function here is pure and every type is immutable after
construction, so evaluation is thread-safe.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import AvailabilityOutOfRange, ValidationError

ROW_SUM_TOL = 1e-9

# The one table of input rules, name: (low, low allowed, high, integer).
# A value is a number (an integer where flagged), not a boolean, above low
# (or at it where allowed) and below high; high = inf rejects infinities.
# sweep_bound and sweep_step govern the parts of a CLI --range, n_schedulers
# and n_nodes the counts of Allocation.uniform, values the list of
# fairness_index.
_INF = np.inf
_BOUNDS = dict(
    mu=(0.0, False, _INF, False), mu_prime=(0.0, True, _INF, False),
    gamma=(0.0, True, _INF, False), beta1=(0.0, False, _INF, False),
    phi=(0.0, True, _INF, False), lam=(0.0, True, _INF, False),
    rho=(0.0, False, 1.0, False), epsilon_threshold=(0.0, True, _INF, False),
    max_cycles=(1, True, _INF, True), horizon=(0.0, False, _INF, False),
    seed=(0, True, _INF, True), tolerance=(0.0, True, _INF, False),
    sweep_bound=(-_INF, False, _INF, False),
    sweep_step=(0.0, False, _INF, False),
    n_schedulers=(1, True, _INF, True), n_nodes=(1, True, _INF, True),
    values=(0.0, True, _INF, False))
_NODE_FIELDS = ("mu", "mu_prime", "gamma", "beta1")
_ARRAY_FIELDS = (*_NODE_FIELDS, "phi", "lam")
_ARRAY_RULES = (*_ARRAY_FIELDS, "values")


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
    or of values as a new read-only float array.  Anything else, or a value
    the rule rejects, is a ValidationError naming label (default name), the
    first bad index and its value."""
    low, inclusive, high, integer = _BOUNDS[name]
    label = label or name
    if not (isinstance(values, np.ndarray) and name in _ARRAY_RULES):
        if ((_is_number(values, True) if integer else _is_float(values))
                and _within(values, low, inclusive, high)):
            return values
        where, value = label, values
    else:
        if values.ndim != 1 or values.size == 0:
            raise ValidationError(f"{label} must be a nonempty 1-D array, "
                                  f"got shape {values.shape}")
        bad = None  # all-float entries need no scan: _within rejects NaN, inf
        if (values.dtype.kind not in "iuf"
                and set(map(type, values.tolist())) != {float}):
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
    lower = f" {'>=' if inclusive else '>'} {low:g}" if low > -_INF else ""
    upper = f" and < {high:g}" if high < _INF else ""
    raise ValidationError(
        f"{where} must be {'an integer' if integer else 'a finite number'}"
        f"{lower}{upper}, got {value!r}")


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
        """Build a node from its processing rate.  Omitted fields take
        _node_defaults; all three are overridable for nodes with measured
        values."""
        _checked("mu", mu)
        return cls(mu, *(default if value is None else value
                         for value, default in zip((mu_prime, gamma, beta1),
                                                   _node_defaults(mu))))


def _node_defaults(mu):
    """mu_prime, gamma and beta1 of a node of rate mu, on a number or an
    array, by the standard derivation: failure rate mu/10, repair time 5/mu
    (so mu_prime*gamma is 0.5) and mean service time 1/mu."""
    return mu / 10.0, 5.0 / mu, 1.0 / mu


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


@dataclass(frozen=True, eq=False)
class Allocation:
    """Task-slicing matrix: entry (i, j) is the fraction of scheduler i's
    stream sent to node j.  Entries are finite and nonnegative and every
    row sums to 1 within ROW_SUM_TOL; the wrapped array is read-only.

    A read-only float64 ndarray that owns its data is kept as given, not
    copied: writing to it first takes setflags(write=True), which numpy
    allows on an Allocation's own entries as well.  Any other input (a
    writable array, a view, another dtype, a list) is copied, so changing
    it later leaves the Allocation as it was.  The solvers, uniform and
    replace_row hand over the matrix they built this way, so none is held
    twice.  Instances compare by identity and hash by it, as SystemConfig
    does: equality over an ndarray field has no single truth value."""

    entries: np.ndarray

    def __post_init__(self):
        entries = self.entries
        if not (type(entries) is np.ndarray and entries.dtype == np.float64
                and entries.base is None and not entries.flags.writeable):
            entries = np.array(entries, dtype=float)
        if entries.ndim != 2:
            raise ValidationError("allocation must be a 2-D matrix")
        # One reduction, no n x m temporary: NaN and -inf fail the test
        # (min propagates NaN); an infinite entry fails its row's sum.
        if not entries.min(initial=0.0) >= 0.0:
            i, j = np.argwhere(~(entries >= 0.0))[0]
            raise ValidationError(
                f"allocation entry ({i}, {j}) is {float(entries[i, j])!r}, "
                "expected a finite number >= 0"
            )
        sums = entries.sum(axis=1)
        off = np.abs(sums - 1.0) > ROW_SUM_TOL
        if off.any():
            i = int(np.argmax(off))
            raise ValidationError(
                f"allocation row {i} sums to {float(sums[i])!r}, expected 1"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def uniform(cls, n_schedulers: int, n_nodes: int) -> "Allocation":
        """Every row 1/n_nodes; each count is an integer >= 1."""
        _checked("n_schedulers", n_schedulers)
        _checked("n_nodes", n_nodes)
        entries = np.full((n_schedulers, n_nodes), 1.0 / n_nodes)
        entries.setflags(write=False)
        return cls(entries)

    @property
    def n_schedulers(self) -> int:
        return self.entries.shape[0]

    def replace_row(self, i: int, row) -> "Allocation":
        i = _index("i", i, self.n_schedulers)
        entries = np.array(self.entries)
        entries[i] = row
        entries.setflags(write=False)
        return Allocation(entries)


def _index(label: str, value, size: int) -> int:
    """value as an index of one of size schedulers or nodes: an integer
    from 0 to size - 1, not a boolean, else a ValidationError naming label.
    A negative index never counts from the end."""
    if not (_is_number(value, integer=True) and 0 <= value < size):
        raise ValidationError(f"{label} must be an integer from 0 to "
                              f"{size - 1}, got {value!r}")
    return int(value)


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
            values = getattr(self, name)
            if not isinstance(values, np.ndarray):  # each entry as given:
                values = np.array(values, dtype=object)  # [1, True] is not 1.0
            object.__setattr__(self, name, _checked(name, values))
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


def _from_columns(columns: dict, rho, **settings) -> dict:
    """The source of an instance, SystemConfig's fields as shared read-only
    arrays, from columns of numbers by field (NaN or None where an entry
    leaves a field out, no column where all do): a node field defaults by
    _node_defaults, phi to 0, and lam stays NaN for build_instance."""
    mu = np.array(columns["mu"], float)
    phi = np.array(columns["phi"], float)
    fills = dict(zip(_NODE_FIELDS, (mu, *_node_defaults(mu))), phi=0.0,
                 lam=np.full(phi.size, np.nan))
    source = dict(rho=rho, **settings)
    for name, fill in fills.items():
        given = np.array(columns.get(name, np.nan), float)
        source[name] = array = np.where(np.isnan(given), fill, given)
        array.setflags(write=False)
    return source


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
    columns = {name: [getattr(item, name) for item in items]  # None is NaN
               for items, names in ((tuple(nodes), _NODE_FIELDS),
                                    (tuple(schedulers), ("phi", "lam")))
               for name in names}
    return build_instance(_from_columns(columns, rho, **settings))


def node_arrivals(alloc, config: SystemConfig) -> np.ndarray:
    """Aggregate Poisson arrival rate at every node: delta_j = sum_i lam_i a_ij."""
    return _entries(alloc, config).T @ config.lam


def _entries(alloc, config: SystemConfig) -> np.ndarray:
    """The slicing matrix of an Allocation, or a raw matrix as given; a
    ValidationError naming both shapes unless it is n x m for config."""
    entries = np.asarray(
        alloc.entries if isinstance(alloc, Allocation) else alloc, dtype=float
    )
    expected = (config.n_schedulers, config.n_nodes)
    if entries.shape != expected:
        raise ValidationError(f"allocation has shape {entries.shape}, "
                              f"expected {expected}")
    return entries


def _allocation_entries(alloc, config: SystemConfig) -> np.ndarray:
    """_entries of alloc, a raw matrix validated as an Allocation first."""
    return _entries(alloc if isinstance(alloc, Allocation)
                    else Allocation(alloc), config)


def _feasible(avail: np.ndarray) -> np.ndarray:
    """The model's one feasibility rule, 0 < A_j <= 1, entrywise; a
    positive test, so NaN fails it."""
    return (avail > 0.0) & (avail <= 1.0)


def _availability(delta: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A_j = 1 - delta_j * W_j for every node.

    A node outside (0, 1], NaN included, raises AvailabilityOutOfRange (at
    the first such node) rather than being clamped: a clamp would silently
    hide an infeasible load, and 1/A_j exists only inside.
    """
    avail = 1.0 - delta * weights
    ok = _feasible(avail)
    if not ok.all():
        j = int(ok.argmin())
        raise AvailabilityOutOfRange(j, float(avail[j]))
    return avail


def objective(alloc, config: SystemConfig) -> float:
    """Sum of availability reciprocals over all nodes.

    The value is the same for every scheduler, so a single number is
    returned.  It is at least the node count, with equality only when all
    nodes are unloaded.  Accepts a raw matrix as well as an Allocation, so
    derivative stencils and numeric oracles can probe points slightly off
    the simplex; availability range errors still apply, and a matrix that
    is not n x m is a ValidationError.
    """
    return _objective_of_loads(node_arrivals(alloc, config), config.weights)


def _objective_of_loads(delta: np.ndarray, weights: np.ndarray) -> float:
    """Objective from the node loads delta_j = sum_i lam_i a_ij; the sweep
    loop calls it directly with the load vector it already holds."""
    return _objective_of_availability(_availability(delta, weights))


def _objective_of_availability(avail: np.ndarray) -> float:
    """Objective from feasible node availabilities: sum_j 1/A_j."""
    return float(np.add.reduce(1.0 / avail))


def others_load_vector(i: int, alloc: Allocation,
                       config: SystemConfig) -> np.ndarray:
    """Per-node load imposed by every scheduler except i."""
    entries = _entries(alloc, config)
    return entries.T @ config.lam - config.lam[i] * entries[i]


def objective_marginal(alloc, config: SystemConfig) -> np.ndarray:
    """First derivative of the objective in every slicing fraction, an
    n x m array: entry (i, j) is W_j * lam_i / A_j**2, positive whenever
    lam_i > 0.  The range check covers every node, because the objective
    is defined only where all are feasible."""
    avail = _availability(node_arrivals(alloc, config), config.weights)
    # float_power is the C library's pow, as ** on a Python float, so each
    # entry has the bits of the scalar formula; numpy's ** squares by x*x
    # and may round other powers differently in the last bit.
    return (np.multiply.outer(config.lam, config.weights)
            / np.float_power(avail, 2))


def objective_curvature(alloc, config: SystemConfig) -> np.ndarray:
    """The Hessian's diagonal, an n x m array: entry (i, j) is the second
    derivative in that fraction, 2 * W_j**2 * lam_i**2 / A_j**3, positive
    at every feasible point where lam_i > 0, which makes each scheduler's
    subproblem strictly convex."""
    avail = _availability(node_arrivals(alloc, config), config.weights)
    lam2, w2 = np.float_power(config.lam, 2), np.float_power(config.weights, 2)
    return 2.0 * np.multiply.outer(lam2, w2) / np.float_power(avail, 3)


def validate_config(alloc, config: SystemConfig) -> ValidationReport:
    """Check the model's two rules and report pass/fail per check:
    row-simplex (every row's entries >= 0, summing to 1 within
    ROW_SUM_TOL) and availability-range (0 < A_j <= 1, by _feasible).

    Rows that sum to 1 put the whole load sum(lam) on the nodes, so a
    feasible availability at every node already keeps sum(lam) below
    sum_j 1/W_j; the model has no other stability rule.  A library
    diagnostic that no solver or CLI path calls.  Accepts a raw matrix as
    well as an Allocation so that malformed inputs can be diagnosed instead
    of rejected at construction.  Raises only a ValidationError, for a
    matrix that is not n x m.
    """
    entries = _entries(alloc, config)
    # Written so that a NaN entry fails both tests.
    row_ok = (entries >= 0.0).all(axis=1) & (
        np.abs(entries.sum(axis=1) - 1.0) <= ROW_SUM_TOL)
    row_bad = tuple(np.flatnonzero(~row_ok).tolist())
    avail = 1.0 - (entries.T @ config.lam) * config.weights
    avail_bad = tuple(np.flatnonzero(~_feasible(avail)).tolist())
    return ValidationReport(checks=(
        CheckResult("row-simplex", not row_bad, row_bad),
        CheckResult("availability-range", not avail_bad, avail_bad),
    ))
