"""The benchmark's three workloads: inputs, ops, output checks, traced replays.

Every workload builds its inputs from the seed with the package's public
constructors, runs one op at a time (``run``), checks each op's output
(``check``, which returns the op's exact counts so repeats can be
compared), and can replay an op as the same sequence of public calls with
a span around each call (``replay``).  Why each workload exists is written
down in NOTES.md next to this file.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from relsched import (
    PRESET_NAMES,
    Allocation,
    NodeParams,
    RelschedError,
    SchedulerParams,
    ValidationError,
    best_response_row,
    bsa_solve,
    build_config,
    cli,
    fairness_index,
    nash_check,
    node_arrivals,
    numeric_best_response,
    objective,
    objective_all_schedulers,
    per_node_reciprocals,
    preset,
    solve,
    traffic_empirical_rates,
    validate_config,
)
from tracer import NullTracer

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def load_weights(config) -> np.ndarray:
    """W_j = beta1 * (1 + mu_prime * gamma), from the node fields."""
    return np.array([n.beta1 * (1.0 + n.mu_prime * n.gamma)
                     for n in config.nodes])


def effective_utilisation(config) -> float:
    """sum(lam) / sum(1/W_j): the share of the pool's capacity in use."""
    lam = sum(s.lam for s in config.schedulers)
    return float(lam / np.sum(1.0 / load_weights(config)))


def probe_solution(tracer, config, report) -> None:
    """Per-row and per-evaluation costs at a solver's result.

    These calls are not part of the op being replayed; they sit under a
    "probe" span so the op's own call spans can be told apart from them.
    """
    alloc = report.allocation
    with tracer.span("probe"):
        for i in range(config.n_schedulers):
            with tracer.span("best_response.best_response_row",
                             m=config.n_nodes) as attrs:
                row = best_response_row(i, alloc, config)
                attrs["active"] = row.active_count
        tracer.call("model.objective", objective, alloc, config)
        tracer.call("model.Allocation", Allocation, alloc.entries)


def traced_solve(tracer, config):
    with tracer.span("equilibrium.solve") as attrs:
        report = solve(config)
        attrs["cycles"] = report.cycles
    probe_solution(tracer, config, report)
    return report


def traced_bsa_solve(tracer, config):
    with tracer.span("baseline.bsa_solve") as attrs:
        report = bsa_solve(config)
        attrs["cycles"] = report.cycles
    return report


# --------------------------------------------------------------------------
# paper-grid: the paper's CLI experiments, one cli.main call per op.

# Parser defaults of the sweep subcommands, which every command below uses.
RANGES = {"rho": (0.1, 0.9, 0.1), "schedulers": (5.0, 20.0, 1.0),
          "nodes": (10.0, 20.0, 1.0)}
# CSV column of the swept variable, also the keyword _resolve takes it by.
COLUMN = {"rho": "rho", "schedulers": "n", "nodes": "m"}
CONFIG_ARG = "{config}"

# Output columns that must match the reference exactly; every other
# non-empty cell is a float compared within CSV_REL_TOL (CSV_ABS_TOL keeps
# values that are differences of nearly equal numbers, such as the
# convergence trace's epsilon, from failing on rounding noise).
EXACT_COLUMNS = {"node", "n", "m", "cycle", "cycles", "cycles_rbsa",
                 "cycles_bsa", "feasible"}
CSV_REL_TOL = 1e-9
CSV_ABS_TOL = 1e-12


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    kind: str  # sweep | fairness | compare | trace | cycles | solve
    preset: str
    vary: str = "rho"


COMMANDS = (
    *(Command(f"sweep-load.{p}", ("sweep-load", "--preset", p), "sweep", p)
      for p in PRESET_NAMES),
    Command("sweep-schedulers.table4-table5",
            ("sweep-schedulers", "--preset", "table4-table5"),
            "sweep", "table4-table5", "schedulers"),
    *(Command(f"sweep-nodes.{p}", ("sweep-nodes", "--preset", p),
              "sweep", p, "nodes")
      for p in ("table6-table7", "table6-table7-n15")),
    *(Command(f"compare.{p}", ("compare", "--preset", p), "compare", p)
      for p in ("table1-table2", "table1-table3")),
    *(Command(f"fairness.{vary}",
              ("fairness", "--preset", p, "--vary", vary), "fairness", p, vary)
      for p, vary in (("table1-table2", "rho"),
                      ("table4-table5", "schedulers"),
                      ("table6-table7", "nodes"))),
    Command("convergence.trace", ("convergence", "--preset", "table1-table2"),
            "trace", "table1-table2"),
    Command("convergence.rho",
            ("convergence", "--preset", "table1-table2",
             "--range", "0.1:0.9:0.1"),
            "cycles", "table1-table2"),
    Command("solve.preset", ("solve", "--preset", "table1-table2"),
            "solve", "table1-table2"),
    Command("solve.config", ("solve", "--config", CONFIG_ARG),
            "solve", "table1-table2"),
)


def sweep_values(vary: str) -> list:
    """The sweep points the CLI derives from its default LO:HI:STEP range."""
    lo, hi, step = RANGES[vary]
    count = int(round((hi - lo) / step))
    values = [round(lo + k * step, 12) for k in range(count + 1)]
    values = [v for v in values if v <= hi + 1e-12]
    if vary == "rho":
        return values
    return [int(round(v)) for v in values]


def read_csv(path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def compare_csv(got: list[list[str]], want: list[list[str]]) -> None:
    if not got or got[0] != want[0]:
        raise CheckFailed(f"header {got[:1]} != {want[0]}")
    if len(got) != len(want):
        raise CheckFailed(f"{len(got) - 1} rows, expected {len(want) - 1}")
    header = want[0]
    for r, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(row) != len(ref):
            raise CheckFailed(f"row {r} has {len(row)} cells")
        for column, a, b in zip(header, row, ref):
            if column in EXACT_COLUMNS or not b or not a:
                same = a == b
            else:
                same = math.isclose(float(a), float(b), rel_tol=CSV_REL_TOL,
                                    abs_tol=CSV_ABS_TOL)
            if not same:
                raise CheckFailed(f"row {r} column {column}: {a!r} != {b!r}")


class PaperGrid:
    """One op is one in-process ``cli.main(argv)`` call writing a CSV."""

    name = "paper-grid"

    def __init__(self, seed: int, workdir: Path, tracer=NullTracer()):
        self.workdir = workdir
        base = tracer.call("presets.preset", preset, "table1-table2")
        self.config_path = workdir / "table1-table2.json"
        self.config_path.write_text(json.dumps({
            "rho": base.rho,
            "epsilon_threshold": base.epsilon_threshold,
            "max_cycles": base.max_cycles,
            "nodes": [{"mu": n.mu, "mu_prime": n.mu_prime, "gamma": n.gamma,
                       "beta1": n.beta1} for n in base.nodes],
            "schedulers": [{"phi": s.phi} for s in base.schedulers],
        }))
        self.commands = {c.label: c for c in COMMANDS}
        self.argv = {
            c.label: [str(self.config_path) if a == CONFIG_ARG else a
                      for a in c.argv] + ["--out", str(self.out(c.label))]
            for c in COMMANDS
        }
        # The seed only orders the cycle: the paper's inputs are fixed.
        self.labels = [c.label for c in COMMANDS]
        random.Random(seed).shuffle(self.labels)
        self._reference: dict[str, list[list[str]]] = {}

    def out(self, label: str) -> Path:
        return self.workdir / f"{label}.csv"

    def run(self, label: str):
        return cli.main(self.argv[label])

    def check(self, label: str, code) -> tuple:
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        if label not in self._reference:
            self._reference[label] = read_csv(REFERENCE_DIR / f"{label}.csv")
        compare_csv(read_csv(self.out(label)), self._reference[label])
        return ()  # the cycle counts are CSV columns compared exactly

    def info(self) -> dict:
        return {
            "commands": {c.label: " ".join(c.argv) for c in COMMANDS},
            "effective_utilisation_at_default_rho": {
                p: round(effective_utilisation(preset(p)), 4)
                for p in PRESET_NAMES},
        }

    # Traced replay: the public calls each subcommand makes, in order.

    def replay(self, label: str, tracer):
        cmd = self.commands[label]
        header, rows = getattr(self, f"_replay_{cmd.kind}")(cmd, tracer)
        tracer.call("cli.write_csv", cli.write_csv, self.out(label), header,
                    rows)
        return 0

    def _resolve(self, tracer, name, rho=None, n=None, m=None):
        config = tracer.call("presets.preset", preset, name, rho=rho,
                             n_schedulers=n, n_nodes=m,
                             epsilon_threshold=1e-6)
        self._check_stability(tracer, config)
        return config

    @staticmethod
    def _check_stability(tracer, config) -> None:
        start = tracer.call("model.Allocation", Allocation.uniform,
                            config.n_schedulers, config.n_nodes)
        report = tracer.call("model.validate_config", validate_config, start,
                             config)
        if not report.all_passed:
            raise ValidationError("infeasible instance", report=report)

    def _point(self, tracer, cmd, value):
        return self._resolve(tracer, cmd.preset, **{COLUMN[cmd.vary]: value})

    def _sweep_row(self, tracer, cmd, value):
        try:
            config = self._point(tracer, cmd, value)
            game = traced_solve(tracer, config)
            balanced = traced_bsa_solve(tracer, config)
        except RelschedError:
            return (value, "", "", "", "", "", "", "", 0)
        fi = [
            tracer.call("metrics.fairness_index", fairness_index, tracer.call(
                "equilibrium.objective_all_schedulers",
                objective_all_schedulers, report.allocation, config))
            for report in (game, balanced)
        ]
        return (value, game.objective, balanced.objective,
                balanced.objective - game.objective, game.cycles,
                balanced.cycles, fi[0], fi[1], 1)

    def _replay_sweep(self, cmd, tracer):
        rows = [self._sweep_row(tracer, cmd, v)
                for v in sweep_values(cmd.vary)]
        return ((COLUMN[cmd.vary], "d_rbsa", "d_bsa", "gap", "cycles_rbsa",
                 "cycles_bsa", "fi_rbsa", "fi_bsa", "feasible"), rows)

    def _replay_fairness(self, cmd, tracer):
        rows = [self._sweep_row(tracer, cmd, v)
                for v in sweep_values(cmd.vary)]
        return ((COLUMN[cmd.vary], "fi_rbsa", "fi_bsa", "feasible"),
                [(r[0], r[6], r[7], r[8]) for r in rows])

    def _replay_compare(self, cmd, tracer):
        config = self._resolve(tracer, cmd.preset)
        game = traced_solve(tracer, config)
        balanced = traced_bsa_solve(tracer, config)
        recip = [tracer.call("metrics.per_node_reciprocals",
                             per_node_reciprocals, report.allocation, config)
                 for report in (game, balanced)]
        rows = [(j + 1, config.nodes[j].mu, recip[0][j], recip[1][j])
                for j in range(config.n_nodes)]
        return ("node", "mu", "recip_rbsa", "recip_bsa"), rows

    def _replay_trace(self, cmd, tracer):
        report = traced_solve(tracer, self._resolve(tracer, cmd.preset))
        return ("cycle", "epsilon"), [
            (cycle + 1, eps) for cycle, eps in enumerate(report.epsilon_trace)]

    def _replay_cycles(self, cmd, tracer):
        rows = []
        for value in sweep_values(cmd.vary):
            try:
                report = traced_solve(tracer, self._point(tracer, cmd, value))
                rows.append((value, report.cycles, 1))
            except RelschedError:
                rows.append((value, "", 0))
        return (COLUMN[cmd.vary], "cycles", "feasible"), rows

    def _replay_solve(self, cmd, tracer):
        if CONFIG_ARG in cmd.argv:
            config = tracer.call("cli.load_config", cli.load_config,
                                 self.config_path)
            self._check_stability(tracer, config)
        else:
            config = self._resolve(tracer, cmd.preset)
        report = traced_solve(tracer, config)
        tracer.call("metrics.fairness_index", fairness_index, tracer.call(
            "equilibrium.objective_all_schedulers", objective_all_schedulers,
            report.allocation, config))
        deltas = tracer.call("model.node_arrivals", node_arrivals,
                             report.allocation, config)
        avail = report.per_node_availability
        rows = [(j + 1, config.nodes[j].mu, float(deltas[j]), avail[j],
                 1.0 / avail[j]) for j in range(config.n_nodes)]
        return ("node", "mu", "delta", "availability", "reciprocal"), rows


# --------------------------------------------------------------------------
# hot-pool: a loaded n = m = 400 pool, one solve plus one bsa_solve per op.

POOL_N = POOL_M = 400
POOL_COUNT = 4          # instances in the seeded list, cycled through
POOL_RHO = 0.85
POOL_MU = 0.03          # node rates uniform in POOL_MU * [0.9, 1.1]
POOL_MU_SPREAD = 0.1
# The weights sum to 2/3 so that rho is also the effective utilisation:
# with W_j = 1.5 / mu_j, sum(lam) / sum(1/W_j) = (2/3) * rho * 1.5 = rho.
POOL_PHI_SUM = 2.0 / 3.0
# KKT spread of W_j/A_j^2 over loaded nodes; the seed commit gives ~1e-14.
KKT_REL_TOL = 1e-9
LOAD_REL_TOL = 1e-9


def kkt_certificate(config, game) -> tuple[float, float, float]:
    """(spread, worst unloaded slack, load error), computed from the
    returned allocation and the node fields, not from the solver.

    At the game's equilibrium the loads minimise sum_j 1/A_j subject to
    sum_j delta_j = sum(lam), so the marginal W_j/A_j^2 is one value nu on
    every loaded node and at least nu on every unloaded one.
    """
    lam = np.array([s.lam for s in config.schedulers])
    weights = load_weights(config)
    loads = game.allocation.entries.T @ lam
    marginal = weights / (1.0 - loads * weights) ** 2
    loaded = loads > 0.0
    nu = float(marginal[loaded].min())
    spread = (float(marginal[loaded].max()) - nu) / nu
    unloaded = marginal[~loaded]
    slack = float((unloaded.min() - nu) / nu) if unloaded.size else math.inf
    total = float(lam.sum())
    return spread, slack, abs(float(loads.sum()) - total) / total


class HotPool:
    """One op is ``solve`` then ``bsa_solve`` on one 400 x 400 pool."""

    name = "hot-pool"

    def __init__(self, seed: int, workdir: Path, tracer=NullTracer()):
        rng = np.random.default_rng(seed)
        self.configs = {}
        for k in range(POOL_COUNT):
            mu = POOL_MU * rng.uniform(1 - POOL_MU_SPREAD, 1 + POOL_MU_SPREAD,
                                       POOL_M)
            phi = rng.uniform(0.5, 1.5, POOL_N)
            phi *= POOL_PHI_SUM / phi.sum()
            nodes = [NodeParams.from_rate(float(x)) for x in mu]
            schedulers = [SchedulerParams(phi=float(p)) for p in phi]
            try:
                self.configs[f"pool{k}"] = tracer.call(
                    "model.build_config", build_config, nodes, schedulers,
                    POOL_RHO)
            except RelschedError as exc:  # nothing is rejected: its ops fail
                self.configs[f"pool{k}"] = exc
        self.labels = list(self.configs)

    def _config(self, label):
        config = self.configs[label]
        if isinstance(config, Exception):
            raise config
        return config

    def run(self, label: str):
        config = self._config(label)
        return solve(config), bsa_solve(config)

    def check(self, label: str, result) -> tuple:
        game, balanced = result
        spread, slack, load_error = kkt_certificate(self.configs[label], game)
        if not spread <= KKT_REL_TOL:
            raise CheckFailed(f"KKT spread {spread:.3g} over loaded nodes")
        if not slack >= -KKT_REL_TOL:
            raise CheckFailed(f"unloaded node below nu by {-slack:.3g}")
        if not load_error <= LOAD_REL_TOL:
            raise CheckFailed(f"loads miss sum(lam) by {load_error:.3g}")
        if not game.objective <= balanced.objective:
            raise CheckFailed(f"D_game {game.objective!r} > "
                              f"D_bsa {balanced.objective!r}")
        return game.cycles, balanced.cycles

    def replay(self, label: str, tracer):
        config = self._config(label)
        return traced_solve(tracer, config), traced_bsa_solve(tracer, config)

    def info(self) -> dict:
        return {label: {"n": POOL_N, "m": POOL_M, "rho": POOL_RHO,
                        "effective_utilisation":
                            None if isinstance(c, Exception)
                            else effective_utilisation(c)}
                for label, c in self.configs.items()}


# --------------------------------------------------------------------------
# oracle-verify: what oracle-check does, on instances small enough to run.

ORACLE_INSTANCES = (  # (preset, node count); m <= 6 takes the lattice path
    ("table1-table2", 4),
    ("table6-table7", 6),
    ("table1-table2", 10),
    ("table6-table7", 15),
    ("table1-table2", None),
)
NASH_TOLERANCE = 1e-6
HORIZON = 1e7
# The traffic check tests every node of every instance in a run.  At 3
# sigma per node about 4 % of seeds would fail on a correct program, so
# the per-node limit is Bonferroni-corrected to this chance per run over
# all nodes of all instances (about 5.6 sigma for their 50 nodes).
FALSE_ALARM_PER_RUN = 1e-6


def traffic_z(config, report, measured) -> np.ndarray:
    """|measured - expected| / sigma per node; 0 where nothing is sent."""
    expected = node_arrivals(report.allocation, config)
    sigma = np.sqrt(expected / HORIZON)
    z = np.zeros_like(expected)
    sent = expected > 0.0
    z[sent] = np.abs(measured[sent] - expected[sent]) / sigma[sent]
    z[~sent] = np.where(measured[~sent] == 0.0, 0.0, math.inf)
    return z


class OracleVerify:
    """One op: ``solve``, ``nash_check`` and ``traffic_empirical_rates``."""

    name = "oracle-verify"

    def __init__(self, seed: int, workdir: Path, tracer=NullTracer()):
        self.seed = seed
        self.configs = {}
        for name, m in ORACLE_INSTANCES:
            config = tracer.call("presets.preset", preset, name, n_nodes=m)
            self.configs[f"{name}.m{config.n_nodes}"] = config
        self.labels = list(self.configs)
        nodes = sum(c.n_nodes for c in self.configs.values())
        self.z_limit = NormalDist().inv_cdf(
            1 - FALSE_ALARM_PER_RUN / (2 * nodes))
        self.outside_3sigma: dict[str, int] = {}

    def run(self, label: str):
        config = self.configs[label]
        report = solve(config)
        ok, worst = nash_check(report.allocation, config,
                               tolerance=NASH_TOLERANCE)
        measured = traffic_empirical_rates(report.allocation, config,
                                           horizon=HORIZON, seed=self.seed)
        return report, ok, worst, measured

    def check(self, label: str, result) -> tuple:
        report, ok, worst, measured = result
        if not ok:
            raise CheckFailed(f"nash_check failed, worst gain {worst:.3g}")
        z = traffic_z(self.configs[label], report, measured)
        self.outside_3sigma[label] = int((z > 3.0).sum())
        if not (z <= self.z_limit).all():
            raise CheckFailed(f"node {int(np.argmax(z)) + 1} is "
                              f"{float(z.max()):.2f} sigma off")
        return (report.cycles,)

    def replay(self, label: str, tracer):
        config = self.configs[label]
        report = traced_solve(tracer, config)
        ok, worst = tracer.call("oracle.nash_check", nash_check,
                                report.allocation, config,
                                tolerance=NASH_TOLERANCE)
        measured = tracer.call("oracle.traffic_empirical_rates",
                               traffic_empirical_rates, report.allocation,
                               config, horizon=HORIZON, seed=self.seed)
        with tracer.span("probe"):
            for i in range(config.n_schedulers):
                tracer.call("oracle.numeric_best_response",
                            numeric_best_response, i, report.allocation,
                            config)
        return report, ok, worst, measured

    def info(self) -> dict:
        return {
            "z_limit": self.z_limit,
            "instances": {
                label: {"n": c.n_schedulers, "m": c.n_nodes,
                        "effective_utilisation": effective_utilisation(c),
                        "nodes_outside_3sigma": self.outside_3sigma.get(label)}
                for label, c in self.configs.items()},
        }


WORKLOADS = {w.name: w for w in (PaperGrid, HotPool, OracleVerify)}
