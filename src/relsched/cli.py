"""Experiment harness and command-line interface.

One table, COMMANDS, names every subcommand (the five experiment families
plus direct solves and oracle checks), builds its parser and holds its
handler, default artifact and extra flags; every sweep runs through one
handler.  Artifacts are CSV plot data, never rendered images.  Floats in
CSVs carry 12 significant digits so a file re-read reproduces the printed
values; summary tables print 6 significant digits.  Exit codes:
0 success, 2 validation failure, 3 non-convergence.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import baseline, equilibrium, oracle
from .errors import (
    NotConverged,
    ParseError,
    RelschedError,
    ValidationError,
)
from .metrics import fairness_index, per_node_reciprocals
from .model import (
    Allocation,
    NodeParams,
    SchedulerParams,
    SystemConfig,
    _checked,
    _fields,
    _is_float,
    _is_number,
    build_instance,
    node_arrivals,
    validate_config,
)
from .presets import _PRESETS, PRESET_NAMES

_CSV_DIGITS = ".12g"
_SUMMARY_DIGITS = ".6g"
# The paper's sweeps have at most 16 points; far more means a typo'd step.
_MAX_SWEEP_POINTS = 10_000

# Swept variable -> (CSV column, default LO:HI:STEP).
VARY = {
    "rho": ("rho", "0.1:0.9:0.1"),
    "schedulers": ("n", "5:20:1"),
    "nodes": ("m", "10:20:1"),
}


def _read_config(path) -> dict:
    """Parse a JSON instance file into the source build_instance takes,
    as a preset holds it (see model._fields), with epsilon_threshold and
    max_cycles if set.

    Every value is type-checked here: numbers must be finite and not
    booleans, and a JSON null is rejected like any other wrong type.  The
    records check each entry's range; _source and _instance the rest.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")

    def field(obj, key, where, kind=float):
        """obj[key] as a list, or as a finite number (by _is_float) that
        is a float unless kind is int; None if absent."""
        if key not in obj:
            return None
        value = obj[key]
        if not (isinstance(value, list) if kind is list
                else _is_number(value, kind is int)):
            raise ParseError(f"{path}: field {key!r} of {where} has wrong type")
        if kind is not list and not _is_float(value):
            raise ParseError(f"{path}: field {key!r} of {where} is not finite")
        return float(value) if kind is float else value

    rho = field(raw, "rho", "config")
    if rho is None:
        raise ParseError(f"{path}: missing required field 'rho'")
    nodes_raw = field(raw, "nodes", "config", list)
    scheds_raw = field(raw, "schedulers", "config", list)
    if not nodes_raw:
        raise ParseError(f"{path}: missing or empty 'nodes' list")
    if not scheds_raw:
        raise ParseError(f"{path}: missing or empty 'schedulers' list")

    nodes = []
    for k, entry in enumerate(nodes_raw):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: node {k} must be an object")
        mu = field(entry, "mu", f"node {k}")
        if mu is None:
            raise ParseError(f"{path}: node {k} is missing 'mu'")
        nodes.append(NodeParams.from_rate(
            mu,
            mu_prime=field(entry, "mu_prime", f"node {k}"),
            gamma=field(entry, "gamma", f"node {k}"),
            beta1=field(entry, "beta1", f"node {k}"),
        ))

    schedulers = []
    for k, entry in enumerate(scheds_raw):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: scheduler {k} must be an object")
        phi = field(entry, "phi", f"scheduler {k}") or 0.0
        lam = field(entry, "lambda" if "lambda" in entry else "lam",
                    f"scheduler {k}")
        schedulers.append(SchedulerParams(phi=phi, lam=lam))

    settings = {key: field(raw, key, "config", kind) for key, kind in
                (("epsilon_threshold", float), ("max_cycles", int))}
    return _fields(nodes, schedulers, rho, **{
        key: value for key, value in settings.items() if value is not None})


def load_config(path) -> SystemConfig:
    """Read a JSON instance file and return a validated SystemConfig.

    Node entries need only "mu"; "mu_prime", "gamma" and "beta1" default to
    mu/10, 5/mu and 1/mu.  Scheduler entries carry "phi" and/or "lambda";
    missing rates are derived as phi * rho * (total mu).  Top-level keys:
    "rho" (required), "epsilon_threshold", "max_cycles".
    """
    return _instance(_read_config(path))


def _source(args) -> dict:
    """The source every point of a command is made from, read once: the
    preset's or the file's, with --epsilon in place of the threshold.
    --rho is not written in: build_instance takes it as the point's load.

    The values every point shares are range-checked here, before any point
    is solved, so a sweep given a bad one exits 2 instead of flagging every
    point infeasible.  A sweep over rho replaces rho at every point, so
    only an explicit --rho is checked then.
    """
    source = (dict(_PRESETS[args.preset]) if args.preset is not None
              else _read_config(args.config))
    if args.rho is not None:
        _checked("rho", args.rho, "--rho")
    elif getattr(args, "vary", None) != "rho":
        _checked("rho", source["rho"])
    if args.epsilon is not None:
        source["epsilon_threshold"] = _checked(
            "epsilon_threshold", args.epsilon, "--epsilon")
    for name in ("epsilon_threshold", "max_cycles"):
        if name in source:
            _checked(name, source[name])
    return source


def _instance(source: dict, rho=None, schedulers=None,
              nodes=None) -> SystemConfig:
    """The source's instance at one point; one that fails a stability check
    under the uniform start is a ValidationError."""
    config = build_instance(source, rho, schedulers, nodes)
    report = validate_config(
        Allocation.uniform(config.n_schedulers, config.n_nodes), config
    )
    if not report.all_passed:
        names = ", ".join(c.name for c in report.failed())
        raise ValidationError(f"infeasible instance; failed checks: {names}",
                              report=report)
    return config


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, _CSV_DIGITS)
    return str(value)


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def _sweep_values(sweep_range, integer: bool) -> list:
    """Points of an inclusive LO:HI:STEP range, whole numbers if integer."""
    lo, hi, step = sweep_range
    if step <= 0:
        raise ValidationError(f"sweep step must be positive, got {step}")
    if integer and not all(float(v).is_integer() for v in sweep_range):
        raise ValidationError(
            f"a count sweep needs whole numbers, got {lo:g}:{hi:g}:{step:g}")
    if (hi - lo) / step >= _MAX_SWEEP_POINTS:
        raise ValidationError(
            f"sweep range has more than {_MAX_SWEEP_POINTS} points")
    count = int(round((hi - lo) / step))
    values = [round(lo + k * step, 12) for k in range(count + 1)]
    values = [v for v in values if v <= hi + 1e-12]
    if integer:
        return [int(round(v)) for v in values]
    return values


def parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"range must be LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"range must be numeric, got {text!r}") from exc
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValidationError(f"range must be finite, got {text!r}")
    if hi < lo:
        raise ValidationError(f"range upper bound below lower: {text!r}")
    return lo, hi, step


def _write(args, header, rows) -> int:
    """Write the artifact to --out, else to the subcommand's default name
    (solve and oracle-check have none and write only with --out)."""
    path = args.out or args.artifact
    if path:
        print(f"wrote {write_csv(path, header, rows)}")
    return 0


def _solve_both(config: SystemConfig, args) -> dict:
    """Game and balanced solves of one instance, by CSV column."""
    game = equilibrium.solve(config)
    balanced = baseline.bsa_solve(config, single_pass=args.bsa_single_pass)
    fi_game, fi_bal = (
        fairness_index(equilibrium.objective_all_schedulers(
            report.allocation, config))
        for report in (game, balanced))
    return {"d_rbsa": game.objective, "d_bsa": balanced.objective,
            "gap": balanced.objective - game.objective,
            "cycles_rbsa": game.cycles, "cycles_bsa": balanced.cycles,
            "fi_rbsa": fi_game, "fi_bsa": fi_bal}


def _sweep(args, measure, columns) -> int:
    """Measure every point of --range (or the swept variable's default).

    Sweep points that turn out infeasible are recorded as rows flagged
    feasible=0 instead of aborting the sweep.
    """
    column, default_range = VARY[args.vary]
    source = _source(args)
    rows = []
    for value in _sweep_values(parse_range(args.range or default_range),
                               args.vary != "rho"):
        try:
            point = {"rho": args.rho, args.vary: value}
            measured = measure(_instance(source, **point), args)
            rows.append((value, *(measured[c] for c in columns), 1))
        except RelschedError:
            rows.append((value, *[""] * len(columns), 0))
    header = (column, *columns, "feasible")
    print(" ".join(header))
    for row in rows:
        print(" ".join(
            format(v, _SUMMARY_DIGITS) if isinstance(v, float) else str(v)
            for v in row
        ))
    return _write(args, header, rows)


def _cmd_sweep(args) -> int:
    return _sweep(args, _solve_both,
                  ("d_rbsa", "d_bsa", "gap", "cycles_rbsa", "cycles_bsa",
                   "fi_rbsa", "fi_bsa"))


def _cmd_fairness(args) -> int:
    return _sweep(args, _solve_both, ("fi_rbsa", "fi_bsa"))


def _cmd_convergence(args) -> int:
    if args.range:
        return _sweep(args, lambda config, _: {
            "cycles": equilibrium.solve(config).cycles}, ("cycles",))
    report = equilibrium.solve(_instance(_source(args), args.rho))
    print(f"converged={report.converged} cycles={report.cycles} "
          f"objective={report.objective:{_SUMMARY_DIGITS}}")
    return _write(args, ("cycle", "epsilon"),
                  [(cycle + 1, eps)
                   for cycle, eps in enumerate(report.epsilon_trace)])


def _cmd_solve(args) -> int:
    config = _instance(_source(args), args.rho)
    report = equilibrium.solve(config)
    values = equilibrium.objective_all_schedulers(report.allocation, config)
    print(f"objective={report.objective:{_SUMMARY_DIGITS}} "
          f"cycles={report.cycles} converged={report.converged} "
          f"fairness={fairness_index(values):{_SUMMARY_DIGITS}}")
    deltas = node_arrivals(report.allocation, config)
    avail = report.per_node_availability
    return _write(args,
                  ("node", "mu", "delta", "availability", "reciprocal"),
                  [(j + 1, mu, float(deltas[j]), avail[j], 1.0 / avail[j])
                   for j, mu in enumerate(config.mu.tolist())])


def _cmd_compare(args) -> int:
    config = _instance(_source(args), args.rho)
    game = equilibrium.solve(config)
    balanced = baseline.bsa_solve(config, single_pass=args.bsa_single_pass)
    recip_game = per_node_reciprocals(game.allocation, config)
    recip_bal = per_node_reciprocals(balanced.allocation, config)
    gap = balanced.objective - game.objective
    print(f"n={config.n_schedulers} m={config.n_nodes} rho={config.rho}")
    print(f"D_rbsa={game.objective:{_SUMMARY_DIGITS}} "
          f"D_bsa={balanced.objective:{_SUMMARY_DIGITS}} "
          f"gap={gap:{_SUMMARY_DIGITS}}")
    print(f"cycles_rbsa={game.cycles} cycles_bsa={balanced.cycles}")
    return _write(args, ("node", "mu", "recip_rbsa", "recip_bsa"),
                  [(j + 1, mu, recip_game[j], recip_bal[j])
                   for j, mu in enumerate(config.mu.tolist())])


def _cmd_oracle_check(args) -> int:
    _checked("horizon", args.horizon, "--horizon")  # exit 2 before a solve
    _checked("seed", args.seed, "--seed")
    config = _instance(_source(args), args.rho)
    report = equilibrium.solve(config)
    ok, worst = oracle.nash_check(report.allocation, config)
    print(f"nash_check={'PASS' if ok else 'FAIL'} "
          f"worst_gain={worst:{_SUMMARY_DIGITS}}")

    expected = node_arrivals(report.allocation, config)
    measured = oracle.traffic_empirical_rates(
        report.allocation, config, horizon=args.horizon, seed=args.seed)
    sigma = np.sqrt(expected / args.horizon)
    within = np.abs(measured - expected) <= 3.0 * sigma
    traffic_ok = bool(within.all())
    print(f"traffic_check={'PASS' if traffic_ok else 'FAIL'} "
          f"nodes_within_3sigma={int(within.sum())}/{config.n_nodes}")
    _write(args,
           ("node", "expected_rate", "empirical_rate", "sigma",
            "within_3sigma"),
           [(j + 1, float(expected[j]), float(measured[j]), float(sigma[j]),
             int(within[j])) for j in range(config.n_nodes)])
    return 0 if ok and traffic_ok else 2


# Extra flags by name, shared by the subcommands that take them.
_FLAGS = {
    "--range": dict(metavar="LO:HI:STEP", default=None,
                    help="sweep range, inclusive; sweeps default to "
                         + ", ".join(f"{k} {r}" for k, (_, r) in VARY.items())
                         + ", convergence traces one solve without it"),
    "--vary": dict(choices=tuple(VARY), default="rho",
                   help="variable to sweep"),
    "--bsa-single-pass": dict(action="store_true",
                              help="run the balanced baseline for one "
                                   "sweep only"),
    "--horizon": dict(type=float, default=1e7,
                      help="traffic simulation horizon in seconds"),
    "--seed": dict(type=int, default=1,
                   help="seed of the traffic simulation"),
}

# name: (handler, default artifact, swept variable, extra flags, help).
# A sweep with no fixed variable takes --vary.
COMMANDS = {
    "solve": (_cmd_solve, None, None, (),
              "solve one instance to equilibrium"),
    "compare": (_cmd_compare, "objective-compare.csv", None,
                ("--bsa-single-pass",),
                "per-node reciprocals: game vs balanced"),
    "sweep-load": (_cmd_sweep, "load-sweep.csv", "rho",
                   ("--range", "--bsa-single-pass"),
                   "objectives across system loads"),
    "sweep-schedulers": (_cmd_sweep, "scheduler-sweep.csv", "schedulers",
                         ("--range", "--bsa-single-pass"),
                         "objectives across scheduler counts"),
    "sweep-nodes": (_cmd_sweep, "node-sweep.csv", "nodes",
                    ("--range", "--bsa-single-pass"),
                    "objectives across node counts"),
    "fairness": (_cmd_fairness, "fairness.csv", None,
                 ("--range", "--vary", "--bsa-single-pass"),
                 "fairness index across a sweep"),
    "convergence": (_cmd_convergence, "convergence.csv", None,
                    ("--range", "--vary"),
                    "objective-change trace, or cycle counts with --range"),
    "oracle-check": (_cmd_oracle_check, None, None, ("--horizon", "--seed"),
                     "verify an equilibrium with the numeric oracle"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relsched",
        description="Reliability-driven task-slicing solver and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, artifact, vary, flags, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--preset", choices=PRESET_NAMES,
                           help="built-in instance")
        group.add_argument("--config", metavar="PATH",
                           help="JSON instance file")
        p.add_argument("--rho", type=float, default=None,
                       help="override the system load")
        p.add_argument("--epsilon", type=float, default=None,
                       help="convergence threshold (default "
                            f"{SystemConfig.epsilon_threshold:g})")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="CSV output path"
                            + (f" (default {artifact})" if artifact else ""))
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func, artifact=artifact)
        if vary:
            p.set_defaults(vary=vary)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built once per process: parsing reads it
    and writes every value into a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except RelschedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NotConverged) else 2


if __name__ == "__main__":
    sys.exit(main())
