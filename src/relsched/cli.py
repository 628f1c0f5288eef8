"""Experiment harness and command-line interface.

One table, COMMANDS, names every subcommand (the five experiment families
plus direct solves and oracle checks), builds its parser and holds its
handler, default artifact and extra flags; every sweep runs through one
handler.  A handler computes and prints nothing: it returns (exit code,
summary lines, CSV header, rows).  main alone writes the CSV, to --out or
the default artifact, and only then prints the lines, so a command that
raises prints only its error and writes no CSV.  Artifacts are CSV plot
data, never rendered images.  Floats in CSVs carry 12 significant digits
so a file re-read reproduces the printed values; summary tables print 6
significant digits.  Exit codes: 0 success, 1 stdout closed before the
summary was printed (as by ``relsched ... | head``; the CSV is written,
and no traceback follows), 2 validation failure, 3 non-convergence.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np

from . import baseline, equilibrium, oracle
from .errors import (
    NotConverged,
    ParseError,
    RelschedError,
    ValidationError,
)
from .metrics import fairness_index
from .model import (
    _BOUNDS,
    SystemConfig,
    _checked,
    _from_columns,
    _is_float,
    _is_number,
    _within,
    build_instance,
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

# The keys a config file may hold, by where they sit, each with the _BOUNDS
# rule of its value; "lambda" is an alias of lam, and "nodes" and
# "schedulers" hold lists of the entries _KEYS names.
_KEYS = {"top level": {"rho": "rho", "epsilon_threshold": "epsilon_threshold",
                       "max_cycles": "max_cycles", "nodes": "node",
                       "schedulers": "scheduler"},
         "node": {key: key for key in ("mu", "mu_prime", "gamma", "beta1")},
         "scheduler": {"phi": "phi", "lam": "lam", "lambda": "lam"}}


def _read_config(path) -> dict:
    """Parse a JSON instance file into the source build_instance takes,
    as a preset holds it (see model._from_columns), with epsilon_threshold
    and max_cycles if set.

    Every value is type-checked once, a ParseError: a number must be finite
    and not a boolean, and a JSON null is a wrong type.  So is a key outside
    _KEYS, which a typo would otherwise turn into a default, and a key an
    object repeats, which would otherwise be read as its last value.  Each
    node and scheduler value is range-checked once by its _BOUNDS rule,
    _checked raising the ValidationError that names it, so a sweep exits 2
    before any point is solved; _source checks the settings, which an
    override may replace.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        # Each object as a tuple of its (key, value) pairs, so a repeated
        # key stays visible; an array is a list.
        raw = json.loads(text, object_pairs_hook=tuple)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}"
        ) from exc

    def read(obj, kind, where) -> dict:
        """The values of obj, an object of kind, by their _KEYS rule."""
        if not isinstance(obj, tuple):
            raise ParseError(f"{path}: {where} must be an object")
        values, keys = {}, set()
        for key, value in obj:
            rule = _KEYS[kind].get(key)
            if rule is None:
                raise ParseError(f"{path}: unknown field {key!r} of {where}")
            if key in keys:
                raise ParseError(f"{path}: {where} gives {key!r} twice")
            if rule in values:
                raise ParseError(f"{path}: {where} gives both 'lambda' and "
                                 "'lam'")
            keys.add(key)
            bounds = _BOUNDS.get(rule)  # None for a list of entries
            if not (_is_number(value, bounds[3]) if bounds
                    else isinstance(value, list)):
                raise ParseError(f"{path}: field {key!r} of {where} has "
                                 "wrong type")
            if bounds:
                if not _is_float(value):
                    raise ParseError(f"{path}: field {key!r} of {where} is "
                                     "not finite")
                if kind != "top level" and not _within(value, *bounds[:3]):
                    _checked(rule, value, f"{path}: field {key!r} of {where}")
                value = value if bounds[3] else float(value)
            values[rule] = value
        if kind == "node" and "mu" not in values:
            raise ParseError(f"{path}: {where} is missing 'mu'")
        if kind == "scheduler" and not values:
            raise ParseError(f"{path}: {where} is missing 'phi' or 'lambda'")
        return values

    settings = read(raw, "top level", "top level")
    if "rho" not in settings:
        raise ParseError(f"{path}: missing required field 'rho'")
    columns = {}
    for key, kind in (("nodes", "node"), ("schedulers", "scheduler")):
        if not settings.get(kind):
            raise ParseError(f"{path}: missing or empty {key!r} list")
        entries = [read(entry, kind, f"{kind} {k}")
                   for k, entry in enumerate(settings.pop(kind))]
        columns.update((rule, [entry.get(rule) for entry in entries])
                       for rule in set(_KEYS[kind].values()))
    return _from_columns(columns, **settings)


def load_config(path) -> SystemConfig:
    """Read a JSON instance file and return its SystemConfig, every value
    checked; the solvers judge whether its load is feasible.

    Node entries need only "mu"; "mu_prime", "gamma" and "beta1" default to
    mu/10, 5/mu and 1/mu.  Scheduler entries carry "phi" and/or "lambda";
    missing rates are derived as phi * rho * (total mu).  Top-level keys:
    "rho" (required), "epsilon_threshold", "max_cycles".
    """
    return build_instance(_read_config(path))


def _source(args) -> dict:
    """The source every point of a command is made from, read once: the
    preset's or the file's, with --epsilon in place of the threshold.
    --rho is not written in: build_instance takes it as the point's load.

    The values every point shares are range-checked here, before any point
    is solved, so a sweep given a bad one exits 2 instead of flagging every
    point infeasible.  A sweep over rho sets rho at every point and takes
    no --rho, so the source's rho is not checked then.
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
    _checked("sweep_bound", lo, "--range LO")
    _checked("sweep_bound", hi, "--range HI")
    _checked("sweep_step", step, "--range STEP")
    if hi < lo:
        raise ValidationError(f"range upper bound below lower: {text!r}")
    return lo, hi, step


def _solve_both(config: SystemConfig, args) -> dict:
    """Game and balanced solves of one instance, by CSV column."""
    game = equilibrium.solve(config)
    balanced = baseline.bsa_solve(config, single_pass=args.bsa_single_pass)
    fi_game, fi_bal = (
        fairness_index([report.objective] * config.n_schedulers)
        for report in (game, balanced))
    return {"d_rbsa": game.objective, "d_bsa": balanced.objective,
            "gap": balanced.objective - game.objective,
            "cycles_rbsa": game.cycles, "cycles_bsa": balanced.cycles,
            "fi_rbsa": fi_game, "fi_bsa": fi_bal}


def _sweep(args, measure, columns) -> tuple:
    """Measure every point of --range (or the swept variable's default).

    Sweep points that turn out infeasible are recorded as rows flagged
    feasible=0 instead of aborting the sweep; a point that does not
    converge ends the command with NotConverged, as a solve does.
    """
    if args.vary == "rho" and args.rho is not None:
        raise ValidationError("--rho cannot set the load of a sweep over "
                              "rho; --range gives the loads")
    column, default_range = VARY[args.vary]
    source = _source(args)
    rows = []
    for value in _sweep_values(parse_range(args.range or default_range),
                               args.vary != "rho"):
        try:
            # in build_instance's order: rho, n_schedulers, n_nodes
            point = {"rho": args.rho, "schedulers": None, "nodes": None,
                     args.vary: value}
            measured = measure(build_instance(source, *point.values()), args)
            rows.append((value, *(measured[c] for c in columns), 1))
        except NotConverged:
            raise
        except RelschedError:
            rows.append((value, *[""] * len(columns), 0))
    header = (column, *columns, "feasible")
    lines = [" ".join(header), *(" ".join(
        format(v, _SUMMARY_DIGITS) if isinstance(v, float) else str(v)
        for v in row) for row in rows)]
    return 0, lines, header, rows


def _cmd_sweep(args) -> tuple:
    return _sweep(args, _solve_both,
                  ("d_rbsa", "d_bsa", "gap", "cycles_rbsa", "cycles_bsa",
                   "fi_rbsa", "fi_bsa"))


def _cmd_fairness(args) -> tuple:
    return _sweep(args, _solve_both, ("fi_rbsa", "fi_bsa"))


def _cmd_convergence(args) -> tuple:
    if args.range:
        return _sweep(args, lambda config, _: {
            "cycles": equilibrium.solve(config).cycles}, ("cycles",))
    if args.vary != "rho":
        raise ValidationError(f"--vary {args.vary} needs --range; without "
                              "it convergence traces one solve")
    report = equilibrium.solve(build_instance(_source(args), args.rho))
    return (0, [f"converged={report.converged} cycles={report.cycles} "
                f"objective={report.objective:{_SUMMARY_DIGITS}}"],
            ("cycle", "epsilon"),
            [(cycle + 1, eps)
             for cycle, eps in enumerate(report.epsilon_trace)])


def _cmd_solve(args) -> tuple:
    config = build_instance(_source(args), args.rho)
    report = equilibrium.solve(config)
    fairness = fairness_index([report.objective] * config.n_schedulers)
    return (0, [f"objective={report.objective:{_SUMMARY_DIGITS}} "
                f"cycles={report.cycles} converged={report.converged} "
                f"fairness={fairness:{_SUMMARY_DIGITS}}"],
            ("node", "mu", "delta", "availability", "reciprocal"),
            [(j + 1, mu, delta, avail, 1.0 / avail)
             for j, (mu, delta, avail) in enumerate(zip(
                 config.mu.tolist(), report.loads.tolist(),
                 report.per_node_availability))])


def _cmd_compare(args) -> tuple:
    config = build_instance(_source(args), args.rho)
    game = equilibrium.solve(config)
    balanced = baseline.bsa_solve(config, single_pass=args.bsa_single_pass)
    gap = balanced.objective - game.objective
    return (0, [f"n={config.n_schedulers} m={config.n_nodes} "
                f"rho={config.rho}",
                f"D_rbsa={game.objective:{_SUMMARY_DIGITS}} "
                f"D_bsa={balanced.objective:{_SUMMARY_DIGITS}} "
                f"gap={gap:{_SUMMARY_DIGITS}}",
                f"cycles_rbsa={game.cycles} cycles_bsa={balanced.cycles}"],
            ("node", "mu", "recip_rbsa", "recip_bsa"),
            [(j + 1, mu, 1.0 / a_game, 1.0 / a_bal)
             for j, (mu, a_game, a_bal) in enumerate(zip(
                 config.mu.tolist(), game.per_node_availability,
                 balanced.per_node_availability))])


def _cmd_oracle_check(args) -> tuple:
    _checked("horizon", args.horizon, "--horizon")  # exit 2 before a solve
    _checked("seed", args.seed, "--seed")
    config = build_instance(_source(args), args.rho)
    report = equilibrium.solve(config)
    ok, worst = oracle.nash_check(report.allocation, config)
    measured = oracle.traffic_empirical_rates(
        report.allocation, config, horizon=args.horizon, seed=args.seed)
    expected = report.loads
    sigma = np.sqrt(expected / args.horizon)
    off = np.abs(measured - expected)
    within = off <= 3.0 * sigma
    # The verdict tests each of the k loaded nodes at z_k >= 3, so the
    # whole check has one 3-sigma test's false-alarm rate; an unloaded
    # node (sigma 0) must measure exactly 0.
    tail = NormalDist().cdf(-3.0) / max(np.count_nonzero(expected), 1)
    z = max(3.0, -NormalDist().inv_cdf(tail))
    traffic_ok = bool((off <= z * sigma).all())
    return (0 if ok and traffic_ok else 2,
            [f"nash_check={'PASS' if ok else 'FAIL'} "
             f"worst_gain={worst:{_SUMMARY_DIGITS}}",
             f"traffic_check={'PASS' if traffic_ok else 'FAIL'} "
             f"nodes_within_3sigma={int(within.sum())}/{config.n_nodes}"],
            ("node", "expected_rate", "empirical_rate", "sigma",
             "within_3sigma"),
            [(j + 1, float(expected[j]), float(measured[j]), float(sigma[j]),
              int(within[j])) for j in range(config.n_nodes)])


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
    path = args.out or args.artifact
    try:
        code, lines, header, rows = args.func(args)
        if path:
            try:
                lines.append(f"wrote {write_csv(path, header, rows)}")
            except OSError as exc:
                raise RelschedError(f"cannot write {path}: {exc}") from exc
    except RelschedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NotConverged) else 2
    try:
        print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
        return 1
    return code


def _drop_stdout() -> None:
    """Point the descriptor behind a closed stdout at os.devnull, so that
    the interpreter's flush at exit has nowhere to fail either; a stream
    without a descriptor is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
