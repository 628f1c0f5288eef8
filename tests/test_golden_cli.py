"""Golden-file test of the CLI: CSV bytes, stdout and exit code per invocation.

``CASES`` is the one list of what the command line must print and write.
Each case runs in an empty working directory and its result is compared
with the expected files under ``tests/golden/``: ``<label>.txt`` holds
``exit=<code>`` followed by stdout, in which the working directory is
masked so that only file names remain, and ``<label>.csv`` holds the CSV
the case wrote (absent when it wrote none).  An argument ending in
``.json`` names a config file in ``tests/golden/``; ``OUT`` stands for
``out.csv`` in the working directory and ``WORKDIR`` for the directory
itself.

Two runners share the cases and the comparison.  The pytest test calls
``main(argv)`` in process.  ``--check CMD`` runs each case as ``CMD argv``
in a subprocess, so that the installed console script (``relsched``) or
``python -m relsched`` is held to the same bytes; stderr passes through,
and relative ``PYTHONPATH`` entries are made absolute for the child.

The cases are the paper's experiments as the benchmark runs them, plus
the paths those leave out: the default artifact name, the single-pass
baseline, a node-count convergence sweep, sweeps over a config file,
infeasible sweep points, a non-converging solve, a scheduler a million
times lighter than the rest, the oracle check (on a preset, on a file
with a zero-rate scheduler and on a seed that puts one of 15 nodes
outside 3 sigma), a file whose nodes have W_j*mu_j < 1, a 160-node
pool large enough for the row kernel to reuse its ranking and one of 4
machine types whose rankings tie, a loaded pool swept over node counts,
runs that print without writing a CSV, and the exit code 2 paths: a
balanced baseline that cannot place a stream, a directory given as
``--out`` and ``--rho`` on a sweep over rho.

From the repository root,

    PYTHONPATH=src python tests/test_golden_cli.py --check "python -m relsched"

prints each case whose output differs from its golden files and exits 1
if any does; it writes no golden file.  Without ``--check`` the script
rewrites the expected files after an intended artifact change.
"""

import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from relsched.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = "table1-table2.json"  # the preset as a file
OUT = "{out}"  # out.csv in the working directory
WORKDIR = "{workdir}"  # the working directory itself

PRESETS = ("table1-table2", "table1-table3", "table4-table5",
           "table6-table7", "table6-table7-n15")

CASES = {
    **{f"sweep-load.{p}": ("sweep-load", "--preset", p, "--out", OUT)
       for p in PRESETS},
    "sweep-schedulers.table4-table5": (
        "sweep-schedulers", "--preset", "table4-table5", "--out", OUT),
    **{f"sweep-nodes.{p}": ("sweep-nodes", "--preset", p, "--out", OUT)
       for p in ("table6-table7", "table6-table7-n15")},
    **{f"compare.{p}": ("compare", "--preset", p, "--out", OUT)
       for p in ("table1-table2", "table1-table3")},
    "fairness.rho": ("fairness", "--preset", "table1-table2", "--vary",
                     "rho", "--out", OUT),
    "fairness.schedulers": ("fairness", "--preset", "table4-table5",
                            "--vary", "schedulers", "--out", OUT),
    "fairness.nodes": ("fairness", "--preset", "table6-table7", "--vary",
                       "nodes", "--out", OUT),
    "convergence.trace": ("convergence", "--preset", "table1-table2",
                          "--out", OUT),
    "convergence.rho": ("convergence", "--preset", "table1-table2",
                        "--range", "0.1:0.9:0.1", "--out", OUT),
    "solve.preset": ("solve", "--preset", "table1-table2", "--out", OUT),
    "solve.config": ("solve", "--config", CONFIG, "--out", OUT),
    # Beyond the benchmark's commands.
    "compare.default-out": ("compare", "--preset", "table1-table3"),
    "compare.single-pass": ("compare", "--preset", "table1-table2",
                            "--bsa-single-pass", "--out", OUT),
    "sweep-load.single-pass": ("sweep-load", "--preset", "table1-table3",
                               "--bsa-single-pass", "--out", OUT),
    "convergence.nodes": ("convergence", "--preset", "table6-table7",
                          "--vary", "nodes", "--range", "10:20:1",
                          "--out", OUT),
    "sweep-load.config": ("sweep-load", "--config", CONFIG, "--out", OUT),
    "sweep-nodes.config": ("sweep-nodes", "--config", CONFIG,
                           "--range", "10:15:1", "--out", OUT),
    "sweep-load.infeasible": ("sweep-load", "--preset", "table1-table2",
                              "--range", "0.5:1.5:0.5", "--out", OUT),
    "fairness.rho-override": ("fairness", "--preset", "table4-table5",
                              "--vary", "schedulers", "--range", "5:8:1",
                              "--rho", "0.3", "--epsilon", "1e-9",
                              "--out", OUT),
    # table1-table2 with max_cycles 1 and epsilon_threshold 0
    "solve.not-converged": ("solve", "--config", "solve.not-converged.json",
                            "--out", OUT),
    "oracle-check": ("oracle-check", "--preset", "table1-table2",
                     "--horizon", "1e6", "--out", OUT),
    # W_j*mu_j < 1 on both nodes: every A_j > 0 at the uniform start,
    # though the load equals sum(mu) and exceeds mu_1 there
    "compare.w-mu-below-one": ("compare", "--config", "w-mu-below-one.json",
                               "--out", OUT),
    # scheduler 3 has phi 0: its row objective is flat, so its nash_check
    # candidate is its own row and it draws no traffic
    "oracle-check.zero-rate": ("oracle-check", "--config", "zero-rate.json",
                               "--horizon", "1e6", "--out", OUT),
    # Without --out, solve and oracle-check print and write no file.
    "solve.preset-stdout": ("solve", "--preset", "table1-table2"),
    "solve.config-stdout": ("solve", "--config", CONFIG),
    "oracle-check.stdout": ("oracle-check", "--preset", "table1-table2"),
    "oracle-check.zero-rate-stdout": ("oracle-check", "--config",
                                      "zero-rate.json"),
    # the traffic puts one of 15 loaded nodes outside 3 sigma, which the
    # verdict's correction for the node count passes
    "oracle-check.seed-31": ("oracle-check", "--preset", "table1-table3",
                             "--seed", "31"),
    # every W_j*mu_j = 0.75 at 90 % utilisation: the game solves it (0),
    # but the balanced baseline finds no spare capacity for a stream (2)
    "solve.baseline-cannot-place": ("solve", "--config",
                                    "baseline-cannot-place.json"),
    "compare.baseline-cannot-place": ("compare", "--config",
                                      "baseline-cannot-place.json"),
    # table1-table2 with its last phi cut to 1e-8: the light scheduler's
    # row is divided by its sum, which keeps it on the simplex
    "solve.light-scheduler": ("solve", "--config", "light-scheduler.json",
                              "--out", OUT),
    # a directory as --out is 2, and a sweep then prints nothing
    "solve.out-is-dir": ("solve", "--preset", "table1-table2",
                         "--out", WORKDIR),
    "sweep-load.out-is-dir": ("sweep-load", "--preset", "table1-table2",
                              "--range", "0.1:0.2:0.1", "--out", WORKDIR),
    # --rho cannot set the load of a sweep over rho
    "sweep-load.rho-given": ("sweep-load", "--preset", "table1-table2",
                             "--rho", "0.3"),
    # 160 x 160 at 85 % effective utilisation, past the size from which the
    # game's row kernel reuses the last row's ranking
    "solve.hot-pool-160": ("solve", "--config", "hot-pool-160.json",
                           "--out", OUT),
    "compare.hot-pool-160": ("compare", "--config", "hot-pool-160.json",
                             "--out", OUT),
    # the same size and load on 4 machine types: nodes of one type tie in
    # every marginal, so the kernel's rankings run through ties
    "solve.types-pool-160": ("solve", "--config", "types-pool-160.json",
                             "--out", OUT),
    "compare.types-pool-160": ("compare", "--config", "types-pool-160.json",
                               "--out", OUT),
    # 28 schedulers on the first 12 to 28 nodes of a pool at 85 % effective
    # utilisation, where every row of the game fills every node
    "sweep-nodes.loaded-pool-28": ("sweep-nodes", "--config",
                                   "loaded-pool-28.json", "--range",
                                   "12:28:4", "--out", OUT),
}


def run_case(label: str, workdir: Path,
             command: str | None = None) -> tuple[str, bytes | None]:
    """Run one case in workdir, through main(argv) or, given a command
    such as "relsched", in a subprocess; return (exit line + stdout, CSV
    bytes)."""
    argv = [str(GOLDEN / a) if a.endswith(".json")
            else str(workdir / "out.csv") if a == OUT
            else str(workdir) if a == WORKDIR else a
            for a in CASES[label]]
    if command is None:
        stdout = io.StringIO()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
        finally:
            os.chdir(cwd)
        printed = stdout.getvalue()
    else:
        done = subprocess.run([*shlex.split(command), *argv], cwd=workdir,
                              env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=300)
        code, printed = done.returncode, done.stdout
    text = f"exit={code}\n" + printed.replace(f"{workdir}{os.sep}", "")
    written = sorted(workdir.glob("*.csv"))
    assert len(written) <= 1, written
    return text, written[0].read_bytes() if written else None


def _child_env() -> dict[str, str]:
    """The environment with each PYTHONPATH entry made absolute: the child
    runs in the working directory, where a relative entry names nothing."""
    env = dict(os.environ)
    if "PYTHONPATH" in env:
        env["PYTHONPATH"] = os.pathsep.join(
            str(Path(entry).resolve())
            for entry in env["PYTHONPATH"].split(os.pathsep))
    return env


def golden(label: str) -> tuple[str, bytes | None]:
    """What run_case must return for a case: its expected files' content."""
    expected_csv = GOLDEN / f"{label}.csv"
    return ((GOLDEN / f"{label}.txt").read_text(),
            expected_csv.read_bytes() if expected_csv.exists() else None)


@pytest.mark.parametrize("label", sorted(CASES))
def test_cli_output_matches_golden(label, tmp_path, no_records):
    # under no_records: no case, not even a config-file one, builds a record
    assert run_case(label, tmp_path) == golden(label)


@pytest.mark.parametrize("label", ["compare.default-out", "solve.out-is-dir"])
def test_subprocess_runner_matches_golden(label, tmp_path, monkeypatch):
    # the --check runner: a default artifact written to the child's working
    # directory, and the directory itself given as --out
    import relsched

    package_root = str(Path(relsched.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    command = f"{shlex.quote(sys.executable)} -m relsched"
    assert run_case(label, tmp_path, command) == golden(label)


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        description="Rewrite the golden files of the CLI cases, or with "
                    "--check compare each case's output with them.")
    parser.add_argument(
        "--check", metavar="CMD",
        help='run every case as CMD ARGS in a subprocess (e.g. relsched or '
             '"python -m relsched"), print each label whose output differs, '
             'exit 1 if any does, and write no golden file')
    check = parser.parse_args().check
    mismatched = []
    for label in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            text, csv_bytes = run_case(label, Path(tmp), check)
        if check is not None:
            if (text, csv_bytes) != golden(label):
                mismatched.append(label)
                print(f"mismatch: {label}")
            continue
        (GOLDEN / f"{label}.txt").write_text(text)
        if csv_bytes is None:
            (GOLDEN / f"{label}.csv").unlink(missing_ok=True)
        else:
            (GOLDEN / f"{label}.csv").write_bytes(csv_bytes)
        print(f"{label}: {text.splitlines()[0]}", file=sys.stderr)
    if check is not None:
        print(f"{len(mismatched)} of {len(CASES)} cases differ from "
              f"tests/golden/ under {check}")
        sys.exit(1 if mismatched else 0)
