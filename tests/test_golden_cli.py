"""Golden-file test of the CLI: CSV bytes, stdout and exit code per invocation.

Each case runs ``main(argv)`` in an empty working directory and compares
what it wrote with the expected files under ``tests/golden/``:
``<label>.txt`` holds ``exit=<code>`` followed by stdout, in which the
working directory is masked so that only file names remain, and
``<label>.csv`` holds the CSV the case wrote (absent when it wrote none).
An argument ending in ``.json`` names a config file in ``tests/golden/``.

The cases are the paper's experiments as the benchmark runs them, plus
the paths those leave out: the default artifact name, the single-pass
baseline, a node-count convergence sweep, sweeps over a config file,
infeasible sweep points, a non-converging solve, the oracle check (on a
preset and on a file with a zero-rate scheduler) and a file whose nodes
have W_j*mu_j < 1.

To rewrite the expected files after an intended artifact change, run
``PYTHONPATH=src python tests/test_golden_cli.py`` from the repository root.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from relsched.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = "table1-table2.json"  # the preset as a file
OUT = "{out}"  # out.csv in the working directory

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
}


def run_case(label: str, workdir: Path) -> tuple[str, bytes | None]:
    """Run one case in workdir; return (exit line + stdout, CSV bytes)."""
    argv = [str(GOLDEN / a) if a.endswith(".json")
            else str(workdir / "out.csv") if a == OUT else a
            for a in CASES[label]]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    text = f"exit={code}\n" + stdout.getvalue().replace(
        f"{workdir}{os.sep}", "")
    written = sorted(workdir.glob("*.csv"))
    assert len(written) <= 1, written
    return text, written[0].read_bytes() if written else None


@pytest.mark.parametrize("label", sorted(CASES))
def test_cli_output_matches_golden(label, tmp_path, no_records):
    # under no_records: no case, not even a config-file one, builds a record
    text, csv_bytes = run_case(label, tmp_path)
    assert text == (GOLDEN / f"{label}.txt").read_text()
    expected_csv = GOLDEN / f"{label}.csv"
    if expected_csv.exists():
        assert csv_bytes == expected_csv.read_bytes()
    else:
        assert csv_bytes is None


if __name__ == "__main__":
    import tempfile

    for label in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            text, csv_bytes = run_case(label, Path(tmp))
        (GOLDEN / f"{label}.txt").write_text(text)
        if csv_bytes is None:
            (GOLDEN / f"{label}.csv").unlink(missing_ok=True)
        else:
            (GOLDEN / f"{label}.csv").write_bytes(csv_bytes)
        print(f"{label}: {text.splitlines()[0]}", file=sys.stderr)
