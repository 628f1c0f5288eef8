"""Write the paper-grid reference CSVs from the current program.

    python3 perfbench/capture_reference.py

The files in reference/ were written by this script at the commit that
added the benchmark.  Re-run it only when a change to the program's
output is intended and explained; the paper-grid workload compares every
op's CSV with these files.
"""

import contextlib
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        grid = workloads.PaperGrid(0, Path(tmp))
        for label in sorted(grid.labels):
            with contextlib.redirect_stdout(sys.stderr):
                code = grid.run(label)
            if code != 0:
                print(f"{label}: exit code {code}", file=sys.stderr)
                return 1
            target = workloads.REFERENCE_DIR / f"{label}.csv"
            target.write_bytes(grid.out(label).read_bytes())
            print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
