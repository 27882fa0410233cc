"""One fresh-process set-up, timed from outside by run.py for setup_s.

Imports every quadnet module and builds the workload's sweep of cells.

    python3 perfbench/setup_probe.py --workload theory --seed 0
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import quadnet.cli  # noqa: E402,F401  (the package imports the other modules)
import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=tuple(workloads.SWEEPS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    cells = workloads.SWEEPS[args.workload](args.seed)
    if not cells:
        sys.exit(1)


if __name__ == "__main__":
    main()
