"""Search benchmark entry point.

    python3 perfbench/run.py --workload pangenome --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed (cached under
``perfbench/cache``), then starts ``measure.py`` in a fresh process that
reads them and runs the queries for ``--seconds``.  That process's
output, ending in one JSON line of results, is this command's output.
Run from the root of a checkout whose ``src/edsm`` is the library to
measure, or name another library tree with ``--src``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the edsm package to measure")
    args = ap.parse_args(argv)

    src = args.src.resolve()
    if not (src / "edsm" / "__init__.py").is_file():
        print(f"no edsm package under {src}", file=sys.stderr)
        return 2
    folder = workloads.ensure(args.workload, args.seed)
    # One thread: numpy's BLAS pool would otherwise start workers at import.
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "measure.py"), "--dir", str(folder),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--src", str(src)]
    try:
        return subprocess.run(cmd, env=env, timeout=args.seconds + 120).returncode
    except subprocess.TimeoutExpired:
        print("measuring process timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
