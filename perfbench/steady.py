"""Steadiness and comparison command for the search benchmark.

    python3 perfbench/steady.py --workload pangenome --runs 10
    python3 perfbench/steady.py --workload pangenome --runs 10 --seed 1
    python3 perfbench/steady.py --workload long-alts --runs 10 \\
        --src ../parent/src --src src

Runs ``run.py`` (untraced, for ``run_seconds`` of ``BENCHMARK.json``)
once per seed, seeds 1 to ``--runs``, and prints each end-to-end
metric's median, quartiles and relative spread (interquartile distance
over median) next to its bound in ``BENCHMARK.json``.  A spread must
stay within its bound for the benchmark to tell a change from noise;
below a third of it is the aim.  That spread mixes the host's noise
with the inputs' seed-to-seed variance; ``--seed`` repeats one seed in
every run instead, so the spread is the host's noise alone.

With two ``--src`` trees (say a parent commit's ``src`` and the
change's) the same benchmark code measures both, alternating which runs
first, and the command also prints the median change, how many seeds
the second tree won, and whether it is worse than the first by more
than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, src: str | None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if src:
        cmd += ["--src", src]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=seconds + 300)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run failed (exit {out.returncode}): {' '.join(cmd)}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int,
                    help="repeat this seed in every run instead of seeds 1..runs")
    ap.add_argument("--src", action="append", default=[],
                    help="library tree to measure; give two to compare")
    args = ap.parse_args(argv)
    if args.runs < 2 or len(args.src) > 2:
        ap.error("need at least 2 runs and at most 2 --src trees")
    srcs = args.src or [None]
    seconds = spec["run_seconds"]

    results: dict[str | None, list[dict]] = {s: [] for s in srcs}
    for i in range(args.runs):
        seed = args.seed if args.seed is not None else i + 1
        for src in srcs if i % 2 == 0 else srcs[::-1]:
            r = run_once(args.workload, seed, seconds, src)
            results[src].append(r)
            shown = "  ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"seed {seed} {src or 'src'}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}  {shown}", flush=True)

    seeds = f"seed {args.seed}" if args.seed is not None else f"seeds 1-{args.runs}"
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, {seeds}")
    for k, src in enumerate(srcs, 1):
        print(f"tree {k}: {src or ROOT / 'src'}")
    print(f"{'metric':<14}{'tree':>5}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        meds = []
        for k, src in enumerate(srcs, 1):
            values = [r["metrics"][name]["value"] for r in results[src]]
            q1, med, q3 = quartiles(values)
            meds.append((med, values))
            spread = (q3 - q1) / med
            flag = "" if spread <= bound / 3 else "  above bound/3" if spread <= bound \
                else "  ABOVE BOUND"
            print(f"{name:<14}{k:>5}{med:>12.6g}{q1:>12.6g}"
                  f"{q3:>12.6g}{spread:>9.3f}{bound:>7.2f}{flag}")
        if len(srcs) == 2:
            sign = 1 if metric["better"] == "higher" else -1
            (med_a, va), (med_b, vb) = meds
            change = sign * (med_b - med_a) / med_a
            wins = sum(sign * (b - a) > 0 for a, b in zip(va, vb))
            verdict = "worse by more than bound" if change < -bound else "within bound"
            print(f"{'':<14}tree 2 vs tree 1: {change:+.3f} better, "
                  f"won {wins}/{len(va)} seeds, {verdict}")
    for k, src in enumerate(srcs, 1):
        shares = {(r["failed"], r["attempted"]) for r in results[src]}
        print(f"failed/attempted, tree {k}: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
