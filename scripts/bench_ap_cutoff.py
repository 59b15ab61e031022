#!/usr/bin/env python3
"""Experiment: active-prefixes solve time versus the short-string cutoff.

With an explicit cutoff (at least 23) the solver routes strings of
length at most `cutoff` through the occurrence-mask kernel and
everything longer through the paper's type-partitioned machinery; the
solver default (no cutoff) sends every string shorter than the pattern
through the kernel.  This sweep fixes one instance family and varies the
cutoff, comparing against the literal quadratic oracle.

Usage:
    python3 scripts/bench_ap_cutoff.py --out results/ap_cutoff.csv
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from edsm import APInstance, BitVector, Pattern, solve_ap
from edsm.oracles import brute_ap


@dataclass(frozen=True)
class CutoffConfig:
    m: int = 1 << 10
    total_letters: int = 500_000
    string_len_lo: int = 40
    string_len_hi: int = 200
    substring_prob: float = 0.5
    cutoffs: tuple[int | None, ...] = (23, 64, 256, None)  # None = kernel only
    seed: int = 0


def make_instance(cfg: CutoffConfig) -> APInstance:
    rng = random.Random(cfg.seed)
    letters = "".join(rng.choice("ab") for _ in range(cfg.m))
    strings, total = set(), 0
    while total < cfg.total_letters:
        length = rng.randint(cfg.string_len_lo, cfg.string_len_hi)
        if rng.random() < cfg.substring_prob and length < cfg.m:
            start = rng.randrange(cfg.m - length)
            s = letters[start : start + length]
        else:
            s = "".join(rng.choice("ab") for _ in range(length))
        if s not in strings:
            strings.add(s)
            total += length
    u = BitVector(cfg.m, rng.getrandbits(cfg.m) | 1)
    return APInstance(Pattern(letters), u, tuple(strings))


def run(cfg: CutoffConfig, out_path: Path) -> None:
    inst = make_instance(cfg)
    size = sum(len(s) for s in inst.strings)
    print(f"instance: m={inst.pattern.m}, {len(inst.strings)} strings, "
          f"{size} letters total")

    start = time.perf_counter()
    reference = brute_ap(inst.pattern, inst.u, inst.strings)
    oracle_s = time.perf_counter() - start
    print(f"{'quadratic oracle':<22} {oracle_s:>9.4f}s")

    rows = [[inst.pattern.m, size, "naive-oracle", f"{oracle_s:.6f}"]]
    for cutoff in cfg.cutoffs:
        start = time.perf_counter()
        got = solve_ap(inst, naive_cutoff=cutoff)
        elapsed = time.perf_counter() - start
        assert got == reference, f"cutoff {cutoff} disagrees with the oracle"
        name = f"ap-fast/cutoff={cutoff if cutoff is not None else 'default'}"
        print(f"{name:<22} {elapsed:>9.4f}s  (x{oracle_s / elapsed:.1f})")
        rows.append([inst.pattern.m, size, name, f"{elapsed:.6f}"])

    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "N", "algo", "seconds"])
        writer.writerows(rows)
    print(f"wrote {out_path}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("results/ap_cutoff.csv"))
    ap.add_argument("--m", type=int, default=CutoffConfig.m)
    ap.add_argument("--letters", type=int, default=CutoffConfig.total_letters)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    cfg = CutoffConfig(m=args.m, total_letters=args.letters, seed=args.seed)
    run(cfg, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
