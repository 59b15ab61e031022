"""Seeded input generators for the search benchmark, and their cache.

Each workload is an ED text plus patterns of one length m.  Every
pattern is cut from a random path through its text (one alternative per
segment), so it has a planted occurrence whose end segment is known.
The expected answers come from the Shift-And checker in ``shiftand.py``
run over the generator's own segment lists, never from ``edsm``.

A generated set lives in ``perfbench/cache/<workload>-<seed>-<hash>/``,
where ``<hash>`` is a digest of this file and ``shiftand.py``, so that
editing either one makes fresh sets instead of reusing stale ones:

* ``text.eds``       the ED text
* ``patterns.txt``   one pattern per line
* ``expected.json``  n, N, m, the planted end segments and every pattern's
                     end positions
* ``states.json``    every pattern's Shift-And state after every segment,
                     as hex, for the traced run's per-segment check

Regenerate a set (it is made on demand otherwise):

    python3 perfbench/workloads.py --workload pangenome --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import sys
from pathlib import Path

from shiftand import shift_and

HERE = Path(__file__).resolve().parent
CACHE = HERE / "cache"

DNA = "ACGT"


def _dna(rng: random.Random, n: int) -> str:
    return "".join(rng.choices(DNA, k=n))


def _mutate(rng: random.Random, s: str, rate: float) -> str:
    """Copy of s with a few point substitutions (at least one)."""
    out = list(s)
    for i in rng.sample(range(len(s)), max(1, int(len(s) * rate))):
        out[i] = rng.choice(DNA.replace(out[i], ""))
    return "".join(out)


def gen_pangenome(rng: random.Random) -> list[list[str]]:
    """ACGT blocks of 200-2000 letters between SNP/indel sites."""
    segs: list[list[str]] = []
    size = 0
    while size < 1_000_000:
        block = _dna(rng, rng.randint(200, 2000))
        alts = {_dna(rng, rng.randint(1, 3)) for _ in range(rng.randint(2, 4))}
        if rng.random() < 0.2:
            alts.add("")
        segs += [[block], sorted(alts)]
        size += len(block) + sum(map(len, alts))
    return segs


def gen_short_alts(rng: random.Random) -> list[list[str]]:
    """Binary alphabet, 1-4 alternatives of 1-12 letters per segment."""
    segs: list[list[str]] = []
    size = 0
    while size < 300_000:
        alts = {
            "".join(rng.choices("ab", k=rng.randint(1, 12)))
            for _ in range(rng.randint(1, 4))
        }
        if rng.random() < 0.1:
            alts.add("")
        segs.append(sorted(alts))
        size += sum(map(len, alts))
    return segs


# 120 sites average about 9.3e5 letters, twice ROADMAP W4's N, so that AP
# calls rather than the pattern's two suffix-tree builds dominate search.
LONG_ALTS_SITES = 120
LONG_ALTS_N = 1_000_000


def gen_long_alts(rng: random.Random) -> list[list[str]]:
    """Reference blocks between structural sites with 100-4000-letter alleles.

    Sites cycle through four kinds, so that a path of m letters meets
    every kind, and each kind's allele lengths are fixed by the layout,
    so that every seed sends the same routes about the same work.  Above
    the classed-route cutoff of 2744 letters sit the SNP-variant alleles
    (aperiodic: type 1), one flanked tandem-repeat allele per site
    (type 2) and the bare homopolymer alleles (type 3); deletion alleles
    and the shorter flanked copy numbers take the short route.  A path
    through a homopolymer site leaves a run in the pattern at least as
    long as the site's shorter alleles, which sends type 3 through the
    polynomial product.
    """
    segs: list[list[str]] = []
    for site in range(LONG_ALTS_SITES):
        segs.append([_dna(rng, rng.randint(100, 1500))])
        kind = site % 4
        if kind == 0:  # SNP-variant alleles of one reference allele
            ref = _dna(rng, rng.randint(2800, 4000))
            alts = {ref} | {_mutate(rng, ref, 0.005) for _ in range(2)}
        elif kind == 1:  # deletion
            alts = {_dna(rng, rng.randint(100, 2700)), ""}
        elif kind == 2:  # tandem-repeat copy numbers with unique flanks
            unit = _dna(rng, rng.randint(2, 6))
            alts = {
                _dna(rng, rng.randint(40, 120))
                + unit * (rng.randint(lo, hi) // len(unit))
                + _dna(rng, rng.randint(40, 120))
                for lo, hi in ((2800, 3700), (1000, 2600), (100, 900))
            }
        else:  # homopolymer copy numbers, no flanks
            unit = rng.choice(DNA)
            alts = {unit * rng.randint(2800, 3900) for _ in range(3)}
        segs.append(sorted(alts))
    # A closing reference block pads N to a fixed size, so that letters
    # per second compare across seeds.
    size = sum(len(a) for alts in segs for a in alts)
    segs.append([_dna(rng, max(100, LONG_ALTS_N - size))])
    return segs


# name -> (generator, pattern length m, number of patterns)
WORKLOADS = {
    "pangenome": (gen_pangenome, 32, 4),
    "short-alts": (gen_short_alts, 64, 2),
    "long-alts": (gen_long_alts, 16384, 1),
}


def cut_pattern(rng: random.Random, segs: list[list[str]], m: int) -> tuple[str, int]:
    """A random path through segs spelling m letters; (pattern, 1-based end segment)."""
    while True:
        j = rng.randrange(len(segs))
        nonempty = [a for a in segs[j] if a]
        if not nonempty:
            continue
        first = rng.choice(nonempty)
        letters = first[rng.randrange(len(first)):]
        while len(letters) < m and j + 1 < len(segs):
            j += 1
            letters += rng.choice(segs[j])
        if len(letters) >= m:
            return letters[:m], j + 1


def serialize(segs: list[list[str]]) -> str:
    """EDS text: bare runs for single-alternative segments after a braced one."""
    parts = []
    prev_bare = False
    for alts in segs:
        if len(alts) == 1 and alts[0] and not prev_bare:
            parts.append(alts[0])
            prev_bare = True
        else:
            parts.append("{" + ",".join(alts) + "}")
            prev_bare = False
    return "".join(parts)


def generate(workload: str, seed: int, out: Path) -> None:
    gen, m, k = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    segs = gen(rng)
    cuts = [cut_pattern(rng, segs, m) for _ in range(k)]
    patterns = [p for p, _ in cuts]
    positions, states = shift_and(patterns, segs)
    out.mkdir(parents=True)
    (out / "text.eds").write_text(serialize(segs) + "\n")
    (out / "patterns.txt").write_text("".join(p + "\n" for p in patterns))
    (out / "expected.json").write_text(json.dumps({
        "n": len(segs),
        "N": sum(len(a) for alts in segs for a in alts),
        "m": m,
        "planted": [end for _, end in cuts],
        "positions": positions,
    }))
    (out / "states.json").write_text(json.dumps(
        [[format(s, "x") for s in per_pattern] for per_pattern in states]
    ))


def generator_hash() -> str:
    """Digest of the files that make a set, so that editing one regenerates it."""
    h = hashlib.sha256()
    for name in ("workloads.py", "shiftand.py"):
        h.update((HERE / name).read_bytes())
    return h.hexdigest()[:12]


def ensure(workload: str, seed: int, force: bool = False) -> Path:
    """The cache directory of (workload, seed), generated if missing."""
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; one of {sorted(WORKLOADS)}")
    final = CACHE / f"{workload}-{seed}-{generator_hash()}"
    if force and final.exists():
        shutil.rmtree(final)
    if not final.exists():
        tmp = CACHE / f".tmp-{final.name}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        generate(workload, seed, tmp)
        try:
            tmp.rename(final)
        except OSError:
            # Another process made the same set first; it is identical.
            shutil.rmtree(tmp)
            if not final.is_dir():
                raise
    return final


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="(Re)generate one workload's inputs.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    print(ensure(args.workload, args.seed, force=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
