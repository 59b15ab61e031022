"""Command-line frontend.

Subcommands:

* ``search``   — report all positions where the pattern ends in an EDS file;
* ``generate`` — write triangle-detection or matrix-product test instances
  together with a JSON ground-truth sidecar;
* ``verify``   — re-solve a generated instance with both the fast engine and
  the brute-force oracle and compare against the sidecar;
* ``bench``    — CSV timing sweep of random Active Prefixes instances
  across sizes and algorithms: ``ap-fast`` (the default occurrence-mask
  kernel), ``ap-paper`` (the paper's classed pipeline,
  ``naive_cutoff=23``) and ``naive-oracle``; after each size every
  algorithm must give the same answer.  ``perfbench/`` times the search
  itself.

Exit codes: 0 success (search: at least one match), 1 search found no
match, 2 usage/parse/runtime error (an exhausted oracle budget too), 3
disagreement (verify, bench).
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from pathlib import Path

from .ap_engine import NAIVE_CUTOFF_BASE, APInstance, solve_ap
from .boolean_linalg import BoolMatrix
from .eds_core import (
    BitVector,
    EDString,
    Pattern,
    iter_parse_eds,
    parse_eds,
    parse_pattern_text,
    serialize_eds,
    serialize_string,
)
from .edsm_engine import EDSMEngine
from .oracles import (
    BudgetExceededError,
    brute_ap,
    brute_edsm,
    brute_triangle,
    naive_bool_multiply,
)
from .reductions import TDInstance, bmm_to_ap, reconstruct_bmm, td_to_edsm

__all__ = ["main"]

# Fixed 6x6 matrix-product demo instance (--paper-example), whose
# per-block vectors appear verbatim in the test suite.
_DEMO_A = [
    [0, 1, 0, 0, 1, 0],
    [1, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 0, 0],
]
_DEMO_B = [
    [0, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 1, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [1, 0, 0, 0, 1, 0],
]


def _path(prefix: str, ext: str) -> Path:
    return Path(str(prefix) + ext)


def _read_pattern(arg: str):
    if arg.startswith("@"):
        text = Path(arg[1:]).read_text(encoding="utf-8")
        if text.endswith("\n"):
            text = text[:-1]
    else:
        text = arg
    return parse_pattern_text(text)


def _random_matrix(rng: random.Random, n: int, density: float) -> BoolMatrix:
    return BoolMatrix.from_rows(
        [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    )


def cmd_search(args: argparse.Namespace) -> int:
    pattern = _read_pattern(args.pattern)
    with open(args.text, "r", encoding="utf-8") as fh:
        if args.algo == "naive-oracle":
            text = EDString(tuple(iter_parse_eds(fh)))
            positions = tuple(brute_edsm(pattern, text))
            n, total = text.n, text.N
        else:
            report = EDSMEngine(pattern).search(iter_parse_eds(fh))
            positions, n, total = report.positions, report.n, report.N
    if args.json:
        print(
            json.dumps(
                {
                    "pattern_length": pattern.m,
                    "segments": n,
                    "size": total,
                    "matches": list(positions),
                },
                sort_keys=True,
            )
        )
    else:
        for pos in positions:
            print(pos)
    return 0 if positions else 1


def _write_td(args: argparse.Namespace) -> int:
    if args.n is None:
        print("error: --n is required for td", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    n, s = args.n, args.s
    ra, rb, rc = (
        _random_matrix(rng, n, args.density).to_lists() for _ in range(3)
    )
    if args.plant:
        i, j, k = (rng.randrange(n) + 1 for _ in range(3))
        ra[i - 1][j - 1] = rb[j - 1][k - 1] = rc[k - 1][i - 1] = 1
    a, b, c = (BoolMatrix.from_rows(r) for r in (ra, rb, rc))
    pattern, text = td_to_edsm(TDInstance(a, b, c, s))
    _path(args.out, ".pattern.txt").write_text(
        serialize_string(pattern.letters) + "\n", encoding="utf-8"
    )
    _path(args.out, ".eds").write_text(serialize_eds(text) + "\n", encoding="utf-8")
    sidecar = {
        "kind": "td",
        "n": n,
        "s": s,
        "seed": args.seed,
        "a": a.to_lists(),
        "b": b.to_lists(),
        "c": c.to_lists(),
        "triangle": brute_triangle(a, b, c),
    }
    _path(args.out, ".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {_path(args.out, '.pattern.txt')}, {_path(args.out, '.eds')}, "
          f"{_path(args.out, '.json')}")
    return 0


def _write_bmm(args: argparse.Namespace) -> int:
    if args.paper_example:
        a, b = BoolMatrix.from_rows(_DEMO_A), BoolMatrix.from_rows(_DEMO_B)
        n, l = 6, 3
        if (args.n, args.l) not in ((None, None), (6, 3)):
            print("error: the demo instance is fixed at --n 6 --l 3", file=sys.stderr)
            return 2
    else:
        if args.n is None or args.l is None:
            print("error: --n and --l are required without --paper-example",
                  file=sys.stderr)
            return 2
        n, l = args.n, args.l
        rng = random.Random(args.seed)
        a = _random_matrix(rng, n, args.density)
        b = _random_matrix(rng, n, args.density)
    blocks = bmm_to_ap(a, b, l)
    expected = naive_bool_multiply(a, b).to_lists()
    instance = {
        "kind": "bmm",
        "n": n,
        "l": l,
        "blocks": [
            {
                "k": blk.k,
                "j": blk.j,
                "pattern": serialize_string(blk.pattern.letters),
                "u": blk.u.to01(),
                "strings": [serialize_string(t) for t in blk.strings],
            }
            for blk in blocks
        ],
    }
    _path(args.out, ".ap.json").write_text(
        json.dumps(instance, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    sidecar = {
        "kind": "bmm",
        "n": n,
        "l": l,
        "seed": args.seed,
        "a": a.to_lists(),
        "b": b.to_lists(),
        "expected_c": expected,
    }
    _path(args.out, ".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {_path(args.out, '.ap.json')}, {_path(args.out, '.json')}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.flavor == "td":
        return _write_td(args)
    return _write_bmm(args)


def _verify_td(out: str, sidecar: dict) -> int:
    pattern = parse_pattern_text(
        _path(out, ".pattern.txt").read_text(encoding="utf-8").rstrip("\n")
    )
    text = parse_eds(_path(out, ".eds").read_text(encoding="utf-8"))
    a, b, c = (BoolMatrix.from_rows(sidecar[key]) for key in ("a", "b", "c"))
    want = bool(sidecar["triangle"])
    if brute_triangle(a, b, c) != want:
        print("disagreement: sidecar triangle flag does not match its matrices",
              file=sys.stderr)
        return 3
    fast = bool(EDSMEngine(pattern).search(text.segments).positions)
    oracle = bool(brute_edsm(pattern, text))
    for name, got in (("fast engine", fast), ("oracle", oracle)):
        if got != want:
            print(
                f"disagreement: {name} says occurrence={got}, sidecar says {want} "
                f"(n={sidecar['n']}, s={sidecar['s']}, seed={sidecar.get('seed')})",
                file=sys.stderr,
            )
            return 3
    print("ok: fast engine, oracle and sidecar agree")
    return 0


def _verify_bmm(out: str, sidecar: dict) -> int:
    instance = json.loads(_path(out, ".ap.json").read_text(encoding="utf-8"))
    a = BoolMatrix.from_rows(sidecar["a"])
    b = BoolMatrix.from_rows(sidecar["b"])
    expected = sidecar["expected_c"]
    blocks = bmm_to_ap(a, b, int(sidecar["l"]))
    stored = {(blk["k"], blk["j"]): blk for blk in instance["blocks"]}
    for blk in blocks:
        rec = stored.get((blk.k, blk.j))
        if rec is None or rec["u"] != blk.u.to01() or [
            serialize_string(t) for t in blk.strings
        ] != rec["strings"]:
            print(f"disagreement: stored block ({blk.k},{blk.j}) differs from "
                  "its regeneration", file=sys.stderr)
            return 3
        fast = solve_ap(APInstance(blk.pattern, blk.u, blk.strings))
        slow = brute_ap(blk.pattern, blk.u, blk.strings)
        if fast != slow:
            print(f"disagreement: block ({blk.k},{blk.j}) fast={fast.to01()} "
                  f"oracle={slow.to01()}", file=sys.stderr)
            return 3
        blk.v = fast
    got = reconstruct_bmm(blocks).to_lists()
    if got != expected:
        print(f"disagreement: reconstructed product {got} != sidecar {expected}",
              file=sys.stderr)
        return 3
    print("ok: fast solver, oracle and sidecar agree on all blocks")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    out = args.instance
    try:
        sidecar = json.loads(_path(out, ".json").read_text(encoding="utf-8"))
        kind = sidecar["kind"]
        if kind == "td":
            return _verify_td(out, sidecar)
        if kind == "bmm":
            return _verify_bmm(out, sidecar)
        print(f"disagreement: unknown instance kind {kind!r}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"disagreement: corrupt instance or sidecar ({exc})", file=sys.stderr)
        return 3


# Bench algorithm -> naive_cutoff of the Active Prefixes solver it runs:
# None is the default occurrence-mask kernel, NAIVE_CUTOFF_BASE sends
# every string longer than 23 letters through the paper's classed
# pipeline.  "naive-oracle" runs the quadratic oracle instead.
_BENCH_CUTOFFS = {"ap-fast": None, "ap-paper": NAIVE_CUTOFF_BASE}
_BENCH_ALGOS = (*_BENCH_CUTOFFS, "naive-oracle")


def _random_ap(rng: random.Random, m: int, target: int) -> APInstance:
    """About `target` letters of strings shorter than m, half of them
    substrings of the pattern: 64-128 letters, or m/2 to m-1 for m <= 128."""
    letters = "".join(rng.choice("ab") for _ in range(m))
    u = BitVector(m, rng.getrandbits(m) | 1)
    hi = min(128, m - 1)
    lo = max(1, min(64, hi // 2))
    strings = set()
    drawn = 0  # counts repeats too, so a small m cannot loop forever
    while drawn < target:
        length = rng.randint(lo, hi)
        if rng.random() < 0.5:
            start = rng.randrange(m - length + 1)
            strings.add(letters[start : start + length])
        else:
            strings.add("".join(rng.choice("ab") for _ in range(length)))
        drawn += length
    return APInstance(Pattern(letters), u, tuple(sorted(strings)))


def _bench(args: argparse.Namespace, writer) -> int:
    """One row per size and algorithm; 3 when algorithms disagree on a size."""
    for size in args.sizes:
        inst = _random_ap(random.Random(args.seed * 1_000_003 + size), args.m, size)
        row = [inst.pattern.m, 1, sum(map(len, inst.strings))]
        answers = {}
        for algo in args.algos:
            start = time.perf_counter()
            if algo == "naive-oracle":
                answers[algo] = brute_ap(inst.pattern, inst.u, inst.strings)
            else:
                answers[algo] = solve_ap(inst, naive_cutoff=_BENCH_CUTOFFS[algo])
            elapsed = time.perf_counter() - start
            writer.writerow([*row, algo, f"{elapsed:.6f}"])
        if len(set(answers.values())) > 1:
            first, *rest = answers
            odd = [a for a in rest if answers[a] != answers[first]]
            print(f"disagreement: {', '.join(odd)} and {first} give different "
                  f"answers (size {size}, seed {args.seed})", file=sys.stderr)
            return 3
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    unknown = [a for a in args.algos if a not in _BENCH_ALGOS]
    if unknown:
        print(f"error: unknown bench algorithm {', '.join(unknown)} "
              f"(choose from {', '.join(_BENCH_ALGOS)})", file=sys.stderr)
        return 2
    if args.m < 2:
        print("error: --m must be at least 2", file=sys.stderr)
        return 2
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["m", "n", "N", "algo", "seconds"])
        return _bench(args, writer)
    finally:
        if args.out:
            out.close()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edsm", description="Elastic-degenerate string matching toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="find pattern occurrence ends in an EDS file")
    p_search.add_argument("-p", "--pattern", required=True,
                          help="pattern text, or @file to read it from a file")
    p_search.add_argument("-t", "--text", required=True, help="EDS file")
    p_search.add_argument("--algo", choices=["auto", "naive-oracle"], default="auto")
    p_search.add_argument("--json", action="store_true", help="JSON report")
    p_search.set_defaults(func=cmd_search)

    p_gen = sub.add_parser("generate", help="write a test instance plus ground truth")
    p_gen.add_argument("flavor", choices=["td", "bmm"])
    p_gen.add_argument("--n", type=int, default=None, help="matrix size")
    p_gen.add_argument("--s", type=int, default=2, help="block parameter (td)")
    p_gen.add_argument("--l", type=int, default=None, help="block size (bmm)")
    p_gen.add_argument("--density", type=float, default=0.2)
    p_gen.add_argument("--plant", action="store_true",
                       help="plant a triangle (td only)")
    p_gen.add_argument("--paper-example", action="store_true",
                       help="emit the fixed 6x6 demo product instance (bmm only)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output path prefix")
    p_gen.set_defaults(func=cmd_generate)

    p_verify = sub.add_parser("verify", help="re-solve an instance and check the sidecar")
    p_verify.add_argument("--instance", required=True, help="path prefix used by generate")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="CSV timing sweep of Active Prefixes solvers")
    p_bench.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")],
                         default=[1000, 2000, 4000], help="comma-separated sizes N")
    p_bench.add_argument("--algos", type=lambda s: s.split(","),
                         default=["ap-fast", "naive-oracle"],
                         help="comma-separated: ap-fast, ap-paper, naive-oracle")
    p_bench.add_argument("--m", type=int, default=1024, help="pattern length")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None, help="CSV output file (default stdout)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
