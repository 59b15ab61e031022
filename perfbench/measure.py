"""The measuring process: read one generated input set and run its queries.

Started by ``run.py`` in a fresh process after the inputs exist; it only
reads them and runs queries.  Each pass parses the text, builds one
``EDSMEngine`` per pattern and searches every pattern, so lazy suffix
trees and anchor caches are paid in every pass.  Passes repeat for
``--seconds`` (whole passes only); every timing is the median over passes.

With ``--trace 1`` untraced and traced passes alternate.  Traced passes
give the per-module figures (medians of times, counts of one pass) and
check every engine's state after every segment against the Shift-And
states; the ratio of the two kinds' median pass times is the tracing
overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

MIN_PASSES = 3


class Workload:
    def __init__(self, folder: Path, with_states: bool):
        self.eds = folder / "text.eds"
        self.bytes = self.eds.stat().st_size
        self.patterns = (folder / "patterns.txt").read_text().split()
        self.expected = json.loads((folder / "expected.json").read_text())
        self.states = None
        if with_states:
            raw = json.loads((folder / "states.json").read_text())
            self.states = [[int(h, 16) for h in per] for per in raw]


class Pass:
    """One parse + build + search round over every pattern."""

    def __init__(self, wl: Workload, tracer=None):
        from edsm.edsm_engine import EDSMEngine
        from edsm.eds_core import iter_parse_eds

        self.failed = 0
        self.wrong: list[str] = []
        t0 = perf_counter()
        with open(wl.eds, encoding="ascii") as fh:
            if tracer is None:
                segs = list(iter_parse_eds(fh))
            else:
                segs = tracer.time_call("eds_core.parse", lambda: list(iter_parse_eds(fh)))
        engines = [EDSMEngine(p) for p in wl.patterns]
        t1 = perf_counter()
        reports = []
        for engine in engines:
            try:
                reports.append(engine.search(segs))
            except Exception:  # a query that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                reports.append(None)
        t2 = perf_counter()
        self.setup_s = t1 - t0
        self.search_s = t2 - t1
        self.segments = len(segs)
        self._check(wl, engines, reports, tracer)

    def _check(self, wl, engines, reports, tracer) -> None:
        exp = wl.expected
        for k, report in enumerate(reports):
            if report is None:
                self.failed += 1
                continue
            problems = []
            if (report.n, report.N) != (exp["n"], exp["N"]):
                problems.append(f"n, N = {report.n}, {report.N}")
            if list(report.positions) != exp["positions"][k]:
                problems.append("positions differ from Shift-And")
            if exp["planted"][k] not in report.positions:
                problems.append(f"planted end {exp['planted'][k]} not reported")
            if tracer is not None:
                got = tracer.u_log[id(engines[k])]
                bad = next((j for j, (a, b) in enumerate(zip(got, wl.states[k]), 1)
                            if a != b), None)
                if bad is None and len(got) != len(wl.states[k]):
                    bad = min(len(got), len(wl.states[k])) + 1
                if bad is not None:
                    problems.append(f"state after segment {bad} differs from Shift-And")
            if problems:
                self.failed += 1
                self.wrong.append(f"pattern {k}: " + "; ".join(problems))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", type=Path, required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src))

    wl = Workload(args.dir, with_states=bool(args.trace))
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    plain: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    round_s: list[float] = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        gc.collect()
        plain.append(Pass(wl))
        if tracer is not None:
            gc.collect()
            tracer.reset()
            tracer.install()
            try:
                p = Pass(wl, tracer)
            finally:
                tracer.uninstall()
            figures = tracer.metrics()
            figures["eds_core.parse.bytes"] = wl.bytes
            figures["eds_core.parse.segments"] = p.segments
            traced.append((p, figures))
        round_s.append(perf_counter() - t0)
        # Stop when another round would likely end past --seconds.
        left = start + args.seconds - perf_counter()
        if len(round_s) >= MIN_PASSES and left < median(round_s):
            break

    passes = plain + [p for p, _ in traced]
    wrong = [w for p in passes for w in p.wrong]
    if tracer is None:
        letters = wl.expected["N"] * len(wl.patterns)
        metrics = {
            "setup_s": (median(p.setup_s for p in plain), "s"),
            "search_mbps": (letters / median(p.search_s for p in plain) / 1e6, "MB/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        metrics = {}
        for name in traced[0][1]:
            values = [f[name] for _, f in traced]
            if name.endswith("_s"):
                metrics[name] = (median(values), "s")
            else:
                # Counts depend on the input only; they must repeat exactly.
                if len(set(values)) != 1:
                    wrong.append(f"{name} differs between passes: {sorted(set(values))}")
                metrics[name] = (values[0], "ratio" if name.endswith("_ratio")
                                 else "bytes" if name.endswith(".bytes") else "count")
        figures = traced[0][1]
        if figures["edsm_engine.letters"] != wl.expected["N"] * len(wl.patterns):
            wrong.append("edsm_engine.letters is not N x patterns")
        if sum(figures[f"ap_engine.classed.type{t}"] for t in (1, 2, 3)) \
                > figures["ap_engine.solve.strings"]:
            wrong.append("more classed strings than strings passed to AP")
        overhead = (median(p.setup_s + p.search_s for p, _ in traced)
                    / median(p.setup_s + p.search_s for p in plain))
        metrics["trace.overhead"] = (overhead, "ratio")
    for line in sorted(set(wrong)):
        print("WRONG:", line, file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(passes) * len(wl.patterns),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
