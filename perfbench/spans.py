"""Per-module timing from outside the library.

``Tracer.install`` swaps each traced function for a wrapper that times
the call and counts it; ``uninstall`` puts the originals back, so the
untraced passes run the library exactly as shipped.  Functions that
``ap_engine`` imported by name are wrapped at the names ``ap_engine``
holds, because that is where the solver looks them up.

A span's self time is its busy time minus the busy time of the spans
opened directly inside it (a stack of child-time accumulators).  Hooks
that count run after the timed call, inside the caller's span, so they
are part of the tracing overhead the run reports.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from edsm import ap_engine
from edsm.ap_engine import APSolver
from edsm.edsm_engine import EDSMEngine

# (owner, attribute, span name)
_TARGETS = [
    (EDSMEngine, "process_segment", "edsm_engine.process_segment"),
    (APSolver, "solve", "ap_engine.solve"),
    (ap_engine, "build_suffix_tree", "text_indexes.build_suffix_tree"),
    (ap_engine, "build_anchor_structure", "text_indexes.build_anchor_structure"),
    (ap_engine, "solve_derandomized", "node_select.solve_derandomized"),
    (ap_engine, "classify_type", "stringology.classify_type"),
    (ap_engine, "maximal_periodic_run", "stringology.runs"),
    (ap_engine, "all_maximal_runs", "stringology.runs"),
    (ap_engine, "bool_matvec_batch", "boolean_linalg.bool_matvec_batch"),
    (ap_engine, "poly_multiply", "boolean_linalg.poly_multiply"),
]


class Tracer:
    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.inner: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.u_log: dict[int, list[int]] = defaultdict(list)  # by id(engine)
        self._stack: list[float] = []

    def time_call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self.inner[name] += self._stack.pop()
            self.busy[name] += dt
            self.calls[name] += 1
            if self._stack:
                self._stack[-1] += dt

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.split(".")[-1], None)

        def traced(*args, **kwargs):
            result = self.time_call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _after_process_segment(self, args, state) -> None:
        engine, _, seg, _ = args
        self.counts["letters"] += seg.size
        self.counts["active_prefixes"] += state.u.mask.bit_count()
        self.u_log[id(engine)].append(state.u.mask)

    def _after_solve(self, args, v) -> None:
        strings = args[2]
        self.counts["solve.strings"] += len(strings)
        self.counts["solve.letters"] += sum(map(len, strings))
        self.counts["solve.useful"] += v.mask != 0

    def _after_classify_type(self, args, label) -> None:
        self.counts["classed." + label.name.lower()] += 1

    def install(self) -> None:
        for owner, attr, name in _TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def metrics(self) -> dict[str, float]:
        """One pass's per-module figures, by metric name."""
        seg_calls = self.calls["edsm_engine.process_segment"]
        solve_calls = self.calls["ap_engine.solve"]
        out: dict[str, float] = {
            "eds_core.parse.busy_s": self.busy["eds_core.parse"],
            "edsm_engine.process_segment.calls": seg_calls,
            "edsm_engine.process_segment.self_s":
                self.busy["edsm_engine.process_segment"]
                - self.inner["edsm_engine.process_segment"],
            "edsm_engine.letters": self.counts["letters"],
            "edsm_engine.active_prefixes.mean":
                self.counts["active_prefixes"] / max(1, seg_calls),
            "edsm_engine.ap_call_ratio": solve_calls / max(1, seg_calls),
            "ap_engine.solve.calls": solve_calls,
            "ap_engine.solve.busy_s": self.busy["ap_engine.solve"],
            "ap_engine.solve.self_s":
                self.busy["ap_engine.solve"] - self.inner["ap_engine.solve"],
            "ap_engine.solve.strings": self.counts["solve.strings"],
            "ap_engine.solve.letters": self.counts["solve.letters"],
            "ap_engine.solve.useful_ratio":
                self.counts["solve.useful"] / max(1, solve_calls),
        }
        for label in ("type1", "type2", "type3"):
            out["ap_engine.classed." + label] = self.counts["classed." + label]
        for name in sorted({n for owner, _, n in _TARGETS if owner is ap_engine}):
            if not name.startswith("stringology."):
                out[name + ".calls"] = self.calls[name]
            out[name + ".busy_s"] = self.busy[name]
        return out
