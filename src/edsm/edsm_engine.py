"""On-line elastic-degenerate string matching driver.

Segments are consumed strictly left to right.  For each segment the
engine applies four effects to the active-prefix state U:

* FULL-INSIDE: the pattern occurs inside an alternative (forward scan);
* START: suffixes of an alternative that are pattern prefixes activate
  their lengths (failure chain of the forward scan's final state);
* EXTEND: the Active Prefixes subproblem over alternatives shorter than
  the pattern, plus the epsilon carry;
* END: an active prefix completed by a prefix of an alternative reports
  the current segment (failure chain of a reversed scan).

The scans are KMP automata of P and of reversed P, linear per segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .ap_engine import APSolver
from .eds_core import BitVector, EDString, Pattern, Segment
from .stringology import border_array

__all__ = ["MatchReport", "MatchState", "EDSMEngine", "search"]


@dataclass
class MatchState:
    u: BitVector
    reported: set[int] = field(default_factory=set)


@dataclass(frozen=True)
class MatchReport:
    positions: tuple[int, ...]
    n: int
    N: int

    def __post_init__(self) -> None:
        if list(self.positions) != sorted(set(self.positions)):
            raise ValueError("positions must be ascending and distinct")


class EDSMEngine:
    """Matcher for one pattern; feed segments through process_segment."""

    def __init__(self, pattern: Pattern | str, naive_cutoff: int | None = None):
        letters = pattern.letters if isinstance(pattern, Pattern) else pattern
        self.pattern = Pattern(letters)
        self.p = letters
        self.m = self.pattern.m
        self.rev = letters[::-1]
        self.pf = border_array(letters)
        self.pf_rev = border_array(self.rev)
        self.solver = APSolver(self.pattern, naive_cutoff)

    def new_state(self) -> MatchState:
        return MatchState(BitVector(self.m))

    def _scan(self, s: str, text_pf: list[int], pat: str) -> tuple[bool, int]:
        """KMP scan of s against pat.

        Returns (full occurrence seen, final state), where the final
        state is m itself when an occurrence ends at the last letter.
        """
        q = 0
        m = len(pat)
        hit = False
        last = len(s) - 1
        for pos, ch in enumerate(s):
            while q and ch != pat[q]:
                q = text_pf[q - 1]
            if ch == pat[q]:
                q += 1
            if q == m:
                hit = True
                if pos != last:
                    q = text_pf[q - 1]
        return hit, q

    def process_segment(self, state: MatchState, seg: Segment, j: int) -> MatchState:
        m = self.m
        u_prev = state.u.mask
        u_next = 0
        report = False
        extendables: list[str] = []
        for s in seg.alternatives:
            if s == "":
                u_next |= u_prev
                continue
            if 1 <= len(s) < m:
                extendables.append(s)
            # Forward scan: FULL-INSIDE occurrences and START suffixes.
            if len(s) >= m:
                hit, q = self._scan(s, self.pf, self.p)
                if hit:
                    report = True
            else:
                _, q = self._scan(s, self.pf, self.p)
            i = q
            while i > 0:
                u_next |= 1 << (i - 1)
                i = self.pf[i - 1]
            # Reversed scan: END lengths (suffix of P that prefixes s).
            if u_prev:
                _, qr = self._scan(s[::-1], self.pf_rev, self.rev)
                ql = qr
                while ql > 0:
                    if ql <= m - 1 and (u_prev >> (m - ql - 1)) & 1:
                        report = True
                        break
                    ql = self.pf_rev[ql - 1]
        if u_prev and extendables:
            u_next |= self.solver.solve(BitVector(m, u_prev), extendables).mask
        state.u = BitVector(m, u_next)
        if report:
            state.reported.add(j)
        return state

    def search(self, segments: Iterable[Segment]) -> MatchReport:
        state = self.new_state()
        n = 0
        total = 0
        for seg in segments:
            n += 1
            total += seg.size
            self.process_segment(state, seg, n)
        if n == 0:
            raise ValueError("empty ED text")
        return MatchReport(tuple(sorted(state.reported)), n, total)


def search(p: Pattern | str, t: EDString | Iterable[Segment],
           naive_cutoff: int | None = None) -> MatchReport:
    engine = EDSMEngine(p, naive_cutoff)
    segments = t.segments if isinstance(t, EDString) else t
    return engine.search(segments)
