"""On-line elastic-degenerate string matching driver.

Segments are consumed strictly left to right.  For each segment the
engine applies four effects to the active-prefix state U:

* FULL-INSIDE: the pattern occurs inside an alternative (substring search);
* START: suffixes of an alternative that are pattern prefixes activate
  their lengths (failure chain of a KMP state over its last m letters);
* EXTEND: the Active Prefixes subproblem over alternatives shorter than
  the pattern, plus the epsilon carry;
* END: an active prefix completed by a prefix of an alternative reports
  the current segment (failure chain of a KMP state of reversed P over
  its first m - 1 letters, read backwards).

So the Python KMP loop reads at most m letters at each end of an
alternative; the rest of it is read only by the substring search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .ap_engine import APSolver
from .eds_core import BitVector, EDString, Pattern, Segment
from .stringology import border_array

__all__ = ["MatchReport", "MatchState", "EDSMEngine", "search"]


def _kmp_state(t: str, pat: str, pf: list[int]) -> int:
    """Length of the longest suffix of t that is a prefix of pat, for
    |t| <= |pat|; pf is pat's border array."""
    q = 0
    for ch in t:
        while q and ch != pat[q]:
            q = pf[q - 1]
        if ch == pat[q]:
            q += 1
    return q


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

    def process_segment(self, state: MatchState, seg: Segment, j: int) -> MatchState:
        m, p, pf = self.m, self.p, self.pf
        u_prev = state.u.mask
        u_next = 0
        report = False
        extendables: list[str] = []
        for s in seg.alternatives:
            if s == "":
                u_next |= u_prev
                continue
            if len(s) < m:
                extendables.append(s)
            elif p in s:
                report = True
            # START: suffixes of s (at most m letters) that are prefixes of P.
            i = _kmp_state(s[-m:], p, pf)
            while i > 0:
                u_next |= 1 << (i - 1)
                i = pf[i - 1]
            # END: prefixes of s (at most m - 1 letters) that are suffixes of P.
            if u_prev and not report:
                i = _kmp_state(s[: m - 1][::-1], self.rev, self.pf_rev)
                while i > 0:
                    if (u_prev >> (m - i - 1)) & 1:
                        report = True
                        break
                    i = self.pf_rev[i - 1]
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
