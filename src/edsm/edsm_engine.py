"""On-line elastic-degenerate string matching driver.

Segments are consumed strictly left to right.  For each segment the
engine applies four effects to the active-prefix state U:

* FULL-INSIDE: the pattern occurs inside an alternative.  ``search``
  reads the text WINDOW_SEGMENTS segments at a time; the first time a
  window needs FULL, it joins the window's distinct alternatives of at
  least m letters that have no record yet, with NUL between them (P
  holds no NUL, so no match spans two), and finds P in them by one C
  search that resumes after each alternative it hits.  CPython searches
  a string of 30 000 letters or more (for 6 <= m < 100) by two-way
  search, which reads DNA about twice as fast as the skip loop it uses
  on each shorter alternative.  The window holds at most
  WINDOW_SEGMENTS segments and, while it searches, the joined string.
  A window without such alternatives searches nothing; process_segment
  called on its own tests ``P in s``;
* START: suffixes of an alternative that are pattern prefixes activate
  their lengths;
* EXTEND: the Active Prefixes subproblem over alternatives shorter than
  the pattern, plus the epsilon carry;
* END: an active prefix completed by a prefix of an alternative reports
  the current segment.

Each effect is a mask that does not depend on U, so every distinct
alternative s gets one cached record per engine, by one of two routes.

An alternative with n = |s| < m and n <= B = OVERLAP_MASK_MAX gets one
overlap mask M(s): bit k + n - 1 is set iff s, placed at offset k of P
(1 - n <= k <= m - 1), agrees with P wherever the two overlap.  With
E[c] P's Shift-And mask for letter c (bit B + j set iff P[j] == c),
padded with B one-bits on each side, M(s) is the AND over i of
E[s[i]] >> (B - n + 1 + i), cut to m + n - 1 bits: SOPanG's letter step
(Cisłak, Grabowski & Holub, 2018), run once per distinct alternative
instead of once per letter of the text.  When a neighbour's mask is
cached, one step gives M(s) instead:

    M(s) = (E[s[0]] >> (B - n + 1)) & (M(s[1:]) | 1 << (m + n - 2))
    M(s) = ((M(s[:-1]) << 1) | 1) & (E[s[-1]] >> B)

(s[1:] placed past P's end, or s[:-1] before its start, overlaps no
letter of P and so agrees: hence the extra bit).  Only masks of alternatives met are
cached: caching every suffix on the way would charge an m-bit mask per
letter, which on a long pattern costs more than the steps save.  E[c]
is made from one C translate of P the first time it is read, and is
charged to the record budget then.  Then x = M & ((U << n) | (2^n - 1))
holds START below bit n, EXTEND on bits n..m-1 and END from bit m-1 up:
U' gets x's low m bits, and the segment reports iff x >> (m - 1) != 0.
Past about B = 32 letters the mask costs more to make than the records
below (a measured sweep fixed B).

A longer alternative gets FULL and START when s is first seen, END the
first time s meets U != 0.  START and END take q, the longest suffix of
s[-m:] that is a prefix of P (resp. the longest prefix of s[:m-1] that
is a suffix of P).  A q of 8 letters or more holds P[:8] (P[-8:]), so
one ``find`` of it in s[-m:] (s[:m-1]) decides the route: on a hit, C
string search finds q, stepping over periodic stretches and falling
back to a KMP loop when failed candidates pile up; otherwise one
compiled regular-expression search over the last (first, reversed) 7
letters of s gives q < 8, and the engine keeps the START (END) masks of
these eight lengths.  The shorter lengths come from P's border chain,
one periodic run of it at a time.  The chain is read from a border
store (pf for P, pf_rev for P reversed) that finds an entry, the
longest proper border of P[:i+1], by the same search on P[1:i+1] when
it is first read: a search reads a few entries, so building an engine
does no O(m) Python work, and a store whose reads scan more than
BORDER_SCAN_BUDGET letters per letter of P fills itself by one KMP
pass.  The store also keeps its direction's 8-letter head and the
compiled search, made the first time either route needs it.  EXTEND
for |s| < m tests each active length k with ``P.startswith(s, k)`` the
first time s meets U != 0.  From the second meeting on, s goes to the
engine's APSolver, in one ``solve`` call per segment, whose
occurrence-mask kernel caches occ(s) and adds
((U << 1) & occ(s)) << (|s| - 1).  With an explicit ``naive_cutoff``,
members longer than the cutoff go to the same call from their first
meeting on, and the solver sends them to its classed route, on either
side of OVERLAP_MASK_MAX.

Records and letter masks share one byte budget, and the masks are
dropped whenever the records are; the sixteen short START and END masks
stay outside it.  The solver's occurrence masks have a budget of their
own: records and occurrence masks together take at most the records
budget plus the occurrence budget, each OCC_CACHE_BYTES.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from typing import Iterable

from .ap_engine import _ENTRY_OVERHEAD, OCC_CACHE_BYTES, APSolver, _BudgetCache
from .eds_core import BitVector, EDString, Pattern, Segment

__all__ = ["MatchReport", "MatchState", "EDSMEngine", "search"]

# Longest alternative that takes the overlap-mask route; the padding of
# every letter mask is this wide.
OVERLAP_MASK_MAX = 32

# Segments per window of EDSMEngine.search: the window's alternatives of
# at least m letters are searched for P in one C search (see _full).  A
# measured sweep over 64..1024 fixed it: on DNA blocks of 200-2000
# letters, 64 segments join fewer letters than CPython's two-way search
# needs, and search speed is flat from 128 on while the window's memory
# grows with it.
WINDOW_SEGMENTS = 256

# Letters per letter of P, and nesting, that a border store's on-demand
# reads may reach before one KMP pass fills it (see _BorderStore).
BORDER_SCAN_BUDGET = 4
BORDER_DEPTH_MAX = 16


def _kmp_state(t: str, pf: _BorderStore) -> int:
    """Length of the longest suffix of t that is a prefix of P = pf.p, for
    |t| <= |P|; the loop reads the first |t| entries of P's border store
    pf in order."""
    pat = pf.p
    pf.fill(len(t))
    q = 0
    for ch in t:
        while q and ch != pat[q]:
            q = pf[q - 1]
        if ch == pat[q]:
            q += 1
    return q


def _common_prefix(a: str, i: int, b: str, j: int) -> int:
    """Length of the longest common prefix of a[i:] and b[j:], by binary
    search over C comparisons."""
    lo, hi = 0, min(len(a) - i, len(b) - j)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if b.startswith(a[i : i + mid], j):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _longest_suffix_prefix(t: str, pf: _BorderStore) -> int:
    """Same answer as _kmp_state(t, pf), found by _suffix_prefix_search
    or, when that leaves it to the KMP loop, by _kmp_state."""
    q = _suffix_prefix_search(t, pf)
    return _kmp_state(t, pf) if q is None else q


def _suffix_prefix_search(t: str, pf: _BorderStore) -> int | None:
    """Same answer as _kmp_state(t, pf), found by C string search, or None
    where the KMP loop should answer; of P's border store pf it reads
    only entries below |t| - 1, and its head and short-suffix search.

    A suffix of at least 8 letters starts where t holds P[:8], and the
    first start, left to right, whose suffix P begins with gives the
    longest.  A failed start k also rules out later starts: t[k:] agrees
    with P on q letters, P[:q] has smallest period d, and t keeps period
    d for e letters from k.  A start k + jd fails if P breaks the period
    first (e - jd > q) or t does (d <= e - jd < q, with t going on after
    k + e); a start at another phase differs from P within d letters, as
    the root of P[:q] is primitive.  So the search resumes at
    k + e - d + 1, or earlier at the one start k + jd these rules leave
    open, and a periodic stretch costs one jump.  Suffixes under 8
    letters are left to pf.search, one compiled search over the last 7
    letters of t, so a t shorter than P[:8] takes that search alone.  If
    the failed starts still span more than 4|t| letters, the search
    gives up.
    """
    pat, head = pf.p, pf.head
    n = len(t)
    budget = 4 * n
    k = t.find(head)
    while k >= 0:
        budget -= n - k
        if budget < 0:
            return None
        if pat.startswith(t[k:]):
            return n - k
        q = _common_prefix(pat, 0, t, k)
        d = q - pf[q - 1]
        e = d + _common_prefix(t, k, t, k + d)
        j = max(1, -(-(e - q) // d))  # first j with e - jd <= q
        resume = k + e - d + 1
        if e - j * d == q or k + e == n:
            resume = min(resume, k + j * d)
        k = t.find(head, resume)
    hit = pf.search(t, n - 7)
    return n - hit.start() if hit else 0


def _border_runs(i: int, pf):
    """The border chain i, pf[i-1], ... > 0 of a prefix P[:i], as runs
    (low, d, count) of the lengths low, low + d, ..., low + (count-1)d;
    pf is P's border store (or its border array), read once per run.

    If P[:i] has smallest period d, each length b = i - jd >= 2d has
    smallest period d as well (a smaller d' would make gcd(d, d') a
    period of P[:b] by Fine and Wilf, and so of P[:i]), so its longest
    border is b - d: the chain steps down by d until it is below 2d,
    and a periodic stretch of any length is one run.
    """
    while i:
        d = i - pf[i - 1]
        count = i // d
        low = i - (count - 1) * d
        yield low, d, count
        i = pf[low - 1]


def _spaced_bits(d: int, count: int) -> int:
    """Bits 0, d, ..., (count-1)d."""
    return ((1 << (d * count)) - 1) // ((1 << d) - 1) if count > 1 else 1


class _BorderStore(dict):
    """P's border array, entry i the longest proper border of P[:i+1],
    with each entry found when it is first read and then kept; also P's
    head P[:8] and its short-suffix search, which _suffix_prefix_search
    reads beside the entries.

    A missing entry i is the longest suffix of P[1:i+1] that is a prefix
    of P: _suffix_prefix_search finds it by C string search, and its
    periodic jump reads only smaller entries of the store.  fill(n)
    stores the first n entries by one KMP pass, resumed where the stored
    prefix ends; it answers entry i, by fill(i + 1), where the search
    gives up, and serves _kmp_state, which reads entries in order.  Once
    the reads have scanned more than BORDER_SCAN_BUDGET * m letters in
    all, or nest deeper than BORDER_DEPTH_MAX, fill(m) answers them, so a
    store costs at most one KMP loop and O(m) letters of C search.
    """

    def __init__(self, p: str):
        super().__init__({0: 0})
        self.p = p
        self.head = p[:8]
        self.known = 1  # entries below this are all stored
        self.budget = BORDER_SCAN_BUDGET * len(p)
        self.depth = 0

    @cached_property
    def search(self):
        """The ``search`` method of the compiled pattern
        P[0](?:P[1](?:...P[6])?...)?\\Z, made on first use.

        Its leftmost match in t, searched from position |t| - 7, is the
        longest suffix of t under 8 letters that is a prefix of P: the
        match at k spells t[k:] = P[:|t|-k].  The search jumps by C to
        each copy of P[0], so the answer costs one call.
        """
        rx = ""
        for c in reversed(self.p[:7]):
            rx = re.escape(c) + (f"(?:{rx})?" if rx else "")
        return re.compile(rx + r"\Z").search

    def __missing__(self, i: int) -> int:
        p = self.p
        if not 0 < i < len(p):
            raise IndexError(f"border index {i} outside [0, {len(p)})")
        self.budget -= i
        if self.budget < 0 or self.depth == BORDER_DEPTH_MAX:
            self.fill(len(p))
            return self[i]
        self.depth += 1
        try:
            b = _suffix_prefix_search(p[1 : i + 1], self)
        finally:
            self.depth -= 1
        if b is None:
            self.fill(i + 1)
            return self[i]
        self[i] = b
        return b

    def fill(self, n: int) -> None:
        """Store the first n entries, by the KMP loop from the first
        entry not yet known."""
        p, start = self.p, self.known
        if n <= start:
            return
        k = self[start - 1]
        for i in range(start, n):
            while k and p[i] != p[k]:
                k = self[k - 1]
            if p[i] == p[k]:
                k += 1
            self[i] = k
        self.known = n


class _LetterMasks(dict):
    """P's Shift-And masks, each made when its letter is first read: bit
    OVERLAP_MASK_MAX + j of masks[c] is set iff P[j] == c, and the
    OVERLAP_MASK_MAX bits on either side of P are set for every letter,
    one absent from P too.  Each mask is charged to the record cache's
    budget before it is stored, and the cache empties the masks with
    its records."""

    def __init__(self, rev: str, records: _BudgetCache):
        super().__init__()
        self.rev = rev
        self.records = records
        # One C translate of P reversed spells a letter's mask in binary;
        # the table is made on the first miss.
        self.digits: dict[int, str] | None = None
        ones = (1 << OVERLAP_MASK_MAX) - 1
        self.pad = ones | ones << (OVERLAP_MASK_MAX + len(rev))
        self.cost = (len(rev) + 2 * OVERLAP_MASK_MAX) // 8 + _ENTRY_OVERHEAD

    def __missing__(self, c: str) -> int:
        self.records.charge(self.cost)
        digits = self.digits
        if digits is None:
            digits = self.digits = dict.fromkeys(map(ord, set(self.rev)), "0")
        mask = self.pad
        code = ord(c)
        if code in digits:
            digits[code] = "1"
            mask |= int(self.rev.translate(digits), 2) << OVERLAP_MASK_MAX
            digits[code] = "0"
        self[c] = mask
        return mask


class _RecordCache(_BudgetCache):
    """The engine's records by alternative, and P's letter masks, which
    are charged to the same budget and emptied with the records."""

    def __init__(self, budget: int, rev: str):
        super().__init__(budget)
        self.masks = _LetterMasks(rev, self)

    def clear(self) -> None:
        super().clear()
        self.masks.clear()


class _Record:
    """Cached effects of one alternative s that takes no overlap mask:
    FULL, the START mask and the END mask (None until s first meets
    U != 0)."""

    __slots__ = ("full", "start", "end")

    def __init__(self, full: bool, start: int):
        self.full = full
        self.start = start
        self.end = None


class MatchState:
    """Search state after some segments: the active prefixes as an int
    (bit i - 1 set iff P[:i] is active), the segments reported and the
    letters read."""

    __slots__ = ("m", "mask", "reported", "letters")

    def __init__(self, u: BitVector, reported: set[int] | None = None, letters: int = 0):
        self.m = u.len
        self.mask = u.mask
        self.reported = set() if reported is None else reported
        self.letters = letters

    @property
    def u(self) -> BitVector:
        return BitVector(self.m, self.mask)


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
        self.pattern = pattern if isinstance(pattern, Pattern) else Pattern(pattern)
        letters = self.p = self.pattern.letters
        self.m = self.pattern.m
        self.rev = letters[::-1]
        self.pf = _BorderStore(letters)
        self.pf_rev = _BorderStore(self.rev)
        self.solver = APSolver(self.pattern, naive_cutoff)
        # Alternatives up to this length take the overlap-mask route.
        self._short = min(OVERLAP_MASK_MAX, self.solver.cutoff, self.m - 1)
        # An entry costs its key's letters, two m-bit masks (an overlap
        # mask has fewer than 2m bits) and overhead.
        self._records = _RecordCache(OCC_CACHE_BYTES, self.rev)
        self._entry_cost = 2 * (self.m // 8) + _ENTRY_OVERHEAD
        # START and END of a long alternative: a suffix (prefix) of 8
        # letters or more holds P's head (tail); shorter ones come from
        # the search of pf (pf_rev), and their masks are kept.
        self._tail = letters[-8:]
        self._starts = {0: 0}
        self._ends = {0: 0}
        # The segments of search's current window, and FULL of their
        # long alternatives once the window has scanned (see _full).
        self._window: list[Segment] | None = None
        self._inside: dict[str, bool] | None = None

    def new_state(self) -> MatchState:
        return MatchState(BitVector(self.m))

    def _overlap(self, s: str) -> int:
        """M(s) for |s| <= self._short: bit k + |s| - 1 is set iff s agrees
        with P wherever they overlap when s is placed at offset k."""
        records = self._records
        masks = records.masks
        m, n = self.m, len(s)
        # One step from the mask of s[1:] or s[:-1], if cached (see the
        # module docstring); else the AND over i of masks[s[i]] >> i.
        if n > 1 and (near := records.get(s[1:])) is not None:
            x = (masks[s[0]] >> (OVERLAP_MASK_MAX - n + 1)) & (near | 1 << (m + n - 2))
        elif n > 1 and (near := records.get(s[:-1])) is not None:
            x = ((near << 1) | 1) & (masks[s[-1]] >> OVERLAP_MASK_MAX)
        else:
            x = -1
            for c in reversed(s):
                x = masks[c] & (x >> 1)
            x = (x >> (OVERLAP_MASK_MAX - n + 1)) & ((1 << (m + n - 1)) - 1)
        records.put(s, x, n + self._entry_cost)
        return x

    def _record(self, s: str) -> _Record:
        m, n = self.m, len(s)
        pf = self.pf
        if s.find(pf.head, n - m if n > m else 0) < 0:
            hit = pf.search(s, n - 7)
            q = n - hit.start() if hit else 0
        else:
            q = _longest_suffix_prefix(s[-m:], pf)
        start = self._starts.get(q)
        if start is None:
            start = 0
            for low, d, count in _border_runs(q, pf):
                start |= _spaced_bits(d, count) << (low - 1)
            if q < 8:
                self._starts[q] = start
        rec = _Record(n >= m and self._full(s), start)
        self._records.put(s, rec, n + self._entry_cost)
        return rec

    def _full(self, s: str) -> bool:
        """Whether P occurs in s, |s| >= m: read from the current window's
        scan, made on the first call in the window, or by ``P in s``
        outside a window or for an alternative the scan left out."""
        inside = self._inside
        if inside is None:
            if self._window is None:
                return self.p in s
            inside = self._inside = self._scan(self._window)
        held = inside.get(s)
        return self.p in s if held is None else held

    def _scan(self, window: list[Segment]) -> dict[str, bool]:
        """FULL of each distinct alternative of window with at least m
        letters and no record yet, by one C search of P through them
        joined with NUL, which P cannot hold: a match cannot span two
        alternatives.  After a hit the search resumes at the next one."""
        m, p, records = self.m, self.p, self._records
        inside = dict.fromkeys((s for seg in window for s in seg.alternatives
                                if len(s) >= m and s not in records), False)
        if inside:
            alts = list(inside)
            text = "\0".join(alts)
            # ends[i] is where alternative i + 1 starts in text.
            ends = list(accumulate(len(s) + 1 for s in alts))
            k = text.find(p)
            while k >= 0:
                i = bisect_right(ends, k)
                inside[alts[i]] = True
                k = text.find(p, ends[i])
        return inside

    def _end(self, rec: _Record, s: str) -> int:
        """Bit m-q-1 for each q such that s starts with the last q letters of P."""
        m, pf = self.m, self.pf_rev
        if s.find(self._tail, 0, m - 1) < 0:
            t = s[: min(m - 1, 7)][::-1]
            hit = pf.search(t)
            q = len(t) - hit.start() if hit else 0
        else:
            q = _longest_suffix_prefix(s[: m - 1][::-1], pf)
        end = self._ends.get(q)
        if end is None:
            end = 0
            for low, d, count in _border_runs(q, pf):
                end |= _spaced_bits(d, count) << (m - low - 1 - (count - 1) * d)
            if q < 8:
                self._ends[q] = end
        rec.end = end
        return end

    def process_segment(self, state: MatchState, seg: Segment, j: int) -> MatchState:
        m, p = self.m, self.p
        records = self._records
        cutoff = self.solver.cutoff
        short = self._short
        u = state.mask
        u1 = u + 1
        u_next = 0
        over = 0  # OR of the short alternatives' overlap steps
        report = False
        letters = 0
        batch: tuple[str, ...] = ()  # alternatives for self.solver
        for s in seg.alternatives:
            n = len(s)
            if n <= short:
                if n:
                    letters += n
                    mask = records.get(s)
                    if mask is None:
                        mask = self._overlap(s)
                    # (U + 1) << n, less one, is (U << n) | (2^n - 1).
                    over |= mask & ((u1 << n) - 1)
                else:
                    u_next |= u
                continue
            letters += n
            rec = records.get(s)
            if rec is None:
                rec = self._record(s)
            u_next |= rec.start
            if rec.full:
                report = True
            if not u:
                continue
            end = rec.end
            first = end is None
            if first:
                end = self._end(rec, s)
            if u & end:
                report = True
            if n >= m:
                continue
            if n > cutoff or not first:
                batch += (s,)
            else:
                # Active lengths k <= m - n, each extended to k + n if P
                # holds s at offset k.
                w = u & ((1 << (m - n)) - 1)
                while w:
                    low = w & -w
                    if p.startswith(s, low.bit_length()):
                        u_next |= low << n
                    w ^= low
        if over:
            # START below bit n, EXTEND up to bit m - 1, END from there up.
            u_next |= over & ((1 << m) - 1)
            if over >> (m - 1):
                report = True
        if batch:
            u_next |= self.solver.solve(BitVector(m, u), batch).mask
        state.mask = u_next
        state.letters += letters
        if report:
            state.reported.add(j)
        return state

    def search(self, segments: Iterable[Segment]) -> MatchReport:
        """Feed segments, in order, through process_segment.

        They are taken WINDOW_SEGMENTS at a time, so that FULL of a
        window's long alternatives comes from one C search (see _full).
        The search holds a window's segments until the window ends, at
        most WINDOW_SEGMENTS - 1 of them read ahead of the one it
        processes, and, while it scans, one string joining the window's
        alternatives of at least m letters.
        """
        state = self.new_state()
        n = 0
        it = iter(segments)
        try:
            while window := list(islice(it, WINDOW_SEGMENTS)):
                self._window, self._inside = window, None
                for seg in window:
                    n += 1
                    self.process_segment(state, seg, n)
        finally:
            self._window = self._inside = None
        if n == 0:
            raise ValueError("empty ED text")
        return MatchReport(tuple(sorted(state.reported)), n, state.letters)


def search(p: Pattern | str, t: EDString | Iterable[Segment],
           naive_cutoff: int | None = None) -> MatchReport:
    engine = EDSMEngine(p, naive_cutoff)
    segments = t.segments if isinstance(t, EDString) else t
    return engine.search(segments)
