"""Periodicity primitives.

Period computation via border arrays, strong periodicity, smallest-
rotation roots, block-scheme type classification of class members, and
extraction of maximal runs (substrings of length >= ell whose period is
at most ell/4).  All fractional thresholds are compared by integer
cross-multiplication; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "PeriodicRun",
    "TypeLabel",
    "all_maximal_runs",
    "border_array",
    "classify_type",
    "is_strongly_periodic",
    "least_rotation",
    "maximal_periodic_run",
    "period",
    "word_root",
]


class TypeLabel(Enum):
    Type1 = 1
    Type2 = 2
    Type3 = 3


@dataclass(frozen=True)
class PeriodicRun:
    """Maximal run s[start..end] (1-indexed, inclusive) with its period."""

    start: int
    end: int
    period: int

    @property
    def length(self) -> int:
        return self.end - self.start + 1


def border_array(s: str) -> list[int]:
    """b[i] = length of the longest proper border of s[:i+1]."""
    n = len(s)
    b = [0] * n
    k = 0
    for i in range(1, n):
        while k and s[i] != s[k]:
            k = b[k - 1]
        if s[i] == s[k]:
            k += 1
        b[i] = k
    return b


def period(s: str) -> int:
    """Smallest p >= 1 with s[i] == s[i+p] for all valid i."""
    if not s:
        raise ValueError("period of the empty string is undefined")
    return len(s) - border_array(s)[-1]


def is_strongly_periodic(s: str) -> bool:
    """True iff per(s) <= |s|/4, compared exactly."""
    return 4 * period(s) <= len(s)


def least_rotation(s: str) -> str:
    """Booth's algorithm: lexicographically smallest rotation of s."""
    ss = s + s
    n = len(ss)
    f = [-1] * n
    k = 0
    for j in range(1, n):
        sj = ss[j]
        i = f[j - k - 1]
        while i != -1 and sj != ss[k + i + 1]:
            if sj < ss[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != ss[k + i + 1]:
            if sj < ss[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return ss[k : k + len(s)]


def word_root(s: str) -> str:
    """Smallest rotation of the length-per(s) prefix of s."""
    if not s:
        raise ValueError("root of the empty string is undefined")
    return least_rotation(s[: period(s)])


def _extend(s: str, lo: int, hi: int, p: int) -> tuple[int, int]:
    """Maximal interval with period p containing s[lo..hi] (0-indexed)."""
    while lo > 0 and s[lo - 1] == s[lo - 1 + p]:
        lo -= 1
    while hi + 1 < len(s) and s[hi + 1] == s[hi + 1 - p]:
        hi += 1
    return lo, hi


def classify_type(s: str, ell: int) -> TypeLabel:
    """Type1: no length-ell window strongly periodic; Type3: all; else Type2.

    Requires 9/8*ell <= |s| < 5/4*ell.  A window is strongly periodic
    iff it lies inside a maximal run, so Type2 is "some run, not Type3".
    """
    n = len(s)
    if ell < 1:
        raise ValueError("ell must be positive")
    if not (8 * n >= 9 * ell and 4 * n < 5 * ell):
        raise ValueError(f"length {n} outside [9/8*{ell}, 5/4*{ell})")
    if 4 * period(s) <= ell:
        # The whole string has period <= ell/4, so every window does.
        return TypeLabel.Type3
    if all_maximal_runs(s, ell):
        return TypeLabel.Type2
    return TypeLabel.Type1


def maximal_periodic_run(s: str, ell: int) -> PeriodicRun | None:
    """Unique maximal run of a string of length at most 5/4*ell, if any."""
    n = len(s)
    if ell < 1:
        raise ValueError("ell must be positive")
    if 4 * n > 5 * ell:
        raise ValueError(f"length {n} exceeds 5/4*{ell}")
    if n < ell or ell < 4:
        return None
    h = ell // 2
    mid = s[h:ell]
    p = period(mid)
    if 4 * p > ell:
        return None
    lo, hi = _extend(s, h, ell - 1, p)
    if hi - lo + 1 < ell:
        return None
    return PeriodicRun(lo + 1, hi + 1, p)


def all_maximal_runs(s: str, ell: int) -> list[PeriodicRun]:
    """All maximal runs of s, left to right.

    Every run of length >= ell >= 2*floor(ell/2) contains a full aligned
    block of size floor(ell/2); the block's period equals the run's and
    extending it recovers the run exactly, so scanning blocks finds all.
    """
    if ell < 4:
        return []
    h = ell // 2
    found: dict[tuple[int, int], PeriodicRun] = {}
    for b0 in range(0, len(s) - h + 1, h):
        block = s[b0 : b0 + h]
        p = period(block)
        if 4 * p > ell:
            continue
        lo, hi = _extend(s, b0, b0 + h - 1, p)
        if hi - lo + 1 >= ell:
            found.setdefault((lo, hi), PeriodicRun(lo + 1, hi + 1, p))
    return sorted(found.values(), key=lambda r: r.start)
