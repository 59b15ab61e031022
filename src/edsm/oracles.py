"""Brute-force reference implementations.

Everything here follows problem definitions literally and depends on no
optimized module, so property tests can use these as semantic anchors.
"""

from __future__ import annotations

import os

from .boolean_linalg import BoolMatrix
from .eds_core import BitVector, EDString, Pattern

__all__ = [
    "BudgetExceededError",
    "brute_active_states",
    "brute_ap",
    "brute_edsm",
    "brute_triangle",
    "naive_bool_multiply",
    "oracle_budget",
]

_DEFAULT_BUDGET = 20_000_000


def oracle_budget() -> int:
    return int(os.environ.get("EDSM_ORACLE_BUDGET", _DEFAULT_BUDGET))


class BudgetExceededError(RuntimeError):
    pass


def brute_ap(p: Pattern | str, u: BitVector, strings) -> BitVector:
    """Literal Active Prefixes definition: byte-compare every extension."""
    letters = p.letters if isinstance(p, Pattern) else p
    m = len(letters)
    if u.len != m:
        raise ValueError("bit vector length differs from pattern length")
    v = BitVector(m)
    for s in set(strings):
        for i in u.ones():
            j = i + len(s)
            if 1 <= j <= m and letters[i : i + len(s)] == s:
                v.set(j)
    return v


def brute_active_states(p: Pattern | str, segments) -> list[set[int]]:
    """Active prefix sets after each segment, maintained by definition.

    state_j = { i : P[1..i] is a suffix of some alternative of segment j,
                or i0 in state_{j-1} and some alternative equals P[i0+1..i] }.
    """
    letters = p.letters if isinstance(p, Pattern) else p
    m = len(letters)
    states: list[set[int]] = []
    prev: set[int] = set()
    for seg in segments:
        cur: set[int] = set()
        for s in seg.alternatives:
            for i in range(1, m + 1):
                if len(s) >= i and s.endswith(letters[:i]):
                    cur.add(i)
        for i0 in prev:
            for s in seg.alternatives:
                i = i0 + len(s)
                if i <= m and letters[i0:i] == s:
                    cur.add(i)
        states.append(cur)
        prev = cur
    return states


def brute_edsm(p: Pattern | str, t: EDString, budget: int | None = None) -> list[int]:
    """Enumerate windows and alternative tuples per the match definition.

    A match over segments i..j (i < j) splits P into parts: a possibly
    empty suffix of an alternative of segment i, full alternatives of the
    middle segments, and a non-empty prefix of an alternative of segment
    j.  A single-segment match is P occurring inside an alternative.
    """
    letters = p.letters if isinstance(p, Pattern) else p
    m = len(letters)
    limit = budget if budget is not None else oracle_budget()
    steps = 0

    def spend(k: int = 1) -> None:
        nonlocal steps
        steps += k
        if steps > limit:
            raise BudgetExceededError(f"oracle budget {limit} exceeded")

    segs = t.segments
    reported: set[int] = set()

    for j in range(1, t.n + 1):
        # Single-segment matches.
        for s in segs[j - 1].alternatives:
            spend(max(1, len(s)))
            if letters in s:
                reported.add(j)
                break

    for i in range(1, t.n + 1):
        for j in range(i + 1, t.n + 1):
            starts: set[int] = set()
            for s in segs[i - 1].alternatives:
                for q in range(0, min(len(s), m - 1) + 1):
                    spend()
                    if q == 0 or s.endswith(letters[:q]):
                        starts.add(q)
            frontier = starts
            ok = False
            for mid in range(i + 1, j):
                nxt: set[int] = set()
                for pos in frontier:
                    for s in segs[mid - 1].alternatives:
                        spend()
                        end = pos + len(s)
                        if end <= m - 1 and letters[pos:end] == s:
                            nxt.add(end)
                frontier = nxt
                if not frontier:
                    break
            for pos in frontier:
                need = m - pos
                if need < 1:
                    continue
                for s in segs[j - 1].alternatives:
                    spend()
                    if len(s) >= need and s.startswith(letters[pos:]):
                        ok = True
                        break
                if ok:
                    break
            if ok:
                reported.add(j)
    return sorted(reported)


def brute_triangle(a: BoolMatrix, b: BoolMatrix, c: BoolMatrix) -> bool:
    if not (a.rows == a.cols == b.rows == b.cols == c.rows == c.cols):
        raise ValueError("matrices must be square and of equal size")
    n = a.rows
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if not a.get(i, j):
                continue
            for k in range(1, n + 1):
                if b.get(j, k) and c.get(k, i):
                    return True
    return False


def naive_bool_multiply(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    if a.cols != b.rows:
        raise ValueError("inner dimensions differ")
    rows = []
    for i in range(1, a.rows + 1):
        row = []
        for j in range(1, b.cols + 1):
            row.append(
                1 if any(a.get(i, k) and b.get(k, j) for k in range(1, a.cols + 1)) else 0
            )
        rows.append(row)
    return BoolMatrix.from_rows(rows)
