"""Independent answer checker: bit-parallel Shift-And over ED segments.

This is the segment-wise Shift-And of SOPanG (Cislak, Grabowski & Holub,
Bioinformatics 2018).  It shares no code with ``edsm``: segments are
plain collections of alternative strings.

All patterns (of one length m) are packed into one integer, pattern k
in bits [k*m, (k+1)*m).  Bit k*m + i of the state D is set when
P_k[0..i] is a suffix of some spelling of the text read so far, so
pattern k's state is exactly ``MatchState.u`` (bit i-1 <-> prefix
length i).  A shift carries pattern k's top bit into pattern k+1's
bottom bit, which the OR with ``starts`` sets anyway, so the packing
needs no masking beyond the letter masks.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def shift_and(
    patterns: Sequence[str], segments: Iterable[Iterable[str]]
) -> tuple[list[list[int]], list[list[int]]]:
    """(end positions, per-segment states) of every pattern.

    Positions are the 1-based segments in which an occurrence ends; an
    epsilon alternative carries the state but ends no occurrence.
    """
    m = len(patterns[0])
    if any(len(p) != m for p in patterns):
        raise ValueError("patterns must share one length")
    k = len(patterns)
    masks: dict[str, int] = {}
    for idx, p in enumerate(patterns):
        for i, ch in enumerate(p):
            masks[ch] = masks.get(ch, 0) | 1 << (idx * m + i)
    starts = sum(1 << (idx * m) for idx in range(k))
    finals = starts << (m - 1)
    low = (1 << m) - 1

    positions: list[list[int]] = [[] for _ in patterns]
    states: list[list[int]] = [[] for _ in patterns]
    d_prev = 0
    for j, alts in enumerate(segments, 1):
        d_next = 0
        hits = 0
        for s in alts:
            d = d_prev
            for ch in s:
                d = ((d << 1) | starts) & masks.get(ch, 0)
                if d & finals:
                    hits |= d
            d_next |= d
        hits &= finals
        for idx in range(k):
            if hits >> (idx * m + m - 1) & 1:
                positions[idx].append(j)
            states[idx].append(d_next >> (idx * m) & low)
        d_prev = d_next
    return positions, states
