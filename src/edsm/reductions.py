"""Hardness-construction instance generators.

Two constructive reductions used as test-instance generators:

* ``td_to_edsm``: Triangle Detection on three Boolean matrices becomes a
  single pattern/ED-text pair such that the pattern occurs iff a
  triangle exists.  The pattern concatenates parts
  ``P(i,x,y) = v(i) x a^{n/s} x $ $ y a^{n/s} y v(i)`` over all
  (i, x, y); the text is dyadic prefix sets, three central segments
  encoding the 1-entries of A, B and C, and dyadic suffix sets.

* ``bmm_to_ap``: Boolean matrix multiplication becomes (n/L)^2 active-
  prefix instances over the gadget pattern ``(a^L b a^L)^n``; OR-ing the
  solved vectors' second-half gadget bits reconstructs C = A x B.

The five symbol classes of the first construction are tagged symbols
(see eds_core.encode_symbol); ids 1..n of the v-class name matrix rows,
larger ids pad the part count to a power of two, and id 0 is an inert
junk letter used to keep segments non-empty when a matrix has no
1-entries (it occurs nowhere in the pattern, so it can neither create
nor destroy an occurrence).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .boolean_linalg import BoolMatrix
from .eds_core import BitVector, EDString, Pattern, Segment, encode_symbol

__all__ = [
    "APReductionBlock",
    "TDInstance",
    "bmm_to_ap",
    "reconstruct_bmm",
    "td_to_edsm",
]

# Symbol classes for the triangle-detection construction.
_LETTER_A = encode_symbol(1, 0)
_DOLLAR = encode_symbol(2, 0)
_JUNK = encode_symbol(5, 0)


def _x(t: int) -> str:
    return encode_symbol(3, t)


def _y(t: int) -> str:
    return encode_symbol(4, t)


def _v(i: int) -> str:
    return encode_symbol(5, i)


@dataclass(frozen=True)
class TDInstance:
    """Triangle Detection input: is there (i,j,k) with A[i,j]=B[j,k]=C[k,i]=1?"""

    a: BoolMatrix
    b: BoolMatrix
    c: BoolMatrix
    s: int

    def __post_init__(self) -> None:
        dims = {
            self.a.rows, self.a.cols,
            self.b.rows, self.b.cols,
            self.c.rows, self.c.cols,
        }
        if len(dims) != 1:
            raise ValueError("A, B, C must be square matrices of equal size")
        n = self.a.rows
        if n < 1:
            raise ValueError("matrix size must be positive")
        if self.s < 1 or n % self.s:
            raise ValueError(f"block parameter {self.s} must divide the size {n}")

    @property
    def n(self) -> int:
        return self.a.rows


def _part(i: int, x: int, y: int, w: int) -> str:
    """The pattern part for row symbol i: v(i) x a^w x $ $ y a^w y v(i)."""
    run = _LETTER_A * w
    return _v(i) + _x(x) + run + _x(x) + _DOLLAR + _DOLLAR + _y(y) + run + _y(y) + _v(i)


def _td_parts(inst: TDInstance) -> list[str]:
    """All parts in (i, x, y) lexicographic order, padded to a power of two.

    Padding parts use fresh v-symbols (ids above n) so they are distinct
    from every real part and from every central-segment string.
    """
    n, s = inst.n, inst.s
    w = n // s
    parts = [
        _part(i, x, y, w)
        for i in range(1, n + 1)
        for x in range(1, s + 1)
        for y in range(1, s + 1)
    ]
    z = len(parts)
    zp = 1 << (z - 1).bit_length()
    for f in range(1, zp - z + 1):
        parts.append(_part(n + f, 1, 1, w))
    return parts


def td_to_edsm(inst: TDInstance) -> tuple[Pattern, EDString]:
    """Build the pattern/ED-text pair whose match decides Triangle Detection.

    The pattern occurs in the returned text iff there are i, j, k with
    A[i,j] = B[j,k] = C[k,i] = 1.
    """
    n, s = inst.n, inst.s
    w = n // s
    parts = _td_parts(inst)
    zp = len(parts)
    logz = zp.bit_length() - 1

    pattern = Pattern("".join(parts))

    # Dyadic prefix sets: level i holds epsilon plus every aligned
    # concatenation of zp/2^i consecutive parts starting at a multiple
    # of zp/2^{i-1}.
    prefix_segments = []
    for i in range(1, logz + 1):
        stride = zp >> (i - 1)
        half = zp >> i
        alts = {""}
        for j in range(1 << (i - 1)):
            lo = j * stride
            alts.add("".join(parts[lo : lo + half]))
        prefix_segments.append(Segment(frozenset(alts)))

    # Dyadic suffix sets, mirrored: blocks of zp/2^i parts ending at a
    # multiple of zp/2^{i-1} counted from the right end.
    suffix_segments = []
    for i in range(logz, 0, -1):
        stride = zp >> (i - 1)
        half = zp >> i
        alts = {""}
        for j in range(1 << (i - 1)):
            hi = zp - j * stride
            alts.add("".join(parts[hi - half : hi]))
        suffix_segments.append(Segment(frozenset(alts)))

    # Central segments encoding the 1-entries of A, B and C.  A part
    # P(i,x,y) matches their concatenation iff for some j, k the entries
    # A[i,(x-1)w+j], B[(x-1)w+j,(y-1)w+k] and C[(y-1)w+k,i] are all 1.
    x1 = {
        _v(i) + _x(x) + _LETTER_A * j
        for i in range(1, n + 1)
        for x in range(1, s + 1)
        for j in range(1, w + 1)
        if inst.a.get(i, (x - 1) * w + j)
    }
    x2 = {
        _LETTER_A * (w - j) + _x(x) + _DOLLAR + _DOLLAR + _y(y) + _LETTER_A * (w - k)
        for x in range(1, s + 1)
        for j in range(1, w + 1)
        for y in range(1, s + 1)
        for k in range(1, w + 1)
        if inst.b.get((x - 1) * w + j, (y - 1) * w + k)
    }
    x3 = {
        _LETTER_A * k + _y(y) + _v(i)
        for y in range(1, s + 1)
        for k in range(1, w + 1)
        for i in range(1, n + 1)
        if inst.c.get((y - 1) * w + k, i)
    }
    central = [Segment(frozenset(alts or {_JUNK})) for alts in (x1, x2, x3)]

    text = EDString(tuple(prefix_segments + central + suffix_segments))
    return pattern, text


@dataclass
class APReductionBlock:
    """One (K, J) active-prefix instance of the matrix-product reduction.

    The pattern is n gadgets a^L b a^L; bit k' of gadget i is set in u
    iff A[i,(K-1)L+k'] = 1; the strings a^{L-k'} b a^{j'} cover the
    1-entries of the (K, J)-block of B.  After solving, v holds the
    block's contribution to C.
    """

    k: int
    j: int
    l: int
    n: int
    pattern: Pattern
    u: BitVector
    strings: tuple[str, ...]
    v: BitVector | None = field(default=None)


def bmm_to_ap(a: BoolMatrix, b: BoolMatrix, l: int) -> list[APReductionBlock]:
    """Decompose a Boolean matrix product into active-prefix instances."""
    if not (a.rows == a.cols == b.rows == b.cols):
        raise ValueError("A and B must be square matrices of equal size")
    n = a.rows
    if l < 1 or n % l:
        raise ValueError(f"block size {l} must divide the matrix size {n}")
    blocks_per_side = n // l
    gadget = "a" * l + "b" + "a" * l
    pattern = Pattern(gadget * n)
    glen = 2 * l + 1

    blocks = []
    for kb in range(1, blocks_per_side + 1):
        u = BitVector(glen * n)
        for i in range(1, n + 1):
            for kp in range(1, l + 1):
                if a.get(i, (kb - 1) * l + kp):
                    u.set((i - 1) * glen + kp)
        for jb in range(1, blocks_per_side + 1):
            strings = tuple(
                sorted(
                    {
                        "a" * (l - kp) + "b" + "a" * jp
                        for kp in range(1, l + 1)
                        for jp in range(1, l + 1)
                        if b.get((kb - 1) * l + kp, (jb - 1) * l + jp)
                    }
                )
            )
            blocks.append(
                APReductionBlock(kb, jb, l, n, pattern, BitVector(glen * n, u.mask), strings)
            )
    return blocks


def reconstruct_bmm(blocks: list[APReductionBlock]) -> BoolMatrix:
    """Assemble C = A x B from solved reduction blocks.

    C[i, (J-1)L+j'] is the OR over K of bit (i-1)(2L+1) + L + 1 + j' of
    block (K, J)'s solved vector.
    """
    if not blocks:
        raise ValueError("no blocks given")
    n, l = blocks[0].n, blocks[0].l
    blocks_per_side = n // l
    by_pos = {}
    for blk in blocks:
        if blk.v is None:
            raise ValueError(f"block ({blk.k}, {blk.j}) is not solved")
        if blk.n != n or blk.l != l:
            raise ValueError("blocks disagree on matrix or block size")
        by_pos[(blk.k, blk.j)] = blk
    want = {(k, j) for k in range(1, blocks_per_side + 1) for j in range(1, blocks_per_side + 1)}
    missing = want - by_pos.keys()
    if missing:
        raise ValueError(f"missing blocks: {sorted(missing)}")

    glen = 2 * l + 1
    rows = [[0] * n for _ in range(n)]
    for (kb, jb), blk in by_pos.items():
        for i in range(1, n + 1):
            for jp in range(1, l + 1):
                if blk.v.get((i - 1) * glen + l + 1 + jp):
                    rows[i - 1][(jb - 1) * l + jp - 1] = 1
    return BoolMatrix.from_rows(rows)
