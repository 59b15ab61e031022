"""Active Prefixes solvers.

Given a pattern P, a bit vector U of active prefix lengths and a string
set S, compute V with V[j]=1 iff some U[i]=1 extends by a member to
P[1..j].

By default every member shorter than P goes through one occurrence-mask
kernel: occ(s) marks the start positions of s in P (``occ_mask``, a
``str.find`` loop), and V |= ((U << 1) & occ(s)) << (|s| - 1).  The
masks are cached per solver within OCC_CACHE_BYTES.  The search engine
answers most members itself, from per-alternative records in a cache of
the same budget (see ``edsm_engine``): an overlap mask for a member of
at most 32 letters, and a ``startswith`` test per active prefix the
first time a longer one meets U != 0.  It calls ``solve`` once per
segment with the longer members that meet U != 0 again and those past
an explicit cutoff, so an engine's records and occurrence masks take at
most twice OCC_CACHE_BYTES.

An explicit ``naive_cutoff`` (at least 23) selects the paper's classed
pipeline instead for members longer than the cutoff: they are
partitioned into geometric length classes, each member classified by
the periodicity of its length-ell windows, and the three class solvers
run:

* type 1 (no strongly periodic window): anchor windows chosen by node
  selection, per-anchor tries, heavy-path red/blue dominance, batched
  Boolean matrix products;
* type 2 (some window): the two length-(ell+1) substrings flanking the
  unique maximal run serve as anchors, then the type-1 machinery;
* type 3 (all windows): members and pattern runs are grouped by their
  rotation root; occurrences are recovered arithmetically, either by
  direct enumeration or through a polynomial-matrix product.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .boolean_linalg import BoolMatrix, PolyMatrix, bool_matvec_batch, poly_multiply
from .eds_core import BitVector, Pattern
from .node_select import BipartiteInstance, solve_derandomized
from .stringology import (
    TypeLabel,
    all_maximal_runs,
    classify_type,
    least_rotation,
    maximal_periodic_run,
    period,
    word_root,
)
from .text_indexes import SuffixArray, build_anchor_structure, build_suffix_tree

__all__ = [
    "APInstance",
    "APSolver",
    "LengthClass",
    "NAIVE_CUTOFF_BASE",
    "decompose_dominance",
    "partition_classes",
    "solve_ap",
    "solve_type1",
    "solve_type2",
    "solve_type3",
]

NAIVE_CUTOFF_BASE = 23

# Budget of one solver's occurrence-mask cache, in bytes: each entry
# counts its key's letters, its m-bit mask and _ENTRY_OVERHEAD bytes for
# the objects and the dict slot.  Over a stream of distinct strings the
# cache is cleared whenever the next entry would exceed the budget.
OCC_CACHE_BYTES = 1 << 23
_ENTRY_OVERHEAD = 128
# Budget of one solver's anchor-structure cache, in anchor occurrences:
# an anchor's two tries hold O(1) nodes per occurrence.
ANCHOR_CACHE_OCCURRENCES = 1 << 14


@dataclass(frozen=True)
class APInstance:
    pattern: Pattern
    u: BitVector
    strings: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.u.len != self.pattern.m:
            raise ValueError("bit vector length differs from pattern length")


@dataclass(frozen=True)
class LengthClass:
    k: int
    ell: int
    members: tuple[str, ...]


class _BudgetCache(dict):
    """Dict that empties itself when an insertion would exceed its budget.
    An entry that alone costs more than the budget is not stored."""

    def __init__(self, budget: int):
        super().__init__()
        self.budget = budget
        self.used = 0

    def put(self, key, value, cost: int) -> None:
        if cost > self.budget:
            return
        self.charge(cost)
        self[key] = value

    def charge(self, cost: int) -> None:
        """Count cost against the budget, emptying the cache first if it
        would overflow."""
        if self.used + cost > self.budget:
            self.clear()
            self.used = 0
        self.used += cost


def occ_mask(p: str, s: str) -> int:
    """Bit k set iff s occurs in p at 0-based offset k."""
    occ = 0
    k = p.find(s)
    while k >= 0:
        occ |= 1 << k
        k = p.find(s, k + 1)
    return occ


def _ceil_log2(m: int) -> int:
    return (m - 1).bit_length() if m > 1 else 0


def _class_index(length: int) -> int:
    """Largest k with (19/18)^k <= length, by exact integer comparison."""
    k = max(0, int(math.log(length) / math.log(19 / 18)))
    while 19 ** (k + 1) <= length * 18 ** (k + 1):
        k += 1
    while k > 0 and 19**k > length * 18**k:
        k -= 1
    return k


def _class_ell(k: int) -> int:
    num = 4 * 19 ** (k + 1)
    den = 5 * 18 ** (k + 1)
    return -(-num // den)


def partition_classes(strings, m: int) -> list[LengthClass]:
    """Group strings of length in [24, m] into geometric length classes."""
    buckets: dict[int, list[str]] = defaultdict(list)
    for s in strings:
        if not NAIVE_CUTOFF_BASE + 1 <= len(s) <= m:
            raise ValueError(
                f"string length {len(s)} outside [{NAIVE_CUTOFF_BASE + 1}, {m}]"
            )
        buckets[_class_index(len(s))].append(s)
    classes = []
    for k in sorted(buckets):
        ell = _class_ell(k)
        for s in buckets[k]:
            if not (8 * len(s) >= 9 * ell and 4 * len(s) < 5 * ell):
                raise AssertionError(
                    f"class {k}: length {len(s)} violates [9/8*{ell}, 5/4*{ell})"
                )
        classes.append(LengthClass(k, ell, tuple(sorted(buckets[k]))))
    return classes


def decompose_dominance(
    reds: list[tuple[int, int, object]], blues: list[tuple[int, int, object]]
) -> list[tuple[list, list]]:
    """Split point sets into instances where every red dominates every blue.

    Divide and conquer on coordinate medians: pairs crossing an x split
    have their x order settled and recurse on y only; emitted instances
    carry (red, blue) pairs with red.x >= blue.x and red.y >= blue.y,
    covering each dominating pair at least once.
    """
    out: list[tuple[list, list]] = []
    max_depth = 0

    def rec_x(rs, bs, depth):
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        if not rs or not bs:
            return
        xs = sorted({p[0] for p in rs} | {p[0] for p in bs})
        if len(xs) == 1:
            rec_y(rs, bs, depth + 1)
            return
        med = xs[(len(xs) - 1) // 2]
        r_lo = [p for p in rs if p[0] <= med]
        r_hi = [p for p in rs if p[0] > med]
        b_lo = [p for p in bs if p[0] <= med]
        b_hi = [p for p in bs if p[0] > med]
        rec_y(r_hi, b_lo, depth + 1)  # x order settled across the split
        rec_x(r_lo, b_lo, depth + 1)
        rec_x(r_hi, b_hi, depth + 1)

    def rec_y(rs, bs, depth):
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        if not rs or not bs:
            return
        ys = sorted({p[1] for p in rs} | {p[1] for p in bs})
        if len(ys) == 1:
            out.append((rs, bs))
            return
        med = ys[(len(ys) - 1) // 2]
        r_lo = [p for p in rs if p[1] <= med]
        r_hi = [p for p in rs if p[1] > med]
        b_lo = [p for p in bs if p[1] <= med]
        b_hi = [p for p in bs if p[1] > med]
        if r_hi and b_lo:
            out.append((r_hi, b_lo))
        rec_y(r_lo, b_lo, depth + 1)
        rec_y(r_hi, b_hi, depth + 1)

    rec_x(reds, blues, 0)
    limit = 2 * (max(len(reds) + len(blues), 2)).bit_length() + 4
    if max_depth > limit:
        raise AssertionError(f"dominance recursion depth {max_depth} > {limit}")
    return out


class APSolver:
    """Reusable Active Prefixes solver for one pattern."""

    def __init__(self, pattern: Pattern | str, naive_cutoff: int | None = None):
        self.pattern = pattern if isinstance(pattern, Pattern) else Pattern(pattern)
        self.p = self.pattern.letters
        self.m = self.pattern.m
        if naive_cutoff is None:
            # Every member shorter than P takes the occurrence-mask kernel.
            naive_cutoff = max(NAIVE_CUTOFF_BASE, self.m)
        if naive_cutoff < NAIVE_CUTOFF_BASE:
            raise ValueError(f"cutoff below {NAIVE_CUTOFF_BASE} breaks class arithmetic")
        self.cutoff = naive_cutoff
        self._st: SuffixArray | None = None
        self._st_rev: SuffixArray | None = None
        self._occ_cache = _BudgetCache(OCC_CACHE_BYTES)
        self._anchor_cache = _BudgetCache(ANCHOR_CACHE_OCCURRENCES)

    @property
    def st(self) -> SuffixArray:
        if self._st is None:
            self._st = build_suffix_tree(self.p)
        return self._st

    @property
    def st_rev(self) -> SuffixArray:
        if self._st_rev is None:
            self._st_rev = build_suffix_tree(self.p[::-1])
        return self._st_rev

    # -- public entry -----------------------------------------------------

    def solve(self, u: BitVector, strings) -> BitVector:
        if u.len != self.m:
            raise ValueError("bit vector length differs from pattern length")
        umask = u.mask
        vmask = 0
        short: list[str] = []
        classed: list[str] = []
        for s in set(strings):
            if s == "":
                vmask |= umask
            elif len(s) >= self.m:
                continue  # cannot extend a nonempty prefix within P
            elif len(s) <= self.cutoff:
                short.append(s)
            else:
                classed.append(s)
        if short:
            vmask |= self._occ_kernel(umask, short)
        for cls in partition_classes(classed, self.m) if classed else []:
            groups: dict[TypeLabel, list[str]] = defaultdict(list)
            for s in cls.members:
                groups[classify_type(s, cls.ell)].append(s)
            if groups[TypeLabel.Type1]:
                vmask |= self._solve_type1(umask, groups[TypeLabel.Type1], cls.ell)
            if groups[TypeLabel.Type2]:
                vmask |= self._solve_type2(umask, groups[TypeLabel.Type2], cls.ell)
            if groups[TypeLabel.Type3]:
                vmask |= self._solve_type3(umask, groups[TypeLabel.Type3], cls.ell)
        return BitVector(self.m, vmask)

    # -- occurrence-mask kernel --------------------------------------------

    def _occ_kernel(self, umask: int, strings) -> int:
        """OR over s of ((U << 1) & occ(s)) << (|s| - 1).

        Bit k of occ(s) is set when s occurs in P at 0-based offset k,
        which extends the active prefix of length k (bit k - 1 of U) to
        length k + |s|.  As k + |s| <= m, no bit past m - 1 is set.
        """
        p = self.p
        cache = self._occ_cache
        entry_cost = self.m // 8 + _ENTRY_OVERHEAD
        shifted = umask << 1
        vmask = 0
        for s in strings:
            occ = cache.get(s)
            if occ is None:
                occ = occ_mask(p, s)
                cache.put(s, occ, len(s) + entry_cost)
            hit = shifted & occ
            if hit:
                vmask |= hit << (len(s) - 1)
        return vmask

    # -- type 1 ------------------------------------------------------------

    def _solve_type1(self, umask: int, members: list[str], ell: int) -> int:
        occurring = [s for s in members if s in self.p]
        if not occurring:
            return 0
        # Right side: distinct length-ell windows of P, weighted by their
        # occurrence counts; left side: members, adjacent to their windows.
        window_ids: dict[str, int] = {}
        weights: list[int] = []
        adj: list[tuple[int, ...]] = []
        for s in occurring:
            nbrs = set()
            for j in range(len(s) - ell + 1):
                w = s[j : j + ell]
                if w not in window_ids:
                    window_ids[w] = len(weights)
                    weights.append(self.st.count(w))
                nbrs.add(window_ids[w])
            adj.append(tuple(sorted(nbrs)))
        max_deg = max(len(a) for a in adj)
        d = max(Fraction(ell, 8), Fraction(max_deg, 2))
        inst = BipartiteInstance(
            n_left=len(occurring),
            n_right=len(weights),
            weights=tuple(float(w) for w in weights),
            adj=tuple(adj),
            d=d,
        )
        selection = solve_derandomized(inst)
        chosen_windows = {
            w for w, idx in window_ids.items() if idx in selection.chosen
        }
        pairs: dict[str, list[tuple[str, int]]] = defaultdict(list)
        for s in occurring:
            for j in range(1, len(s) - ell + 2):
                w = s[j - 1 : j - 1 + ell]
                if w in chosen_windows:
                    pairs[w].append((s, j))
        return self._anchored_solve(umask, pairs, ell)

    # -- type 2 ------------------------------------------------------------

    def _solve_type2(self, umask: int, members: list[str], ell: int) -> int:
        pairs: dict[str, list[tuple[str, int]]] = defaultdict(list)
        for s in members:
            if s not in self.p:
                continue
            run = maximal_periodic_run(s, ell)
            if run is None:
                raise ValueError("member has no strongly periodic window (type 1?)")
            if run.start == 1 and run.end == len(s):
                raise ValueError("member is one full run (type 3?)")
            if run.start > 1:
                j = run.start - 1
                pairs[s[j - 1 : j + ell]].append((s, j))
            if run.end < len(s):
                j = run.end + 1 - ell
                pairs[s[j - 1 : j + ell]].append((s, j))
        if not pairs:
            return 0
        return self._anchored_solve(umask, pairs, ell)

    # -- shared anchored machinery ------------------------------------------

    def _anchored_solve(
        self, umask: int, pairs: dict[str, list[tuple[str, int]]], ell: int
    ) -> int:
        m = self.m
        L5 = -(-5 * ell // 4)
        z = min(L5, max(8, ell // max(1, _ceil_log2(m) ** 3)))
        vmask = 0
        full = (1 << m) - 1
        for anchor, plist in pairs.items():
            struct = self._anchor_cache.get(anchor)
            if struct is None:
                struct = build_anchor_structure(self.st, self.st_rev, anchor)
                self._anchor_cache.put(anchor, struct, len(struct.occurrences))
            tb, ta = struct.trie_before, struct.trie_after
            before_leaves = {n.decoration: n for n in tb.nodes if n.is_leaf()}
            after_leaves = {n.decoration: n for n in ta.nodes if n.is_leaf()}
            red_by_path: dict[tuple, list] = defaultdict(list)
            for i in struct.occurrences:
                above_b = tb.paths_above(before_leaves[i])
                above_a = ta.paths_above(after_leaves[i])
                for pb, xb in above_b:
                    for pa, ya in above_a:
                        red_by_path[(pb, pa)].append((xb, ya, i))
            blue_by_path: dict[tuple, list] = defaultdict(list)
            for s, j in plist:
                before = s[: j - 1][::-1]
                after = s[j - 1 + len(anchor) :]
                lb = tb.locate(before)
                la = ta.locate(after)
                if lb is None or la is None:
                    continue  # the context never occurs around this anchor in P
                key = (lb.hp_head, la.hp_head)
                blue_by_path[key].append((len(before), len(after), (s, j)))
            for key, blues in blue_by_path.items():
                reds = red_by_path.get(key)
                if not reds:
                    continue
                for sub_reds, sub_blues in decompose_dominance(reds, blues):
                    vmask |= self._simple_instance(
                        umask, sub_reds, sub_blues, L5, z
                    )
        return vmask & full

    def _simple_instance(self, umask, reds, blues, L5, z) -> int:
        """All reds dominate all blues: every (occurrence, pair) combination
        is an occurrence of the pair's string at i - j + 1 in P."""
        m = self.m
        mrows: dict[int, int] = defaultdict(int)
        for _, _, (s, j) in blues:
            row = len(s) - j  # occurrence end offset from the anchor position
            col = L5 + 1 - j
            if not (1 <= row <= L5 and 1 <= col <= L5):
                raise AssertionError("blue offsets outside the matrix window")
            mrows[row] |= 1 << (col - 1)
        mat = BoolMatrix(L5, L5, tuple(mrows.get(r + 1, 0) for r in range(L5)))
        mask5 = (1 << L5) - 1
        vecs = []
        occs = []
        for _, _, i in reds:
            shift = i - 1 - L5
            ui = (umask >> shift) & mask5 if shift >= 0 else (umask << -shift) & mask5
            vecs.append(BitVector(L5, ui))
            occs.append(i)
        vmask = 0
        full = (1 << m) - 1
        for i, vi in zip(occs, bool_matvec_batch(mat, vecs, z)):
            vmask |= (vi.mask << i) & full
        return vmask

    # -- type 3 ------------------------------------------------------------

    def _solve_type3(self, umask: int, members: list[str], ell: int) -> int:
        runs = all_maximal_runs(self.p, ell)
        runs_by_root: dict[str, list] = defaultdict(list)
        for run in runs:
            # Root of a run = least rotation of its full period-length
            # prefix (which can itself have a smaller period).
            root = least_rotation(self.p[run.start - 1 : run.start - 1 + run.period])
            runs_by_root[root].append(run)
        members_by_root: dict[str, list[str]] = defaultdict(list)
        for s in members:
            if 4 * period(s) > ell:
                raise ValueError("member is not strongly periodic (not type 3)")
            members_by_root[word_root(s)].append(s)
        vmask = 0
        for root, group in members_by_root.items():
            for run in runs_by_root.get(root, []):
                vmask |= self._type3_run(umask, root, run, group)
        return vmask

    def _type3_run(self, umask: int, root: str, run, members: list[str]) -> int:
        m = self.m
        r = len(root)
        a, b = run.start, run.end
        lr = b - a + 1
        doubled = root + root
        lam = doubled.find(self.p[a - 1 : a - 1 + r])
        assert lam >= 0, "run prefix is not a rotation of its root"
        sigma = a - lam - 1  # P position = sigma + virtual position
        t_hi = lam + lr  # last virtual position covered by the run

        # Decompose each member as root[i..r] . root^beta . root[1..j].
        decomp: list[tuple[str, int, int, int]] = []
        for s in members:
            idx = doubled.find(s[:r])
            assert idx >= 0
            i = idx + 1
            rem = len(s) - (r - i + 1)
            beta = (rem - 1) // r
            j = rem - beta * r
            decomp.append((s, i, beta, j))

        alpha = -(-t_hi // r)  # root copies covering the padded run
        big_d = max(1, -(-alpha // r))

        def u_bit(t: int) -> int:
            # Active-prefix bit for an occurrence starting at virtual t.
            if t < lam + 1:
                return 0
            q = sigma + t  # 1-based start in P
            if q < 2 or q > m:
                return 0
            return (umask >> (q - 2)) & 1

        vmask = 0
        full = (1 << m) - 1
        small: list[tuple[int, int, int]] = []
        for s, i, beta, j in decomp:
            if beta > big_d:
                t = i if i >= lam + 1 else i + r * (-(-(lam + 1 - i) // r))
                while t + len(s) - 1 <= t_hi:
                    if u_bit(t):
                        e = t + len(s) - 1
                        vmask |= 1 << (sigma + e - 1)
                    t += r
            else:
                small.append((i, beta, j))
        if small:
            k_rows = (alpha // big_d) + 1
            acoef = [
                [[u_bit((k * big_d + g) * r + i) for g in range(big_d)]
                 for i in range(1, r + 1)]
                for k in range(k_rows)
            ]
            mcoef = [[[0] * (big_d + 1) for _ in range(r)] for _ in range(r)]
            for i, beta, j in small:
                mcoef[i - 1][j - 1][beta] = 1
            amat = PolyMatrix(k_rows, r, big_d - 1, acoef)
            mmat = PolyMatrix(r, r, big_d, mcoef)
            cmat = poly_multiply(amat, mmat)
            for k0, row in enumerate(cmat.coeffs):
                for j0, entry in enumerate(row):
                    for w, c in enumerate(entry):
                        e = (k0 * big_d + w + 1) * r + j0 + 1
                        if c and e <= t_hi:
                            vmask |= 1 << (sigma + e - 1)
        return vmask & full


# -- module-level API ------------------------------------------------------


def solve_ap(inst: APInstance, naive_cutoff: int | None = None) -> BitVector:
    solver = APSolver(inst.pattern, naive_cutoff)
    return solver.solve(inst.u, inst.strings)


def _typed_entry(p, u: BitVector, members, ell: int, label: TypeLabel) -> BitVector:
    solver = APSolver(p)
    for s in members:
        if not (8 * len(s) >= 9 * ell and 4 * len(s) < 5 * ell):
            raise ValueError(f"member length {len(s)} outside [9/8*{ell}, 5/4*{ell})")
        got = classify_type(s, ell)
        if got != label:
            raise ValueError(f"member classified {got.name}, expected {label.name}")
    if u.len != solver.m:
        raise ValueError("bit vector length differs from pattern length")
    fns = {
        TypeLabel.Type1: solver._solve_type1,
        TypeLabel.Type2: solver._solve_type2,
        TypeLabel.Type3: solver._solve_type3,
    }
    return BitVector(solver.m, fns[label](u.mask, list(set(members)), ell))


def solve_type1(p, u: BitVector, members, ell: int) -> BitVector:
    return _typed_entry(p, u, members, ell, TypeLabel.Type1)


def solve_type2(p, u: BitVector, members, ell: int) -> BitVector:
    return _typed_entry(p, u, members, ell, TypeLabel.Type2)


def solve_type3(p, u: BitVector, members, ell: int) -> BitVector:
    return _typed_entry(p, u, members, ell, TypeLabel.Type3)
