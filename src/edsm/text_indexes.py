"""The pattern's suffix array and the anchor tries built from it.

`SuffixArray` is the pattern's only index.  It builds the suffix array
by prefix doubling (Manber-Myers: sort on integer rank pairs, double
the compared length until all ranks differ) and takes Kasai's LCP
array from it.  The occurrences of a string are one rank range, found
by binary search, so counting them is a subtraction.  Anchor tries
(`CompactTrie`) sort the contexts of an anchor's occurrences by suffix
rank and read each neighbour LCP as a range minimum of the LCP array,
so no index holds suffix slices: memory stays O(m).  Trie decorations:
leaf occurrence starts, string depths and heavy-path heads.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "AnchorStructure",
    "CompactTrie",
    "Node",
    "SuffixArray",
    "build_anchor_structure",
    "build_suffix_tree",
]

TERMINATOR = "\x00"  # sorts below every alphabet letter


class Node:
    __slots__ = (
        "parent",
        "depth",
        "children",
        "src",
        "off",
        "decoration",
        "hp_head",
        "subtree_nodes",
    )

    def __init__(self, parent: Optional["Node"], depth: int, src: str, off: int):
        self.parent = parent
        self.depth = depth  # string depth in letters
        self.children: dict[str, Node] = {}
        # Edge label = src[off + parent.depth : off + depth]
        self.src = src
        self.off = off
        self.decoration: Optional[int] = None  # leaf: 1-based occurrence start
        self.hp_head: Optional[Node] = None
        self.subtree_nodes = 1

    @property
    def edge_label(self) -> str:
        if self.parent is None:
            return ""
        return self.src[self.off + self.parent.depth : self.off + self.depth]

    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        return f"<Node depth={self.depth} leaf={self.is_leaf()}>"


class CompactTrie:
    """Compact trie with locate and heavy-path queries."""

    def __init__(self, items: list[tuple[str, int, int]], lcps: list[int]):
        """items: sorted (source, source_offset, decoration); lcps between neighbours."""
        self.root = Node(None, 0, items[0][0] if items else "", 0)
        self.nodes: list[Node] = []
        self._build(items, lcps)
        self._index_nodes()
        self._heavy_paths()

    # -- construction ---------------------------------------------------

    def _build(self, items: list[tuple[str, int, int]], lcps: list[int]) -> None:
        stack = [self.root]
        for pos, (src, off, deco) in enumerate(items):
            length = len(src) - off
            if pos > 0:
                cut = lcps[pos - 1]
                dropped: Optional[Node] = None
                while stack[-1].depth > cut:
                    dropped = stack.pop()
                top = stack[-1]
                if top.depth < cut:
                    assert dropped is not None
                    mid = Node(top, cut, dropped.src, dropped.off)
                    first = dropped.src[dropped.off + top.depth]
                    top.children[first] = mid
                    dropped.parent = mid
                    mid.children[dropped.src[dropped.off + cut]] = dropped
                    stack.append(mid)
            top = stack[-1]
            leaf = Node(top, length, src, off)
            leaf.decoration = deco
            top.children[src[off + top.depth]] = leaf
            stack.append(leaf)

    def _index_nodes(self) -> None:
        self.nodes = []
        order = [self.root]
        while order:
            node = order.pop()
            self.nodes.append(node)
            order.extend(node.children.values())
        for node in reversed(self.nodes):
            if node.parent is not None:
                node.parent.subtree_nodes += node.subtree_nodes

    def _heavy_paths(self) -> None:
        # Heavy child = largest subtree by node count; ties broken by the
        # smallest first edge letter so output is deterministic.  Nodes are
        # in preorder, so each head is set before its children are visited.
        self.root.hp_head = self.root
        for node in self.nodes:
            if not node.children:
                continue
            heavy = min(
                node.children.items(), key=lambda kv: (-kv[1].subtree_nodes, kv[0])
            )[1]
            for child in node.children.values():
                child.hp_head = node.hp_head if child is heavy else child

    # -- queries ---------------------------------------------------------

    def locate(self, q: str) -> Optional[Node]:
        """Highest node whose root path spells q or continues it, if any."""
        cur = self.root
        pos = 0
        while pos < len(q):
            child = cur.children.get(q[pos])
            if child is None:
                return None
            label = child.edge_label
            take = min(len(label), len(q) - pos)
            if label[:take] != q[pos : pos + take]:
                return None
            pos += take
            cur = child
        return cur

    def paths_above(self, node: Node) -> list[tuple[Node, int]]:
        """(head, deepest depth on the path) for every heavy path above node."""
        out = []
        cur = node
        while cur is not None:
            out.append((cur.hp_head, cur.depth))
            cur = cur.hp_head.parent
        return out


class SuffixArray:
    """Suffix array of source + terminator.

    `text` is source + terminator, `sa` its suffix array, `rank` the
    inverse of `sa` and `lcp[r]` the longest common prefix of the
    suffixes at ranks r and r + 1.
    """

    def __init__(self, source: str):
        if not source:
            raise ValueError("empty source string")
        if TERMINATOR in source:
            raise ValueError("source contains the reserved terminator")
        self.source = source
        self.text = text = source + TERMINATOR
        self.sa, self.rank = _suffix_array(text)
        self.lcp = _kasai(text, self.sa, self.rank)

    def _rank_range(self, q: str) -> tuple[int, int]:
        """Ranks [lo, hi) of the suffixes that start with q."""
        if TERMINATOR in q:
            return 0, 0  # would match only across the end of the source
        text, k = self.text, len(q)

        def key(i: int) -> str:
            return text[i : i + k]

        lo = bisect_left(self.sa, q, key=key)
        return lo, bisect_right(self.sa, q, lo, key=key)

    def occurrences(self, q: str) -> list[int]:
        """All 1-based start positions of q in the source."""
        lo, hi = self._rank_range(q)
        return sorted(i + 1 for i in self.sa[lo:hi])

    def count(self, q: str) -> int:
        """Number of occurrences of q in the source."""
        lo, hi = self._rank_range(q)
        return hi - lo


def _suffix_array(text: str) -> tuple[list[int], list[int]]:
    """(sa, rank) by prefix doubling: O(n log^2 n) time, O(n) memory.

    Round k sorts on (rank of the first k letters, rank of the next k),
    -1 past the end.  Initial ranks are code points, so the terminator's
    suffix is the smallest.
    """
    n = len(text)
    rank = [ord(c) for c in text]
    sa = list(range(n))
    k = 1
    while True:
        pairs = [(rank[i], rank[i + k] if i + k < n else -1) for i in range(n)]
        sa.sort(key=pairs.__getitem__)
        rank = [0] * n
        r = 0
        for prev, cur in zip(sa, sa[1:]):
            if pairs[prev] != pairs[cur]:
                r += 1
            rank[cur] = r
        if r == n - 1:
            return sa, rank
        k *= 2


def _kasai(text: str, sa: list[int], rank: list[int]) -> list[int]:
    n = len(text)
    lcp = [0] * max(0, n - 1)
    h = 0
    for i in range(n):
        r = rank[i]
        if r + 1 < n:
            j = sa[r + 1]
            while i + h < n and j + h < n and text[i + h] == text[j + h]:
                h += 1
            lcp[r] = h
            if h:
                h -= 1
        else:
            h = 0
    return lcp


def build_suffix_tree(s: str) -> SuffixArray:
    return SuffixArray(s)


@dataclass
class AnchorStructure:
    """Per-anchor pair of tries over the contexts of its occurrences."""

    anchor: str
    occurrences: list[int]  # 1-based starts of the anchor in the pattern
    trie_after: CompactTrie  # suffixes following each occurrence, decorated i
    trie_before: CompactTrie  # reversed prefixes preceding each occurrence


def _context_trie(st: SuffixArray, starts: dict[int, int]) -> CompactTrie:
    """Trie of the suffixes of st's text at `starts` (0-based start -> decoration).

    Sorted by rank; the LCP of rank neighbours a < b is min(lcp[a:b]),
    and the ranges of successive neighbours do not overlap, so the LCPs
    cost O(m) in all.
    """
    order = sorted(starts, key=st.rank.__getitem__)
    ranks = [st.rank[start0] for start0 in order]
    lcps = [min(st.lcp[a:b]) for a, b in zip(ranks, ranks[1:])]
    return CompactTrie([(st.text, start0, starts[start0]) for start0 in order], lcps)


def build_anchor_structure(
    st: SuffixArray, st_rev: SuffixArray, anchor: str
) -> AnchorStructure:
    occs = st.occurrences(anchor)
    if not occs:
        raise ValueError("anchor does not occur in the pattern")
    m = len(st.source)
    # T(H): suffix of P starting right after each occurrence, with terminator.
    trie_after = _context_trie(st, {i + len(anchor) - 1: i for i in occs})
    # T^r(H): reversed prefix P[1..i-1] reversed = suffix of reversed P.
    trie_before = _context_trie(st_rev, {m - (i - 1): i for i in occs})
    return AnchorStructure(anchor, occs, trie_after, trie_before)
