"""Suffix trees and compact tries over the pattern.

One suffix array orders everything.  `SuffixTree` builds it by prefix
doubling (Manber-Myers: sort on integer rank pairs, double the
compared length until all ranks differ), takes Kasai's LCP array from
it and compacts the sorted suffixes with a stack.  Anchor tries sort
their contexts by suffix rank and read each neighbour LCP as a range
minimum of the LCP array, so no index holds suffix slices and no tree
needs an LCA structure: memory stays O(m).  Decorations: leaf suffix
starts, string depths and heavy-path heads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "AnchorStructure",
    "CompactTrie",
    "Node",
    "SuffixTree",
    "TreeLocus",
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
        "idx",
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
        self.decoration: Optional[int] = None  # leaf: 1-based suffix/occurrence start
        self.idx = -1
        self.hp_head: Optional[Node] = None
        self.subtree_nodes = 1

    @property
    def edge_label(self) -> str:
        if self.parent is None:
            return ""
        return self.src[self.off + self.parent.depth : self.off + self.depth]

    @property
    def label_span(self) -> tuple[int, int]:
        """(start, end) positions of the edge label within its source."""
        if self.parent is None:
            return (0, 0)
        return (self.off + self.parent.depth, self.off + self.depth)

    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        return f"<Node depth={self.depth} leaf={self.is_leaf()}>"


@dataclass(frozen=True)
class TreeLocus:
    """Position in a tree: `offset` letters above `node` on its edge (0 = at node)."""

    node: Node
    offset: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError("negative locus offset")
        if self.node.parent is not None:
            edge_len = self.node.depth - self.node.parent.depth
            if self.offset >= edge_len and self.offset != 0:
                raise ValueError("locus offset not below the edge's upper node")

    @property
    def string_depth(self) -> int:
        return self.node.depth - self.offset


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
            node.idx = len(self.nodes)
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

    def locate(self, q: str) -> Optional[TreeLocus]:
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
            if take < len(label):
                return TreeLocus(child, len(label) - take)
            cur = child
        return TreeLocus(cur, 0)

    def leaves_under(self, node: Node) -> list[Node]:
        out, stack = [], [node]
        while stack:
            x = stack.pop()
            if x.is_leaf():
                out.append(x)
            else:
                stack.extend(x.children.values())
        return out

    def heavy_paths_above(self, node: Node) -> int:
        count, cur = 0, node
        while cur is not None:
            count += 1
            cur = cur.hp_head.parent
        return count


class SuffixTree(CompactTrie):
    """Compact trie of all suffixes of source + terminator.

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
        items = [(text, start, start + 1) for start in self.sa]
        super().__init__(items, self.lcp)

    def occurrences(self, q: str) -> list[int]:
        """All 1-based start positions of q in the source."""
        locus = self.locate(q)
        if locus is None:
            return []
        starts = [leaf.decoration for leaf in self.leaves_under(locus.node)]
        return sorted(s for s in starts if s + len(q) - 1 <= len(self.source))


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


def build_suffix_tree(s: str) -> SuffixTree:
    return SuffixTree(s)


@dataclass
class AnchorStructure:
    """Per-anchor pair of tries over the contexts of its occurrences."""

    anchor: str
    occurrences: list[int]  # 1-based starts of the anchor in the pattern
    trie_after: CompactTrie  # suffixes following each occurrence, decorated i
    trie_before: CompactTrie  # reversed prefixes preceding each occurrence


def _context_trie(st: SuffixTree, starts: dict[int, int]) -> CompactTrie:
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
    st: SuffixTree, st_rev: SuffixTree, anchor: str
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
