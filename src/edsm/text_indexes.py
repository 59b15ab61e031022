"""Suffix trees and compact tries over the pattern.

Trees are built by sorting suffixes, computing longest-common-prefix
values (Kasai for the suffix tree, LCA lookups for derived tries) and
compacting with a stack.  Decorations: leaf suffix starts, string
depths, heavy-path heads and Euler-tour LCA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

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
    """Compact trie with locate, LCA and heavy-path queries."""

    def __init__(self, items: list[tuple[str, int, int]], lcps: list[int]):
        """items: sorted (source, source_offset, decoration); lcps between neighbours."""
        self.root = Node(None, 0, items[0][0] if items else "", 0)
        self.nodes: list[Node] = []
        self._build(items, lcps)
        self._index_nodes()
        self._heavy_paths()
        self._prepare_lca()

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
        # smallest first edge letter so output is deterministic.
        for node in self.nodes:
            if node.parent is None:
                node.hp_head = node
        for node in sorted(self.nodes, key=lambda n: n.depth):
            if not node.children:
                continue
            heavy = min(
                node.children.items(), key=lambda kv: (-kv[1].subtree_nodes, kv[0])
            )[1]
            for child in node.children.values():
                child.hp_head = node.hp_head if child is heavy else child

    def _prepare_lca(self) -> None:
        tour: list[Node] = []
        first = [-1] * len(self.nodes)
        stack: list[tuple[Node, Iterator[Node]]] = [
            (self.root, iter(self.root.children.values()))
        ]
        level = {self.root.idx: 0}
        tour.append(self.root)
        first[self.root.idx] = 0
        while stack:
            node, it = stack[-1]
            child = next(it, None)
            if child is None:
                stack.pop()
                if stack:
                    tour.append(stack[-1][0])
                continue
            level[child.idx] = level[node.idx] + 1
            if first[child.idx] < 0:
                first[child.idx] = len(tour)
            tour.append(child)
            stack.append((child, iter(child.children.values())))
        self._tour = tour
        self._first = first
        self._level = level
        n = len(tour)
        logs = [0] * (n + 1)
        for i in range(2, n + 1):
            logs[i] = logs[i // 2] + 1
        self._logs = logs
        table = [list(range(n))]
        k = 1
        while (1 << k) <= n:
            prev = table[-1]
            row = []
            half = 1 << (k - 1)
            for i in range(n - (1 << k) + 1):
                a, b = prev[i], prev[i + half]
                row.append(a if level[tour[a].idx] <= level[tour[b].idx] else b)
            table.append(row)
            k += 1
        self._sparse = table

    # -- queries ---------------------------------------------------------

    def lca(self, u: Node, v: Node) -> Node:
        if self.nodes[u.idx] is not u or self.nodes[v.idx] is not v:
            raise ValueError("node does not belong to this tree")
        a, b = self._first[u.idx], self._first[v.idx]
        if a > b:
            a, b = b, a
        k = self._logs[b - a + 1]
        x = self._sparse[k][a]
        y = self._sparse[k][b - (1 << k) + 1]
        best = x if self._level[self._tour[x].idx] <= self._level[self._tour[y].idx] else y
        return self._tour[best]

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
    """Compact trie of all suffixes of source + terminator."""

    def __init__(self, source: str):
        if not source:
            raise ValueError("empty source string")
        if TERMINATOR in source:
            raise ValueError("source contains the reserved terminator")
        self.source = source
        text = source + TERMINATOR
        n = len(text)
        sa = sorted(range(n), key=lambda i: text[i:])
        lcp = _kasai(text, sa)
        items = [(text, start, start + 1) for start in sa]
        super().__init__(items, lcp)
        self.leaf_by_start: dict[int, Node] = {
            node.decoration: node for node in self.nodes if node.is_leaf()
        }

    def occurrences(self, q: str) -> list[int]:
        """All 1-based start positions of q in the source."""
        locus = self.locate(q)
        if locus is None:
            return []
        starts = [leaf.decoration for leaf in self.leaves_under(locus.node)]
        return sorted(s for s in starts if s + len(q) - 1 <= len(self.source))


def _kasai(text: str, sa: list[int]) -> list[int]:
    n = len(text)
    rank = [0] * n
    for r, s in enumerate(sa):
        rank[s] = r
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


def build_anchor_structure(
    st: SuffixTree, st_rev: SuffixTree, anchor: str
) -> AnchorStructure:
    occs = st.occurrences(anchor)
    if not occs:
        raise ValueError("anchor does not occur in the pattern")
    m = len(st.source)
    fwd_text = st.source + TERMINATOR
    rev_text = st_rev.source + TERMINATOR

    # T(H): suffix of P starting right after each occurrence, with terminator.
    fwd_items = []
    for i in occs:
        start0 = i + len(anchor) - 1  # 0-based start in fwd_text
        leaf = st.leaf_by_start[start0 + 1]
        fwd_items.append((start0, i, leaf))
    fwd_items.sort(key=lambda t: fwd_text[t[0] :])
    fwd_lcps = [
        st.lca(fwd_items[k][2], fwd_items[k + 1][2]).depth
        for k in range(len(fwd_items) - 1)
    ]
    trie_after = CompactTrie(
        [(fwd_text, start0, i) for start0, i, _ in fwd_items], fwd_lcps
    )

    # T^r(H): reversed prefix P[1..i-1] reversed = suffix of reversed P.
    rev_items = []
    for i in occs:
        start0 = m - (i - 1)  # 0-based start in rev_text
        leaf = st_rev.leaf_by_start[start0 + 1]
        rev_items.append((start0, i, leaf))
    rev_items.sort(key=lambda t: rev_text[t[0] :])
    rev_lcps = [
        st_rev.lca(rev_items[k][2], rev_items[k + 1][2]).depth
        for k in range(len(rev_items) - 1)
    ]
    trie_before = CompactTrie(
        [(rev_text, start0, i) for start0, i, _ in rev_items], rev_lcps
    )

    return AnchorStructure(anchor, occs, trie_after, trie_before)
