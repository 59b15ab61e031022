import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsm.text_indexes import (
    TERMINATOR,
    SuffixTree,
    TreeLocus,
    build_anchor_structure,
    build_suffix_tree,
)

source_st = st.text(alphabet="abc", min_size=1, max_size=40)


def naive_occurrences(text: str, q: str) -> list[int]:
    return [i + 1 for i in range(len(text) - len(q) + 1) if text[i : i + len(q)] == q]


def root_path(node):
    out = []
    while node is not None:
        out.append(node)
        node = node.parent
    return out


class TestSuffixTree:
    def test_rejects_empty_and_terminator(self):
        with pytest.raises(ValueError):
            build_suffix_tree("")
        with pytest.raises(ValueError):
            build_suffix_tree("a" + TERMINATOR)

    @given(source_st)
    @settings(max_examples=120)
    def test_leaf_per_suffix(self, s):
        st_ = build_suffix_tree(s)
        starts = sorted(
            node.decoration for node in st_.nodes if node.is_leaf()
        )
        assert starts == list(range(1, len(s) + 2))  # incl. terminator suffix

    @given(source_st, st.data())
    @settings(max_examples=120)
    def test_occurrences_match_naive(self, s, data):
        st_ = build_suffix_tree(s)
        i = data.draw(st.integers(0, len(s) - 1))
        j = data.draw(st.integers(i + 1, len(s)))
        q = s[i:j]
        assert st_.occurrences(q) == naive_occurrences(s, q)
        foreign = q + "z"
        assert st_.occurrences(foreign) == []

    @given(source_st, st.data())
    @settings(max_examples=100)
    def test_locate_depth_and_misses(self, s, data):
        st_ = build_suffix_tree(s)
        i = data.draw(st.integers(0, len(s) - 1))
        j = data.draw(st.integers(i + 1, len(s)))
        q = s[i:j]
        locus = st_.locate(q)
        assert locus is not None
        assert locus.string_depth == len(q)
        assert st_.locate(q + "z") is None

    def test_edge_labels_partition_suffixes(self):
        st_ = build_suffix_tree("banana")
        for node in st_.nodes:
            if node.parent is not None:
                assert len(node.edge_label) == node.depth - node.parent.depth
                lo, hi = node.label_span
                assert node.src[lo:hi] == node.edge_label


class TestTreeQueries:
    @given(source_st, st.data())
    @settings(max_examples=100)
    def test_lca_matches_path_intersection(self, s, data):
        st_ = build_suffix_tree(s)
        leaves = [n for n in st_.nodes if n.is_leaf()]
        u = data.draw(st.sampled_from(leaves))
        v = data.draw(st.sampled_from(leaves))
        got = st_.lca(u, v)
        pu, pv = root_path(u), root_path(v)
        common = [n for n in pu if n in pv]
        want = max(common, key=lambda n: n.depth)
        assert got is want

    @given(source_st)
    @settings(max_examples=100)
    def test_heavy_paths_are_logarithmic(self, s):
        st_ = build_suffix_tree(s)
        bound = math.log2(len(st_.nodes)) + 1
        for node in st_.nodes:
            if node.is_leaf():
                assert st_.heavy_paths_above(node) <= bound

    def test_locus_validation(self):
        st_ = build_suffix_tree("aab")
        with pytest.raises(ValueError):
            TreeLocus(st_.root, -1)


class TestAnchorStructure:
    def test_rejects_absent_anchor(self):
        st_ = build_suffix_tree("abcabc")
        st_rev = build_suffix_tree("cbacba")
        with pytest.raises(ValueError):
            build_anchor_structure(st_, st_rev, "zz")

    @given(source_st, st.data())
    @settings(max_examples=80)
    def test_tries_decorated_with_occurrence_contexts(self, s, data):
        i = data.draw(st.integers(0, len(s) - 1))
        j = data.draw(st.integers(i + 1, len(s)))
        anchor = s[i:j]
        st_ = build_suffix_tree(s)
        st_rev = build_suffix_tree(s[::-1])
        aux = build_anchor_structure(st_, st_rev, anchor)
        assert aux.occurrences == naive_occurrences(s, anchor)
        # Every occurrence i decorates a leaf of each trie whose root path
        # spells the suffix after (resp. reversed prefix before) it.
        for trie, context in (
            (aux.trie_after, lambda k: s[k - 1 + len(anchor) :] + TERMINATOR),
            (aux.trie_before, lambda k: s[: k - 1][::-1] + TERMINATOR),
        ):
            leaves = {n.decoration: n for n in trie.nodes if n.is_leaf()}
            assert sorted(leaves) == aux.occurrences
            for k, leaf in leaves.items():
                want = context(k)
                assert leaf.depth == len(want)
                locus = trie.locate(want)
                assert locus is not None and locus.node is leaf
