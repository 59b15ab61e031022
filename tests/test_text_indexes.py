import math
import os
import random
import tracemalloc

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

    @given(
        st.one_of(
            source_st,
            st.integers(1, 40).map(lambda m: "a" * m),
            st.integers(1, 20).map(lambda k: "ab" * k),
            st.integers(1, 40).map(lambda m: "a" * (m - 1) + "b"),
            st.text(alphabet="a\ue000\ue001", min_size=1, max_size=40),
        )
    )
    @settings(max_examples=150)
    def test_suffix_array_and_lcp_match_naive(self, s):
        st_ = build_suffix_tree(s)
        text = s + TERMINATOR
        n = len(text)
        assert st_.sa == sorted(range(n), key=lambda i: text[i:])
        assert [st_.rank[i] for i in st_.sa] == list(range(n))
        for r in range(n - 1):
            pair = [text[st_.sa[r] :], text[st_.sa[r + 1] :]]
            assert st_.lcp[r] == len(os.path.commonprefix(pair))

    def test_build_memory_is_linear(self):
        # A slice-keyed sort holds about m^2/2 letters here (about 33 MiB).
        tracemalloc.start()
        try:
            build_suffix_tree("a" * 8191 + "b")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_edge_labels_partition_suffixes(self):
        st_ = build_suffix_tree("banana")
        for node in st_.nodes:
            if node.parent is not None:
                assert len(node.edge_label) == node.depth - node.parent.depth
                lo, hi = node.label_span
                assert node.src[lo:hi] == node.edge_label


class TestTreeQueries:
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
