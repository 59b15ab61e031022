import math
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsm.text_indexes import (
    TERMINATOR,
    build_anchor_structure,
    build_suffix_tree,
)

source_st = st.text(alphabet="abc", min_size=1, max_size=40)


def naive_occurrences(text: str, q: str) -> list[int]:
    return [i + 1 for i in range(len(text) - len(q) + 1) if text[i : i + len(q)] == q]


def anchor_tries(s: str, anchor: str):
    """The anchor's two tries over s, each with the context spelled by
    the root path of occurrence k's leaf."""
    aux = build_anchor_structure(build_suffix_tree(s), build_suffix_tree(s[::-1]), anchor)
    return aux, (
        (aux.trie_after, lambda k: s[k - 1 + len(anchor) :] + TERMINATOR),
        (aux.trie_before, lambda k: s[: k - 1][::-1] + TERMINATOR),
    )


@st.composite
def source_and_anchor(draw, max_anchor: int = 40):
    s = draw(source_st)
    i = draw(st.integers(0, len(s) - 1))
    j = draw(st.integers(i + 1, min(len(s), i + max_anchor)))
    return s, s[i:j]


class TestSuffixTree:
    def test_rejects_empty_and_terminator(self):
        with pytest.raises(ValueError):
            build_suffix_tree("")
        with pytest.raises(ValueError):
            build_suffix_tree("a" + TERMINATOR)

    @given(source_st, st.data())
    @settings(max_examples=120)
    def test_occurrences_match_naive(self, s, data):
        st_ = build_suffix_tree(s)
        i = data.draw(st.integers(0, len(s) - 1))
        j = data.draw(st.integers(i + 1, len(s)))
        q = s[i:j]
        assert st_.occurrences(q) == naive_occurrences(s, q)
        assert st_.count(q) == len(naive_occurrences(s, q))
        foreign = q + "z"
        assert st_.occurrences(foreign) == [] and st_.count(foreign) == 0

    @given(
        st.one_of(
            st.integers(1, 40).map(lambda m: "a" * m),
            st.integers(1, 20).map(lambda k: "ab" * k),
            st.integers(1, 40).map(lambda m: "a" * (m - 1) + "b"),
            st.sampled_from(["a", "\ue000"]),  # m = 1
            st.text(alphabet="a\ue000\ue001", min_size=1, max_size=40),
        ),
        st.data(),
    )
    @settings(max_examples=150)
    def test_occurrences_and_count_match_naive(self, s, data):
        st_ = build_suffix_tree(s)
        i = data.draw(st.integers(0, len(s) - 1))
        j = data.draw(st.integers(i + 1, len(s)))
        queries = [
            s[i:j],
            s,  # the whole source
            s + s[-1],  # longer than the source
            s[i:j] + "z",  # absent
            s[i:j] + TERMINATOR,  # would match only past the end
        ]
        for q in queries:
            want = naive_occurrences(s, q)
            assert st_.occurrences(q) == want, q
            assert st_.count(q) == len(want), q

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


class TestTreeQueries:
    @given(source_and_anchor())
    @settings(max_examples=100)
    def test_edge_labels_spell_contexts(self, case):
        def spelled(node):
            return node.src[node.off : node.off + node.depth]

        _, tries = anchor_tries(*case)
        for trie, _ in tries:
            for node in trie.nodes:
                if node.parent is not None:
                    assert len(node.edge_label) == node.depth - node.parent.depth
                    assert spelled(node.parent) + node.edge_label == spelled(node)

    @given(source_and_anchor(), st.data())
    @settings(max_examples=100)
    def test_locate_depth_and_misses(self, case, data):
        aux, tries = anchor_tries(*case)
        for trie, context in tries:
            want = context(data.draw(st.sampled_from(aux.occurrences)))
            q = want[: data.draw(st.integers(0, len(want)))]
            node = trie.locate(q)
            assert node is not None
            assert node.depth >= len(q)
            assert node.parent is None or node.parent.depth < len(q)
            assert trie.locate(q + "z") is None

    @given(source_and_anchor(max_anchor=2))
    @settings(max_examples=100)
    def test_heavy_paths_are_logarithmic(self, case):
        _, tries = anchor_tries(*case)
        for trie, _ in tries:
            bound = math.log2(len(trie.nodes)) + 1
            for node in trie.nodes:
                if node.is_leaf():
                    assert len(trie.paths_above(node)) <= bound


class TestAnchorStructure:
    def test_rejects_absent_anchor(self):
        st_ = build_suffix_tree("abcabc")
        st_rev = build_suffix_tree("cbacba")
        with pytest.raises(ValueError):
            build_anchor_structure(st_, st_rev, "zz")

    @given(source_and_anchor())
    @settings(max_examples=80)
    def test_tries_decorated_with_occurrence_contexts(self, case):
        s, anchor = case
        aux, tries = anchor_tries(s, anchor)
        assert aux.occurrences == naive_occurrences(s, anchor)
        # Every occurrence i decorates a leaf of each trie whose root path
        # spells the suffix after (resp. reversed prefix before) it.
        for trie, context in tries:
            leaves = {n.decoration: n for n in trie.nodes if n.is_leaf()}
            assert sorted(leaves) == aux.occurrences
            for k, leaf in leaves.items():
                want = context(k)
                assert leaf.depth == len(want)
                assert trie.locate(want) is leaf
