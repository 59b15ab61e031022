import random

import pytest

from edsm.boolean_linalg import BoolMatrix
from edsm.eds_core import BitVector, Pattern, Segment, parse_eds
from edsm.oracles import (
    BudgetExceededError,
    brute_active_states,
    brute_ap,
    brute_edsm,
    brute_triangle,
    naive_bool_multiply,
    oracle_budget,
)

from conftest import random_edstring, random_pattern

EXAMPLE_TEXT = "ATGTA{A,T}C{G,T}CG{TA,TATA,}{TATGC,TTTTA}"


class TestBruteAp:
    def test_published_example(self):
        v = brute_ap(
            Pattern("ababbababab"),
            BitVector.from01("01000100000"),
            ["", "ab", "abb", "ba", "baba"],
        )
        assert v.to01() == "01011101010"

    def test_epsilon_copies_input(self):
        u = BitVector.from01("0101")
        assert brute_ap("abab", u, [""]) == u

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            brute_ap("ab", BitVector(3), ["a"])

    def test_overlong_strings_ignored(self):
        u = BitVector.from01("10")
        assert brute_ap("ab", u, ["bcd"]).to01() == "00"


class TestBruteEdsm:
    def test_published_example(self):
        t = parse_eds(EXAMPLE_TEXT)
        assert brute_edsm("GTAT", t) == [2, 6, 7]

    def test_single_segment_substring(self):
        t = parse_eds("{xGTATx,y}")
        assert brute_edsm("GTAT", t) == [1]

    def test_last_part_must_be_nonempty(self):
        # An occurrence of "ab" fully inside segment 2 must not also be
        # reported at segment 3 via an empty final part.
        t = parse_eds("{a}{b}{c,}")
        assert brute_edsm("ab", t) == [2]

    def test_epsilon_chain_longer_than_pattern(self):
        # The spanning window may exceed m+2 segments through epsilon
        # middles.
        for text in ("{a}{,x}{,x}{,x}{,x}{b}", "{a,c}{,c}{,c}{,c}{,c}{b,c}"):
            assert brute_edsm("ab", parse_eds(text)) == [6], text

    def test_budget_enforced(self):
        t = parse_eds("{aa,ab,ba,bb}" * 8)
        with pytest.raises(BudgetExceededError):
            brute_edsm("abababab", t, budget=50)

    def test_budget_env_default(self):
        assert oracle_budget() >= 1


class TestBruteActiveStates:
    def test_matches_prefix_definition_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(200):
            p = random_pattern(rng, max_m=8)
            t = random_edstring(rng, max_n=5)
            states = brute_active_states(p, t.segments)
            # Recompute by literal enumeration of all window realizations.
            want = [set() for _ in range(t.n)]
            for start in range(t.n):
                frontier = {0}
                for j in range(start, t.n):
                    nxt = set()
                    for pos in frontier:
                        for s in t.segments[j].alternatives:
                            if j == start:
                                # Suffix of the first alternative.
                                for q in range(0, min(len(s), p.m) + 1):
                                    if q == 0 or s.endswith(p.letters[:q]):
                                        nxt.add(q)
                                continue
                            end = pos + len(s)
                            if end <= p.m and p.letters[pos:end] == s:
                                nxt.add(end)
                    frontier = {q for q in nxt if 1 <= q <= p.m}
                    want[j] |= frontier
                    if not frontier:
                        break
            assert states == want


class TestMatrixOracles:
    def test_triangle_detection(self):
        a = BoolMatrix.from_rows([[0, 1], [0, 0]])
        b = BoolMatrix.from_rows([[0, 0], [1, 0]])
        c = BoolMatrix.from_rows([[1, 0], [0, 0]])
        assert brute_triangle(a, b, c)  # (i,j,k) = (1,2,1)
        assert not brute_triangle(a, b, BoolMatrix.zero(2, 2))
        with pytest.raises(ValueError):
            brute_triangle(a, b, BoolMatrix.zero(3, 3))

    def test_naive_multiply_small(self):
        a = BoolMatrix.from_rows([[1, 0], [0, 1]])
        b = BoolMatrix.from_rows([[0, 1], [1, 0]])
        assert naive_bool_multiply(a, b).to_lists() == [[0, 1], [1, 0]]
        with pytest.raises(ValueError):
            naive_bool_multiply(a, BoolMatrix.zero(3, 2))
