import functools
import itertools
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsm import ap_engine, edsm_engine, stringology
from edsm.ap_engine import OCC_CACHE_BYTES, occ_mask
from edsm.boolean_linalg import BoolMatrix
from edsm.eds_core import BitVector, EDString, Pattern, Segment, parse_eds
from edsm.edsm_engine import (BORDER_SCAN_BUDGET, OVERLAP_MASK_MAX, EDSMEngine,
                               MatchReport, search)
from edsm.oracles import brute_active_states, brute_edsm
from edsm.reductions import TDInstance, td_to_edsm
from edsm.stringology import border_array

from conftest import random_edstring, random_pattern

EXAMPLE_TEXT = "ATGTA{A,T}C{G,T}CG{TA,TATA,}{TATGC,TTTTA}"


class TestMatchReport:
    def test_positions_must_be_sorted_unique(self):
        MatchReport((1, 2, 5), 5, 10)
        with pytest.raises(ValueError):
            MatchReport((2, 1), 5, 10)
        with pytest.raises(ValueError):
            MatchReport((1, 1), 5, 10)


class TestGolden:
    def test_published_example(self):
        report = search("GTAT", parse_eds(EXAMPLE_TEXT))
        assert report.positions == (2, 6, 7)
        assert (report.n, report.N) == (7, 28)


class TestEngineSemantics:
    def test_single_segment_occurrence(self):
        assert search("ab", parse_eds("{xaby,z}")).positions == (1,)

    def test_spanning_needs_nonempty_final_part(self):
        report = search("ab", parse_eds("{a}{b}{c,}"))
        assert report.positions == (2,)

    def test_epsilon_segments_carry_state(self):
        report = search("ab", parse_eds("{a}{,x}{,x}{,x}{b}"))
        assert report.positions == (5,)

    def test_full_pattern_as_alternative_keeps_state(self):
        # An alternative ending with the whole pattern both reports and
        # leaves prefix m active for a following extension by epsilon.
        report = search("ab", parse_eds("{ab}{,q}"))
        assert report.positions == (1,)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            EDSMEngine("ab").search(iter(()))

    def test_state_carries_an_int_and_shows_a_bit_vector(self):
        engine = EDSMEngine("aba")
        state = engine.new_state()
        assert state.u == BitVector(3)
        state = engine.process_segment(state, Segment(frozenset({"xab", "a"})), 1)
        assert type(state.mask) is int
        assert state.u == BitVector(3, 0b011)

    def test_online_processing_is_incremental(self):
        engine = EDSMEngine("aba")
        state = engine.new_state()
        segs = parse_eds("{ab}{a,b}{ba,}").segments
        for j, seg in enumerate(segs, 1):
            state = engine.process_segment(state, seg, j)
        assert sorted(state.reported) == [2, 3]
        assert search("aba", parse_eds("{ab}{a,b}{ba,}")).positions == (2, 3)


class TestDifferential:
    def test_against_window_oracle(self):
        rng = random.Random(21)
        for _ in range(800):
            p = random_pattern(rng, max_m=10)
            t = random_edstring(rng, max_n=7)
            want = tuple(brute_edsm(p, t))
            assert search(p, t).positions == want

    def test_state_matches_prefix_recursion(self):
        rng = random.Random(22)
        for _ in range(300):
            p = random_pattern(rng, max_m=8)
            t = random_edstring(rng, max_n=6)
            engine = EDSMEngine(p)
            state = engine.new_state()
            got_states = []
            for j, seg in enumerate(t.segments, 1):
                state = engine.process_segment(state, seg, j)
                got_states.append(set(state.u.ones()))
            assert got_states == brute_active_states(p, t.segments)

    @pytest.mark.parametrize("cutoff", [None, 23])
    def test_state_matches_prefix_recursion_long_patterns(self, cutoff):
        # m >= 24, so that naive_cutoff=23 sends members through the
        # classed type-1/2/3 route, next to the default kernel.
        rng = random.Random(24)
        for _ in range(30):
            m = rng.randint(24, 120)
            # Periodic, a periodic run between aperiodic flanks, or random.
            root = "".join(rng.choice("ab") for _ in range(rng.randint(1, 5)))
            flank = "".join(rng.choice("ab") for _ in range(m))
            kind = rng.randrange(3)
            if kind == 0:
                letters = (root * m)[:m]
            elif kind == 1:
                letters = (flank[:8] + root * m)[: m - 8] + flank[-8:]
            else:
                letters = flank
            # Plant P across consecutive segments, cut at random points,
            # beside substrings of P of every length up to m + 1.
            cuts = sorted(rng.sample(range(1, m), rng.randint(1, 4)))
            pieces = [letters[a:b] for a, b in zip([0, *cuts], [*cuts, m])]
            pieces[0] = "".join(rng.choice("ab") for _ in range(3)) + pieces[0]
            segs = []
            for piece in pieces:
                alts = {piece}
                for _ in range(rng.randint(0, 3)):
                    length = rng.randint(1, m + 1)
                    start = rng.randrange(max(1, m - length + 1))
                    alts.add(letters[start : start + length])
                if rng.random() < 0.3:
                    alts.add("")
                segs.append(Segment(frozenset(alts)))
            engine = EDSMEngine(letters, naive_cutoff=cutoff)
            state = engine.new_state()
            got_states = []
            for j, seg in enumerate(segs, 1):
                state = engine.process_segment(state, seg, j)
                got_states.append(set(state.u.ones()))
            assert got_states == brute_active_states(letters, segs)

    def test_long_patterns_exercise_fast_ap(self):
        rng = random.Random(23)
        for _ in range(25):
            m = rng.randint(60, 120)
            letters = "".join(rng.choice("ab") for _ in range(m))
            segs = []
            for _ in range(rng.randint(2, 5)):
                alts = set()
                for _ in range(rng.randint(1, 3)):
                    length = rng.randint(1, m - 1)
                    start = rng.randrange(m - length + 1)
                    alts.add(letters[start : start + length])
                if rng.random() < 0.3:
                    alts.add("")
                segs.append(Segment(frozenset(alts)))
            t = EDString(tuple(segs))
            engine = EDSMEngine(letters, naive_cutoff=23)
            got = engine.search(t.segments).positions
            assert got == tuple(brute_edsm(letters, t))


# Patterns for the bounded-scan tests: a^m, (ab)^k, a^(m-1)b, m = 1 (so the
# END window s[:m-1] is empty), a tagged U+E000 letter, and m >= 24 so that
# naive_cutoff=23 reaches the classed route.
BOUNDED_PATTERNS = ["aaaaaa", "abababab", "aaaaab", "a", "b", "a\ue000ab\ue000a",
                    "a" * 24, "ab" * 13, "a" * 25 + "b"]


def _alternatives(rng: random.Random, p: str) -> list[str]:
    """Alternatives of length m-1, m, m+1, 2m and 3m+k around p."""
    m = len(p)
    letters = sorted(set(p) | {"a", "b"})

    def fill(n: int) -> str:
        kind = rng.randrange(3)
        if kind == 0:
            return "".join(rng.choice(letters) for _ in range(n))
        if kind == 1:
            return "a" * n
        return (p * (n // m + 1))[:n]

    k = rng.randint(1, 3)
    r = rng.randint(1, m)
    return [
        fill(m - 1), fill(m), fill(m + 1), fill(2 * m), fill(3 * m + k),
        p, p[:-1], p[1:], p[: m - 1] + p[-1:] * 2,
        p + fill(2 * m + k), fill(m) + p + fill(m + k), fill(2 * m + k) + p,
        fill(2 * m + k) + p[:r], p[m - r :] + fill(2 * m + k),
    ]


class TestBoundedScans:
    @pytest.mark.parametrize("cutoff", [None, 23])
    @pytest.mark.parametrize("eps", [False, True])
    @pytest.mark.parametrize("p", BOUNDED_PATTERNS)
    def test_long_alternatives_match_oracles(self, p, eps, cutoff):
        rng = random.Random(f"{p}/{eps}/{cutoff}")
        for _ in range(12):
            pool = [s for s in _alternatives(rng, p) if s]
            segs = []
            for _ in range(rng.randint(2, 6)):
                alts = set(rng.sample(pool, rng.randint(1, 3)))
                if eps and rng.random() < 0.5:
                    alts.add("")
                segs.append(Segment(frozenset(alts)))
            t = EDString(tuple(segs))
            engine = EDSMEngine(p, naive_cutoff=cutoff)
            state = engine.new_state()
            got_states = []
            for j, seg in enumerate(segs, 1):
                state = engine.process_segment(state, seg, j)
                got_states.append(set(state.u.ones()))
            assert got_states == brute_active_states(p, segs)
            assert tuple(sorted(state.reported)) == tuple(brute_edsm(p, t))

    def test_kmp_reads_at_most_m_letters(self, monkeypatch):
        rng = random.Random(25)
        m = 32
        p = "".join(rng.choice("ab") for _ in range(m))
        body = "".join(rng.choice("ab") for _ in range(10**5))
        assert p not in body
        # Prefix 10 is active before the first long alternative, which
        # completes it (END) and ends with a prefix of P (START) of 12
        # letters, so both take the long route; the second one contains P
        # (FULL).
        segs = [Segment(frozenset({p[:10]})),
                Segment(frozenset({p[10:] + body + p[:12], "ab"})),
                Segment(frozenset({body[:50_000] + p + body[50_000:]}))]
        scanned = []
        kmp_read = []
        scan = edsm_engine._longest_suffix_prefix
        kmp_state = edsm_engine._kmp_state

        def recording_scan(t, pf):
            scanned.append(len(t))
            return scan(t, pf)

        def recording_kmp(t, pf):
            kmp_read.append(len(t))
            return kmp_state(t, pf)

        monkeypatch.setattr(edsm_engine, "_longest_suffix_prefix", recording_scan)
        monkeypatch.setattr(edsm_engine, "_kmp_state", recording_kmp)
        report = search(p, EDString(tuple(segs)))
        assert report.positions == (2, 3)
        assert scanned and max(scanned) <= m
        assert {m, m - 1} <= set(scanned)
        assert max(kmp_read, default=0) <= m


# Pattern families for the START/END scan: a^m, (ab)^k, a^(m-1)b, a^8 b
# then random letters, a periodic run then random letters, and random
# letters with a tagged U+E000 symbol.
def _scan_pattern(kind: str, m: int, rng: random.Random) -> str:
    if kind == "a":
        return "a" * m
    if kind == "ab":
        return ("ab" * m)[:m]
    if kind == "a..ab":
        return "a" * (m - 1) + "b"
    if kind == "a8b":
        return ("a" * 8 + "b" + "".join(rng.choice("ab") for _ in range(m)))[:m]
    if kind == "run":
        root = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        rest = "".join(rng.choice("abc") for _ in range(m))
        return ((root * m)[: rng.randint(0, m)] + rest)[:m]
    return "".join(rng.choice("ab\ue000") for _ in range(m))


# Text families: the periodic ones put a start that holds pat[:8] at
# every period; (a^8 c)^k puts one every 9 letters, each failing after 8,
# which piles up failed starts until the KMP fallback answers.
def _scan_text(kind: str, n: int, p: str, rng: random.Random) -> str:
    if kind == "a":
        return "a" * n
    if kind == "ab":
        return ("ab" * n)[:n]
    if kind == "a8c":
        return (("a" * 8 + "c") * n)[rng.randrange(9) :][:n]
    if kind == "periodic":
        root = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        t = list((root * n)[:n])
        if t and rng.random() < 0.5:
            t[rng.randrange(n)] = rng.choice("abc")
        return "".join(t)
    if kind == "ends-with-prefix":
        q = rng.randint(0, n)
        return "".join(rng.choice("ab\ue000") for _ in range(n - q)) + p[:q]
    if kind == "rotation":
        shift = rng.randrange(len(p))
        return ((p * 3)[shift:] * 2)[:n]
    if kind == "inside":
        k = rng.randrange(len(p) - n + 1)
        return p[k : k + n]
    return "".join(rng.choice("ab\ue000") for _ in range(n))


def _suffix_prefix(t: str, p: str) -> int:
    """The longest suffix of t that is a prefix of p, by its definition."""
    return max(q for q in range(min(len(t), len(p)) + 1) if t.endswith(p[:q]))


SCAN_PATTERNS = ["a", "ab", "a..ab", "a8b", "run", "random"]
SCAN_TEXTS = ["a", "ab", "a8c", "periodic", "ends-with-prefix", "rotation", "random"]


class TestSuffixPrefixScan:
    @given(st.sampled_from(SCAN_PATTERNS), st.integers(1, 90),
           st.sampled_from(SCAN_TEXTS), st.integers(0, 2**32))
    @settings(max_examples=500, deadline=None)
    def test_matches_kmp(self, pkind, m, tkind, seed):
        rng = random.Random(seed)
        p = _scan_pattern(pkind, m, rng)
        for n in sorted({1, 7, 8, m - 1, m, rng.randint(0, m)}):
            if 0 <= n <= m:
                t = _scan_text(tkind, n, p, rng)
                want = _suffix_prefix(t, p)
                got = edsm_engine._longest_suffix_prefix(t, edsm_engine._BorderStore(p))
                assert got == want, (p, t)
                assert edsm_engine._kmp_state(t, edsm_engine._BorderStore(p)) == want
        # The reversed scan, as END runs it.
        rev = p[::-1]
        t = _scan_text(tkind, m - 1, p, rng)[::-1]
        assert edsm_engine._longest_suffix_prefix(t, edsm_engine._BorderStore(rev)) == \
            _suffix_prefix(t, rev)

    @given(st.sampled_from(SCAN_PATTERNS), st.integers(1, 60), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_border_runs_spell_the_border_chain(self, pkind, m, seed):
        rng = random.Random(seed)
        p = _scan_pattern(pkind, m, rng)
        root = "".join(rng.choice("ab") for _ in range(rng.randint(1, 5)))
        for q in (p, (root * m)[: m // 2] + p[m // 2 :]):
            pf = border_array(q)
            for i in range(m + 1):
                chain = []
                j = i
                while j:
                    chain.append(j)
                    j = pf[j - 1]
                runs = [low + k * d for low, d, count in edsm_engine._border_runs(i, pf)
                        for k in range(count)]
                assert sorted(runs, reverse=True) == chain

    def test_fallback_only_when_failed_starts_pile_up(self, monkeypatch):
        calls = []
        kmp_state = edsm_engine._kmp_state

        def counting(t, pf):
            calls.append(len(t))
            return kmp_state(t, pf)

        monkeypatch.setattr(edsm_engine, "_kmp_state", counting)
        scan = edsm_engine._longest_suffix_prefix
        m = 128
        p = "a" * 8 + "b" + "a" * (m - 9)
        pf = edsm_engine._BorderStore(p)
        # Every start of a^m holds a^8 and fails after 8 letters; one jump
        # over the periodic stretch passes them all.
        assert scan("a" * m, pf) == 8 == _suffix_prefix("a" * m, p)
        rng = random.Random(28)
        q = "".join(rng.choice("ab") for _ in range(m))
        for n in (8, 20, m - 1, m):
            t = "".join(rng.choice("ab") for _ in range(n - 12)) + q[:12]
            assert scan(t, edsm_engine._BorderStore(q)) == _suffix_prefix(t, q) >= 12
        assert calls == []
        # (a^8 c)^k: a failed start every 9 letters, no period to jump.
        t = ("a" * 8 + "c") * 14 + "aa"
        assert scan(t, pf) == 2
        assert len(calls) == 1


def _short_suffix(t: str, p: str) -> int:
    """The longest suffix of t under 8 letters that is a prefix of p, by
    the compiled search of p's border store, which _suffix_prefix_search
    and START (END, on the reversed store) share."""
    hit = edsm_engine._BorderStore(p).search(t, len(t) - 7)
    return len(t) - hit.start() if hit else 0


class TestShortSuffixes:
    @given(st.sampled_from(["a", "ab", "random", "meta"]), st.sampled_from([1, 2, 7, 8, 9, 64]),
           st.sampled_from(SCAN_TEXTS), st.integers(0, 2**32))
    @settings(max_examples=400, deadline=None)
    def test_compiled_search_matches_kmp(self, pkind, m, tkind, seed):
        # meta: letters that re would read as syntax unless escaped.
        rng = random.Random(seed)
        if pkind == "meta":
            p = "".join(rng.choice(".*+?()[]{}|^$\\\n\0a") for _ in range(m))
        else:
            p = _scan_pattern(pkind, m, rng)
        for n in range(8):
            t = p[:n] if pkind == "meta" else _scan_text(tkind, n, p, rng)
            if pkind == "meta" and rng.random() < 0.5:
                t = "".join(rng.choice(p + "x") for _ in range(n))
            want = _suffix_prefix(t, p)
            assert _short_suffix(t, p) == want, (p, t)
            if n <= m:  # the KMP loop and the full search take |t| <= |p|
                assert edsm_engine._kmp_state(t, edsm_engine._BorderStore(p)) == want
                assert edsm_engine._suffix_prefix_search(t, edsm_engine._BorderStore(p)) == want

    @pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 64])
    @pytest.mark.parametrize("pkind", ["a", "ab", "random"])
    def test_memoized_start_end_masks(self, pkind, m):
        # Long alternatives that end with P[:q] and start with P's last q
        # letters, for every q < 8, fill both memos; each entry equals a
        # fresh build from P's border chain, and each record the
        # definition of START and END.
        rng = random.Random(f"{pkind}/{m}")
        p = _scan_pattern(pkind, m, rng)
        engine = EDSMEngine(p)
        segs = [Segment(frozenset({p}))]  # U = {m} from here on
        for q in range(8):
            for _ in range(3):
                junk = "".join(rng.choice("abc\ue000") for _ in range(m + rng.randint(0, 9)))
                segs.append(Segment(frozenset({junk + p[:q], p[m - q :] + junk if q < m else junk})))
        state = engine.new_state()
        got = []
        for j, seg in enumerate(segs, 1):
            state = engine.process_segment(state, seg, j)
            got.append(set(state.u.ones()))
            for s in seg.alternatives:
                rec = engine._records.get(s)
                if not isinstance(rec, edsm_engine._Record):
                    continue
                tail = s[-m:]
                assert rec.start == sum(1 << (b - 1) for b in range(1, m + 1)
                                        if tail.endswith(p[:b]))
                if rec.end is not None:
                    assert rec.end == sum(1 << (m - q - 1) for q in range(1, m)
                                          if s.startswith(p[m - q :]))
        assert got == brute_active_states(p, segs)
        assert len(engine._starts) <= 8 and len(engine._ends) <= 8
        assert set(range(min(m, 7) + 1)) <= engine._starts.keys()
        assert set(range(min(m - 1, 7) + 1)) <= engine._ends.keys()
        pf, pf_rev = border_array(p), border_array(p[::-1])
        for q, start in engine._starts.items():
            assert start == sum(edsm_engine._spaced_bits(d, count) << (low - 1)
                                for low, d, count in edsm_engine._border_runs(q, pf))
        for q, end in engine._ends.items():
            assert end == sum(edsm_engine._spaced_bits(d, count) << (m - low - 1 - (count - 1) * d)
                              for low, d, count in edsm_engine._border_runs(q, pf_rev))


def _fibonacci(m: int) -> str:
    a, b = "b", "a"
    while len(b) < m:
        a, b = b, b + a
    return b[:m]


@functools.cache
def _td_pattern() -> str:
    """The td_to_edsm pattern of a seeded n = 32, s = 8 instance:
    32 768 private-use letters."""
    rng = random.Random(7)
    a, b, c = (
        BoolMatrix.from_rows([[int(rng.random() < 0.2) for _ in range(32)]
                              for _ in range(32)])
        for _ in range(3)
    )
    return td_to_edsm(TDInstance(a, b, c, 8))[0].letters


# Pattern families for the border store: a^m, (ab)^k, (aab)^k c,
# a^k b a^k, Fibonacci words, random binary, random ACGT, (ACGT)^k with
# one letter changed followed by u^k for a random 40-letter u, and the
# pattern of a triangle-detection instance.
def _border_pattern(kind: str, m: int, rng: random.Random) -> str:
    if kind == "a":
        return "a" * m
    if kind == "ab":
        return ("ab" * m)[:m]
    if kind == "aab":
        return ("aab" * m)[: m - 1] + "c"
    if kind == "aba":
        return "a" * (m // 2) + "b" + "a" * (m - m // 2 - 1)
    if kind == "fib":
        return _fibonacci(m)
    if kind == "tandem":
        half = m // 2
        acgt = list(("ACGT" * m)[:half])
        if acgt:
            i = rng.randrange(half)
            acgt[i] = "A" if acgt[i] == "T" else "T"
        u = "".join(rng.choice("ACGT") for _ in range(40))
        return "".join(acgt) + (u * (m // 40 + 1))[: m - half]
    if kind == "td":
        return _td_pattern()[:m]
    return "".join(rng.choice("ab" if kind == "binary" else "ACGT") for _ in range(m))


BORDER_PATTERNS = ["a", "ab", "aab", "aba", "fib", "binary", "acgt", "tandem", "td"]


def _read_order(m: int, order: str, rng: random.Random) -> list[int]:
    idx = list(range(m))
    if order == "descending":
        idx.reverse()
    elif order == "random":
        rng.shuffle(idx)
    return idx


class TestBorderStore:
    @given(st.sampled_from(BORDER_PATTERNS), st.integers(1, 400),
           st.sampled_from(["random", "descending"]), st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_reads_equal_border_array(self, kind, m, order, seed):
        rng = random.Random(seed)
        p = _border_pattern(kind, m, rng)
        store = edsm_engine._BorderStore(p)
        want = border_array(p)
        for i in _read_order(m, order, rng):
            assert store[i] == want[i], (p, i)

    @pytest.mark.parametrize("order", ["random", "descending", "ascending"])
    @pytest.mark.parametrize("kind", BORDER_PATTERNS)
    def test_long_patterns_at_the_default_recursion_limit(self, kind, order):
        assert sys.getrecursionlimit() <= 1000
        rng = random.Random(f"{kind}/{order}")
        m = 20_000
        p = _border_pattern(kind, m, rng)
        store = edsm_engine._BorderStore(p)
        want = border_array(p)
        for i in _read_order(m, order, rng):
            assert store[i] == want[i]

    @pytest.mark.parametrize("kind", BORDER_PATTERNS)
    def test_queries_scan_at_most_the_budget(self, kind, monkeypatch):
        rng = random.Random(kind)
        m = 3000
        p = _border_pattern(kind, m, rng)
        scanned = []
        scan = edsm_engine._suffix_prefix_search

        def counting(t, pf):
            if pf.p is p:
                scanned.append(len(t))
            return scan(t, pf)

        monkeypatch.setattr(edsm_engine, "_suffix_prefix_search", counting)
        store = edsm_engine._BorderStore(p)
        want = border_array(p)
        for i in _read_order(m, "descending", rng):
            assert store[i] == want[i]
        assert sum(scanned) <= BORDER_SCAN_BUDGET * m
        # The search answered few reads; KMP passes stored the rest.
        assert len(scanned) < m // 10 and len(store) == m

    def test_ascending_reads_fill_through_the_entry_read(self, monkeypatch):
        # Where the search for entry i gives up, one KMP pass stores the
        # entries through i; no second KMP pass over P[1:i+1] answers it.
        p = _fibonacci(20_000)
        passes = []
        kmp_state = edsm_engine._kmp_state

        def recording(t, pf):
            if pf.p is p and p.startswith(t, 1):
                passes.append(len(t))
            return kmp_state(t, pf)

        monkeypatch.setattr(edsm_engine, "_kmp_state", recording)
        store = edsm_engine._BorderStore(p)
        assert [store[i] for i in range(len(p))] == border_array(p)
        assert passes == []

    def test_engine_builds_no_border_array(self, monkeypatch):
        def refuse(s):
            raise AssertionError("border_array called")

        monkeypatch.setattr(stringology, "border_array", refuse)
        monkeypatch.setattr(edsm_engine, "border_array", refuse, raising=False)
        rng = random.Random(34)
        p = "".join(rng.choice("ACGT") for _ in range(1 << 16))
        engine = EDSMEngine(p)
        assert len(engine.pf) == len(engine.pf_rev) == 1
        segs = [Segment(frozenset({p[:100], "AC"})), Segment(frozenset({p[100:]}))]
        assert engine.search(segs).positions == (2,)
        assert len(engine.pf) + len(engine.pf_rev) < 100


def _count_occ_masks(monkeypatch) -> list[str]:
    """Count calls of the solver's occurrence-mask search."""
    calls: list[str] = []
    occ_mask = ap_engine.occ_mask

    def counting(p, s):
        calls.append(s)
        return occ_mask(p, s)

    monkeypatch.setattr(ap_engine, "occ_mask", counting)
    return calls


def _states(engine: EDSMEngine, segs) -> tuple[list[set[int]], tuple[int, ...]]:
    state = engine.new_state()
    got = []
    for j, seg in enumerate(segs, 1):
        state = engine.process_segment(state, seg, j)
        got.append(set(state.u.ones()))
    return got, tuple(sorted(state.reported))


class TestAlternativeRecords:
    @pytest.mark.parametrize("cutoff", [None, 23])
    def test_states_when_an_alternative_meets_u_once_twice_thrice(self, cutoff, monkeypatch):
        # s = P[k:k+L] is the only alternative that repeats.  Up to
        # OVERLAP_MASK_MAX letters it takes its overlap mask and no
        # occ(s); a longer s extends per active bit on its first meeting
        # with U != 0, later through the solver's occ(s), computed once; with
        # naive_cutoff=23 an s longer than 23 takes the classed route and
        # no mask at all.
        calls = _count_occ_masks(monkeypatch)
        rng = random.Random(26)
        routes = set()
        for trial in range(24):
            m = rng.randint(30, 60)
            p = "".join(rng.choice("ab") for _ in range(m))
            length = rng.randint(1, m - 2) if trial % 2 else rng.randint(24, m - 2)
            k = rng.randint(1, m - length - 1)
            s = p[k : k + length]
            if s in (p[:k], p[k + length :]):
                continue  # s must appear only where it is planted
            segs = []
            for meeting in range(3):
                decoy = "".join(rng.choice("ab") for _ in range(rng.randint(1, m + 4)))
                segs += [Segment(frozenset({p[:k], "c" * (meeting + 1)})),
                         Segment(frozenset({s, decoy + "c"})),
                         Segment(frozenset({p[k + length :], ""}))]
            t = EDString(tuple(segs))
            engine = EDSMEngine(p, naive_cutoff=cutoff)
            del calls[:]
            got, reported = _states(engine, segs)
            assert got == brute_active_states(p, segs)
            assert reported == tuple(brute_edsm(p, t))
            assert {3, 6, 9} <= set(reported)
            rec = engine._records[s]
            route = ("overlap" if isinstance(rec, int) else
                     "occ" if s in engine.solver._occ_cache else "classed")
            routes.add(route)
            assert route == ("classed" if length > engine.solver.cutoff else
                             "occ" if length > OVERLAP_MASK_MAX else "overlap")
            assert calls.count(s) == (1 if route == "occ" else 0)
        # B < L <= cutoff is empty at naive_cutoff=23.
        assert routes == ({"overlap", "occ"} if cutoff is None else {"overlap", "classed"})

    def test_long_alternatives_met_once_search_no_masks(self, monkeypatch):
        calls = _count_occ_masks(monkeypatch)
        rng = random.Random(29)
        m = 200
        p = "".join(rng.choice("ab") for _ in range(m))
        cuts = [(40, 120), (60, 150), (40, 120)]
        # A c-run of m letters clears U, so that each P prefix meets U = 0;
        # the middle piece meets the prefix before it, the two tail pieces
        # differ from round to round.
        def text(rounds):
            segs = []
            for r, (a, b) in enumerate(rounds):
                c = b + 10 + 5 * r
                junk = "".join(rng.choice("abc") for _ in range(rng.randint(50, 150)))
                segs += [Segment(frozenset({"c" * m})),
                         Segment(frozenset({p[:a]})),
                         Segment(frozenset({p[a:b], junk})),
                         Segment(frozenset({p[b:c]})),
                         Segment(frozenset({p[c:]}))]
            return EDString(tuple(segs))

        once = text(cuts[:2])
        assert search(p, once).positions == tuple(brute_edsm(p, once))
        assert search(p, once).positions == (5, 10)
        assert calls == []
        twice = text(cuts)
        assert search(p, twice).positions == (5, 10, 15)
        assert calls == [p[40:120]]

    def test_record_cache_stays_within_budget(self):
        # 2^16 distinct alternatives of 16 letters, overlap masks all.
        rng = random.Random(27)
        m = 24
        members = ["".join(bits) for bits in itertools.product("ab", repeat=16)]
        engine = _fill_records(rng, m, members)
        assert all(isinstance(rec, int) for rec in engine._records.values())

    def test_record_cache_of_long_alternatives_stays_within_budget(self):
        # The same 2^16 tails behind a 24-letter head: 40 letters, past
        # OVERLAP_MASK_MAX, so every record is a START/END record.
        rng = random.Random(30)
        m = 48
        head = "".join(rng.choice("ab") for _ in range(24))
        members = [head + "".join(bits) for bits in itertools.product("ab", repeat=16)]
        engine = _fill_records(rng, m, members)
        assert all(isinstance(rec, edsm_engine._Record) for rec in engine._records.values())


def _fill_records(rng: random.Random, m: int, members: list[str]) -> EDSMEngine:
    """Search four segments of members that cost more than the budget,
    checking the budget after every segment and the answers at the end."""
    p = "".join(rng.choice("ab") for _ in range(m))
    rng.shuffle(members)
    size = len(members[0])
    assert len(members) * (size + 2 * (m // 8) + ap_engine._ENTRY_OVERHEAD) > OCC_CACHE_BYTES
    k = len(members) // 4
    segs = [Segment(frozenset(members[i : i + k])) for i in range(0, len(members), k)]
    t = EDString(tuple(segs))
    engine = EDSMEngine(p)
    state = engine.new_state()
    got = []
    for j, seg in enumerate(segs, 1):
        state = engine.process_segment(state, seg, j)
        got.append(set(state.u.ones()))
        assert engine._records.used <= OCC_CACHE_BYTES
    assert len(engine._records) < len(members)
    assert got == brute_active_states(p, segs)
    assert tuple(sorted(state.reported)) == tuple(brute_edsm(p, t))
    return engine


class TestOverlapMasks:
    # Texts hold c, a letter no pattern holds, in a8c and periodic.
    @given(st.sampled_from(["a", "ab", "a..ab", "random"]),
           st.sampled_from([2, 8, OVERLAP_MASK_MAX, OVERLAP_MASK_MAX + 1, 64]),
           st.sampled_from(SCAN_TEXTS + ["inside"]), st.integers(0, 2**32))
    @settings(max_examples=400, deadline=None)
    def test_mask_is_start_occ_end(self, pkind, m, tkind, seed):
        rng = random.Random(seed)
        p = _scan_pattern(pkind, m, rng)
        engine = EDSMEngine(p)
        for n in sorted({1, OVERLAP_MASK_MAX - 1, OVERLAP_MASK_MAX, m - 1}):
            if not 1 <= n <= engine._short:
                continue
            s = _scan_text(tkind, n, p, rng)
            rec = engine._record(s)
            want = rec.start | occ_mask(p, s) << (n - 1) | engine._end(rec, s) << n
            assert engine._overlap(s) == want, (p, s)

    @pytest.mark.parametrize("cutoff", [None, 23])
    def test_states_when_routes_and_epsilon_share_a_segment(self, cutoff):
        # Every segment holds a piece of P, an alternative of each route
        # (overlap mask, records or classed, |s| >= m) and often epsilon.
        rng = random.Random(31)
        for _ in range(20):
            m = rng.randint(OVERLAP_MASK_MAX + 8, 90)
            p = "".join(rng.choice("ab") for _ in range(m))
            cuts = sorted(rng.sample(range(1, m), rng.randint(2, 5)))
            segs = []
            for a, b in zip([0, *cuts], [*cuts, m]):
                alts = {p[a:b], "".join(rng.choice("ab") for _ in range(m + rng.randint(0, 9)))}
                for length in (rng.randint(1, OVERLAP_MASK_MAX),
                               rng.randint(OVERLAP_MASK_MAX + 1, m - 1)):
                    k = rng.randrange(m - length + 1)
                    alts.add(p[k : k + length])
                if rng.random() < 0.6:
                    alts.add("")
                segs.append(Segment(frozenset(alts)))
            t = EDString(tuple(segs))
            engine = EDSMEngine(p, naive_cutoff=cutoff)
            got, reported = _states(engine, segs)
            assert got == brute_active_states(p, segs)
            assert reported == tuple(brute_edsm(p, t))
            kinds = {type(rec) for rec in engine._records.values()}
            assert kinds == {int, edsm_engine._Record}

    def test_long_alternatives_build_no_letter_mask(self):
        rng = random.Random(32)
        m = 300
        p = "".join(rng.choice("ACGT") for _ in range(m))
        segs = [Segment(frozenset({p[:100], p[:40] + "A"})),
                Segment(frozenset({p[100:] + "".join(rng.choice("ACGT") for _ in range(50)),
                                   "".join(rng.choice("ACGT") for _ in range(OVERLAP_MASK_MAX + 1)),
                                   ""}))]
        engine = EDSMEngine(p)
        assert engine.search(segs).positions == (2,)
        masks = engine._records.masks
        assert not masks and masks.digits is None

    def test_short_alternative_met_thrice_needs_no_string_search(self, monkeypatch):
        calls = _count_occ_masks(monkeypatch)
        scans = []
        scan = edsm_engine._longest_suffix_prefix

        def counting(t, pf):
            scans.append(t)
            return scan(t, pf)

        monkeypatch.setattr(edsm_engine, "_longest_suffix_prefix", counting)
        p = "abaabbabaaabab"
        segs = [Segment(frozenset({"aba", "b"})), Segment(frozenset({"abbab", "ba", ""})),
                Segment(frozenset({"aaabab", "a"}))] * 3
        t = EDString(tuple(segs))
        engine = EDSMEngine(p)
        got, reported = _states(engine, segs)
        assert got == brute_active_states(p, segs)
        assert reported == tuple(brute_edsm(p, t)) == (3, 6, 9)
        assert calls == [] and scans == []

    def test_tagged_pattern_builds_masks_only_for_letters_met(self):
        tags = [chr(0xE000 + i) for i in range(1000)]
        p = "".join(tags) + "ab"
        segs = [Segment(frozenset({"a", "ab", "bc", "cab", ""}))] * 4
        engine = EDSMEngine(p)
        assert engine.search(segs).positions == ()
        assert sorted(engine._records.masks) == ["a", "b", "c"]


    def test_letter_masks_are_charged_to_the_record_budget(self):
        # 6400 distinct tagged letters, 32 to a short junk alternative,
        # beside P cut into pieces of at most 32 letters: the masks of all
        # letters met would cost far more than the (shrunk) budget.
        rng = random.Random(35)
        tags = "".join(chr(0xE000 + i) for i in range(6400))
        m = 200
        p = "".join(rng.choice(tags[:50]) for _ in range(m))
        engine = EDSMEngine(p)
        records = engine._records
        records.budget = 1 << 14
        segs = []
        for k in range(0, len(tags), 32):
            a = (k // 32) % 10 * 20
            alts = {tags[k : k + 32], p[a : a + 20], "" if k % 3 else tags[k]}
            segs.append(Segment(frozenset(alts)))
        state = engine.new_state()
        got = []
        for j, seg in enumerate(segs, 1):
            state = engine.process_segment(state, seg, j)
            got.append(set(state.u.ones()))
            masks = records.masks
            assert len(masks) * masks.cost <= records.used <= records.budget
        assert 6400 * records.masks.cost > records.budget
        assert got == brute_active_states(p, segs)
        t = EDString(tuple(segs))
        assert tuple(sorted(state.reported)) == tuple(brute_edsm(p, t))
        assert state.reported

    @pytest.mark.parametrize("m", [1, 5, 33, 64])
    @pytest.mark.parametrize("alphabet", ["ACGT", "ab", "\ue000\ue001\ue002ab"])
    def test_masks_from_neighbours_survive_budget_clears(self, alphabet, m):
        # Each segment holds a piece of P or junk, with its one-letter-
        # shorter neighbours s[1:] and s[:-1]; a budget of a few entries
        # empties the records, letter masks too, while masks are made
        # from neighbours met a segment earlier.
        rng = random.Random(f"{alphabet}/{m}")
        p = "".join(rng.choice(alphabet) for _ in range(m))

        @functools.cache
        def want(s):
            n = len(s)
            return sum(1 << (k + n - 1) for k in range(1 - n, m)
                       if all(p[k + i] == s[i] for i in range(n) if 0 <= k + i < m))

        segs = []
        for _ in range(80):
            n = rng.randint(2, OVERLAP_MASK_MAX)
            if rng.random() < 0.5 and m > 1:
                k = rng.randrange(m)
                s = p[k : k + n]
            else:
                s = "".join(rng.choice(alphabet + "xy") for _ in range(n))
            alts = {s[1:], s[:-1]} if rng.random() < 0.5 else {s}
            if rng.random() < 0.2:
                alts.add("")
            segs.append(Segment(frozenset(alts)))
            segs.append(Segment(frozenset({s, p[: rng.randint(1, m)]})))
        t = EDString(tuple(segs))
        states, positions = brute_active_states(p, segs), tuple(brute_edsm(p, t))
        for budget in (200, 600, 1500):
            engine = EDSMEngine(p)
            records = engine._records
            records.budget = budget
            clears = 0
            clear = records.clear

            def counting():
                nonlocal clears
                clears += 1
                clear()

            records.clear = counting
            state = engine.new_state()
            got = []
            for j, seg in enumerate(segs, 1):
                state = engine.process_segment(state, seg, j)
                got.append(set(state.u.ones()))
                for s, mask in records.items():
                    if isinstance(mask, int):
                        assert mask == want(s), (p, s)
                # The budget counts exactly what the cache holds.
                assert records.used == (sum(len(s) + engine._entry_cost for s in records)
                                        + len(records.masks) * records.masks.cost)
            assert got == states
            assert tuple(sorted(state.reported)) == positions
            assert clears > 10
        # A fresh engine's letter loop agrees with the definition too.
        engine = EDSMEngine(p)
        for seg in segs:
            for s in seg.alternatives:
                if 1 <= len(s) <= engine._short:
                    engine._records.clear()
                    assert engine._overlap(s) == want(s)


class TestTablesOnFirstRead:
    def test_building_an_engine_makes_no_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("re.compile called")

        monkeypatch.setattr(edsm_engine.re, "compile", refuse)
        engine = EDSMEngine("ACGT" * 4096)
        masks = engine._records.masks
        assert not masks and masks.digits is None
        assert "search" not in vars(engine.pf) and "search" not in vars(engine.pf_rev)

    def test_each_store_compiles_its_search_once(self, monkeypatch):
        compiled = []
        compile_ = re.compile

        def counting(rx, *args):
            compiled.append(rx)
            return compile_(rx, *args)

        monkeypatch.setattr(edsm_engine.re, "compile", counting)
        rng = random.Random(36)
        m = 40
        p = "".join(rng.choice("ab") for _ in range(m))
        # Long alternatives with and without P's head in their last m
        # letters and its tail in their first m - 1, met while U != 0, so
        # START and END take both the short search and the long route, and
        # the long route reads border entries by the same search.
        segs = [Segment(frozenset({p}))]
        for _ in range(30):
            junk = "".join(rng.choice("abc") for _ in range(m + rng.randint(0, 20)))
            q = rng.randint(0, m - 1)
            segs.append(Segment(frozenset({junk + p[:q], p[m - q :] + junk, p[: m - 1]})))
        for _ in range(2):
            engine = EDSMEngine(p)
            got, reported = _states(engine, segs)
            assert got == brute_active_states(p, segs)
            assert reported == tuple(brute_edsm(p, EDString(tuple(segs))))
            assert "search" in vars(engine.pf) and "search" in vars(engine.pf_rev)
            assert len(engine.pf) > 1 and len(engine.pf_rev) > 1
        assert len(compiled) == 4  # one per store, two stores per engine
        assert compiled[0] != compiled[1]

    def test_a_pattern_is_validated_once(self, monkeypatch):
        checks = []
        check = Pattern.__post_init__

        def counting(self):
            checks.append(self.letters)
            check(self)

        monkeypatch.setattr(Pattern, "__post_init__", counting)
        pattern = Pattern("GTAT")
        engine = EDSMEngine(pattern)
        assert engine.pattern is pattern and engine.solver.pattern is pattern
        assert search(pattern, parse_eds(EXAMPLE_TEXT)).positions == (2, 6, 7)
        assert checks == ["GTAT"]
        engine = EDSMEngine("GTAT")
        assert engine.solver.pattern is engine.pattern
        assert checks == ["GTAT"] * 2
        with pytest.raises(ValueError):
            EDSMEngine("GT;AT")


class TestBudgetCache:
    def test_an_entry_over_the_budget_is_not_kept(self):
        # One alternative of more than 2^23 letters completes P[:10] and
        # holds P; alone it costs more than the whole budget.
        rng = random.Random(33)
        p = "".join(rng.choice("ab") for _ in range(64))
        s = p[10:] + "b" * OCC_CACHE_BYTES + p
        engine = EDSMEngine(p)
        segs = [Segment(frozenset({p[:10], "ab"})), Segment(frozenset({s}))]
        assert engine.search(segs).positions == (2,)
        assert s not in engine._records
        assert engine._records.used <= OCC_CACHE_BYTES
        assert {p[:10], "ab"} <= engine._records.keys()


def _search_states(engine: EDSMEngine, segs) -> tuple[list[set[int]], MatchReport]:
    """The state after each segment of engine.search(segs), read by
    wrapping the engine's process_segment, and the report."""
    got = []
    step = engine.process_segment

    def recording(state, seg, j):
        state = step(state, seg, j)
        got.append(set(state.u.ones()))
        return state

    engine.process_segment = recording
    return got, engine.search(segs)


def _window_text(rng: random.Random, p: str, n: int) -> list[Segment]:
    """n segments whose long alternatives hold P at their start or end,
    equal P, split P over two alternatives of one segment or of adjacent
    segments, repeat near and far, or hold NUL; beside short pieces of P
    and epsilon."""
    m = len(p)

    def junk(k: int) -> str:
        return "".join(rng.choice("ab") for _ in range(k))

    repeated = [junk(m + rng.randint(0, m)), junk(rng.randint(0, m)) + p + junk(2)]
    segs = []
    carry = None  # the second half of P split over two segments
    for _ in range(n):
        alts = set() if carry is None else {carry}
        carry = None
        for _ in range(rng.randint(1, 3)):
            c = rng.randint(1, m - 1) if m > 1 else 0
            kind = rng.randrange(8)
            if kind == 0:
                alts.add(p + junk(rng.randint(0, m)))
            elif kind == 1:
                alts.add(junk(rng.randint(0, m)) + p)
            elif kind == 2:
                alts.add(p)
            elif kind == 3:
                alts |= {junk(m) + p[:c], p[c:] + junk(m)}
            elif kind == 4:
                alts.add(junk(m) + p[:c])
                carry = p[c:] + junk(m)
            elif kind == 5:
                alts.add(rng.choice(repeated))
            elif kind == 6:
                alts.add(rng.choice([p[:c] + "\0" + p[c:], "\0" + p, p + "\0"]))
            else:
                k = rng.randrange(m)
                alts |= {p[k : rng.randint(k + 1, m)], junk(rng.randint(1, m))}
        if rng.random() < 0.2:
            alts.add("")
        segs.append(Segment(frozenset(alts)))
    return segs


class TestWindowScan:
    @staticmethod
    def _check(p: str, segs: list[Segment], budget: int | None = None) -> None:
        """search against a bare process_segment loop, brute_active_states
        and brute_edsm, state by state."""
        engines = [EDSMEngine(p), EDSMEngine(p)]
        if budget is not None:
            for engine in engines:
                engine._records.budget = budget
        got, report = _search_states(engines[0], segs)
        bare, reported = _states(engines[1], segs)
        assert got == bare == brute_active_states(p, segs)
        t = EDString(tuple(segs))
        assert report.positions == reported == tuple(brute_edsm(p, t))
        assert (report.n, report.N) == (t.n, t.N)
        assert engines[0]._window is None and engines[0]._inside is None

    @given(st.integers(1, 12), st.sampled_from([1, 2, 3, 7]), st.integers(1, 30),
           st.booleans(), st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_small_windows_match_oracles(self, m, k, n, tiny_budget, seed):
        rng = random.Random(seed)
        p = "".join(rng.choice("ab") for _ in range(m))
        segs = _window_text(rng, p, n)
        # A budget of a few records clears the cache inside a window.
        budget = 4 * (3 * m + 2 * (m // 8) + ap_engine._ENTRY_OVERHEAD) if tiny_budget else None
        with mock.patch.object(edsm_engine, "WINDOW_SEGMENTS", k):
            self._check(p, segs, budget)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_texts_around_one_window_match_oracles(self, extra):
        rng = random.Random(40 + extra)
        p = "".join(rng.choice("ab") for _ in range(8))
        segs = _window_text(rng, p, edsm_engine.WINDOW_SEGMENTS + extra)
        self._check(p, segs)
        self._check(p, segs, budget=1 << 9)

    def test_split_pattern_is_not_inside(self):
        # P split over adjacent alternatives of the joined string, and over
        # an alternative's NUL; P after a NUL is inside.
        p = "abcab"
        window = [Segment(frozenset({"xxxab"})), Segment(frozenset({"cabyy"})),
                  Segment(frozenset({"ab\0cab"})), Segment(frozenset({"\0abcab", "abca"}))]
        engine = EDSMEngine(p)
        assert engine._scan(window) == {"xxxab": False, "cabyy": False, "ab\0cab": False,
                                        "\0abcab": True}
        assert engine.search(window).positions == (2, 4)

    def test_one_scan_per_window_with_new_long_alternatives(self, monkeypatch):
        scans = []
        scan = EDSMEngine._scan

        def counting(engine, window):
            scans.append(len(window))
            return scan(engine, window)

        monkeypatch.setattr(EDSMEngine, "_scan", counting)
        k = edsm_engine.WINDOW_SEGMENTS
        p = "abba"
        short = [Segment(frozenset({"ab", "b", ""}))] * k
        long = [Segment(frozenset({"aabbaa", "ba"})), Segment(frozenset({"babab"}))] * (k // 2)
        new = [Segment(frozenset({"abbab"}))] + short[1:]
        # Windows: short only, new long alternatives, the same ones again,
        # one more new long alternative.
        engine = EDSMEngine(p)
        assert engine.search(short + long + long + new).positions
        assert scans == [k, k]
        del scans[:]
        _states(EDSMEngine(p), long)  # outside search, FULL is P in s
        assert scans == []

    def test_generator_is_read_at_most_one_window_ahead(self):
        k = edsm_engine.WINDOW_SEGMENTS
        pulled = 0

        def stream():
            nonlocal pulled
            for j in range(3 * k + 5):
                pulled += 1
                yield Segment(frozenset({"abab" * (j % 7 + 1), "b"}))

        ahead = []
        engine = EDSMEngine("abab")
        step = engine.process_segment

        def recording(state, seg, j):
            ahead.append(pulled - j)
            return step(state, seg, j)

        engine.process_segment = recording
        report = engine.search(stream())
        assert report.n == pulled == 3 * k + 5
        assert max(ahead) == k - 1 and min(ahead) == 0
