import random

import pytest

from edsm import edsm_engine
from edsm.eds_core import BitVector, EDString, Pattern, Segment, parse_eds
from edsm.edsm_engine import EDSMEngine, MatchReport, search
from edsm.oracles import brute_active_states, brute_edsm

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
            want = tuple(brute_edsm(p, t, window_cap=t.n))
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
            assert got == tuple(brute_edsm(letters, t, window_cap=t.n))


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
            assert tuple(sorted(state.reported)) == tuple(brute_edsm(p, t, window_cap=t.n))

    def test_kmp_reads_at_most_m_letters(self, monkeypatch):
        rng = random.Random(25)
        m = 32
        p = "".join(rng.choice("ab") for _ in range(m))
        body = "".join(rng.choice("ab") for _ in range(10**5))
        assert p not in body
        # Prefix 10 is active before the first long alternative, which
        # completes it (END) and ends with a prefix of P (START); the second
        # one contains P (FULL).
        segs = [Segment(frozenset({p[:10]})),
                Segment(frozenset({p[10:] + body + p[:7], "ab"})),
                Segment(frozenset({body[:50_000] + p + body[50_000:]}))]
        lengths = []
        kmp_state = edsm_engine._kmp_state

        def recording(t, pat, pf):
            lengths.append(len(t))
            return kmp_state(t, pat, pf)

        monkeypatch.setattr(edsm_engine, "_kmp_state", recording)
        report = search(p, EDString(tuple(segs)))
        assert report.positions == (2, 3)
        assert lengths and max(lengths) <= m
        assert {m, m - 1} <= set(lengths)
