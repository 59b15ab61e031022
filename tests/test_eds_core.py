import copy
import io
import pickle
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsm import eds_core
from edsm.eds_core import (
    ALPHABET,
    BitVector,
    EDSParseError,
    EDString,
    Pattern,
    Segment,
    decode_symbol,
    encode_symbol,
    iter_parse_eds,
    parse_eds,
    parse_pattern_text,
    serialize_eds,
    serialize_string,
)

alt_text = st.text(alphabet="abcXY01", max_size=6)
segment_st = st.frozensets(alt_text, min_size=1, max_size=4).map(Segment)
edstring_st = st.lists(segment_st, min_size=1, max_size=6).map(
    lambda segs: EDString(tuple(segs))
)


class TestSegment:
    def test_requires_an_alternative(self):
        with pytest.raises(ValueError):
            Segment(frozenset())

    def test_epsilon_flag_and_size(self):
        seg = Segment(frozenset({"", "ab", "c"}))
        assert seg.contains_epsilon
        assert seg.size == 3
        assert not Segment(frozenset({"ab"})).contains_epsilon

    def test_edstring_counts(self):
        t = EDString((Segment(frozenset({"ab"})), Segment(frozenset({"", "cde"}))))
        assert t.n == 2
        assert t.N == 5

    def test_empty_edstring_rejected(self):
        with pytest.raises(ValueError):
            EDString(())

    def test_value_semantics_and_immutability(self):
        seg = Segment(frozenset({"", "ab"}))
        twin = Segment(frozenset({"ab", ""}))
        assert seg == twin and hash(seg) == hash(twin)
        assert seg != Segment(frozenset({"ab"}))
        assert seg != frozenset({"", "ab"}) and seg != "ab"
        assert repr(Segment(frozenset({"ab"}))) == "Segment(alternatives=frozenset({'ab'}))"
        assert repr(seg) == f"Segment(alternatives={seg.alternatives!r})"
        with pytest.raises(AttributeError):
            seg.alternatives = frozenset({"c"})
        with pytest.raises(AttributeError):
            del seg.alternatives
        with pytest.raises(AttributeError):
            seg.other = 1
        assert seg.alternatives == frozenset({"", "ab"})
        for clone in (pickle.loads(pickle.dumps(seg)), copy.copy(seg), copy.deepcopy(seg)):
            assert type(clone) is Segment and clone == seg and hash(clone) == hash(seg)
        tail = Segment(frozenset({"c"}))
        t, u = EDString((seg, tail)), EDString((twin, Segment(frozenset({"c"}))))
        assert t == u and hash(t) == hash(u) and len({t, u}) == 1
        assert t != EDString((tail, seg))
        with pytest.raises(ValueError):
            Segment(frozenset())


class TestPattern:
    def test_rejects_empty_and_illegal(self):
        with pytest.raises(ValueError):
            Pattern("")
        with pytest.raises(ValueError):
            Pattern("a{b")

    def test_accepts_tagged_symbols(self):
        Pattern("ab" + encode_symbol(3, 7))

    @given(st.integers(1, 5), st.integers(0, 1279))
    def test_symbol_round_trip(self, kind, ident):
        assert decode_symbol(encode_symbol(kind, ident)) == (kind, ident)

    def test_symbol_range_checks(self):
        with pytest.raises(ValueError):
            encode_symbol(0, 0)
        with pytest.raises(ValueError):
            encode_symbol(6, 0)
        with pytest.raises(ValueError):
            encode_symbol(1, 1280)
        with pytest.raises(ValueError):
            decode_symbol("a")


class TestBitVector:
    def test_one_indexed_get_set(self):
        v = BitVector(5)
        v.set(1)
        v.set(5)
        assert v.get(1) == 1 and v.get(2) == 0 and v.get(5) == 1
        assert v.ones() == [1, 5]
        v.set(1, 0)
        assert v.ones() == [5]

    def test_bounds(self):
        v = BitVector(3)
        with pytest.raises(IndexError):
            v.get(0)
        with pytest.raises(IndexError):
            v.set(4)

    @given(st.text(alphabet="01", min_size=0, max_size=40))
    def test_from01_round_trip(self, bits):
        assert BitVector.from01(bits).to01() == bits

    def test_or_and_eq(self):
        a = BitVector.from01("0110")
        b = BitVector.from01("0011")
        assert (a | b).to01() == "0111"
        assert a == BitVector.from01("0110")
        assert a != b
        with pytest.raises(ValueError):
            a | BitVector(3)

    def test_mask_is_trimmed_to_length(self):
        assert BitVector(3, 0b11111).to01() == "111"


class TestParsing:
    def test_deterministic_run_and_braces(self):
        t = parse_eds("AT{A,T}C")
        assert t.n == 3
        assert t.segments[0].alternatives == frozenset({"AT"})
        assert t.segments[1].alternatives == frozenset({"A", "T"})

    def test_epsilon_token(self):
        t = parse_eds("{TA,TATA,}")
        assert t.segments[0].contains_epsilon
        assert t.segments[0].alternatives == frozenset({"TA", "TATA", ""})

    def test_whitespace_ignored(self):
        assert parse_eds("A T\n{G ,T}") == parse_eds("AT{G,T}")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("{AC,A", "unbalanced"),
            ("{a{b}}", "nested"),
            ("a;b", "illegal"),
            ("{a,b};", "illegal"),
            ("", "empty"),
            ("<1:x>", "malformed"),
            ("<1:99999>a", "escape"),
        ],
    )
    def test_errors_carry_byte_offsets(self, text, fragment):
        with pytest.raises(EDSParseError) as err:
            parse_eds(text)
        assert "byte offset" in str(err.value)
        assert err.value.offset >= 0

    def test_error_offset_points_at_offender(self):
        # The offset is the offender's first byte, also when it or a letter
        # before it (here the 3-byte tagged-symbol letter U+E000) is multi-byte.
        for text, offset in [("abc;", 3), ("ab€", 2), ("ab{c,€}", 5),
                             ("a\ue000€", 4)]:
            with pytest.raises(EDSParseError) as err:
                parse_eds(text)
            assert err.value.offset == offset, text

    def test_malformed_escape_points_at_its_bracket(self):
        # An unterminated escape is malformed at its '<', not at the end of
        # input, and its scan stops at a closing brace.
        for text, offset in [("<1:2", 0), ("a<b", 1), ("ab{<1:x}", 3)]:
            with pytest.raises(EDSParseError, match="malformed symbol escape") as err:
                parse_eds(text)
            assert err.value.offset == offset, text

    def test_first_fault_wins(self):
        for text, offset, fragment in [("a<6:1>b;", 1, "out of range"),
                                       ("a;<6:1>", 1, "illegal"),
                                       ("{a;{b}", 2, "illegal"),
                                       ("{ab{", 3, "nested")]:
            with pytest.raises(EDSParseError, match=fragment) as err:
                parse_eds(text)
            assert err.value.offset == offset, text
        with pytest.raises(EDSParseError, match="illegal character '€'"):
            parse_pattern_text("€<1:x>")

    def test_pattern_text_offsets_are_bytes_of_the_argument(self):
        # Stripped leading whitespace and multi-byte letters before the fault
        # count toward the offset.
        for text, offset in [("  a<1:x>", 3), ("\ue000\ue000<9:9>", 6),
                             ("ab€c", 2), ("€<1:x>", 0)]:
            with pytest.raises(EDSParseError) as err:
                parse_pattern_text(text)
            assert err.value.offset == offset, text

    @pytest.mark.parametrize("doc", [
        "AT{A,T}C", "{TA,TATA,}", "A T\n{G ,T}", "{AC,A", "{a{b}}", "a;b",
        "{a,b};", "", "   ", "<1:x>", "<1:99999>a", "abc;", "ab€", "ab{c,€}",
        "a\ue000€", "a<2:5>{<2:5>b,}", "ab{c,d}{e", "ab}",
        "ATGTA{A,T}C{G,T}CG{TA,TATA,}{TATGC,TTTTA}",
        "AC\ue000G <3:7>T\nACGT{\ue000,<1:0>, }TT\ue000<5:9>",
    ])
    def test_every_chunk_size_agrees(self, monkeypatch, doc):
        def outcome():
            try:
                return [seg.alternatives for seg in iter_parse_eds(io.StringIO(doc))]
            except EDSParseError as exc:
                return exc.offset

        expected = outcome()
        for size in range(1, len(doc) + 2):
            monkeypatch.setattr(eds_core, "_CHUNK", size)
            assert outcome() == expected, size

    def test_bare_run_over_many_chunks_is_one_segment(self, monkeypatch):
        monkeypatch.setattr(eds_core, "_CHUNK", 4)
        sym = encode_symbol(3, 7)
        run = "ACGT\nAC<3:7>\ue000 GT" * 5
        letters = ("ACGTAC" + sym + "\ue000GT") * 5
        segs = list(iter_parse_eds(io.StringIO(run + "{A,}" + run)))
        assert [s.alternatives for s in segs] == [
            frozenset({letters}), frozenset({"A", ""}), frozenset({letters})]

    def test_reads_no_further_than_a_chunk_past_a_complete_segment(self, monkeypatch):
        monkeypatch.setattr(eds_core, "_CHUNK", 2)
        stream = io.StringIO("{ab}c" + "x" * 100)
        assert next(iter_parse_eds(stream)).alternatives == frozenset({"ab"})
        assert stream.tell() <= len("{ab}") + 2

    @pytest.mark.parametrize("text", ["a b", "a,b", "a{b", "a<1:2"])
    def test_pattern_text_has_no_separators(self, text):
        with pytest.raises(ValueError):
            parse_pattern_text(text)

    def test_tagged_symbols_in_both_contexts(self):
        sym = encode_symbol(2, 5)
        t = parse_eds("a<2:5>{<2:5>b,}")
        assert t.segments[0].alternatives == frozenset({"a" + sym})
        assert t.segments[1].alternatives == frozenset({sym + "b", ""})

    def test_streaming_yields_before_later_errors(self):
        stream = io.StringIO("ab{c,d}{e")
        it = iter_parse_eds(stream)
        assert next(it).alternatives == frozenset({"ab"})
        assert next(it).alternatives == frozenset({"c", "d"})
        with pytest.raises(EDSParseError):
            next(it)

    @given(edstring_st)
    @settings(max_examples=150)
    def test_serialize_parse_round_trip(self, t):
        assert parse_eds(serialize_eds(t)) == t

    @given(st.text(alphabet=sorted(ALPHABET) + [encode_symbol(1, 0), encode_symbol(5, 9)],
                   min_size=1, max_size=12))
    def test_pattern_serialize_round_trip(self, letters):
        assert parse_pattern_text(serialize_string(letters)).letters == letters

    def test_example_text_shape(self):
        t = parse_eds("ATGTA{A,T}C{G,T}CG{TA,TATA,}{TATGC,TTTTA}")
        assert (t.n, t.N) == (7, 28)


# Pieces of EDS text: clean ones, only [A-Za-z0-9] letters between braces
# and commas, and the rest: whitespace, escapes, private-use letters, and
# faults, bare or inside braces.
_CLEAN_PIECES = ["ACGT", "a", "Z9", "{", "}", ",", "{}", "{,}", "{a,}", "{A,C}"]
_DIRTY_PIECES = [" ", "\n", "\t", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000",
                 "<1:5>", "<5:1279>", "<6:1>", "<1:99999>", "<1:x>", "<2:", "<0:1>",
                 "<01:002>", "\ue000", "\ue000<1:0>", "é", "€", ";", "\ud800", "{a{b}}",
                 "{{", "}}"]
_clean_run = st.text(alphabet="ACGTab01", min_size=1, max_size=8)
_clean_piece = st.one_of(
    st.sampled_from(_CLEAN_PIECES),
    _clean_run,
    st.lists(st.text(alphabet="ACGT", max_size=3), min_size=1, max_size=4).map(
        lambda alts: "{" + ",".join(alts) + "}"),
)
_dirty_piece = st.sampled_from(_DIRTY_PIECES)
_eds_text = st.tuples(
    st.lists(_clean_piece, max_size=12),
    st.lists(st.one_of(_clean_piece, _dirty_piece,
                       _dirty_piece.map(lambda p: "{A" + p + ",}")), max_size=4),
    st.lists(_clean_piece, max_size=12),
    st.sampled_from(["", "\n", " \n"]),
).map(lambda t: "".join(t[0]) + "".join(t[1]) + "".join(t[2]) + t[3])
_pattern_text = st.lists(
    st.sampled_from(["ACGT", "a", "\ue000", "<1:5>", "<6:1>", "<1:x>", "<2:", " ", "\n",
                     "\u3000", "€", "{", ",", ";", "\ud800"]),
    max_size=8).map("".join)


def _outcome(text):
    """Segments yielded, then the error's message and offset, if any."""
    segs = []
    try:
        for seg in iter_parse_eds(io.StringIO(text)):
            segs.append(seg)
    except EDSParseError as exc:
        return segs, str(exc), exc.offset
    return segs, None, None


def _reference_letter(text, i):
    """The letter at text[i] (a tagged symbol for an escape), the index after
    it, and None; or None, i and the fault's message."""
    ch = text[i]
    if ch in ALPHABET or "\ue000" <= ch <= chr(0xE000 + 5 * 1280 - 1):
        return ch, i + 1, None
    if ch != "<":
        return None, i, f"illegal character {ch!r}"
    fields, j = [], i + 1
    for stop in ":>":
        k = j
        while k < len(text) and text[k] in "0123456789":
            k += 1
        if k == j or not text.startswith(stop, k):
            return None, i, "malformed symbol escape"
        fields.append(int(text[j:k]))
        j = k + 1
    try:
        return encode_symbol(*fields), j, None
    except ValueError as exc:
        return None, i, str(exc)


def _reference(text):
    """Parse an ED text one character at a time by the grammar: the segments
    completed before the first fault, then its message and byte offset."""
    segs, alts, word, i = [], None, "", 0  # alts: the open brace's alternatives

    def fault(message, j):
        offset = len(text[:j].encode("utf-8", "surrogatepass"))
        return segs, f"{message} (byte offset {offset})", offset

    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "{":
            if alts is not None:
                return fault("nested braces", i)
            if word:
                segs.append(Segment(frozenset({word})))
            alts, word, i = [], "", i + 1
        elif ch in ",}" and alts is not None:
            alts.append(word)
            word, i = "", i + 1
            if ch == "}":
                segs.append(Segment(frozenset(alts)))
                alts = None
        else:
            letter, i, message = _reference_letter(text, i)
            if message:
                return fault(message, i)
            word += letter
    if alts is not None:
        return fault("unbalanced braces", len(text))
    if word:
        segs.append(Segment(frozenset({word})))
    if not segs:
        return fault("empty input", len(text))
    return segs, None, None


def _reference_pattern(text):
    """The letters of a pattern text, then its first fault's message and
    byte offset, read one character at a time."""
    lead = len(text) - len(text.lstrip())
    core, letters, i = text.strip(), "", 0
    while i < len(core):
        letter, i, message = _reference_letter(core, i)
        if message:
            offset = len(text[: lead + i].encode("utf-8", "surrogatepass"))
            return None, f"{message} (byte offset {offset})", offset
        letters += letter
    return letters, None, None


def _pangenome_units(rng, size):
    """Long ACGT blocks between SNP/indel sites: their text and segments."""
    parts, segs = [], []
    while sum(map(len, parts)) < size:
        block = "".join(rng.choices("ACGT", k=rng.randint(200, 2000)))
        alts = {"".join(rng.choices("ACGT", k=rng.randint(1, 3)))
                for _ in range(rng.randint(2, 4))}
        if rng.random() < 0.2:
            alts.add("")
        parts += [block, "{" + ",".join(sorted(alts)) + "}"]
        segs += [Segment(frozenset({block})), Segment(frozenset(alts))]
    return parts, segs


def _watch(mp):
    """Record the arguments of every _SYMBOL_RE.sub, _TEXT_RE.fullmatch and
    _first_fault call."""
    seen = {"sub": [], "fullmatch": [], "first_fault": []}

    def spy(name, fn):
        def call(*args):
            seen[name].append(args)
            return fn(*args)
        return call

    mp.setattr(eds_core, "_SYMBOL_RE", SimpleNamespace(sub=spy("sub", eds_core._SYMBOL_RE.sub)))
    mp.setattr(eds_core, "_TEXT_RE",
               SimpleNamespace(fullmatch=spy("fullmatch", eds_core._TEXT_RE.fullmatch)))
    mp.setattr(eds_core, "_first_fault", spy("first_fault", eds_core._first_fault))
    return seen


class TestOneParser:
    """Every head is split by _units; _first_fault finds the first fault."""

    @given(_eds_text, st.sampled_from([1, 2, 3, 5, 8, 64, 1 << 16]))
    @settings(max_examples=400, deadline=None)
    def test_parser_equals_reference(self, text, size):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eds_core, "_CHUNK", size)
            assert _outcome(text) == _reference(text)

    @given(_pattern_text)
    @settings(max_examples=300, deadline=None)
    def test_pattern_text_equals_reference(self, text):
        want = _reference_pattern(text)
        if want[0] == "":
            with pytest.raises(ValueError, match="non-empty"):
                parse_pattern_text(text)
            return
        try:
            got = parse_pattern_text(text).letters, None, None
        except EDSParseError as exc:
            got = None, str(exc), exc.offset
        assert got == want

    @pytest.mark.parametrize("layout", ["plain", "newline", "final run", "\n", "\r\n"])
    def test_clean_text_is_never_translated_or_tokenized(self, layout):
        parts, segs = _pangenome_units(random.Random(5), 200_000)
        text = "".join(parts)
        # Files end in a newline, some right after a bare run; some are
        # wrapped at 80 columns.
        doc = {"plain": text, "newline": text + "\n", "final run": text + "ACGT\n"}.get(
            layout, layout.join(text[i : i + 80] for i in range(0, len(text), 80)) + layout)
        if layout == "final run":
            segs.append(Segment(frozenset({"ACGT"})))
        with pytest.MonkeyPatch.context() as mp:
            seen = _watch(mp)
            assert list(iter_parse_eds(io.StringIO(doc))) == segs
        assert seen == {"sub": [], "fullmatch": [], "first_fault": []}

    def test_an_escape_sends_only_its_head_through_translation(self, monkeypatch):
        parts, segs = _pangenome_units(random.Random(6), 200_000)
        k = 2 * (len(parts) // 4)  # a block mid-text, in the second of four buffers
        parts[k] += "<1:5>"
        segs[k] = Segment(frozenset({parts[k][:-5] + encode_symbol(1, 5)}))
        text = "".join(parts)
        seen = _watch(monkeypatch)
        assert list(iter_parse_eds(io.StringIO(text))) == segs
        [(_, head)] = seen["sub"]
        assert "<1:5>" in head and len(head) < len(text) // 2
        assert len(seen["fullmatch"]) == 1 and seen["first_fault"] == []

    @pytest.mark.parametrize("text,segments,message", [
        ("{A,C}GT}AC{T}", [{"A", "C"}], "illegal character '}' (byte offset 7)"),
        ("AC,GT{A}", [], "illegal character ',' (byte offset 2)"),
        ("AC{G,T}{A,C \n  ", [{"AC"}, {"G", "T"}], "unbalanced braces (byte offset 15)"),
        ("AC{G, <6:1>T}GA", [{"AC"}], "symbol kind 6 out of range 1..5 (byte offset 6)"),
        # At most chunk sizes the escape straddles a chunk boundary.
        ("AC{G,T}TT<1:5>{A}<2:99999>G{C}",
         [{"AC"}, {"G", "T"}, {"TT" + encode_symbol(1, 5)}, {"A"}],
         "symbol id 99999 out of range 0..1279 (byte offset 17)"),
    ])
    def test_fault_and_segments_before_it_at_every_chunk_size(
            self, monkeypatch, text, segments, message):
        for size in range(1, len(text) + 2):
            monkeypatch.setattr(eds_core, "_CHUNK", size)
            segs, got, _ = _outcome(text)
            assert ([s.alternatives for s in segs], got) == (
                [frozenset(alts) for alts in segments], message), size
