"""Data model, parser and serializer for elastic-degenerate strings.

An ED text is a sequence of segments; each segment is a finite set of
alternative strings, possibly including the empty string.  The on-disk
format is a concatenation of units: a bare alphanumeric run is a
deterministic one-alternative segment, and ``{alt1,alt2,...}`` is a
multi-alternative segment whose empty tokens denote the empty string.

Generated hardness instances need alphabets larger than [A-Za-z0-9];
those use tagged symbols written ``<kind:id>`` in files and carried in
memory as single private-use-area characters, so every string algorithm
stays alphabet-agnostic.

The parser streams: it reads fixed-size chunks and yields each segment
once a brace or the end of the input completes it, so its memory is the
largest segment plus one chunk.  Clean text, only [A-Za-z0-9] letters
between braces and commas, with whitespace anywhere, is split by C
string methods after one alphanumeric check per chunk; anything else
(``<kind:id>`` escapes, private-use letters, faults) goes through the
regex loop, which gives every fault its message and byte offset.
"""

from __future__ import annotations

import io
import re
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterator

__all__ = [
    "ALPHABET",
    "BitVector",
    "EDSParseError",
    "EDString",
    "Pattern",
    "Segment",
    "decode_symbol",
    "encode_symbol",
    "iter_parse_eds",
    "parse_eds",
    "parse_pattern_text",
    "serialize_eds",
    "serialize_string",
]

ALPHABET = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
)

# Private-use-area layout for tagged generator symbols <kind:id>.
_PUA_BASE = 0xE000
_PUA_KINDS = 5
_PUA_IDS = 1280  # 5 * 1280 = 6400 = size of the BMP private use area
_SYMBOL_RE = re.compile(r"<([0-9]+):([0-9]+)>")

# The letter grammar: ALPHABET and the tagged-symbol area, written <k:id> in
# files, plus what each context skips or splits on.  Escapes are translated
# first, so each check is one character-class repeat (constant re memory).
_LETTER = f"A-Za-z0-9{chr(_PUA_BASE)}-{chr(_PUA_BASE + _PUA_KINDS * _PUA_IDS - 1)}"
_PATTERN_RE = re.compile(f"[{_LETTER}]*")
_RUN_RE = re.compile(rf"[{_LETTER}\s]*")
_BODY_RE = re.compile(rf"[{_LETTER}\s,]*")

# A file's units: "{body}", or a bare run that the next "{" ends.
_CHUNK = 1 << 16
_UNIT_RE = re.compile(r"\s*(?:\{([^{}]*)\}|([^{}\s][^{}]*)(?=\{))")
_SPACE_RE = re.compile(r"\s*")
_BRACE_RE = re.compile(r"[{}]")
_CLEAN = bytes.maketrans(b"{},", b"000")  # braces and commas read as letters


def encode_symbol(kind: int, ident: int) -> str:
    """Map a tagged symbol to its single-character in-memory form."""
    if not 1 <= kind <= _PUA_KINDS:
        raise ValueError(f"symbol kind {kind} out of range 1..{_PUA_KINDS}")
    if not 0 <= ident < _PUA_IDS:
        raise ValueError(f"symbol id {ident} out of range 0..{_PUA_IDS - 1}")
    return chr(_PUA_BASE + (kind - 1) * _PUA_IDS + ident)


def decode_symbol(ch: str) -> tuple[int, int]:
    """Inverse of encode_symbol."""
    off = ord(ch) - _PUA_BASE
    if not 0 <= off < _PUA_KINDS * _PUA_IDS:
        raise ValueError(f"{ch!r} is not a tagged symbol")
    return off // _PUA_IDS + 1, off % _PUA_IDS


class EDSParseError(ValueError):
    """Parse failure; carries the byte offset of the offending input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Segment:
    """One set of alternative strings; immutable, compared and hashed by value."""

    __slots__ = ("alternatives",)

    def __init__(self, alternatives: frozenset[str]):
        if not alternatives:
            raise ValueError("segment must have at least one alternative")
        _set_alternatives(self, alternatives)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy would otherwise set the slot
        return self.__class__, (self.alternatives,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.alternatives == other.alternatives
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.alternatives,))

    def __repr__(self) -> str:
        return f"Segment(alternatives={self.alternatives!r})"

    @property
    def contains_epsilon(self) -> bool:
        return "" in self.alternatives

    @property
    def size(self) -> int:
        return sum(len(a) for a in self.alternatives)


_set_alternatives = Segment.alternatives.__set__  # the slot's own setter


@dataclass(frozen=True)
class EDString:
    """An elastic-degenerate string with its segment count n and size N."""

    segments: tuple[Segment, ...]
    n: int = field(init=False)
    N: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("ED string must have at least one segment")
        object.__setattr__(self, "n", len(self.segments))
        object.__setattr__(self, "N", sum(s.size for s in self.segments))


@dataclass(frozen=True)
class Pattern:
    letters: str
    m: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("pattern must be non-empty")
        end = _PATTERN_RE.match(self.letters).end()
        if end < len(self.letters):
            raise ValueError(f"illegal pattern character {self.letters[end]!r}")
        object.__setattr__(self, "m", len(self.letters))


class BitVector:
    """Fixed-length 1-indexed bit vector backed by a Python int."""

    __slots__ = ("len", "_mask")

    def __init__(self, length: int, mask: int = 0):
        if length < 0:
            raise ValueError("length must be non-negative")
        self.len = length
        self._mask = mask & ((1 << length) - 1)

    @classmethod
    def from01(cls, bits: str) -> "BitVector":
        v = cls(len(bits))
        for i, ch in enumerate(bits):
            if ch == "1":
                v._mask |= 1 << i
            elif ch != "0":
                raise ValueError(f"bad bit character {ch!r}")
        return v

    def _check(self, i: int) -> None:
        if not 1 <= i <= self.len:
            raise IndexError(f"bit index {i} outside [1, {self.len}]")

    def get(self, i: int) -> int:
        self._check(i)
        return (self._mask >> (i - 1)) & 1

    def set(self, i: int, value: int = 1) -> None:
        self._check(i)
        if value:
            self._mask |= 1 << (i - 1)
        else:
            self._mask &= ~(1 << (i - 1))

    @property
    def mask(self) -> int:
        return self._mask

    def ones(self) -> list[int]:
        m, out, i = self._mask, [], 1
        while m:
            if m & 1:
                out.append(i)
            m >>= 1
            i += 1
        return out

    def to01(self) -> str:
        return "".join("1" if (self._mask >> i) & 1 else "0" for i in range(self.len))

    def __or__(self, other: "BitVector") -> "BitVector":
        if self.len != other.len:
            raise ValueError("length mismatch")
        return BitVector(self.len, self._mask | other._mask)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitVector)
            and self.len == other.len
            and self._mask == other._mask
        )

    def __hash__(self) -> int:
        return hash((self.len, self._mask))

    def __repr__(self) -> str:
        return f"BitVector({self.to01()!r})"


def _symbol(m: re.Match) -> str:
    try:
        return encode_symbol(int(m[1]), int(m[2]))
    except ValueError:
        return m[0]  # left as written, so its '<' fails the check


def _letters(text: str, chars: re.Pattern, offset=lambda i: i, at: int = 0) -> str:
    """Translate text's <k:id> escapes, check it against chars and drop its
    whitespace; the first fault, text[j], is reported at offset(at + j)."""
    letters = _SYMBOL_RE.sub(_symbol, text) if "<" in text else text
    if chars.fullmatch(letters):
        return "".join(letters.split())
    i = chars.match(text).end()
    while m := _SYMBOL_RE.match(text, i):
        try:
            encode_symbol(int(m[1]), int(m[2]))
        except ValueError as exc:
            raise EDSParseError(str(exc), offset(at + i)) from None
        i = chars.match(text, m.end()).end()
    ch = text[i]
    message = "malformed symbol escape" if ch == "<" else f"illegal character {ch!r}"
    raise EDSParseError(message, offset(at + i))


def _clean_units(head: str) -> list[Segment] | None:
    """The segments of head, a run of complete units, when it is clean: ASCII
    letters and digits, braces and commas, and no brace out of place, once
    its whitespace is dropped (which never changes such a head's segments).
    None otherwise, so that the regex loop parses head and reports its
    faults."""
    if not head.isascii():
        return None
    # On ASCII bytes, unlike str, isalnum holds for exactly [A-Za-z0-9]+.
    if not head.encode().translate(_CLEAN).isalnum():
        head = "".join(head.split())
        if not head.encode().translate(_CLEAN).isalnum():
            return None
    lead, *parts = head.split("{")
    if "}" in lead or "," in lead:
        return None
    segs = [Segment(frozenset((lead,)))] if lead else []
    for part in parts:
        body, brace, run = part.partition("}")
        if not brace or "}" in run or "," in run:
            return None
        segs.append(Segment(frozenset(body.split(","))))
        if run:
            segs.append(Segment(frozenset((run,))))
    return segs


def iter_parse_eds(stream: io.TextIOBase | str) -> Iterator[Segment]:
    """Parse an EDS byte stream, yielding segments one at a time.

    The stream is read in chunks of ``_CHUNK`` characters.  A segment is
    yielded as soon as the next brace, or the end of the input, shows it
    is complete; so memory is bounded by the largest segment plus one chunk.

    Each time a brace arrives, the buffer's units are complete up to its
    last brace: before a ``{``, through a ``}`` (and at the end of the
    input up to its trailing whitespace).  When that head is clean (see
    ``_clean_units``) C string methods split it; otherwise the regex loop
    parses the whole buffer, so every fault keeps its message and byte
    offset.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    base = 0  # byte offset of buf[0] in the input
    pieces: list[str] = []  # an unfinished unit, gathered until a brace ends it
    saw_any = False

    def offset(i: int) -> int:  # byte offset of buf[i] in the input
        return base + len(buf[:i].encode("utf-8", "surrogatepass"))

    while True:
        chunk = stream.read(_CHUNK)
        pieces.append(chunk)
        if chunk and "{" not in chunk and "}" not in chunk:
            continue
        buf = "".join(pieces)
        head = buf[: max(buf.rfind("{"), buf.rfind("}") + 1)] if chunk else buf.rstrip()
        segs = _clean_units(head) if head else None
        pos = 0
        if segs:
            yield from segs
            saw_any = True
            pos = len(head)
        # A unit needs a "{" ahead, and a "{" at pos a "}" after it; without
        # them the regex would fail only after backtracking over the tail.
        while (o := buf.find("{", pos)) >= 0 and (o > pos or buf.find("}", o) >= 0):
            m = _UNIT_RE.match(buf, pos)
            if m is None:
                break
            body, run = m.groups()
            if body is not None:
                yield Segment(frozenset(_letters(body, _BODY_RE, offset, m.start(1)).split(",")))
            else:
                yield Segment(frozenset((_letters(run, _RUN_RE, offset, m.start(2)),)))
            saw_any = True
            pos = m.end()
        # buf[pos:] holds no complete unit: keep it while a later chunk may
        # complete it, else report its first fault.
        s = _SPACE_RE.match(buf, pos).end()
        brace = buf.startswith("{", s)
        b = _BRACE_RE.search(buf, s + brace)
        if b is None and chunk:
            base = offset(s)
            pieces = [buf[s:]]
            continue
        stop = len(buf) if b is None else b.start()
        if brace:
            _letters(buf[s + 1 : stop], _BODY_RE, offset, s + 1)
            message = "unbalanced braces" if b is None else "nested braces"
            raise EDSParseError(message, offset(stop))
        if s < len(buf):
            run = _letters(buf[s : stop + 1], _RUN_RE, offset, s)  # fails at a "}"
            yield Segment(frozenset((run,)))
        elif not saw_any:
            raise EDSParseError("empty input", offset(len(buf)))
        return


def parse_eds(text: str) -> EDString:
    """Parse a whole EDS document into an EDString."""
    return EDString(tuple(iter_parse_eds(text)))


def serialize_string(s: str) -> str:
    """Render a single alternative, escaping tagged symbols."""
    out = []
    for ch in s:
        if ch in ALPHABET:
            out.append(ch)
        else:
            kind, ident = decode_symbol(ch)
            out.append(f"<{kind}:{ident}>")
    return "".join(out)


def serialize_eds(t: EDString) -> str:
    parts = []
    prev_bare = False
    for seg in t.segments:
        alts = sorted(seg.alternatives)
        # Two adjacent bare runs would re-parse as one segment, so a
        # deterministic segment right after another is brace-wrapped.
        if len(alts) == 1 and alts[0] and not prev_bare:
            parts.append(serialize_string(alts[0]))
            prev_bare = True
        else:
            parts.append("{" + ",".join(serialize_string(a) for a in alts) + "}")
            prev_bare = False
    return "".join(parts)


def parse_pattern_text(text: str) -> Pattern:
    """Parse a pattern string that may contain <k:id> escapes.

    Surrounding whitespace is ignored; an error's offset is the UTF-8 byte
    offset of the fault in text itself.
    """
    lead = len(text) - len(text.lstrip())
    return Pattern(_letters(text.strip(), _PATTERN_RE,
                            lambda i: len(text[:i].encode("utf-8", "surrogatepass")), lead))
