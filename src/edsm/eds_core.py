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
largest segment plus one chunk.  One routine checks and splits every run
of complete units: clean text, only [A-Za-z0-9] letters between braces
and commas, with whitespace anywhere, passes one alphanumeric check;
other text passes one character-class check once its ``<kind:id>``
escapes are translated; C string methods then split it.  Text that fails
holds a fault, and one tokenizer reads it again to find the first, with
its message and byte offset.
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
_ESCAPE = r"<([0-9]+):([0-9]+)>"
_SYMBOL_RE = re.compile(_ESCAPE)

# The letter grammar: ALPHABET and the tagged-symbol area, written <k:id> in
# files.  Escapes are translated first, so each check is one character-class
# repeat (constant re memory); the token patterns find the first fault.
_LETTER = f"A-Za-z0-9{chr(_PUA_BASE)}-{chr(_PUA_BASE + _PUA_KINDS * _PUA_IDS - 1)}"
_PATTERN_RE = re.compile(f"[{_LETTER}]*")
_TEXT_RE = re.compile(f"[{_LETTER}{{}},]*")
_PATTERN_TOKEN_RE = re.compile(rf"[{_LETTER}]+|{_ESCAPE}")
_TOKEN_RE = re.compile(rf"[{_LETTER}\s]+|{_ESCAPE}|[{{}},]")

_CHUNK = 1 << 16
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


def _clean(text: str) -> bool:
    """Whether text holds only [A-Za-z0-9] letters, braces and commas."""
    # On ASCII bytes, unlike str, isalnum holds for exactly [A-Za-z0-9]+.
    return text.isascii() and text.encode().translate(_CLEAN).isalnum()


def _units(head: str) -> list[Segment] | None:
    """The segments of head, a run of complete units, or None when head holds
    a fault.  Clean text passes a bytes check, once its whitespace is dropped
    if need be; other text passes one _TEXT_RE check once its <k:id> escapes
    are translated and its whitespace dropped, which never changes a
    faultless head's segments.  C string methods then split the head."""
    if not _clean(head):
        if "<" in head:
            head = _SYMBOL_RE.sub(_symbol, head)
        head = "".join(head.split())
        if head and not (_clean(head) or _TEXT_RE.fullmatch(head)):
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


def _first_fault(text: str, tokens: re.Pattern) -> tuple[int, str]:
    """The index and message of text's first fault, read token by token:
    letter runs, <k:id> escapes, and in ED text braces at most one deep and
    commas between them.  text must hold a fault; an unclosed brace at its
    end is one."""
    i = depth = 0
    while m := tokens.match(text, i):
        token = m[0]
        if m[1]:
            try:
                encode_symbol(int(m[1]), int(m[2]))
            except ValueError as exc:
                return i, str(exc)
        elif token == "{":
            if depth:
                return i, "nested braces"
            depth = 1
        elif token == "}" or token == ",":
            if not depth:
                break  # outside braces, an illegal character
            depth = token == ","
        i = m.end()
    if i == len(text):
        return i, "unbalanced braces"
    return i, "malformed symbol escape" if text[i] == "<" else f"illegal character {text[i]!r}"


def _nbytes(text: str) -> int:
    return len(text.encode("utf-8", "surrogatepass"))


def iter_parse_eds(stream: io.TextIOBase | str) -> Iterator[Segment]:
    """Parse an EDS byte stream, yielding segments one at a time.

    The stream is read in chunks of ``_CHUNK`` characters.  A segment is
    yielded as soon as the next brace, or the end of the input, shows it
    is complete; so memory is bounded by the largest segment plus one chunk.

    Each time a brace arrives, the buffer's units are complete up to its
    last brace: before a ``{``, through a ``}`` (at the end of the input,
    all of it).  ``_units`` checks that head and splits it.  A head that
    holds a fault is read again by ``_first_fault``; the units before the
    faulty one are yielded, and the fault is raised with its message and
    byte offset.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    base = 0  # byte offset of buf[0] in the input
    pieces: list[str] = []  # an unfinished unit, gathered until a brace ends it
    saw_any = False
    while True:
        chunk = stream.read(_CHUNK)
        pieces.append(chunk)
        if chunk and "{" not in chunk and "}" not in chunk:
            continue
        buf = "".join(pieces)
        end = max(buf.rfind("{"), buf.rfind("}") + 1) if chunk else len(buf)
        segs = _units(buf[:end])
        if segs is None:
            i, message = _first_fault(buf, _TOKEN_RE)
            yield from _units(buf[: max(buf.rfind("{", 0, i), buf.rfind("}", 0, i) + 1)])
            raise EDSParseError(message, base + _nbytes(buf[:i]))
        yield from segs
        saw_any = saw_any or bool(segs)
        if not chunk:
            if not saw_any:
                raise EDSParseError("empty input", base + _nbytes(buf))
            return
        base += _nbytes(buf[:end])
        pieces = [buf[end:]]


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
    core = text.strip()
    letters = _SYMBOL_RE.sub(_symbol, core) if "<" in core else core
    if _PATTERN_RE.fullmatch(letters):
        return Pattern(letters)
    i, message = _first_fault(core, _PATTERN_TOKEN_RE)
    lead = len(text) - len(text.lstrip())
    raise EDSParseError(message, _nbytes(text[: lead + i]))
