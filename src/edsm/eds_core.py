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
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

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


def _is_letter(ch: str) -> bool:
    return ch in ALPHABET or _PUA_BASE <= ord(ch) < _PUA_BASE + _PUA_KINDS * _PUA_IDS


class EDSParseError(ValueError):
    """Parse failure; carries the byte offset of the offending input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Segment:
    """One set of alternative strings."""

    alternatives: frozenset[str]
    contains_epsilon: bool = field(init=False)

    def __post_init__(self) -> None:
        if not self.alternatives:
            raise ValueError("segment must have at least one alternative")
        object.__setattr__(self, "contains_epsilon", "" in self.alternatives)

    @property
    def size(self) -> int:
        return sum(len(a) for a in self.alternatives)


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
        bad = next((c for c in self.letters if not _is_letter(c)), None)
        if bad is not None:
            raise ValueError(f"illegal pattern character {bad!r}")
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


def _decode_letters(text: str, base_offset: int) -> Iterator[tuple[str, int]]:
    """Yield (letter, byte offset) pairs, translating <k:id> escapes."""
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "<":
            m = _SYMBOL_RE.match(text, i)
            if m is None:
                raise EDSParseError("malformed symbol escape", base_offset + i)
            try:
                yield encode_symbol(int(m.group(1)), int(m.group(2))), base_offset + i
            except ValueError as exc:
                raise EDSParseError(str(exc), base_offset + i) from None
            i = m.end()
        else:
            yield ch, base_offset + i
            i += 1


def iter_parse_eds(stream: io.TextIOBase | str) -> Iterator[Segment]:
    """Parse an EDS byte stream, yielding segments one at a time.

    The stream is consumed incrementally: nothing past the characters of
    the segment being yielded (plus one lookahead character) is read.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)

    offset = 0
    pending: list[str] = []  # lookahead pushback, at most one char

    def read_char() -> str:
        nonlocal offset
        if pending:
            ch = pending.pop()
        else:
            ch = stream.read(1)
        if ch:
            offset += len(ch.encode("utf-8", "surrogatepass")) if ord(ch[0]) > 127 else 1
        return ch

    def illegal(ch: str) -> EDSParseError:
        # read_char has counted all of ch's bytes; point at its first one.
        start = offset - len(ch.encode("utf-8", "surrogatepass"))
        return EDSParseError(f"illegal character {ch!r}", start)

    def push_back(ch: str) -> None:
        nonlocal offset
        pending.append(ch)
        offset -= 1

    def read_escape() -> str:
        # The leading '<' has been consumed; read through the closing '>'.
        start = offset - 1
        body = ["<"]
        while True:
            ch = read_char()
            if not ch:
                raise EDSParseError("unterminated symbol escape", offset)
            body.append(ch)
            if ch == ">":
                break
            if len(body) > 16:
                raise EDSParseError("malformed symbol escape", start)
        raw = "".join(body)
        letters = [c for c, _ in _decode_letters(raw, start)]
        return letters[0]

    def read_brace_segment() -> Segment:
        alts: list[str] = []
        cur: list[str] = []
        while True:
            ch = read_char()
            if not ch:
                raise EDSParseError("unbalanced braces", offset)
            if ch.isspace():
                continue
            if ch == ",":
                alts.append("".join(cur))
                cur = []
            elif ch == "}":
                alts.append("".join(cur))
                break
            elif ch == "<":
                cur.append(read_escape())
            elif _is_letter(ch):
                cur.append(ch)
            elif ch == "{":
                raise EDSParseError("nested braces", offset - 1)
            else:
                raise illegal(ch)
        return Segment(frozenset(alts))

    saw_any = False
    while True:
        ch = read_char()
        if not ch:
            break
        if ch.isspace():
            continue
        if ch == "{":
            seg = read_brace_segment()
            saw_any = True
            yield seg
        elif _is_letter(ch) or ch == "<":
            run = [read_escape() if ch == "<" else ch]
            while True:
                nxt = read_char()
                if not nxt:
                    break
                if nxt.isspace():
                    continue
                if nxt == "{":
                    push_back(nxt)
                    break
                if nxt == "<":
                    run.append(read_escape())
                elif _is_letter(nxt):
                    run.append(nxt)
                else:
                    raise illegal(nxt)
            saw_any = True
            yield Segment(frozenset({"".join(run)}))
        else:
            raise illegal(ch)
    if not saw_any:
        raise EDSParseError("empty input", offset)


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
    """Parse a pattern string that may contain <k:id> escapes."""
    letters = "".join(c for c, _ in _decode_letters(text.strip(), 0))
    return Pattern(letters)
