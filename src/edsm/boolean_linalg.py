"""Dense Boolean and polynomial matrix products.

BoolMatrix packs each row into a Python int, so a Boolean product is a
word-parallel OR of rows.  Rectangular products decompose into square
blocks.  PolyMatrix products are exact on Python ints: Kronecker
substitution packs each polynomial into one int, so an entry of the
product is a sum of int products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .eds_core import BitVector

__all__ = [
    "BoolMatrix",
    "PolyMatrix",
    "bool_matvec_batch",
    "bool_multiply",
    "poly_multiply",
    "rect_multiply",
]


@dataclass(frozen=True)
class BoolMatrix:
    """rows x cols Boolean matrix; row i packed with bit j-1 = cell (i, j)."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("dimensions must be positive")
        if len(self.data) != self.rows:
            raise ValueError("row count mismatch")
        limit = 1 << self.cols
        if any(not 0 <= r < limit for r in self.data):
            raise ValueError("row mask wider than cols")

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "BoolMatrix":
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("rows differ in length")
        packed = []
        for row in rows:
            mask = 0
            for j, cell in enumerate(row):
                if not (isinstance(cell, int) and cell in (0, 1)):
                    raise ValueError(f"cell {cell!r} is not 0 or 1")
                if cell:
                    mask |= 1 << j
            packed.append(mask)
        return cls(len(rows), cols, tuple(packed))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "BoolMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "BoolMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    def get(self, i: int, j: int) -> int:
        """1-indexed cell access."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"cell ({i},{j}) outside {self.rows}x{self.cols}")
        return (self.data[i - 1] >> (j - 1)) & 1

    def to_lists(self) -> list[list[int]]:
        return [
            [(mask >> j) & 1 for j in range(self.cols)] for mask in self.data
        ]


def bool_multiply(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    out = []
    bdata = b.data
    for mask in a.data:
        acc = 0
        k = 0
        while mask:
            tz = (mask & -mask).bit_length() - 1
            k += tz
            acc |= bdata[k]
            mask >>= tz + 1
            k += 1
        out.append(acc)
    return BoolMatrix(a.rows, b.cols, tuple(out))


def _submatrix(m: BoolMatrix, r0: int, c0: int, size: int) -> BoolMatrix:
    colmask = (1 << size) - 1
    rows = []
    for r in range(r0, r0 + size):
        rows.append((m.data[r] >> c0) & colmask if r < m.rows else 0)
    return BoolMatrix(size, size, tuple(rows))


def rect_multiply(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Square N x N times N x N' with N >= N', via N' x N' block products."""
    if a.rows != a.cols:
        raise ValueError("left factor must be square")
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    n, np_ = a.rows, b.cols
    if np_ > n:
        raise ValueError("right factor wider than the square side")
    if np_ == n:
        return bool_multiply(a, b)
    blocks = -(-n // np_)
    acc_rows = [0] * (blocks * np_)
    for bi in range(blocks):
        for bk in range(blocks):
            ablk = _submatrix(a, bi * np_, bk * np_, np_)
            bblk = _submatrix(b, bk * np_, 0, np_)
            prod = bool_multiply(ablk, bblk)
            base = bi * np_
            for r in range(np_):
                acc_rows[base + r] |= prod.data[r]
    return BoolMatrix(n, np_, tuple(acc_rows[:n]))


def bool_matvec_batch(
    m: BoolMatrix, vectors: list[BitVector], z: int
) -> list[BitVector]:
    """M x U_i for every i; batches of z go through rect_multiply."""
    if z < 1:
        raise ValueError("batch size must be positive")
    for u in vectors:
        if u.len != m.cols:
            raise ValueError(f"vector length {u.len} != cols {m.cols}")
    if not vectors:
        return []
    if len(vectors) < z or z == 1 or m.rows != m.cols or z > m.cols:
        # Short batch: plain per-vector products over the rows of M.
        out = []
        for u in vectors:
            acc = 0
            umask = u.mask
            for r, row in enumerate(m.data):
                if row & umask:
                    acc |= 1 << r
            out.append(BitVector(m.rows, acc))
        return out
    results: list[BitVector] = []
    for g0 in range(0, len(vectors), z):
        group = vectors[g0 : g0 + z]
        cols = [u.mask for u in group] + [0] * (z - len(group))
        right = BoolMatrix(m.cols, z, tuple(_transpose_cols(cols, m.cols)))
        prod = rect_multiply(m, right)
        for c in range(len(group)):
            mask = 0
            for r in range(m.rows):
                if (prod.data[r] >> c) & 1:
                    mask |= 1 << r
            results.append(BitVector(m.rows, mask))
    return results


def _transpose_cols(cols: list[int], nrows: int) -> list[int]:
    rows = []
    for r in range(nrows):
        mask = 0
        for c, col in enumerate(cols):
            if (col >> r) & 1:
                mask |= 1 << c
        rows.append(mask)
    return rows


@dataclass(frozen=True)
class PolyMatrix:
    """rows x cols matrix of polynomials; coeffs[i][j][t] = coefficient of x^t.

    Any nested sequence of non-negative ints is accepted and stored as
    nested tuples.
    """

    rows: int
    cols: int
    degree: int
    coeffs: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1 or self.degree < 0:
            raise ValueError("bad shape")
        coeffs = tuple(tuple(tuple(entry) for entry in row) for row in self.coeffs)
        if len(coeffs) != self.rows or any(
            len(row) != self.cols or any(len(e) != self.degree + 1 for e in row)
            for row in coeffs
        ):
            raise ValueError("coefficient array shape mismatch")
        if any(c < 0 for row in coeffs for entry in row for c in entry):
            raise ValueError("coefficients must be non-negative")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, rows: int, cols: int, degree: int) -> "PolyMatrix":
        return cls(rows, cols, degree, (((0,) * (degree + 1),) * cols,) * rows)

    def coeff(self, i: int, j: int, t: int) -> int:
        """1-indexed entry, 0-indexed power."""
        return self.coeffs[i - 1][j - 1][t]


def _pack(entry: tuple[int, ...], width: int) -> int:
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in entry), "little")


def _unpack(value: int, slots: int, width: int) -> tuple[int, ...]:
    buf = value.to_bytes(slots * width, "little")
    return tuple(
        int.from_bytes(buf[t : t + width], "little") for t in range(0, len(buf), width)
    )


def poly_multiply(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Exact product by Kronecker substitution.

    Each entry becomes one int with one coefficient per byte slot, so an
    int product is a polynomial product.  A slot holds the largest
    possible output coefficient, so sums never carry between slots.
    """
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    out_deg = 2 * max(a.degree, b.degree)
    max_a = max(c for row in a.coeffs for entry in row for c in entry)
    max_b = max(c for row in b.coeffs for entry in row for c in entry)
    if not (max_a and max_b):
        return PolyMatrix.zero(a.rows, b.cols, out_deg)
    bound = a.cols * (min(a.degree, b.degree) + 1) * max_a * max_b
    width = -(-bound.bit_length() // 8)
    pa = [[_pack(entry, width) for entry in row] for row in a.coeffs]
    pb = [[_pack(entry, width) for entry in row] for row in b.coeffs]
    out = [
        [
            _unpack(
                sum(x * brow[j] for x, brow in zip(arow, pb) if x and brow[j]),
                out_deg + 1,
                width,
            )
            for j in range(b.cols)
        ]
        for arow in pa
    ]
    return PolyMatrix(a.rows, b.cols, out_deg, out)
