import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsm.boolean_linalg import (
    BoolMatrix,
    PolyMatrix,
    bool_matvec_batch,
    bool_multiply,
    poly_multiply,
    rect_multiply,
)
from edsm.eds_core import BitVector
from edsm.oracles import naive_bool_multiply

from conftest import random_bool_matrix


def naive_poly_multiply(a: PolyMatrix, b: PolyMatrix) -> list[list[list[int]]]:
    out = [[[0] * (a.degree + b.degree + 1) for _ in range(b.cols)] for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                for ta in range(a.degree + 1):
                    for tb in range(b.degree + 1):
                        out[i][j][ta + tb] += a.coeff(i + 1, k + 1, ta) * b.coeff(
                            k + 1, j + 1, tb
                        )
    return out


def random_poly(rng: random.Random, rows: int, cols: int, degree: int, hi: int) -> PolyMatrix:
    coeffs = [
        [[rng.randint(0, hi) for _ in range(degree + 1)] for _ in range(cols)]
        for _ in range(rows)
    ]
    return PolyMatrix(rows, cols, degree, coeffs)


class TestBoolMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoolMatrix(0, 1, ())
        with pytest.raises(ValueError):
            BoolMatrix(1, 2, (4,))  # mask wider than cols
        with pytest.raises(ValueError):
            BoolMatrix(2, 2, (1,))

    def test_round_trip_and_get(self):
        m = BoolMatrix.from_rows([[1, 0, 1], [0, 1, 0]])
        assert m.to_lists() == [[1, 0, 1], [0, 1, 0]]
        assert m.get(1, 3) == 1 and m.get(2, 3) == 0
        with pytest.raises(IndexError):
            m.get(3, 1)

    @pytest.mark.parametrize("rows", [[], [[]], [[1, 0], [1]], [[1], [1, 0]]])
    def test_from_rows_rejects_empty_and_ragged(self, rows):
        with pytest.raises(ValueError):
            BoolMatrix.from_rows(rows)

    @pytest.mark.parametrize("cell", ["x", 2, -1, 0.5, 1.0, None])
    def test_from_rows_rejects_cells_other_than_0_and_1(self, cell):
        with pytest.raises(ValueError):
            BoolMatrix.from_rows([[1, 0], [0, cell]])

    def test_from_rows_takes_bools(self):
        assert BoolMatrix.from_rows([[True, False]]).data == (1,)

    def test_identity_is_neutral(self):
        rng = random.Random(0)
        m = random_bool_matrix(rng, 7, 7)
        i = BoolMatrix.identity(7)
        assert bool_multiply(m, i).data == m.data
        assert bool_multiply(i, m).data == m.data


class TestBoolProducts:
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32))
    @settings(max_examples=150)
    def test_multiply_matches_naive(self, r, k, c, seed):
        rng = random.Random(seed)
        a = random_bool_matrix(rng, r, k)
        b = random_bool_matrix(rng, k, c)
        assert bool_multiply(a, b).data == naive_bool_multiply(a, b).data

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            bool_multiply(BoolMatrix.zero(2, 3), BoolMatrix.zero(2, 2))

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**32))
    @settings(max_examples=150)
    def test_rect_multiply_matches_naive(self, n, c, seed):
        if c > n:
            c = n
        rng = random.Random(seed)
        a = random_bool_matrix(rng, n, n)
        b = random_bool_matrix(rng, n, c)
        assert rect_multiply(a, b).data == naive_bool_multiply(a, b).data

    def test_rect_multiply_requires_square_left(self):
        with pytest.raises(ValueError):
            rect_multiply(BoolMatrix.zero(2, 3), BoolMatrix.zero(3, 2))
        with pytest.raises(ValueError):
            rect_multiply(BoolMatrix.zero(2, 2), BoolMatrix.zero(2, 3))

    @given(st.integers(1, 12), st.integers(0, 12), st.integers(1, 14), st.integers(0, 2**32))
    @settings(max_examples=150)
    def test_matvec_batch_matches_per_vector_product(self, n, count, z, seed):
        rng = random.Random(seed)
        m = random_bool_matrix(rng, n, n)
        vectors = [BitVector(n, rng.getrandbits(n)) for _ in range(count)]
        got = bool_matvec_batch(m, vectors, z)
        for u, v in zip(vectors, got):
            want = 0
            for r_i, row in enumerate(m.data):
                if row & u.mask:
                    want |= 1 << r_i
            assert v.mask == want and v.len == n

    def test_matvec_batch_validation(self):
        m = BoolMatrix.identity(3)
        with pytest.raises(ValueError):
            bool_matvec_batch(m, [BitVector(2)], 2)
        with pytest.raises(ValueError):
            bool_matvec_batch(m, [BitVector(3)], 0)


class TestPolyProducts:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PolyMatrix(1, 1, 1, [[[0]]])
        with pytest.raises(ValueError):
            PolyMatrix(1, 1, 0, [[[-1]]])

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 8),
        st.integers(0, 8),
        st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_convolution(self, r, k, c, da, db, seed):
        rng = random.Random(seed)
        a = random_poly(rng, r, k, da, 50)
        b = random_poly(rng, k, c, db, 50)
        got = poly_multiply(a, b)
        want = naive_poly_multiply(a, b)
        assert got.degree == 2 * max(da, db)
        for i in range(r):
            for j in range(c):
                for t in range(da + db + 1):
                    assert got.coeff(i + 1, j + 1, t) == want[i][j][t]
                for t in range(da + db + 1, got.degree + 1):
                    assert got.coeff(i + 1, j + 1, t) == 0

    def test_exact_coefficients_above_998244353(self):
        # A transform modulo the prime 998244353 cannot recover coefficients
        # above it; these products need that and must still be exact.
        big = PolyMatrix(1, 1, 0, [[[50_000]]])
        assert poly_multiply(big, big).coeff(1, 1, 0) == 2_500_000_000
        rng = random.Random(12)
        a = random_poly(rng, 2, 3, 4, 10**9)
        b = random_poly(rng, 3, 2, 2, 10**9)
        got = poly_multiply(a, b)
        want = naive_poly_multiply(a, b)
        assert got.degree == 8
        for i in range(2):
            for j in range(2):
                assert list(got.coeffs[i][j]) == want[i][j] + [0, 0]
        assert max(want[0][0]) > 998244353

    @pytest.mark.parametrize("k, d", [(1, 255), (256, 0), (16, 15)])
    def test_coefficient_at_the_slot_bound(self, k, d):
        # All-ones factors make the middle coefficient k * (d + 1) = 256,
        # the largest the slot must hold and one more than a byte does.
        a = PolyMatrix(1, k, d, [[[1] * (d + 1)] * k])
        b = PolyMatrix(k, 1, d, [[[1] * (d + 1)]] * k)
        got = poly_multiply(a, b)
        want = [k * (min(t, 2 * d - t) + 1) for t in range(2 * d + 1)]
        assert list(got.coeffs[0][0]) == want and want[d] == 256

    def test_zero_factor_gives_zero_product(self):
        big = PolyMatrix(2, 1, 1, [[[300, 1]], [[0, 70_000]]])
        for a, b in ((PolyMatrix.zero(1, 2, 2), big), (big, PolyMatrix.zero(1, 3, 0))):
            got = poly_multiply(a, b)
            assert got == PolyMatrix.zero(a.rows, b.cols, 2 * max(a.degree, b.degree))

    def test_exact_large_coefficients_within_budget(self):
        a = PolyMatrix(1, 1, 1, [[[15_000, 1]]])
        b = PolyMatrix(1, 1, 1, [[[15_000, 2]]])
        got = poly_multiply(a, b)
        assert [got.coeff(1, 1, t) for t in range(3)] == [225_000_000, 45_000, 2]
