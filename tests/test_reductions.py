import random

import pytest

from edsm.boolean_linalg import BoolMatrix, bool_multiply
from edsm.eds_core import decode_symbol, parse_eds, parse_pattern_text, serialize_eds, serialize_string
from edsm.edsm_engine import search
from edsm.oracles import brute_ap, brute_edsm, brute_triangle
from edsm.reductions import TDInstance, bmm_to_ap, reconstruct_bmm, td_to_edsm

from conftest import random_bool_matrix

# Fixed 6x6 worked instance: matrices, per-block inputs and solved vectors.
A6 = BoolMatrix.from_rows(
    [list(map(int, row)) for row in
     ["010010", "101000", "000001", "100010", "000100", "010000"]]
)
B6 = BoolMatrix.from_rows(
    [list(map(int, row)) for row in
     ["000001", "100000", "001010", "010000", "000100", "100010"]]
)
C6 = BoolMatrix.from_rows(
    [list(map(int, row)) for row in
     ["100100", "001011", "100010", "000101", "010000", "100000"]]
)
U6 = {
    (1, 1): "0100000" "1010000" "0000000" "1000000" "0000000" "0100000",
    (2, 1): "0100000" "0000000" "0010000" "0100000" "1000000" "0000000",
}
U6[(1, 2)] = U6[(1, 1)]
U6[(2, 2)] = U6[(2, 1)]
S6 = {
    (1, 1): {"aba", "baaa"},
    (1, 2): {"aabaaa", "baa"},
    (2, 1): {"aabaa", "ba"},
    (2, 2): {"aba", "baa"},
}
V6 = {
    (1, 1): "0000100" "0000001" "0000000" "0000000" "0000000" "0000100",
    (2, 1): "0000000" "0000000" "0000100" "0000000" "0000010" "0000000",
    (1, 2): "0000000" "0000011" "0000000" "0000001" "0000000" "0000000",
    (2, 2): "0000100" "0000000" "0000010" "0000100" "0000000" "0000000",
}


class TestMatrixProductReduction:
    def test_worked_instance_bit_exact(self):
        blocks = bmm_to_ap(A6, B6, 3)
        assert len(blocks) == 4
        by_pos = {(b.k, b.j): b for b in blocks}
        for pos, blk in by_pos.items():
            assert blk.pattern.letters == "aaabaaa" * 6
            assert blk.u.to01() == U6[pos]
            assert set(blk.strings) == S6[pos]
            blk.v = brute_ap(blk.pattern, blk.u, blk.strings)
            assert blk.v.to01() == V6[pos]
        c = reconstruct_bmm(blocks)
        assert c.to_lists() == C6.to_lists()
        assert c.to_lists()[0][:3] == [1, 0, 0]  # row 1 of block column 1

    def test_zero_matrix_gives_zero_product(self):
        z = BoolMatrix.zero(6, 6)
        blocks = bmm_to_ap(z, z, 3)
        for blk in blocks:
            assert blk.u.to01() == "0" * 42
            assert blk.strings == ()
            blk.v = brute_ap(blk.pattern, blk.u, blk.strings)
        assert reconstruct_bmm(blocks).to_lists() == z.to_lists()

    def test_random_round_trip_equals_boolean_product(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.choice([4, 8, 16])
            l = rng.choice([d for d in (1, 2, 4, 8) if d <= n])
            a = random_bool_matrix(rng, n, n, 0.4)
            b = random_bool_matrix(rng, n, n, 0.4)
            blocks = bmm_to_ap(a, b, l)
            for blk in blocks:
                blk.v = brute_ap(blk.pattern, blk.u, blk.strings)
            assert reconstruct_bmm(blocks).to_lists() == bool_multiply(a, b).to_lists()

    def test_divisibility_and_shape_checks(self):
        sq = BoolMatrix.zero(6, 6)
        with pytest.raises(ValueError):
            bmm_to_ap(sq, sq, 4)
        with pytest.raises(ValueError):
            bmm_to_ap(sq, BoolMatrix.zero(4, 4), 2)

    def test_reconstruct_requires_solved_complete_blocks(self):
        blocks = bmm_to_ap(A6, B6, 3)
        with pytest.raises(ValueError):
            reconstruct_bmm(blocks)  # unsolved
        for blk in blocks:
            blk.v = brute_ap(blk.pattern, blk.u, blk.strings)
        with pytest.raises(ValueError):
            reconstruct_bmm(blocks[:-1])  # missing block
        with pytest.raises(ValueError):
            reconstruct_bmm([])


class TestTriangleReduction:
    def test_sizes_and_shape(self):
        rng = random.Random(32)
        a, b, c = (random_bool_matrix(rng, 8, 8, 0.2) for _ in range(3))
        pattern, text = td_to_edsm(TDInstance(a, b, c, 2))
        z = 8 * 2 * 2  # parts before padding; already a power of two
        part_len = 2 * (8 // 2) + 8
        assert pattern.m == z * part_len
        assert text.n == 2 * (z.bit_length() - 1) + 3

    def test_padding_to_power_of_two(self):
        rng = random.Random(33)
        a, b, c = (random_bool_matrix(rng, 6, 6, 0.2) for _ in range(3))
        pattern, text = td_to_edsm(TDInstance(a, b, c, 2))
        z_raw = 6 * 2 * 2  # 24 -> padded to 32 parts
        part_len = 2 * (6 // 2) + 8
        assert pattern.m == 32 * part_len
        assert text.n == 2 * 5 + 3

    def test_part_alphabet_layout(self):
        rng = random.Random(34)
        a, b, c = (random_bool_matrix(rng, 4, 4, 0.3) for _ in range(3))
        pattern, _ = td_to_edsm(TDInstance(a, b, c, 2))
        part_len = 2 * 2 + 8
        first = pattern.letters[:part_len]
        kinds = [decode_symbol(ch)[0] for ch in first]
        # v x a^2 x $ $ y a^2 y v
        assert kinds == [5, 3, 1, 1, 3, 2, 2, 4, 1, 1, 4, 5]
        assert first[0] == first[-1]

    def test_zero_matrices_have_no_occurrence(self):
        z = BoolMatrix.zero(4, 4)
        pattern, text = td_to_edsm(TDInstance(z, z, z, 2))
        assert search(pattern, text).positions == ()

    def test_planted_triangle_is_found(self):
        rows = [[0] * 4 for _ in range(4)]
        rows[2][1] = 1
        a = BoolMatrix.from_rows(rows)
        rows = [[0] * 4 for _ in range(4)]
        rows[1][3] = 1
        b = BoolMatrix.from_rows(rows)
        rows = [[0] * 4 for _ in range(4)]
        rows[3][2] = 1
        c = BoolMatrix.from_rows(rows)
        assert brute_triangle(a, b, c)
        pattern, text = td_to_edsm(TDInstance(a, b, c, 2))
        assert search(pattern, text).positions != ()

    def test_occurrence_iff_triangle_dual_oracle(self):
        rng = random.Random(35)
        for _ in range(40):
            a, b, c = (random_bool_matrix(rng, 4, 4, 0.25) for _ in range(3))
            pattern, text = td_to_edsm(TDInstance(a, b, c, 2))
            want = brute_triangle(a, b, c)
            assert bool(search(pattern, text).positions) == want
            assert bool(brute_edsm(pattern, text)) == want

    def test_serialization_round_trip(self):
        rng = random.Random(36)
        a, b, c = (random_bool_matrix(rng, 4, 4, 0.3) for _ in range(3))
        pattern, text = td_to_edsm(TDInstance(a, b, c, 2))
        assert parse_eds(serialize_eds(text)) == text
        assert parse_pattern_text(serialize_string(pattern.letters)) == pattern

    def test_validation(self):
        z4, z6 = BoolMatrix.zero(4, 4), BoolMatrix.zero(6, 6)
        with pytest.raises(ValueError):
            TDInstance(z4, z4, z6, 2)
        with pytest.raises(ValueError):
            TDInstance(z6, z6, z6, 4)  # 4 does not divide 6
        with pytest.raises(ValueError):
            TDInstance(z4, z4, z4, 0)
