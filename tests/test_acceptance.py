"""Acceptance gate: one test per release criterion.

Each test name is one pass/fail line under ``pytest -v``; docstrings
state the exact instance sizes and tolerances.  Randomized criteria use
fixed seeds so the gate is reproducible.
"""

import math
import random
import time

import pytest

from edsm.ap_engine import APInstance, solve_ap, solve_type1, solve_type2, solve_type3
from edsm.boolean_linalg import (
    BoolMatrix,
    PolyMatrix,
    bool_matvec_batch,
    bool_multiply,
    poly_multiply,
    rect_multiply,
)
from edsm.eds_core import BitVector, Pattern, parse_eds
from edsm.edsm_engine import search
from edsm.node_select import BipartiteInstance, solve_derandomized, solve_random
from edsm.oracles import brute_ap, brute_edsm, brute_triangle, naive_bool_multiply
from edsm.reductions import TDInstance, bmm_to_ap, reconstruct_bmm, td_to_edsm
from edsm.stringology import TypeLabel, all_maximal_runs, period

from conftest import random_bool_matrix, random_edstring, random_pattern, typed_ap_instance
from test_reductions import A6, B6, C6, S6, U6, V6

EXAMPLE_TEXT = "ATGTA{A,T}C{G,T}CG{TA,TATA,}{TATGC,TTTTA}"


def test_criterion_01_golden_search_example():
    """Searching GTAT in the seven-segment example returns exactly
    positions {2, 6, 7}; exact match, wall time under 1 second."""
    start = time.perf_counter()
    report = search("GTAT", parse_eds(EXAMPLE_TEXT))
    elapsed = time.perf_counter() - start
    assert report.positions == (2, 6, 7)
    assert elapsed < 1.0, f"took {elapsed:.3f}s, limit 1s"


def test_criterion_02_golden_active_prefixes_example():
    """solve_ap on P=ababbababab, U=01000100000,
    S={eps, ab, abb, ba, baba} returns V=01011101010; bit-exact."""
    v = solve_ap(
        APInstance(
            Pattern("ababbababab"),
            BitVector.from01("01000100000"),
            ("", "ab", "abb", "ba", "baba"),
        )
    )
    assert v.to01() == "01011101010"


def test_criterion_03_worked_matrix_product_reduction():
    """bmm_to_ap on the fixed 6x6 instance with block size 3 reproduces
    the published per-block U and S, solving yields the published V,
    and reconstruction yields the published C; bit-exact."""
    blocks = bmm_to_ap(A6, B6, 3)
    for blk in blocks:
        assert blk.u.to01() == U6[(blk.k, blk.j)]
        assert set(blk.strings) == S6[(blk.k, blk.j)]
        blk.v = solve_ap(APInstance(blk.pattern, blk.u, blk.strings))
        assert blk.v.to01() == V6[(blk.k, blk.j)]
    c = reconstruct_bmm(blocks)
    assert c.to_lists() == C6.to_lists()
    assert c.to_lists()[0][:3] == [1, 0, 0]


def test_criterion_04_search_oracle_equivalence():
    """10^4 randomized instances (alphabet {a,b,c}, m <= 12, n <= 8,
    <= 4 alternatives of length <= 6 per segment, epsilon probability
    0.2): search == brute_edsm exactly; total wall time under 60 s."""
    rng = random.Random(0xED5)
    start = time.perf_counter()
    for trial in range(10_000):
        p = random_pattern(rng, max_m=12)
        t = random_edstring(rng, max_n=8, max_alts=4, max_len=6, eps_prob=0.2)
        got = search(p, t).positions
        want = tuple(brute_edsm(p, t, window_cap=t.n))
        assert got == want, f"trial {trial}: {got} != {want}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, limit 60s"


@pytest.mark.parametrize(
    "label,entry",
    [
        (TypeLabel.Type1, solve_type1),
        (TypeLabel.Type2, solve_type2),
        (TypeLabel.Type3, solve_type3),
    ],
    ids=["type1", "type2", "type3"],
)
def test_criterion_05_typed_solver_oracle_equivalence(label, entry):
    """10^3 instances per type-specific solver (m <= 256,
    ell in {32, 64}): solver output == brute_ap exactly."""
    rng = random.Random(0xA90 + label.value)
    for trial in range(1000):
        ell = 32 if trial % 2 == 0 else 64
        p, u, members, _ = typed_ap_instance(rng, ell, label, max_m=256)
        got = entry(p, u, members, ell)
        want = brute_ap(p, u, members)
        assert got == want, f"trial {trial} (ell={ell})"


def test_criterion_06_triangle_reduction_soundness():
    """100 random + 20 planted triangle instances (size 8, block
    parameter 2): the search engine's occurrence decision equals
    brute_triangle; exact."""
    rng = random.Random(0x7D1)
    cases = []
    for _ in range(100):
        cases.append([random_bool_matrix(rng, 8, 8, 0.12).to_lists() for _ in range(3)])
    for _ in range(20):
        mats = [random_bool_matrix(rng, 8, 8, 0.05).to_lists() for _ in range(3)]
        i, j, k = (rng.randrange(8) for _ in range(3))
        mats[0][i][j] = mats[1][j][k] = mats[2][k][i] = 1
        cases.append(mats)
    for idx, (ra, rb, rc) in enumerate(cases):
        a, b, c = (BoolMatrix.from_rows(r) for r in (ra, rb, rc))
        pattern, text = td_to_edsm(TDInstance(a, b, c, 2))
        got = bool(search(pattern, text).positions)
        want = brute_triangle(a, b, c)
        assert got == want, f"case {idx}: engine {got}, triangle {want}"
        if idx >= 100:
            assert want, f"planted case {idx} lost its triangle"


def test_criterion_07_node_selection_bounds():
    """200 random bipartite instances (|U| <= 100, d in {4, 8, 16}):
    both solvers hit every neighbourhood, total weight <=
    4(W/d)ln(4|U|) and total incidence <= 8|U|ln(4|U|); exact
    inequality checks (no tolerance)."""
    from fractions import Fraction

    rng = random.Random(0x45)
    for trial in range(200):
        d = rng.choice([4, 8, 16])
        n_left = rng.randint(1, 100)
        n_right = rng.randint(2 * d, 6 * d)
        adj = tuple(
            tuple(sorted(rng.sample(range(n_right), rng.randint(d + 1, 2 * d))))
            for _ in range(n_left)
        )
        weights = tuple(rng.uniform(0, 5) for _ in range(n_right))
        g = BipartiteInstance(n_left, n_right, weights, adj, Fraction(d))
        log_term = math.log(4 * n_left)
        weight_cap = 4 * (g.total_weight / d) * log_term
        incidence_cap = 8 * n_left * log_term
        for sel in (solve_derandomized(g), solve_random(g, trial)):
            for u, nbrs in enumerate(adj):
                assert any(v in sel.chosen for v in nbrs), f"trial {trial}: u={u} uncovered"
            assert sel.total_weight <= weight_cap, f"trial {trial}: weight"
            assert sel.total_incidence <= incidence_cap, f"trial {trial}: incidence"


class _AllBinaryStrings:
    """Bit-parallel predicates over every binary string of one length.

    A bitset (Python int) holds one bit per string code c in [0, 2^n);
    character j of string c is bit j of c.  All predicates below are
    built from single-character equality masks, so each operation runs
    over all 2^n strings at once.
    """

    def __init__(self, n: int):
        self.n = n
        self.full = (1 << (1 << n)) - 1
        # bitchar[j]: strings whose j-th character is 1 (a 01-block
        # pattern of period 2^{j+1}).
        self.bitchar = []
        for j in range(n):
            block = ((1 << (1 << j)) - 1) << (1 << j)
            per = 1 << (j + 1)
            reps = 1 << (n - j - 1)
            self.bitchar.append(
                block * (((1 << (per * reps)) - 1) // ((1 << per) - 1))
            )
        self._eq = {}

    def eq(self, j1: int, j2: int) -> int:
        """Strings whose characters j1 and j2 agree."""
        key = (min(j1, j2), max(j1, j2))
        got = self._eq.get(key)
        if got is None:
            got = ~(self.bitchar[j1] ^ self.bitchar[j2]) & self.full
            self._eq[key] = got
        return got

    def has_period(self, i: int, length: int, p: int) -> int:
        """Strings where s[i..i+length-1] has period p (not necessarily minimal)."""
        acc = self.full
        for t in range(length - p):
            acc &= self.eq(i + t, i + t + p)
        return acc

    def string(self, code: int) -> str:
        return "".join("ab"[(code >> j) & 1] for j in range(self.n))


def test_criterion_08_periodicity_lemmas_exhaustive():
    """Exhaustive over all binary strings of length <= 20: (a) the
    periodicity interaction property (two periods p, q with
    p + q - gcd(p,q) <= n force period gcd(p,q)); (b) all length-ell
    windows strongly periodic implies 4*per(S) <= ell; (c) maximal runs
    pairwise overlap strictly less than ell/2; ell in {8, 12, 16}."""
    for n in range(1, 21):
        uni = _AllBinaryStrings(n)
        full_period = {p: uni.has_period(0, n, p) for p in range(1, n + 1)}

        # (a) Two compatible periods force their gcd.
        for p in range(1, n + 1):
            for q in range(p, n + 1):
                g = math.gcd(p, q)
                if p + q - g <= n:
                    viol = full_period[p] & full_period[q] & ~full_period[g]
                    assert viol == 0, (n, p, q, uni.string((viol & -viol).bit_length() - 1))

        for ell in (8, 12, 16):
            if n < ell:
                continue
            quarter = ell // 4

            # (b) All windows strongly periodic => global period <= ell/4.
            all_sp = uni.full
            for i in range(n - ell + 1):
                window_sp = 0
                for p in range(1, quarter + 1):
                    window_sp |= uni.has_period(i, ell, p)
                all_sp &= window_sp
            conclusion = 0
            for p in range(1, quarter + 1):
                conclusion |= full_period[p]
            viol = all_sp & ~conclusion
            assert viol == 0, (n, ell, uni.string((viol & -viol).bit_length() - 1))

            # (c) Maximal runs (length >= ell, minimal period <= ell/4,
            # non-extendable) pairwise overlap < ell/2.
            runs: dict[tuple[int, int], int] = {}
            for i in range(n - ell + 1):
                for length in range(ell, n - i + 1):
                    mask = 0
                    shorter = 0
                    for p in range(1, quarter + 1):
                        exact = uni.has_period(i, length, p) & ~shorter
                        shorter |= uni.has_period(i, length, p)
                        if i > 0:
                            exact &= ~uni.eq(i - 1, i - 1 + p)
                        if i + length < n:
                            exact &= ~uni.eq(i + length, i + length - p)
                        mask |= exact
                    if mask:
                        runs[(i, length)] = mask
            spans = sorted(runs)
            for a in range(len(spans)):
                i1, l1 = spans[a]
                for b in range(a + 1, len(spans)):
                    i2, l2 = spans[b]
                    overlap = min(i1 + l1, i2 + l2) - max(i1, i2)
                    if 2 * overlap >= ell:
                        both = runs[spans[a]] & runs[spans[b]]
                        assert both == 0, (n, ell, spans[a], spans[b])

    # Sanity: the bit-parallel predicates agree with the direct
    # string functions on a sample.
    uni = _AllBinaryStrings(12)
    rng = random.Random(8)
    for _ in range(60):
        code = rng.randrange(1 << 12)
        s = uni.string(code)
        direct = period(s)
        via_bits = next(
            p for p in range(1, 13) if (uni.has_period(0, 12, p) >> code) & 1
        )
        assert direct == via_bits
        got_runs = {
            (r.start - 1, r.length) for r in all_maximal_runs(s, 8)
        }
        bit_runs = set()
        for i in range(12 - 8 + 1):
            for length in range(8, 12 - i + 1):
                shorter = 0
                for p in range(1, 3):
                    exact = uni.has_period(i, length, p) & ~shorter
                    shorter |= uni.has_period(i, length, p)
                    if i > 0:
                        exact &= ~uni.eq(i - 1, i - 1 + p)
                    if i + length < 12:
                        exact &= ~uni.eq(i + length, i + length - p)
                    if (exact >> code) & 1:
                        bit_runs.add((i, length))
        assert got_runs == bit_runs, s


def test_criterion_09_linear_algebra_oracles():
    """bool_multiply, rect_multiply, bool_matvec_batch and poly_multiply
    each agree with independent naive oracles on 10^3 random instances
    (dimensions <= 32, polynomial degree <= 16); polynomial outputs are
    exact integers, zero residual."""
    rng = random.Random(0x11A)
    for trial in range(1000):
        r, k, c = (rng.randint(1, 32) for _ in range(3))
        a = random_bool_matrix(rng, r, k)
        b = random_bool_matrix(rng, k, c)
        assert bool_multiply(a, b).data == naive_bool_multiply(a, b).data

        n = rng.randint(1, 32)
        w = rng.randint(1, n)
        sq = random_bool_matrix(rng, n, n)
        rect = random_bool_matrix(rng, n, w)
        assert rect_multiply(sq, rect).data == naive_bool_multiply(sq, rect).data

        count = rng.randint(0, 8)
        z = rng.randint(1, 12)
        vectors = [BitVector(n, rng.getrandbits(n)) for _ in range(count)]
        got = bool_matvec_batch(sq, vectors, z)
        for u, v in zip(vectors, got):
            want = 0
            for row_i, row in enumerate(sq.data):
                if row & u.mask:
                    want |= 1 << row_i
            assert v.mask == want

        pr, pk, pc = (rng.randint(1, 8) for _ in range(3))
        da, db = rng.randint(0, 16), rng.randint(0, 16)
        pa = [[[rng.randint(0, 40) for _ in range(da + 1)] for _ in range(pk)]
              for _ in range(pr)]
        pb = [[[rng.randint(0, 40) for _ in range(db + 1)] for _ in range(pc)]
              for _ in range(pk)]
        got_p = poly_multiply(PolyMatrix(pr, pk, da, pa), PolyMatrix(pk, pc, db, pb))
        want_p = [[[0] * (da + db + 1) for _ in range(pc)] for _ in range(pr)]
        for i in range(pr):
            for j in range(pc):
                for k in range(pk):
                    for ta in range(da + 1):
                        for tb in range(db + 1):
                            want_p[i][j][ta + tb] += pa[i][k][ta] * pb[k][j][tb]
        for i in range(pr):
            for j in range(pc):
                entry = got_p.coeffs[i][j]
                assert list(entry[: da + db + 1]) == want_p[i][j]
                assert not any(entry[da + db + 1 :])


def test_criterion_10_fast_ap_beats_naive_by_5x():
    """Non-regression smoke bench: one active-prefixes instance with
    m = 2^10, ~10^4 strings totalling ~10^6 letters, dense U; solve_ap
    must finish at least 5x faster than the literal quadratic oracle
    (threshold 5.0 on wall-time ratio) and agree with it bit-exactly."""
    rng = random.Random(0xB16)
    m = 1 << 10
    letters = "".join(rng.choice("ab") for _ in range(m))
    pattern = Pattern(letters)
    u = BitVector(m, rng.getrandbits(m) | 1)
    strings = set()
    total = 0
    while total < 1_000_000:
        length = rng.randint(80, 120)
        if rng.random() < 0.5:
            start = rng.randrange(m - length)
            s = letters[start : start + length]
        else:
            s = "".join(rng.choice("ab") for _ in range(length))
        if s not in strings:
            strings.add(s)
            total += length
    strings = tuple(strings)

    start = time.perf_counter()
    fast = solve_ap(APInstance(pattern, u, strings))
    fast_time = time.perf_counter() - start

    start = time.perf_counter()
    slow = brute_ap(pattern, u, strings)
    slow_time = time.perf_counter() - start

    assert fast == slow
    ratio = slow_time / fast_time
    assert ratio >= 5.0, (
        f"fast {fast_time:.3f}s vs naive {slow_time:.3f}s: ratio {ratio:.1f} < 5"
    )
