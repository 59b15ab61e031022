import itertools
import random

import pytest

from edsm import ap_engine
from edsm.ap_engine import (
    OCC_CACHE_BYTES,
    APInstance,
    APSolver,
    decompose_dominance,
    partition_classes,
    solve_ap,
    solve_type1,
    solve_type2,
    solve_type3,
)
from edsm.eds_core import BitVector, Pattern, encode_symbol
from edsm.oracles import brute_ap
from edsm.stringology import TypeLabel

from conftest import typed_ap_instance


def random_instance(rng: random.Random, max_m: int, embed: bool = True) -> APInstance:
    m = rng.randint(24, max_m)
    letters = "".join(rng.choice("ab") for _ in range(m))
    strings = []
    for _ in range(rng.randint(1, 6)):
        if embed and rng.random() < 0.6 and m > 2:
            length = rng.randint(1, m - 1)
            start = rng.randrange(m - length + 1)
            strings.append(letters[start : start + length])
        else:
            length = rng.randint(0, m + 2)
            strings.append("".join(rng.choice("ab") for _ in range(length)))
    u = BitVector(m, rng.getrandbits(m))
    return APInstance(Pattern(letters), u, tuple(strings))


TAGGED = "a" + encode_symbol(1, 0) + encode_symbol(5, 9)


def adversarial_instances(rng: random.Random):
    """Periodic patterns, m = 1, members of length m - 1, m and m + 1,
    members with many overlapping occurrences, empty and full U, and
    tagged private-use-area symbols."""
    patterns = [
        "a",
        "b",
        "a" * 40,
        "ab" * 30,
        "aab" * 25,
        "abaababa" * 12,
        "".join(rng.choice("ab") for _ in range(90)),
        "".join(rng.choice(TAGGED) for _ in range(70)),
        (TAGGED * 20)[:57],
    ]
    for letters in patterns:
        m = len(letters)
        alphabet = sorted(set(letters) | {"a"})
        doubled = letters + letters
        for umask in (0, (1 << m) - 1, rng.getrandbits(m)):
            strings = {"", letters}
            lengths = {1, 2, m - 1, m, m + 1, *rng.sample(range(1, m + 2), min(m + 1, 6))}
            for length in lengths:
                if length < 1:
                    continue
                start = rng.randrange(m)
                strings.add(doubled[start : start + length])  # periodic extension
                strings.add(letters[0] * length)
                strings.add("".join(rng.choice(alphabet) for _ in range(length)))
            yield APInstance(Pattern(letters), BitVector(m, umask), tuple(strings))


class TestGolden:
    def test_published_example(self):
        v = solve_ap(
            APInstance(
                Pattern("ababbababab"),
                BitVector.from01("01000100000"),
                ("", "ab", "abb", "ba", "baba"),
            )
        )
        assert v.to01() == "01011101010"


class TestSolveAp:
    def test_differential_default_cutoff(self):
        rng = random.Random(1)
        for _ in range(400):
            inst = random_instance(rng, 64)
            assert solve_ap(inst) == brute_ap(inst.pattern, inst.u, inst.strings)

    def test_differential_adversarial_families(self):
        rng = random.Random(7)
        for inst in adversarial_instances(rng):
            want = brute_ap(inst.pattern, inst.u, inst.strings)
            assert solve_ap(inst) == want
            assert solve_ap(inst, naive_cutoff=23) == want

    def test_differential_classed_pipeline(self):
        # Forcing the smallest legal cutoff routes lengths in [24, m]
        # through the class/type machinery instead of the short path.
        rng = random.Random(2)
        for _ in range(250):
            inst = random_instance(rng, 200)
            got = solve_ap(inst, naive_cutoff=23)
            assert got == brute_ap(inst.pattern, inst.u, inst.strings)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m", [64, 1024])
    def test_differential_classed_many_members(self, monkeypatch, m, seed):
        # About 20 000 letters of members shorter than m under a dense U,
        # half of them cut from P: 64-128 letters, or m/2 to m-1 for
        # m <= 128.  That is some 200 members at m = 1024 and 380 at
        # m = 64; the classed route sends almost all of them to type 1.
        rng = random.Random(seed)
        letters = "".join(rng.choice("ab") for _ in range(m))
        u = BitVector(m, rng.getrandbits(m) | 1)
        hi = min(128, m - 1)
        lo = max(1, min(64, hi // 2))
        strings = set()
        drawn = 0
        while drawn < 20_000:
            length = rng.randint(lo, hi)
            if rng.random() < 0.5:
                start = rng.randrange(m - length + 1)
                strings.add(letters[start : start + length])
            else:
                strings.add("".join(rng.choice("ab") for _ in range(length)))
            drawn += length
        inst = APInstance(Pattern(letters), u, tuple(sorted(strings)))
        type1 = []
        real = APSolver._solve_type1

        def counting(solver, umask, members, ell):
            type1.extend(members)
            return real(solver, umask, members, ell)

        monkeypatch.setattr(APSolver, "_solve_type1", counting)
        want = brute_ap(inst.pattern, inst.u, inst.strings)
        assert solve_ap(inst) == want
        assert type1 == []
        assert solve_ap(inst, naive_cutoff=23) == want
        assert len(type1) > 100

    def test_epsilon_and_overlong(self):
        p = Pattern("abab")
        u = BitVector.from01("0101")
        assert solve_ap(APInstance(p, u, ("",))) == u
        assert solve_ap(APInstance(p, u, ("ababa",))).to01() == "0000"

    def test_cutoff_floor_enforced(self):
        with pytest.raises(ValueError):
            APSolver("a" * 30, naive_cutoff=10)

    def test_solver_reuse_across_calls(self):
        rng = random.Random(3)
        p = Pattern("".join(rng.choice("ab") for _ in range(120)))
        solver = APSolver(p, naive_cutoff=23)
        for _ in range(40):
            u = BitVector(p.m, rng.getrandbits(p.m))
            strings = [
                p.letters[s : s + rng.randint(24, 40)]
                for s in rng.sample(range(60), 3)
            ]
            assert solver.solve(u, strings) == brute_ap(p, u, strings)


class TestRouting:
    def test_default_route_builds_no_suffix_tree(self):
        # m = 1024 > ceil(log2 m)^3 = 1000: members of 1001..1023 letters
        # are past the old default cutoff but still take the kernel.
        rng = random.Random(8)
        m = 1024
        p = "".join(rng.choice("ab") for _ in range(m))
        strings = []
        for _ in range(4):
            length = rng.randint(1001, m - 1)
            start = rng.randrange(m - length + 1)
            strings.append(p[start : start + length])
        u = BitVector(m, rng.getrandbits(m))
        want = brute_ap(p, u, strings)
        default = APSolver(p)
        assert default.solve(u, strings) == want
        assert default._st is None and default._st_rev is None
        paper = APSolver(p, naive_cutoff=23)
        assert paper.solve(u, strings) == want
        assert paper._st is not None and paper._st_rev is not None

    def test_occurrence_cache_stays_within_budget(self):
        # 2^16 distinct members of 16 letters cost more than the budget.
        rng = random.Random(9)
        p = Pattern("".join(rng.choice("ab") for _ in range(64)))
        solver = APSolver(p)
        members = ["".join(bits) for bits in itertools.product("ab", repeat=16)]
        cost = 16 + p.m // 8 + ap_engine._ENTRY_OVERHEAD
        assert len(members) * cost > OCC_CACHE_BYTES
        for start in range(0, len(members), 4096):
            u = BitVector(p.m, rng.getrandbits(p.m))
            batch = members[start : start + 4096]
            assert solver.solve(u, batch) == brute_ap(p, u, batch)
            assert solver._occ_cache.used <= OCC_CACHE_BYTES
        assert len(solver._occ_cache) < len(members)

    def test_occurrence_over_the_budget_is_not_kept(self):
        # m = 1.25 * 2^23, so one member of 2^23 letters costs more than
        # the budget; it extends prefix m - 2^23 to P, "ab" extends none.
        m = OCC_CACHE_BYTES + OCC_CACHE_BYTES // 4
        p = "a" * (m - 1) + "b"
        s = "a" * (OCC_CACHE_BYTES - 1) + "b"
        solver = APSolver(p)
        u = BitVector(m, 1 << (m - len(s) - 1))
        assert solver.solve(u, [s, "ab"]) == BitVector(m, 1 << (m - 1))
        assert list(solver._occ_cache) == ["ab"]
        assert solver._occ_cache.used <= OCC_CACHE_BYTES

    def test_anchor_cache_stays_within_budget(self, monkeypatch):
        # The real budget takes thousands of anchor builds to reach, so a
        # small one stands in for it; the solver reads it at construction.
        monkeypatch.setattr(ap_engine, "ANCHOR_CACHE_OCCURRENCES", 8)
        built = []
        build = ap_engine.build_anchor_structure

        def counted(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(ap_engine, "build_anchor_structure", counted)
        rng = random.Random(10)
        p = Pattern("".join(rng.choice("ab") for _ in range(200)))
        solver = APSolver(p, naive_cutoff=23)
        for _ in range(30):
            u = BitVector(p.m, rng.getrandbits(p.m))
            strings = [
                p.letters[s : s + rng.randint(24, 60)]
                for s in rng.sample(range(140), 3)
            ]
            assert solver.solve(u, strings) == brute_ap(p, u, strings)
            cache = solver._anchor_cache
            assert cache.used == sum(len(a.occurrences) for a in cache.values())
            assert cache.used <= 8 or len(cache) == 1
        assert sum(len(a.occurrences) for a in built) > 8


class TestPartitionClasses:
    def test_interval_invariant(self):
        rng = random.Random(5)
        strings = [
            "".join(rng.choice("ab") for _ in range(rng.randint(24, 2048)))
            for _ in range(500)
        ]
        classes = partition_classes(strings, 2048)
        seen = []
        for cls in classes:
            for s in cls.members:
                assert 8 * len(s) >= 9 * cls.ell
                assert 4 * len(s) < 5 * cls.ell
                seen.append(s)
        assert sorted(seen) == sorted(strings)
        assert [c.k for c in classes] == sorted({c.k for c in classes})

    def test_rejects_out_of_range_lengths(self):
        with pytest.raises(ValueError):
            partition_classes(["a" * 23], 100)
        with pytest.raises(ValueError):
            partition_classes(["a" * 101], 100)


class TestTypedSolvers:
    @pytest.mark.parametrize(
        "label,entry",
        [
            (TypeLabel.Type1, solve_type1),
            (TypeLabel.Type2, solve_type2),
            (TypeLabel.Type3, solve_type3),
        ],
    )
    @pytest.mark.parametrize("ell", [32, 64])
    def test_differential(self, label, entry, ell):
        rng = random.Random(hash((label.value, ell)) & 0xFFFF)
        for _ in range(60):
            p, u, members, _ = typed_ap_instance(rng, ell, label)
            assert entry(p, u, members, ell) == brute_ap(p, u, members)

    @pytest.mark.parametrize(
        "root, ell, poly_calls",
        [("a", 32, 4), ("ab", 160, 1), ("ab", 1024, 0), ("aabbabb", 64, 1),
         ("aabbabb", 1024, 0)],
    )
    def test_type3_both_routes_at_m_2048(self, monkeypatch, root, ell, poly_calls):
        # Three c's cut P into runs of 200, 299, 199 and 1347 letters.  A
        # (root, run) pair takes the polynomial product when some member has
        # few root copies for the run's length; longer members are
        # enumerated directly.  poly_calls counts the pairs of the first kind.
        m = 2048
        letters = list((root * m)[:m])
        for q in (200, 500, 700):
            letters[q] = "c"
        p = "".join(letters)
        rng = random.Random(len(root) * ell)
        u = BitVector(m, rng.getrandbits(m) | 1)
        lengths = [n for n in range(ell, 2 * ell) if 8 * n >= 9 * ell and 4 * n < 5 * ell]
        members = []
        for _ in range(6):
            length = rng.choice(lengths)
            k = rng.randint(701, m - length)
            members.append(p[k : k + length])
        calls = []
        real = ap_engine.poly_multiply

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(ap_engine, "poly_multiply", counting)
        got = solve_type3(p, u, members, ell)
        assert len(calls) == poly_calls
        assert got.mask and got == brute_ap(p, u, members)

    def test_type_mismatch_rejected(self):
        p = Pattern("a" * 40)
        u = BitVector(40)
        member = "ab" * 18  # period 2 <= 32/4: type 3 for ell = 32
        with pytest.raises(ValueError):
            solve_type1(p, u, [member], 32)

    def test_length_window_rejected(self):
        p = Pattern("a" * 40)
        with pytest.raises(ValueError):
            solve_type3(p, BitVector(40), ["a" * 20], 32)


class TestDominanceDecomposition:
    @staticmethod
    def dominating_pairs(reds, blues):
        return {
            (r[2], b[2])
            for r in reds
            for b in blues
            if r[0] >= b[0] and r[1] >= b[1]
        }

    def test_instances_are_exactly_the_dominating_pairs(self):
        rng = random.Random(6)
        for _ in range(200):
            reds = [
                (rng.randint(0, 12), rng.randint(0, 12), f"r{i}")
                for i in range(rng.randint(0, 10))
            ]
            blues = [
                (rng.randint(0, 12), rng.randint(0, 12), f"b{i}")
                for i in range(rng.randint(0, 10))
            ]
            covered = set()
            for rs, bs in decompose_dominance(reds, blues):
                for r in rs:
                    for b in bs:
                        # Every emitted pair must be a dominating pair.
                        assert r[0] >= b[0] and r[1] >= b[1]
                        covered.add((r[2], b[2]))
            assert covered == self.dominating_pairs(reds, blues)
