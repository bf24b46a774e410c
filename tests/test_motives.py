import hashlib
import itertools
import random
import time

import pytest

from mwtate.checks import (
    chow_direct,
    random_normal_form,
    unimodular_twist,
    witt_direct,
)
from mwtate.cohomology import chow, witt_cohomology
from mwtate.exactalg import FreeComplex, intmat
from mwtate.motives import (
    DyadicEta,
    Free,
    IllegalEntry,
    InvalidComplex,
    NormalForm,
    OddBlockNotRealizable,
    OddTorsion,
    TateComplex,
    cone_eta_map,
    decompose,
    quotient_by_dyadic_eta,
    realize,
    tensor,
    twist,
    _to_free_complex,
    validate_complex,
)

UNIT = NormalForm([Free(0)])


class TestValidation:
    def test_single_cell_valid(self):
        assert validate_complex(TateComplex([("a", 0)])).ok

    def test_non_adjacent_attachment(self):
        report = validate_complex(TateComplex([("a", 0), ("b", 2)], {("b", "a"): 1}))
        assert not report.ok
        assert report.violations[0].kind == "NonAdjacent"

    def test_non_composable_chain(self):
        c = TateComplex(
            [("a", 0), ("b", 1), ("c", 2)], {("b", "a"): 1, ("c", "b"): 1}
        )
        report = validate_complex(c)
        assert not report.ok
        assert any(v.kind == "NonComposable" for v in report.violations)

    @pytest.mark.parametrize("bad", [2.7, 2.0, "2"])
    def test_non_integer_weight_or_coefficient_refused(self, bad):
        # int() would truncate 2.7 to 2 and decompose a cone that was
        # never given
        with pytest.raises(TypeError):
            TateComplex([("a", 0), ("b", 1)], {("b", "a"): bad})
        with pytest.raises(TypeError):
            TateComplex([("a", bad)])

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1"])
    @pytest.mark.parametrize("block, args", [
        (Free, (0,)), (DyadicEta, (1, 0)), (OddTorsion, (3, 1, 0)),
    ], ids=["Free", "DyadicEta", "OddTorsion"])
    def test_non_integer_block_argument_refused(self, block, args, bad):
        # each field in turn, as TateComplex refuses its weights
        for k in range(len(args)):
            with pytest.raises(TypeError):
                block(*args[:k], bad, *args[k + 1 :])

    def test_odd_prime_is_checked_without_factoring(self, monkeypatch):
        # a 132-bit semiprime is refused, a 132-bit prime accepted, and
        # neither is factored
        import mwtate.motives as motives

        def refuse(n):
            raise AssertionError("OddTorsion must not factor its prime")

        monkeypatch.setattr(motives, "factor_prime_powers", refuse)
        p, q = 2**65 + 131, 2**66 + 9  # both prime
        with pytest.raises(ValueError, match="not an odd prime"):
            OddTorsion(p * q, 1, 0)
        assert OddTorsion(2**131 + 39, 1, 0).p == 2**131 + 39

    def test_duplicate_cell(self):
        report = validate_complex(TateComplex([("a", 0), ("a", 1)]))
        assert any(v.kind == "DuplicateCell" for v in report.violations)

    @pytest.mark.parametrize("seed", range(20))
    def test_non_composable_cells_in_dense_product_order(self, seed):
        # every nonzero entry of the dense product diffs[w] * diffs[w+1],
        # by ascending w and then row-major, names (cell above, cell below)
        rng = random.Random(seed)
        cells = [(f"c{k}", rng.randrange(0, 4)) for k in range(rng.randrange(2, 14))]
        rng.shuffle(cells)
        attach = {
            (hi, lo): rng.choice((1, -1, 2, 3))
            for hi, wh in cells
            for lo, wl in cells
            if wh == wl + 1 and rng.random() < 0.5
        }
        c = TateComplex(cells, attach)
        at = {w: [cid for cid, v in cells if v == w] for w in range(4)}
        want = []
        for w in range(2):
            for lo in at[w]:
                for top in at[w + 2]:
                    x = sum(attach.get((top, mid), 0) * attach.get((mid, lo), 0)
                            for mid in at[w + 1])
                    if x:
                        want.append((top, lo))
        got = [v.cells for v in validate_complex(c).violations]
        assert all(v.kind == "NonComposable" for v in validate_complex(c).violations)
        assert got == want


class TestDecompose:
    def test_six_attachment(self):
        c = TateComplex([("a", 0), ("b", 1)], {("b", "a"): 6})
        assert decompose(c) == NormalForm([DyadicEta(1, 0), OddTorsion(3, 1, 0)])

    def test_single_cell(self):
        assert decompose(TateComplex([("a", 2)])) == NormalForm([Free(2)])

    def test_four_cell_example(self):
        c = TateComplex(
            [("a", 0), ("b", 1), ("c", 1), ("d", 2)],
            {("b", "a"): 2, ("d", "c"): 3},
        )
        assert decompose(c) == NormalForm(
            [DyadicEta(1, 0), DyadicEta(0, 1), OddTorsion(3, 1, 1)]
        )

    def test_invalid_raises(self):
        with pytest.raises(InvalidComplex):
            decompose(TateComplex([("a", 0), ("b", 2)], {("b", "a"): 1}))

    def test_large_twisted_realization_is_fast(self):
        # 264 cells over 7 weights, each weight mixed by 3n + 4 elementary
        # steps as in the decompose suite; a base-changing Smith sweep did
        # not finish this input in a minute
        rng = random.Random(31)
        a = random_normal_form(rng, 160, allow_odd=False)
        while len(a) < 150:
            a = random_normal_form(rng, 160, allow_odd=False)
        c = unimodular_twist(realize(a), rng)
        start = time.perf_counter()
        got = decompose(c)
        assert time.perf_counter() - start < 1.0
        assert got == a and len(c.cells) > 240

    def test_large_prime_cone_is_fast(self):
        c = TateComplex([("a", 0), ("b", 1)], {("b", "a"): 1000000007})
        start = time.perf_counter()
        got = decompose(c)
        assert time.perf_counter() - start < 1.0
        assert got == NormalForm([DyadicEta(0, 0), OddTorsion(1000000007, 1, 0)])

    @pytest.mark.parametrize("p", [9, 15, 3 * 1000000007])
    def test_odd_torsion_needs_odd_prime(self, p):
        with pytest.raises(ValueError):
            OddTorsion(p, 1, 0)


def pinned_draws():
    """Seeded complexes whose decompositions are pinned: 200 twisted
    realizations, 100 dense two-weight attachments (n x m, n and m in
    1..9, entries in [-9, 9], cells shuffled) and 100 complexes of two or
    three cones of order 2^t p^r, mixed by a unimodular twist."""
    rng = random.Random(18)
    draws = []
    for _ in range(200):
        a = random_normal_form(rng, 12, allow_odd=False)
        draws.append(unimodular_twist(realize(a), rng))
    for _ in range(100):
        lo, n, m = rng.randrange(-2, 3), rng.randrange(1, 10), rng.randrange(1, 10)
        cells = [(f"a{k}", lo) for k in range(n)] + [(f"b{k}", lo + 1) for k in range(m)]
        rng.shuffle(cells)
        attach = {(f"b{s}", f"a{r}"): rng.randint(-9, 9) for r in range(n) for s in range(m)}
        draws.append(TateComplex(cells, attach))
    for _ in range(100):
        lo, k = rng.randrange(-2, 3), rng.randrange(2, 4)
        cells = [(f"a{i}", lo) for i in range(k)] + [(f"b{i}", lo + 1) for i in range(k)]
        attach = {}
        for i in range(k):
            p, r = rng.choice((3, 5, 7, 11, 13)), rng.randrange(1, 3)
            attach[(f"b{i}", f"a{i}")] = 2 ** rng.randrange(0, 4) * p**r
        draws.append(unimodular_twist(TateComplex(cells, attach), rng))
    return draws


# sha256 prefix of repr([decompose(c) for c in pinned_draws()])
PINNED_DECOMPOSITIONS = "ea2e77903d6fb2e5"


def dense_free_complex(c):
    """Reference for ``_to_free_complex``: the attachment matrices of
    ``c`` by weight, each attachment written into dense [[0] * n ...]
    rows, and the cell ids by weight."""
    index = {}
    pos = {}
    for cid, w in c.cells:
        ids = index.setdefault(w, [])
        pos[cid] = (w, len(ids))
        ids.append(cid)
    rows = {
        w: [[0] * len(index[w + 1]) for _ in ids]
        for w, ids in index.items()
        if w + 1 in index
    }
    for (hi, lo), x in c.attach.items():
        w, r = pos[lo]
        rows[w][r][pos[hi][1]] = x
    return {w: intmat.Mat(a, len(index[w + 1])) for w, a in rows.items()}, index


class TestPinnedDecompositions:
    def test_same_normal_forms(self):
        got = [decompose(c) for c in pinned_draws()]
        assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == PINNED_DECOMPOSITIONS

    def test_read_from_sparse_rows_alone(self, monkeypatch):
        # validation and decomposition build no dense matrix: neither the
        # dense-to-sparse conversion nor a differential as a matrix is asked for
        draws = pinned_draws()

        def refuse(*args):
            raise AssertionError("a dense matrix was built")

        monkeypatch.setattr(intmat, "sparse_rows", refuse)
        monkeypatch.setattr(intmat, "zeros", refuse)
        monkeypatch.setattr(FreeComplex, "differential", refuse)
        assert all(validate_complex(c).ok for c in draws)
        got = [decompose(c) for c in draws]
        assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == PINNED_DECOMPOSITIONS

    def test_factors_only_odd_parts_above_one(self, monkeypatch):
        # a cone of order 2^t has no odd part to factor
        import mwtate.motives as motives

        factored = []
        factor = motives.factor_prime_powers

        def counted(n):
            factored.append(n)
            return factor(n)

        monkeypatch.setattr(motives, "factor_prime_powers", counted)
        got = [decompose(c) for c in pinned_draws()]
        assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == PINNED_DECOMPOSITIONS
        assert factored and min(factored) > 1

    def test_differentials_are_the_dense_attachment_matrices(self):
        for c in pinned_draws():
            mats, index = dense_free_complex(c)
            fc, got_index = _to_free_complex(c)
            assert got_index == index
            assert fc.ranks == {w: len(ids) for w, ids in index.items()}
            for w in fc.weights():
                zero = intmat.zeros(fc.rank(w), fc.rank(w + 1))
                assert fc.differential(w) == mats.get(w, zero)


class TestRealize:
    def test_lone_free(self):
        c = realize(NormalForm([Free(0)]))
        assert len(c.cells) == 1 and not c.attach

    def test_dyadic_cone(self):
        c = realize(NormalForm([DyadicEta(2, 1)]))
        assert sorted(w for _, w in c.cells) == [1, 2]
        assert list(c.attach.values()) == [4]

    def test_odd_not_realizable(self):
        with pytest.raises(OddBlockNotRealizable):
            realize(NormalForm([OddTorsion(3, 1, 0)]))

    @pytest.mark.parametrize("seed", range(30))
    def test_round_trip(self, seed):
        rng = random.Random(1000 + seed)
        a = random_normal_form(rng, allow_odd=False)
        assert decompose(realize(a)) == a

    @pytest.mark.parametrize("seed", range(10))
    def test_unimodular_invariance(self, seed):
        rng = random.Random(2000 + seed)
        a = random_normal_form(rng, 6, allow_odd=False)
        c = realize(a)
        for _ in range(10):
            assert decompose(unimodular_twist(c, rng)) == a


def all_small_blocks():
    blocks = []
    for w in (-1, 0, 1):
        blocks.append(Free(w))
        for t in range(0, 4):
            blocks.append(DyadicEta(t, w))
        for p in (3, 5):
            blocks.append(OddTorsion(p, 1, w))
    return blocks


class TestTensor:
    def test_unit_twist(self):
        assert tensor(NormalForm([Free(2)]), NormalForm([DyadicEta(3, 1)])) == (
            NormalForm([DyadicEta(3, 3)])
        )

    def test_dyadic_pair(self):
        got = tensor(NormalForm([DyadicEta(1, 0)]), NormalForm([DyadicEta(2, 0)]))
        assert got == NormalForm([DyadicEta(1, 1), DyadicEta(1, 0)])

    def test_coprime_odds_vanish(self):
        got = tensor(
            NormalForm([OddTorsion(3, 1, 0)]), NormalForm([OddTorsion(5, 1, 0)])
        )
        assert got.is_zero()

    def test_dyadic_kills_odd(self):
        got = tensor(
            NormalForm([DyadicEta(2, 0)]), NormalForm([OddTorsion(3, 1, 0)])
        )
        assert got.is_zero()

    def test_same_prime_odds(self):
        got = tensor(
            NormalForm([OddTorsion(3, 1, 0)]), NormalForm([OddTorsion(3, 2, 1)])
        )
        assert got == NormalForm([OddTorsion(3, 1, 2), OddTorsion(3, 1, 1)])

    def test_commutative_exhaustive_blocks(self):
        for x, y in itertools.combinations(all_small_blocks(), 2):
            a, b = NormalForm([x]), NormalForm([y])
            assert tensor(a, b) == tensor(b, a)

    def test_associative_on_blocks(self):
        blocks = [Free(1), DyadicEta(1, 0), DyadicEta(2, -1), OddTorsion(3, 1, 0)]
        for x, y, z in itertools.product(blocks, repeat=3):
            a, b, c = (NormalForm([t]) for t in (x, y, z))
            assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))

    @pytest.mark.parametrize("seed", range(10))
    def test_associative_random(self, seed):
        rng = random.Random(3000 + seed)
        a, b, c = (random_normal_form(rng, 4) for _ in range(3))
        assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))
        assert tensor(a, UNIT) == a

    @pytest.mark.parametrize("seed", range(10))
    def test_chow_rank_doubling(self, seed):
        # CH^{n+1}(A/2^j eta) = CH^n(A) + CH^{n+1}(A)
        rng = random.Random(4000 + seed)
        a = random_normal_form(rng, 5)
        j = rng.randrange(0, 4)
        quot = quotient_by_dyadic_eta(a, j)
        ch, chq = chow(a), chow(quot)
        degrees = set(ch.degrees()) | {d + 1 for d in ch.degrees()} | set(chq.degrees())
        for n1 in degrees:
            assert (
                chq[n1].free_rank == ch[n1 - 1].free_rank + ch[n1].free_rank
            )


class TestTwist:
    def test_examples(self):
        assert twist(NormalForm([Free(1)]), 2) == NormalForm([Free(3)])
        assert twist(NormalForm([OddTorsion(3, 1, 0)]), 1) == NormalForm(
            [OddTorsion(3, 1, 1)]
        )
        assert twist(NormalForm([DyadicEta(2, 1)]), -1) == NormalForm(
            [DyadicEta(2, 0)]
        )

    def test_twist_is_free_tensor(self):
        rng = random.Random(1)
        for _ in range(10):
            a = random_normal_form(rng, 5)
            q = rng.randrange(-3, 4)
            assert twist(a, q) == tensor(a, NormalForm([Free(q)]))


class TestConeEtaMap:
    def test_zero_map_disjoint_union(self):
        src = TateComplex([("s", 1)])
        tgt = TateComplex([("t", 0)])
        total = cone_eta_map(src, tgt, {})
        assert decompose(total) == NormalForm([Free(0), Free(1)])

    def test_cone_of_two_eta(self):
        src = TateComplex([("s", 1)])
        tgt = TateComplex([("t", 0)])
        total = cone_eta_map(src, tgt, {("s", "t"): 2})
        assert decompose(total) == NormalForm([DyadicEta(1, 0)])

    def test_spec_example(self):
        src = TateComplex([("s1", 1), ("s2", 2)])
        tgt = TateComplex([("t", 0)])
        total = cone_eta_map(src, tgt, {("s1", "t"): 3})
        assert decompose(total) == NormalForm(
            [DyadicEta(0, 0), OddTorsion(3, 1, 0), Free(2)]
        )

    def test_illegal_entry(self):
        src = TateComplex([("s", 2)])
        tgt = TateComplex([("t", 0)])
        with pytest.raises(IllegalEntry):
            cone_eta_map(src, tgt, {("s", "t"): 1})

    @pytest.mark.parametrize("coeff", [2.7, 2.0, "2"])
    def test_non_integer_coefficient_refused(self, coeff):
        src = TateComplex([("s", 1)])
        tgt = TateComplex([("t", 0)])
        with pytest.raises(TypeError):
            cone_eta_map(src, tgt, {("s", "t"): coeff})


class TestConservativity:
    @pytest.mark.parametrize("seed", range(15))
    def test_block_invariants_match_direct(self, seed):
        rng = random.Random(5000 + seed)
        a = random_normal_form(rng, 6, allow_odd=False)
        c = unimodular_twist(realize(a), rng)
        blocks = decompose(c)
        assert chow(blocks) == chow_direct(c)
        assert witt_cohomology(blocks, 0) == witt_direct(c)
        for modulus in (2, 4, 8):
            assert witt_cohomology(blocks, modulus) == witt_direct(c, modulus)

    @pytest.mark.parametrize("coeff", [3, 6, 12, 45, -10])
    def test_odd_torsion_cones_match_direct(self, coeff):
        rng = random.Random(coeff)
        base = TateComplex(
            [("a", 0), ("b", 1), ("c", 1), ("d", 2)],
            {("b", "a"): coeff, ("d", "c"): 4},
        )
        for c in (base, unimodular_twist(base, rng)):
            blocks = decompose(c)
            assert chow(blocks) == chow_direct(c)
            assert witt_cohomology(blocks, 0) == witt_direct(c)
            for modulus in (2, 4):
                assert witt_cohomology(blocks, modulus) == witt_direct(c, modulus)
