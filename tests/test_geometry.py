import random

import pytest

from mwtate.bockstein import degeneracy_page
from mwtate.checks import chow_direct, random_normal_form
from mwtate.cohomology import chow, eta_inverted, witt_cohomology
from mwtate.exactalg import FormalGroup
from mwtate.geometry import (
    OddCodimension,
    RankTooSmall,
    blowup_eta_check,
    blowup_motive,
    hp1_classify,
    projective_bundle_hp1,
)
from mwtate.motives import (
    DyadicEta,
    Free,
    IllegalEntry,
    NormalForm,
    OddTorsion,
    TateComplex,
    decompose,
)
from mwtate.wittring import GWElement


class TestClassify:
    def test_trivial_bundle(self):
        assert hp1_classify(2, GWElement(0, 0)).is_free

    def test_stably_free(self):
        cls = hp1_classify(2, GWElement(0, 4))
        assert cls.stably_free_nontrivial and not cls.is_free
        assert cls.euler == GWElement(0, 4)

    def test_higher_rank(self):
        cls = hp1_classify(5, 7)
        assert cls.c2 == 7 and not cls.is_free
        assert hp1_classify(3, 0).is_free

    def test_rank_floor(self):
        with pytest.raises(RankTooSmall):
            hp1_classify(1, GWElement(0, 0))

    @pytest.mark.parametrize("bad", [2.7, 3.0, "3"])
    def test_non_integer_rank_or_c2_refused(self, bad):
        # int() would truncate a c2 of 2.7 to 2, and a float rank was kept
        with pytest.raises(TypeError):
            hp1_classify(5, bad)
        with pytest.raises(TypeError):
            hp1_classify(bad, 7)

    def test_orbit_constancy(self):
        for rank in range(-3, 4):
            for sig in range(-3, 4):
                if (rank - sig) % 2:
                    continue
                a = hp1_classify(2, GWElement(rank, sig))
                b = hp1_classify(2, GWElement(rank, -sig))
                assert a == b


class TestProjectiveBundle:
    def test_signature_four(self):
        blocks = decompose(projective_bundle_hp1(GWElement(0, 4)))
        assert blocks == NormalForm([Free(0), DyadicEta(2, 1), Free(3)])

    def test_zero_euler_splits(self):
        blocks = decompose(projective_bundle_hp1(GWElement(0, 0)))
        assert blocks == NormalForm([Free(0), Free(1), Free(2), Free(3)])

    def test_signature_three(self):
        blocks = decompose(projective_bundle_hp1(GWElement(1, 3)))
        assert blocks == NormalForm(
            [Free(0), DyadicEta(0, 1), OddTorsion(3, 1, 1), Free(3)]
        )
        assert witt_cohomology(blocks, 0)[2] == FormalGroup.cyclic(3)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_powers_of_two(self, n):
        blocks = decompose(projective_bundle_hp1(GWElement(0, 2**n)))
        assert witt_cohomology(blocks, 0)[2] == FormalGroup.cyclic(2**n)
        assert degeneracy_page(blocks) == n + 2

    def test_degeneracy_tracks_dyadic_valuation(self):
        for sig in range(-12, 13):
            blocks = decompose(projective_bundle_hp1(GWElement(sig % 2, sig)))
            r = 0
            s = abs(sig)
            while s and s % 2 == 0:
                s //= 2
                r += 1
            assert degeneracy_page(blocks) == r + 2


def point_blowup_fixture():
    x = TateComplex([("x0", 0), ("x1", 1), ("x2", 2)])
    th = TateComplex([("t", 1)])
    z = NormalForm([Free(0)])
    return x, z, th


class TestBlowup:
    def test_point_blowup(self):
        x, z, th = point_blowup_fixture()
        got = blowup_motive(x, z, 2, th, {("x2", "t"): 1})
        assert got == NormalForm([Free(0), Free(1), DyadicEta(0, 1)])

    def test_zero_gysin_splits(self):
        x, z, th = point_blowup_fixture()
        got = blowup_motive(x, z, 2, th, {})
        assert got == NormalForm([Free(0), Free(1), Free(1), Free(2)])

    def test_codim_four_adds_eta_cone(self):
        x, z, _ = point_blowup_fixture()
        th = TateComplex([("t", -1)])
        got = blowup_motive(x, z, 4, th, {("x2", "t"): 1})
        assert DyadicEta(0, 1) in got.blocks  # the centre's extra eta cone

    def test_rejects_odd_codimension(self):
        x, z, th = point_blowup_fixture()
        with pytest.raises(OddCodimension):
            blowup_motive(x, z, 3, th, {})

    def test_rejects_bad_gysin_weights(self):
        x, z, th = point_blowup_fixture()
        with pytest.raises(IllegalEntry):
            blowup_motive(x, z, 2, th, {("x0", "t"): 1})

    def test_eta_check(self):
        x, z, th = point_blowup_fixture()
        got = blowup_motive(x, z, 2, th, {("x2", "t"): 1})
        assert blowup_eta_check(got).holds

    def test_chow_rank_count(self):
        # blow-up Chow ranks: ambient plus (n-1) copies of the centre,
        # spread across the twisted degrees
        x, z, th = point_blowup_fixture()
        for n, thom in ((2, th), (4, TateComplex([("t", -1)]))):
            got = blowup_motive(x, z, n, thom, {("x2", "t"): 1})
            total = sum(g.free_rank for _, g in chow(got).items())
            ambient = sum(g.free_rank for _, g in chow_direct(x).items())
            centre = sum(g.free_rank for _, g in chow(z).items())
            assert total == ambient + (n - 1) * centre


def eta_window_holds(result, rest):
    """The eta-inverted comparison of blowup_eta_check before it read
    only the Witt groups: every bidegree of a window around the weights."""
    degrees = [w for b in result.blocks for w in (getattr(b, "weight", None),) if w is not None]
    lo = min(degrees, default=0) - 1
    hi = max(degrees, default=0) + 2
    return all(
        eta_inverted(result, p, q) == eta_inverted(rest, p, q)
        for q in range(lo, hi + 1)
        for p in range(2 * lo - 2, 2 * hi + 3)
    )


class TestEtaCheckWindow:
    # eta_inverted(a, p, q) reads only witt_cohomology(a, 0)[p - q], so
    # equal Witt groups make every eta-inverted group equal

    @staticmethod
    def agree(result):
        rest = NormalForm(b for b in result.blocks if not (isinstance(b, DyadicEta) and b.t == 0))
        witt_equal = witt_cohomology(result, 0) == witt_cohomology(rest, 0)
        assert eta_window_holds(result, rest) == witt_equal
        assert blowup_eta_check(result).holds == witt_equal
        return witt_equal

    def test_blowup_fixtures(self):
        x, z, th = point_blowup_fixture()
        for n, thom, g in ((2, th, {("x2", "t"): 1}), (2, th, {}),
                           (4, TateComplex([("t", -1)]), {("x2", "t"): 1})):
            assert self.agree(blowup_motive(x, z, n, thom, g))

    def test_random_normal_forms_with_plain_cones(self):
        rng = random.Random(1800)
        for _ in range(200):
            a = random_normal_form(rng, 8)
            plain = [DyadicEta(0, rng.randrange(-3, 4)) for _ in range(rng.randrange(1, 4))]
            assert self.agree(a.direct_sum(NormalForm(plain)))
