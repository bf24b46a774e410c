import random

import pytest

from mwtate.bockstein.couple import (
    ExactCouple,
    InexactCouple,
    bockstein_couple,
    couple_analyze,
    couple_derive,
    e_infinity,
    normalize_couple,
    torsion_order,
    verify_exactness,
)
from mwtate.checks import random_adjacent_complex
from mwtate.exactalg import FormalGroup, FreeComplex, PresentedGroup, integer_cohomology
from mwtate.exactalg.intmat import Mat, kernel_mod_lattice


def classical(complex_):
    return couple_analyze(bockstein_couple(complex_))


class TestClassicalFixture:
    def test_mod2_cone(self):
        # Z --2--> Z: E_1 is Z/2 twice, everything dies on page 2
        res = classical(FreeComplex({0: 1, 1: 1}, {0: [[2]]}))
        assert res.pages[0] == {
            0: FormalGroup.cyclic(2),
            1: FormalGroup.cyclic(2),
        }
        assert res.pages[1] == {}
        assert res.e_infinity == {}
        assert res.torsion_order == 1
        assert res.four_term_exact and res.identification_holds
        assert res.degeneration_holds

    def test_free_cell(self):
        res = classical(FreeComplex({2: 1}))
        assert res.e_infinity == {2: FormalGroup.cyclic(2)}
        assert res.pages[0] == {2: FormalGroup.cyclic(2)}

    def test_zero_d_couple_degenerates_immediately(self):
        # exactness forces E = im(j) = 0 once D vanishes; every page of
        # the zero couple equals E_1 and the sequence degenerates at 2
        cpl = ExactCouple({}, {}, {}, {}, {})
        res = couple_analyze(cpl)
        assert res.torsion_order == 1
        assert res.pages[0] == {} == res.pages[1]
        assert res.e_infinity == {}
        assert res.degeneration_holds

    def test_nonzero_e_with_zero_d_is_inexact(self):
        e = PresentedGroup(1, [[2]])
        with pytest.raises(InexactCouple):
            couple_analyze(ExactCouple({}, {0: e}, {}, {}, {}))

    def test_higher_torsion_survives_longer(self):
        # Z --8--> Z has up to 2^3-torsion: degenerates on page 4
        res = classical(FreeComplex({0: 1, 1: 1}, {0: [[8]]}))
        assert res.torsion_order == 3
        assert res.pages[0] == {
            0: FormalGroup.cyclic(2),
            1: FormalGroup.cyclic(2),
        }
        assert res.pages[3] == {}
        assert res.pages[2] != {}

    def test_odd_torsion_invisible(self):
        res = classical(FreeComplex({0: 1, 1: 1}, {0: [[3]]}))
        assert res.pages[0] == {}
        assert res.e_infinity == {}
        assert res.identification_holds


class TestExactnessGuard:
    def test_rejects_inexact(self):
        d = PresentedGroup(1)
        e = PresentedGroup(1, [[2]])
        broken = ExactCouple(
            {0: d},
            {0: e},
            {0: Mat([[2]])},
            {0: Mat([[0]])},  # j = 0 but ker(j) != im(i)
            {0: Mat([[0]])},
        )
        with pytest.raises(InexactCouple):
            verify_exactness(broken)


class TestRandomComplexes:
    @pytest.mark.parametrize("seed", range(25))
    def test_classical_bockstein_oracle(self, seed):
        rng = random.Random(seed)
        c = random_adjacent_complex(rng)
        res = classical(c)
        h = integer_cohomology(c, 0)
        expected = {
            d: FormalGroup.from_invariants([2] * g.free_rank)
            for d, g in h.items()
            if g.free_rank
        }
        assert res.e_infinity == expected
        assert res.four_term_exact
        assert res.identification_holds
        assert res.degeneration_holds

    @pytest.mark.parametrize("seed", range(8))
    def test_cartesian_rank_identity_at_low_torsion(self, seed):
        # couples with ker(i^2) = ker(i): the square D -> ker(k), Dbar -> E_2
        # is Cartesian, so ranks satisfy rk D = rk ker(k) + rk Dbar - rk E_2
        rng = random.Random(400 + seed)
        c = random_adjacent_complex(rng)
        cpl = bockstein_couple(c)
        if torsion_order(cpl) != 1:
            pytest.skip("fixture has deeper 2-torsion")
        h = integer_cohomology(c, 0)
        e2 = _page_ranks(couple_derive(cpl))
        for deg in cpl.degrees():
            dg = cpl.dgroup(deg)
            rk_d = dg.invariants().free_rank
            kerk = _kernel_rank(cpl, deg)
            dbar = _dbar_rank(cpl, deg)
            assert rk_d == kerk + dbar - e2.get(deg, 0)


def _page_ranks(cpl):
    out = {}
    for deg in cpl.degrees():
        inv = cpl.egroup(deg).invariants()
        # E-pages of the mod-2 couple are elementary abelian
        out[deg] = len(inv.torsion) + inv.free_rank
    return out


def _kernel_rank(cpl, deg):
    kerk = kernel_mod_lattice(cpl.kmat(deg), cpl.dgroup(deg + cpl.shift_k).rels)
    grp = cpl.egroup(deg).subgroup_presentation(kerk).invariants()
    return len(grp.torsion) + grp.free_rank


def _dbar_rank(cpl, deg):
    from mwtate.bockstein.couple import _iterate_kernel

    dg = cpl.dgroup(deg)
    r = torsion_order(cpl)
    quot = dg.quotient_presentation(_iterate_kernel(cpl, deg, r))
    return quot.invariants().free_rank


class TestEInfinityDirect:
    def test_matches_derived_pages(self):
        rng = random.Random(9)
        for _ in range(10):
            c = random_adjacent_complex(rng)
            cpl = bockstein_couple(c)
            r = torsion_order(cpl)
            level = cpl
            for _ in range(r):
                level = couple_derive(level)
            derived_page = {
                deg: level.egroup(deg).invariants()
                for deg in level.degrees()
                if not level.egroup(deg).invariants().is_zero()
            }
            assert derived_page == e_infinity(cpl, r)


class TestNormalization:
    def test_preserves_invariants(self):
        rng = random.Random(77)
        c = random_adjacent_complex(rng)
        cpl = bockstein_couple(c)
        norm = normalize_couple(cpl)
        for deg in cpl.degrees():
            assert cpl.dgroup(deg).invariants() == norm.dgroup(deg).invariants()
            assert cpl.egroup(deg).invariants() == norm.egroup(deg).invariants()
        verify_exactness(norm)
