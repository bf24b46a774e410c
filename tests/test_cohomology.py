import hashlib
import random

import pytest

from mwtate.checks import random_normal_form
from mwtate.cohomology import (
    NonpositiveL,
    _h_integral,
    _h_mod2,
    _two_torsion_free_milnor,
    chow,
    eta_inverted,
    hom_cone,
    mod2_motivic,
    mw_diagonal,
    witt_cohomology,
)
from mwtate.exactalg import FormalGroup, GradedGroup, graded_kunneth
from mwtate.motives import DyadicEta, Free, NormalForm, OddTorsion, tensor

Z = FormalGroup.free(1)


class TestChow:
    def test_blocks(self):
        assert chow(NormalForm([Free(2)])) == GradedGroup({2: Z})
        assert chow(NormalForm([DyadicEta(3, 1)])) == GradedGroup({1: Z, 2: Z})
        assert chow(NormalForm([OddTorsion(3, 1, 0)])).is_zero()

    def test_mod_two(self):
        got = chow(NormalForm([Free(0), DyadicEta(0, 0)]), mod2=True)
        assert got[0] == FormalGroup.from_invariants([2, 2])

    @pytest.mark.parametrize("seed", range(10))
    def test_tensor_is_graded_tensor(self, seed):
        rng = random.Random(seed)
        a = random_normal_form(rng, 5)
        b = random_normal_form(rng, 5)
        got = chow(tensor(a, b))
        want = graded_kunneth(chow(a), chow(b))  # all free, so no Tor terms
        assert got == want


class TestWittCohomology:
    def test_integral_blocks(self):
        a = NormalForm([Free(0), DyadicEta(2, 1), Free(3)])
        assert witt_cohomology(a, 0) == GradedGroup(
            {0: Z, 2: FormalGroup.cyclic(4), 3: Z}
        )
        assert witt_cohomology(NormalForm([OddTorsion(3, 1, 3)]), 0) == GradedGroup(
            {4: FormalGroup.cyclic(3)}
        )
        assert witt_cohomology(NormalForm([DyadicEta(0, 5)]), 0).is_zero()

    def test_mod_two(self):
        got = witt_cohomology(NormalForm([DyadicEta(2, 0)]), 2)
        assert got == GradedGroup(
            {0: FormalGroup.cyclic(2), 1: FormalGroup.cyclic(2)}
        )

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            witt_cohomology(NormalForm([Free(0)]), 3)

    @pytest.mark.parametrize("seed", range(15))
    def test_kunneth_with_tor_terms(self, seed):
        rng = random.Random(100 + seed)
        a = random_normal_form(rng, 6)
        b = random_normal_form(rng, 6)
        got = witt_cohomology(tensor(a, b), 0)
        want = graded_kunneth(witt_cohomology(a, 0), witt_cohomology(b, 0))
        assert got == want

    def test_same_groups(self):
        # sha256 prefix of the groups of 2,000 random_normal_form draws at
        # each modulus, pinned while witt_cohomology still placed each
        # block itself and applied graded_kunneth for the modulus
        rng = random.Random(1500)
        draws = [random_normal_form(rng, 12) for _ in range(2000)]
        got = [witt_cohomology(a, m).items() for a in draws for m in (0, 2, 4, 8)]
        assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == "bcc0a54390138e34"


class TestMod2Motivic:
    def test_blocks(self):
        assert mod2_motivic(NormalForm([Free(1)])).generators == ((2, 1),)
        assert mod2_motivic(NormalForm([DyadicEta(0, 0)])).generators == (
            (0, 0),
            (2, 1),
        )
        assert mod2_motivic(NormalForm([OddTorsion(5, 2, 1)])).generators == ()

    @pytest.mark.parametrize("seed", range(10))
    def test_generator_count_matches_chow(self, seed):
        rng = random.Random(200 + seed)
        a = random_normal_form(rng, 6)
        gens = mod2_motivic(a).generators
        ch2 = chow(a, mod2=True)
        per_weight = {}
        for p, q in gens:
            assert p == 2 * q
            per_weight[q] = per_weight.get(q, 0) + 1
        for q, count in per_weight.items():
            assert count == len(ch2[q].torsion)
        for d in ch2.degrees():
            assert per_weight.get(d, 0) == len(ch2[d].torsion)


class TestEtaInverted:
    def test_examples(self):
        assert eta_inverted(NormalForm([Free(0)]), 0, 0) == Z
        assert eta_inverted(NormalForm([DyadicEta(2, 1)]), 5, 3) == FormalGroup.cyclic(2)
        assert eta_inverted(NormalForm([DyadicEta(2, 1)]), 2, 0) == FormalGroup.cyclic(4)

    def test_even_order_splits_off_its_odd_part(self, monkeypatch):
        # an order kept whole, not split into prime powers: Z/12 = Z/4 + Z/3,
        # of which I^1 keeps Z/2 + Z/3 and I^2 keeps Z/3
        from mwtate import cohomology

        h = GradedGroup({1: FormalGroup(0, (12,))})
        monkeypatch.setattr(cohomology, "witt_cohomology", lambda a, j=0: h)
        assert eta_inverted(NormalForm([]), 3, 2) == FormalGroup(0, (2, 3))
        assert eta_inverted(NormalForm([]), 4, 3) == FormalGroup(0, (3,))

    @pytest.mark.parametrize("order", [6, 12, 20, 24, 36, 45])
    def test_whole_order_reads_as_its_prime_power_split(self, monkeypatch, order):
        # Z/order in Witt degree 1, kept whole or split into prime powers,
        # gives the same groups for m = 2q - p = 1..4, up to that split
        from mwtate import cohomology

        def scaled(h):
            monkeypatch.setattr(cohomology, "witt_cohomology", lambda a, j=0: GradedGroup({1: h}))
            groups = [eta_inverted(NormalForm([]), q + 1, q) for q in range(2, 6)]
            return [FormalGroup.from_invariants(g.torsion) for g in groups]

        whole = scaled(FormalGroup(0, (order,)))
        assert whole == scaled(FormalGroup.from_invariants([order]))

    def test_odd_torsion_unscaled(self):
        a = NormalForm([OddTorsion(3, 2, 0)])
        # torsion sits in Witt degree 1 = p - q; m = 2q - p = 2 > 0
        assert eta_inverted(a, 4, 3) == FormalGroup.cyclic(9)

    def test_periodicity_where_free_or_odd(self):
        # the scaling is invisible on free and odd summands, so the
        # (1)[1]-shift fixes the result there
        a = NormalForm([Free(0), OddTorsion(3, 1, 2)])
        for p in range(-3, 4):
            for q in range(-3, 4):
                assert eta_inverted(a, p, q) == eta_inverted(a, p + 1, q + 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_twist_compatibility(self, seed):
        # tensoring with Free(1) shifts (p, q) by (2, 1)
        from mwtate.motives import twist

        rng = random.Random(300 + seed)
        a = random_normal_form(rng, 5)
        for p in range(-4, 5):
            for q in range(-4, 5):
                assert eta_inverted(a, p, q) == eta_inverted(twist(a, 1), p + 2, q + 1)


class TestHomCone:
    def test_spot_values(self):
        assert hom_cone(6, 3, 2, "MW") == FormalGroup.from_invariants([3, 4])
        assert hom_cone(2, 1, 3, "MW").is_zero()
        assert hom_cone(4, 3, 2, "W") == FormalGroup.cyclic(8)

    def test_p_equals_q_rows(self):
        assert hom_cone(4, 0, 0, "MW") == Z  # the divisible Milnor part
        assert hom_cone(4, 1, 1, "MW").is_zero()
        assert hom_cone(4, 3, 3, "W") == FormalGroup.cyclic(2)
        assert hom_cone(4, 1, 1, "W").is_zero()

    def test_rejects_nonpositive(self):
        with pytest.raises(NonpositiveL):
            hom_cone(0, 1, 1)

    def test_splitting_consistency(self):
        for l in range(1, 25):
            s, t = l, 0
            while s % 2 == 0:
                s //= 2
                t += 1
            for cat in ("MW", "W"):
                for p in range(-4, 5):
                    for q in range(-4, 5):
                        lhs = hom_cone(l, p, q, cat).direct_sum(hom_cone(1, p, q, cat))
                        rhs = hom_cone(1 << t, p, q, cat).direct_sum(
                            hom_cone(s, p, q, cat)
                        )
                        assert lhs == rhs


class TestMWDiagonal:
    def test_free_cases(self):
        assert mw_diagonal(NormalForm([Free(0)]), 0) == FormalGroup.free(2)
        assert mw_diagonal(NormalForm([Free(2)]), 1) == Z
        assert mw_diagonal(NormalForm([Free(0)]), 3) == Z

    def test_odd_block(self):
        got = mw_diagonal(NormalForm([OddTorsion(3, 1, 0)]), 1)
        assert FormalGroup.cyclic(3).torsion[0] in got.torsion
        assert mw_diagonal(NormalForm([OddTorsion(3, 1, 0)]), 2).is_zero()

    def test_dyadic_block(self):
        # one step above the weight: the I-adic quotients plus the
        # divisible weight-0 Milnor summand
        got = mw_diagonal(NormalForm([DyadicEta(2, 0)]), 1)
        assert got == FormalGroup.from_invariants([0, 8])
        assert mw_diagonal(NormalForm([DyadicEta(2, 0)]), 0) == Z
        assert mw_diagonal(NormalForm([DyadicEta(2, 0)]), 3).is_zero()


class TestCoefficientModel:
    # motivic cohomology of the base point in the minimal Euclidean model

    def test_mod2_monomials(self):
        assert _h_mod2(0, 0) == FormalGroup.cyclic(2)
        assert _h_mod2(2, 5) == FormalGroup.cyclic(2)
        assert _h_mod2(3, 2).is_zero()
        assert _h_mod2(-1, 0).is_zero()

    def test_integral_values(self):
        assert _h_integral(0, 0) == FormalGroup.free(1)
        assert _h_integral(2, 2) == FormalGroup.cyclic(2)
        assert _h_integral(1, 2).is_zero()

    def test_divisible_milnor_part(self):
        assert _two_torsion_free_milnor(0) == FormalGroup.free(1)
        assert _two_torsion_free_milnor(1).is_zero()
        assert _two_torsion_free_milnor(-2).is_zero()
