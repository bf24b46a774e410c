import hashlib
import random

import pytest

from mwtate.bockstein import (
    PageTooSmall,
    Tower,
    block_pages,
    degeneracy_page,
    kunneth_e2,
    leibniz_check,
    pages,
    pages_from_witt,
    tower,
    truncated_check,
    v_group,
)
from mwtate.bockstein import analysis, fibers
from mwtate.bockstein.analysis import (
    _block_fiber_model,
    _cone_model,
    _model_window,
    _page_failures,
    _U,
    _V,
)
from mwtate.bockstein.fibers import FiberModel
from mwtate.bockstein.pages import Page
from mwtate.checks import _page_content, random_normal_form
from mwtate.cohomology import witt_cohomology
from mwtate.exactalg import FormalGroup, GradedGroup
from mwtate.motives import (
    DyadicEta,
    Free,
    NormalForm,
    OddTorsion,
    quotient_by_dyadic_eta,
    tensor,
)

from tests._fibers import cover_fiber, cover_page_states, spans_by_generator


class TestBlockPages:
    def test_early_page_of_dyadic(self):
        pg = block_pages(DyadicEta(2, 0), 2)
        assert sorted(pg.towers) == [tower(0, 0, None, "u"), tower(2, 1, None, "v")]
        assert not pg.arrows

    def test_late_page_truncates(self):
        pg = block_pages(DyadicEta(2, 0), 4)
        assert pg.towers == (tower(2, 1, 2, "v"),)

    def test_free_block_everywhere(self):
        assert block_pages(Free(3), 7).towers == (tower(6, 3),)

    def test_differential_only_at_jump(self):
        for i in (2, 4, 5):
            assert not block_pages(DyadicEta(2, 0), i).arrows
        jump = block_pages(DyadicEta(2, 0), 3)
        assert len(jump.arrows) == 1
        (src, dst, power), = jump.arrows
        assert (src.label, dst.label, power) == ("u", "v", 2)

    def test_rank_of_an_arrow_into_a_finite_tower(self):
        # no page of a normal form has one, so a hand-built page pins the
        # target test: rho^1 from offset k hits offset k + 1 of a tower of
        # height 3, so only offsets 0 and 1 of the source have an image
        u, v = tower(0, 0, None, "u"), tower(2, 1, 3, "v")
        pg = Page(2, (u, v), ((u, v, 1),))
        assert [pg.differential_rank(k, k) for k in range(5)] == [1, 1, 0, 0, 0]

    def test_plain_eta_cone_and_odd_empty(self):
        assert not block_pages(DyadicEta(0, 1), 2).towers
        assert not block_pages(OddTorsion(3, 1, 0), 2).towers

    def test_page_floor(self):
        with pytest.raises(PageTooSmall):
            block_pages(Free(0), 1)

    @pytest.mark.parametrize("bad", [2.7, 2.0, "2"])
    def test_non_integer_height_refused(self, bad):
        with pytest.raises(TypeError):
            tower(2, 1, bad, "v")

    @pytest.mark.parametrize("p, q", [(2.0, 1), (2, 1.0)], ids=["p", "q"])
    def test_non_integer_base_refused(self, p, q):
        # refused before the table of shared towers is read, so the
        # integer tower already in it is not returned for a float
        assert tower(2, 1, 3, "v") is tower(2, 1, 3, "v")
        with pytest.raises(TypeError):
            tower(p, q, 3, "v")
        with pytest.raises(TypeError):
            tower(p, q)

    def test_equal_towers_are_shared(self):
        a = pages(NormalForm([Free(0), DyadicEta(2, 0)]), 5)
        b = block_pages(DyadicEta(2, 0), 5)
        assert a.towers[1] is b.towers[0] is tower(2, 1, 2, "v")

    @pytest.mark.parametrize("bad", [2.5, 3.0])
    def test_non_integer_page_refused(self, bad):
        with pytest.raises(TypeError):
            block_pages(DyadicEta(2, 0), bad)

    @pytest.mark.parametrize("bad", [2.5, 3.0])
    def test_non_integer_page_of_a_normal_form_refused(self, bad):
        with pytest.raises(TypeError):
            pages(NormalForm([Free(0), DyadicEta(2, 0)]), bad)


class TestPagesFromWitt:
    def test_free_profile(self):
        h = GradedGroup({0: FormalGroup.free(1)})
        assert len(pages_from_witt(h, 5).towers) == 1

    def test_mixed_profile_matches_blocks(self):
        a = NormalForm([Free(0), DyadicEta(2, 1), Free(3)])
        h = witt_cohomology(a, 0)
        for i in range(2, 8):
            assert pages_from_witt(h, i) == pages(a, i)

    def test_odd_torsion_ignored(self):
        a = NormalForm([OddTorsion(3, 1, 0), Free(0)])
        h = witt_cohomology(a, 0)
        for i in range(2, 5):
            assert pages_from_witt(h, i) == pages(a, i)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_profile_formula(self, seed):
        rng = random.Random(seed)
        a = random_normal_form(rng, 10)
        h = witt_cohomology(a, 0)
        for i in range(2, degeneracy_page(a) + 3):
            assert pages_from_witt(h, i) == pages(a, i)

    def test_profile_multiplicities(self):
        # Z + Z/4 + Z/4 + Z/8 in degree 2: one R and three cones on weight 1
        h = GradedGroup({2: FormalGroup.from_invariants([4, 4, 8, 0])})
        a = NormalForm([Free(2), DyadicEta(2, 1), DyadicEta(2, 1), DyadicEta(3, 1)])
        for i in range(2, 6):
            assert pages_from_witt(h, i) == pages(a, i)

    def test_profile_reads_the_two_part_of_an_order(self):
        # an order kept whole, not split into prime powers: Z/12 = Z/4 + Z/3
        # holds a Z/4, Z/24 a Z/8 and Z/6 a Z/2
        h = GradedGroup({0: FormalGroup(0, (12,)), 1: FormalGroup(0, (6, 24))})
        a = NormalForm([DyadicEta(2, -1), DyadicEta(1, 0), DyadicEta(3, 0)])
        for i in range(2, 6):
            assert pages_from_witt(h, i) == pages(a, i)

    @pytest.mark.parametrize("bad", [2.5, 3.0])
    def test_non_integer_page_refused(self, bad):
        with pytest.raises(TypeError):
            pages_from_witt(GradedGroup({0: FormalGroup.free(1)}), bad)


class TestPinnedPages:
    # sha256 prefixes of the reprs of pages(A, i) and of
    # pages_from_witt(witt_cohomology(A, 0), i), i in 2..8, for 200
    # random_normal_form draws, pinned before both went through one page
    # builder: repr keeps the tower order, labels, heights and arrows that
    # Page equality ignores
    @staticmethod
    def digest(objs):
        return hashlib.sha256(repr(objs).encode()).hexdigest()[:16]

    def test_same_page_reprs(self):
        from_blocks, from_witt = [], []
        for seed in range(200):
            a = random_normal_form(random.Random(seed), 10)
            h = witt_cohomology(a, 0)
            from_blocks.append([pages(a, i) for i in range(2, 9)])
            from_witt.append([pages_from_witt(h, i) for i in range(2, 9)])
        assert self.digest(from_blocks) == "c96768865ae60b38"
        assert self.digest(from_witt) == "9c84c0fb1a3e229b"


class TestDegeneracy:
    def test_examples(self):
        assert degeneracy_page(NormalForm([Free(0)])) == 2
        assert degeneracy_page(NormalForm([Free(0), DyadicEta(2, 1), Free(3)])) == 4
        assert degeneracy_page(NormalForm([OddTorsion(3, 1, 0), Free(0)])) == 2

    def test_reads_the_largest_witt_torsion(self):
        # the reference: r + 2 for the largest Z/2^r summand of the Witt
        # cohomology, r = 0 when there is none
        rng = random.Random(3000)
        for _ in range(2000):
            a = random_normal_form(rng, 12)
            r = max(
                (q.bit_length() - 1 for _, g in witt_cohomology(a, 0).items()
                 for q in g.torsion if q % 2 == 0),
                default=0,
            )
            assert degeneracy_page(a) == r + 2, a

    @pytest.mark.parametrize("seed", range(20))
    def test_exact_stabilization(self, seed):
        rng = random.Random(50 + seed)
        a = random_normal_form(rng, 8)
        d = degeneracy_page(a)
        stable = _page_content(pages(a, d))
        assert _page_content(pages(a, d + 1)) == stable
        assert _page_content(pages(a, d + 3)) == stable
        if d > 2:
            assert _page_content(pages(a, d - 1)) != stable


class TestKunneth:
    def test_unit_block(self):
        a = NormalForm([Free(0)])
        b = NormalForm([DyadicEta(3, 1), OddTorsion(3, 1, 0)])
        assert kunneth_e2(a, b).equal

    def test_equal_exponents(self):
        d1 = NormalForm([DyadicEta(1, 0)])
        assert kunneth_e2(d1, d1).equal

    def test_mixed_exponents(self):
        assert kunneth_e2(
            NormalForm([DyadicEta(1, 0)]), NormalForm([DyadicEta(2, 0)])
        ).equal

    def test_exhaustive_small_pairs(self):
        for t1 in range(0, 5):
            for t2 in range(0, 5):
                rep = kunneth_e2(
                    NormalForm([DyadicEta(t1, 0)]), NormalForm([DyadicEta(t2, 1)])
                )
                assert rep.equal, (t1, t2, rep.first_discrepancy)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pairs(self, seed):
        rng = random.Random(700 + seed)
        a = random_normal_form(rng, 6)
        b = random_normal_form(rng, 6)
        assert kunneth_e2(a, b).equal


class TestTruncated:
    def test_examples(self):
        assert truncated_check(NormalForm([Free(0)]), 2).holds
        assert truncated_check(NormalForm([DyadicEta(1, 1)]), 3).holds
        assert truncated_check(NormalForm([]), 2).holds

    @pytest.mark.parametrize("seed", range(10))
    def test_random(self, seed):
        rng = random.Random(800 + seed)
        a = random_normal_form(rng, 5)
        for j in (1, 2, 3):
            assert truncated_check(a, j).holds

    # sha256 prefixes of the reports of truncated_check(A, j), j in 1..3,
    # for 20 random_normal_form draws, with A/2^(j+1) eta or A/2^(j-1) eta
    # in place of A/2^j eta: the first breaks the rho^j kernel and cokernel
    # count of page j+2, the second the additivity of pages 2..j+1
    @pytest.mark.parametrize("shift, failing, pinned", [
        (1, 58, "b72d1721410e288f"),
        (-1, 60, "6ae5a1057e3c90d8"),
    ], ids=["1", "-1"])
    def test_same_failure_details(self, monkeypatch, shift, failing, pinned):
        quotient = analysis.quotient_by_dyadic_eta
        monkeypatch.setattr(
            analysis, "quotient_by_dyadic_eta", lambda a, j: quotient(a, j + shift)
        )
        reports = []
        for seed in range(20):
            a = random_normal_form(random.Random(1400 + seed), 6)
            for j in (1, 2, 3):
                report = truncated_check(a, j)
                reports.append(report)
                pages_hit = {i for i, *_ in report.detail or ()}
                assert pages_hit <= ({j + 2} if shift > 0 else set(range(2, j + 2)))
        assert sum(not r.holds for r in reports) == failing
        assert hashlib.sha256(repr(reports).encode()).hexdigest()[:16] == pinned

    def test_reads_each_tower_once(self, monkeypatch):
        # the two sides of each page are segments of towers, at most two
        # per tower of A and one per tower of the quotient, compared per
        # line with no cell test and no scan of the window: on a check
        # that holds, no cell is listed at all
        a, j = NormalForm([Free(0), DyadicEta(2, 1), DyadicEta(1, -1)]), 2
        quot = quotient_by_dyadic_eta(a, j)
        bound = sum(2 * len(pages(a, i).towers) + len(pages(quot, i).towers)
                    for i in range(2, j + 3))
        differences, sweeps = analysis._differences, []

        def recorded(got, want, prange, qrange):
            cells = differences(got, want, prange, qrange)
            sweeps.append((len(got) + len(want), cells))
            return cells

        def refused(self, p, q):
            raise AssertionError("a tower was asked for a single cell")

        monkeypatch.setattr(Tower, "covers", refused)
        monkeypatch.setattr(analysis, "_differences", recorded)
        assert truncated_check(a, j).holds
        assert len(sweeps) == j + 1  # one sweep per page
        assert 0 < sum(n for n, _ in sweeps) <= bound
        assert all(cells == [] for _, cells in sweeps)


class TestLeibniz:
    @pytest.mark.parametrize("jk", [(1, 1), (1, 2), (2, 1), (3, 3), (2, 4)])
    def test_pairs(self, jk):
        assert leibniz_check(*jk).holds

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            leibniz_check(0, 1)


class TestVGroup:
    def test_free_block(self):
        res = v_group(NormalForm([Free(0)]), 1, 0)
        assert res.dim_V == 1

    def test_empty(self):
        res = v_group(NormalForm([]), 1, 0)
        assert res.dim_V == 0 and res.fiber_product.is_zero()

    def test_linked_cone(self):
        res = v_group(NormalForm([DyadicEta(1, 0)]), 1, 0)
        assert res.dim_V == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_monotone_in_j(self, seed):
        rng = random.Random(900 + seed)
        a = random_normal_form(rng, 4, allow_odd=False)
        n = rng.randrange(-1, 2)
        dims = [v_group(a, j, n).dim_V for j in range(1, 5)]
        assert all(dims[i] >= dims[i + 1] for i in range(len(dims) - 1))

    @pytest.mark.parametrize("bad", [1.5, 1.0])
    def test_non_integer_page_or_degree_refused(self, bad):
        a = NormalForm([Free(0), DyadicEta(1, 0)])
        with pytest.raises(TypeError):
            v_group(a, bad, 0)
        with pytest.raises(TypeError):
            v_group(a, 1, bad)


class TestPinnedFibers:
    # sha256 prefixes of (dim_V, fiber_product) over j in 1..3 and n in
    # -2..2 for one random_normal_form draw per seed, and of the leibniz
    # reports for j, k <= 4, all computed before the fiber model was built
    # as a product of block models: every V-group must come out the same
    PINNED_V = [
        (0, "80eff7c63974f9cb"), (1, "ffd822050d911ad4"), (2, "1901ca6190ee7097"),
        (3, "2a9a3d0ab96de35c"), (4, "7d22a190ec4dc959"), (5, "ea46c83759e5583c"),
        (6, "08ccd6de4f273b91"), (7, "71f7bbeae376be98"), (8, "423e9103e38fdedd"),
        (9, "394416581d6d31d3"), (10, "08ccd6de4f273b91"), (11, "6a8b8698a3b7fa31"),
        (12, "f53e7646a9510346"), (13, "654e8f3628201b62"), (14, "5f74c285990046a3"),
        (15, "59dccbaa04409f94"), (16, "052907cb197c9d18"), (17, "08ccd6de4f273b91"),
        (18, "5cfce9523c9646f6"), (19, "95070ec44fc69c00"),
    ]

    @staticmethod
    def digest(objs):
        return hashlib.sha256(repr(objs).encode()).hexdigest()[:16]

    @pytest.mark.parametrize("seed, pinned", PINNED_V)
    def test_same_v_groups(self, seed, pinned):
        a = random_normal_form(random.Random(1200 + seed), 6)
        results = [v_group(a, j, n) for j in (1, 2, 3) for n in range(-2, 3)]
        assert self.digest([(r.dim_V, r.fiber_product) for r in results]) == pinned

    def test_same_leibniz_reports(self):
        reports = [leibniz_check(j, k) for j in range(1, 5) for k in range(1, 5)]
        assert self.digest(reports) == "79ff55ea951d5f2a"

    def test_same_leibniz_reports_up_to_six(self):
        # computed with cover-scan fibers, before fibers were line prefixes
        reports = [leibniz_check(j, k) for j in range(1, 7) for k in range(1, 7)]
        assert all(reports)
        assert self.digest(reports) == "94e6288968a9d8c9"

    @pytest.mark.parametrize("blocks, j, n, dim_v, torsion", [
        ([Free(0)], 2, 0, 1, (4,)),
        ([DyadicEta(1, 0)], 3, 1, 1, (2,)),
        ([DyadicEta(2, -1)], 3, -1, 1, (4,)),
        ([Free(0), DyadicEta(3, 0)], 2, 0, 2, (4, 4)),
        ([DyadicEta(2, 0), DyadicEta(1, 1)], 3, 1, 2, (2, 4)),
        ([DyadicEta(2, 0), DyadicEta(1, 1)], 1, -1, 0, ()),
    ])
    def test_small_fiber_products(self, blocks, j, n, dim_v, torsion):
        res = v_group(NormalForm(blocks), j, n)
        assert res.dim_V == dim_v
        assert res.fiber_product == FormalGroup(0, torsion)


def _quotient_failures(a, j, model):
    """Where a fiber model of A/2^j eta differs from its block tables, on
    every page through degeneration and up to 2 rows above its top tower."""
    quot = quotient_by_dyadic_eta(a, j)
    qs = [t.q for t in model.gens.values()] or [0]
    return _page_failures(model, quot, degeneracy_page(quot) + 1, min(qs) - 1, max(qs) + 2)


def _without_each_first_arrow(model):
    """The model without one arrow, for each arrow that is the only one
    touching its two towers on its page or before.  Pages and ranks see
    no other arrow alone: in cone(4 eta) x cone(8 eta) the page-4 arrow
    u*u -> u*v leaves a tower that page 3 already maps away, and in
    cone(2 eta) x cone(2 eta) only the sum u*u -> u*v + v*u shows."""
    touches = {}
    for i, pairs in model.arrows.items():
        for end in (g for arrow in pairs for g in arrow):
            touches.setdefault(end, []).append(i)
    for i, pairs in model.arrows.items():
        for k, arrow in enumerate(pairs):
            if all(min(touches[g]) == i and touches[g].count(i) == 1 for g in arrow):
                yield FiberModel(model.gens, {**model.arrows, i: pairs[:k] + pairs[k + 1:]})


class TestFiberModel:
    def test_finite_tower_refused(self):
        # a fiber is a prefix of its line only if every tower runs up it
        with pytest.raises(ValueError, match="infinite"):
            FiberModel({"g": tower(0, 0), "h": tower(2, 1, 3)}, {})

    def test_fiber_is_a_prefix_of_its_line(self):
        gens = {"late": tower(3, 2), "x": tower(0, 0), "early": tower(1, 0),
                "high": tower(4, 3), "y": tower(2, 1)}
        model = FiberModel(gens, {2: [("x", "late"), ("x", "high")]})
        assert model.fiber(3, 2) == {"early": 0, "y": 1, "late": 2}
        assert model.fiber(2, 1) == {"early": 0, "y": 1}
        assert [model.size(k + 1, k) for k in range(-1, 5)] == [0, 1, 2, 3, 4, 4]
        assert model.fiber(5, 5) == {"x": 0} and model.fiber(5, 3) == {}
        # from (0, 0) the page-2 arrows land at (3, 2), below the base of
        # high, so only late is hit; from (1, 1) both are
        assert model.differential(2, (0, 0)) == [0b100]
        assert model.differential(2, (1, 1)) == [0b1100]
        assert model.differential(2, (-1, -1)) == []

    def test_product_keys_and_leibniz_arrows(self):
        model = _cone_model(2) * _cone_model(1)
        uu, uv, vu, vv = (_U, _U), (_U, _V), (_V, _U), (_V, _V)
        assert list(model.gens) == [uu, uv, vu, vv]
        assert [(t.p, t.q) for t in model.gens.values()] == [(0, 0), (2, 1), (2, 1), (4, 2)]
        assert model.arrows == {3: [(uu, vu), (uv, vv)], 2: [(uu, uv), (vu, vv)]}

    @pytest.mark.parametrize("seed", range(40))
    def test_product_model_matches_quotient_pages(self, seed):
        # the model v_group reads E_{j+2} of A/2^j eta from
        a = random_normal_form(random.Random(1300 + seed), 6, allow_odd=False)
        for j in (1, 2, 3):
            model = _block_fiber_model(a.blocks) * _cone_model(j)
            assert _quotient_failures(a, j, model) == []

    def test_dropping_a_leibniz_arrow_fails(self):
        a = NormalForm([Free(0), DyadicEta(3, 1), DyadicEta(1, -1)])
        for j in (1, 2, 3):
            model = _block_fiber_model(a.blocks) * _cone_model(j)
            mutants = list(_without_each_first_arrow(model))
            assert len(mutants) == {1: 3, 2: 5, 3: 3}[j]
            for mutant in mutants:
                assert _quotient_failures(a, j, mutant)

    def test_leibniz_check_fails_without_an_arrow(self):
        a, b = NormalForm([DyadicEta(2, 0)]), NormalForm([DyadicEta(3, 0)])
        mutants = list(_without_each_first_arrow(_cone_model(2) * _cone_model(3)))
        assert len(mutants) == 2  # u*u -> v*u and u*v -> v*v of page 3
        for mutant in mutants:
            assert _page_failures(mutant, tensor(a, b), 6, -1, 9)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_dropping_any_arrow_of_equal_cones_fails(self, j):
        # d(u*u) = v*u + u*v and d(v*u + u*v) = 2 v*v: without one of the
        # four arrows every dimension and rank still matches, but d o d
        # no longer vanishes
        cone = NormalForm([DyadicEta(j, 0)])
        model = _cone_model(j) * _cone_model(j)
        arrows = model.arrows[j + 1]
        assert len(arrows) == 4
        for k in range(4):
            mutant = FiberModel(model.gens, {j + 1: arrows[:k] + arrows[k + 1:]})
            failures = _page_failures(mutant, tensor(cone, cone), j + 3, -1, 2 * j + 4)
            assert failures and {kind for kind, *_ in failures} == {"dd"}

    def test_d_squared_is_read_modulo_boundaries(self):
        # d_3(g) = h and d_3(h) = e, where d_2(c) = e has already made e a
        # boundary: d_3 o d_3 vanishes on the page only through B_3
        gens = {"g": tower(0, 0), "h": tower(4, 3), "c": tower(5, 4), "e": tower(8, 6)}
        arrows = {2: [("c", "e")], 3: [("g", "h"), ("h", "e")]}

        def dd_failures(arrows):
            failures = _page_failures(FiberModel(gens, arrows), NormalForm([]), 3, 0, 2)
            return [f for f in failures if f[0] == "dd"]

        assert dd_failures(arrows) == []
        assert dd_failures({3: arrows[3]}) == [("dd", 3, k, k, 1, 0) for k in range(3)]

    def test_taller_windows_add_no_elimination(self, monkeypatch):
        # rows far enough above the bases repeat their inputs, so they share
        # the states of the rows below: the F2 eliminations of the page
        # states do not grow with the height of the window
        kernel, calls = fibers.f2.kernel, []

        def counted(pairs, modulo):
            calls.append(None)
            return kernel(pairs, modulo)

        monkeypatch.setattr(fibers.f2, "kernel", counted)
        counts = []
        for top in (20, 40, 80):
            model = _cone_model(2) * _cone_model(3)
            calls.clear()
            states = model.page_states(7, _model_window(model, -1, top))
            counts.append(len(calls))
            high, below = states[7][top + 2, top], states[7][top + 1, top - 1]  # line p - q = 2
            assert high[0] and high[0] is below[0] and high[1] is below[1]
        assert counts[0] == counts[1] == counts[2] > 0

    def test_v_group_scans_each_fiber_once(self, monkeypatch):
        # a fiber is a prefix of its line, with no cell test: the lines are
        # one pass over the generators, and each page's columns one pass
        # over a line, made once per model, page and line however often
        # the pages ask for a differential
        line_columns, covers, built, models = FiberModel._line_columns, Tower.covers, [], []

        def recorded(self, i, a):
            built.append((id(self), i, a, len(self._lines.get(a, ((), (), {}))[1])))
            if self not in models:
                models.append(self)
            return line_columns(self, i, a)

        def refused(self, p, q):
            raise AssertionError("a tower was asked for a single cell")

        monkeypatch.setattr(Tower, "covers", refused)
        monkeypatch.setattr(FiberModel, "_line_columns", recorded)
        v_group(NormalForm([Free(0), DyadicEta(2, 1), DyadicEta(1, -1)]), 2, 0)
        # a block model has one base row per line; here line 0 has two
        # prefixes and line 1 three
        hand = FiberModel({"x": tower(0, 0), "x2": tower(1, 1), "early": tower(1, 0),
                           "late": tower(3, 2), "top": tower(5, 4)},
                          {2: [("x", "late"), ("x2", "late"), ("x2", "top")]})
        hand.page_states(4, _model_window(hand, -1, 8))
        # the block tables of a Leibniz check, not its fibers, ask towers
        # for cells
        monkeypatch.setattr(Tower, "covers", covers)
        assert leibniz_check(2, 3).holds
        assert len({key[:3] for key in built}) == len(built) > 0
        bound = sum(len(model.gens) * len(model.arrows) for model in models)
        assert sum(visits for *_, visits in built) <= bound


def _v_rectangle(model, j, n):
    """Every bidegree of (generator lines + 1) x (q spread + 2j + 14)
    around the Chow corner (2n, n): the window v_group once scanned."""
    qs = [g.q for g in model.gens.values()] + [n, n + j + 1]
    return _model_window(model, min(qs) - 2, max(qs) + 2 * j + 10)


def _v_group_calls(monkeypatch):
    """Record (model, window, states) of each page_states call."""
    page_states, calls = FiberModel.page_states, []

    def recorded(self, up_to, window):
        window = list(window)
        states = page_states(self, up_to, window)
        calls.append((self, window, states))
        return states

    monkeypatch.setattr(FiberModel, "page_states", recorded)
    return calls


def _same_states(model, up_to, window):
    """page_states of the model against the cover-scan oracle: per page and
    bidegree the same fiber generators, and Z and B the same spans of
    generator sums (bit positions may differ)."""
    window = list(window)
    got, want = model.page_states(up_to, window), cover_page_states(model, up_to, window)
    assert got.keys() == want.keys()
    for i, page in want.items():
        assert got[i].keys() == page.keys()
        for b, (z, bb) in page.items():
            order, fib = cover_fiber(model, *b), model.fiber(*b)
            assert fib.keys() == order.keys()
            gz, gbb = got[i][b]
            assert len(gz) == len(z)
            assert spans_by_generator(gz, fib, order) == spans_by_generator(z, order, order)
            assert (spans_by_generator(gbb.values(), fib, order)
                    == spans_by_generator(bb.values(), order, order))


class TestFiberOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_leibniz_windows(self, seed):
        # the window _page_failures reads: leibniz_check's on a product of
        # two cones, _quotient_failures' on A (x) cone(2^j eta)
        rng = random.Random(1900 + seed)
        j, k = rng.randint(1, 6), rng.randint(1, 6)
        i_max = max(j, k) + 3
        model = _cone_model(j) * _cone_model(k)
        _same_states(model, i_max + 1, _model_window(model, -1, j + k + 4 + 2 * i_max))
        a = random_normal_form(rng, 6, allow_odd=False)
        model = _block_fiber_model(a.blocks) * _cone_model(j)
        i_max = degeneracy_page(quotient_by_dyadic_eta(a, j)) + 1
        qs = [t.q for t in model.gens.values()] or [0]
        _same_states(model, i_max + 1, _model_window(model, min(qs) - 1, max(qs) + 2 + 2 * i_max))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_models(self, seed):
        # towers based anywhere on three lines and arrows between any two
        # generators: a target may start above the cell its arrow hits, and
        # an arrow may skip a line or come twice
        rng = random.Random(2100 + seed)
        gens = {}
        for g in range(rng.randint(1, 8)):
            a, q = rng.randint(0, 2), rng.randint(-2, 6)
            gens[g] = tower(q + a, q)
        arrows: dict = {}
        for _ in range(rng.randint(0, 10)):
            src = rng.choice(list(gens))
            above = [g for g, t in gens.items() if t.p - t.q == gens[src].p - gens[src].q + 1]
            dst = rng.choice(above) if above and rng.random() < 0.8 else rng.choice(list(gens))
            arrows.setdefault(rng.randint(2, 4), []).append((src, dst))
        model = FiberModel(gens, arrows)
        _same_states(model, 6, _model_window(model, -3, 12))

    @pytest.mark.parametrize("seed", range(12))
    def test_v_rectangle_windows(self, seed):
        rng = random.Random(2000 + seed)
        a = random_normal_form(rng, 6, allow_odd=False)
        j, n = rng.randint(1, 4), rng.randint(-2, 2)
        amodel = _block_fiber_model(a.blocks)
        for model in (amodel, amodel * _cone_model(j)):
            _same_states(model, j + 2, _v_rectangle(model, j, n))


class TestVGroupWindow:
    @pytest.mark.parametrize("seed", range(60))
    def test_reads_as_the_rectangle(self, monkeypatch, seed):
        # the states v_group reads, of A and of A/2^j eta, come out the same
        # on the dependency window as on the whole rectangle
        a = random_normal_form(random.Random(1600 + seed), 6)
        page_states = FiberModel.page_states
        calls = _v_group_calls(monkeypatch)
        for j in range(1, 6):
            for n in range(-2, 3):
                calls.clear()
                v_group(a, j, n)
                b_x, b_y, b_t = (2 * n, n), (2 * n + 2, n + 1), (2 * n + j + 2, n + j + 1)
                (amodel, _, astates), (tmodel, _, tstates) = calls
                reads = [(amodel, astates, [(j + 1, b_x), (j + 2, b_y), (j + 1, b_t)]),
                         (tmodel, tstates, [(j + 2, b_y)])]
                for model, states, targets in reads:
                    oracle = page_states(model, j + 2, _v_rectangle(model, j, n))
                    for i, b in targets:
                        assert states[i].get(b, ([], {})) == oracle[i].get(b, ([], {}))

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 6])
    def test_window_within_the_rectangle(self, monkeypatch, j):
        # never more than the rectangle, and for j <= 2 a quarter of it
        calls = _v_group_calls(monkeypatch)
        for seed in range(20):
            a = random_normal_form(random.Random(1700 + seed), 6)
            for n in range(-2, 3):
                calls.clear()
                v_group(a, j, n)
                for model, window, _ in calls:
                    rect = _v_rectangle(model, j, n)
                    assert set(window) <= set(rect)
                    if j <= 2:
                        assert 4 * len(window) <= len(rect)


class TestProp2Restated:
    @pytest.mark.parametrize("seed", range(15))
    def test_second_page_is_mod2_witt(self, seed):
        rng = random.Random(600 + seed)
        a = random_normal_form(rng, 6)
        pg = pages(a, 2)
        h2 = witt_cohomology(a, 2)
        for q in range(-6, 10):
            for p in range(q - 2, 2 * q + 3):
                dim = pg.dim(p, q)
                if p > 2 * q:
                    assert dim == 0
                else:
                    grp = h2[p - q]
                    assert dim == len(grp.torsion) + grp.free_rank
