import hashlib
import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors

from mwtate.bockstein.couple import (
    ExactCouple,
    InexactCouple,
    _coordinates,
    bockstein_couple,
    couple_analyze,
    couple_derive,
    e_infinity,
    identification_test,
    normalize_couple,
    torsion_order,
    verify_exactness,
)
from mwtate.bockstein import couple, pages
from mwtate.checks import random_adjacent_complex, random_normal_form, unimodular_twist
from mwtate.exactalg import FormalGroup, FreeComplex, PresentedGroup, integer_cohomology
from mwtate.exactalg import f2, groups, intmat
from mwtate.exactalg.intmat import Mat, hstack, kernel_mod_lattice, matmul, scalar, zeros
from mwtate.motives import _to_free_complex, realize


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

    def test_hand_built_couple_reads_integer_invariants(self):
        # D = Z with i = 4 and E = Z/4, not an F2-space: the pages and E_inf
        # keep the integer reading, and E_2 is that of the derived couple
        cpl = ExactCouple({0: PresentedGroup(1)}, {0: PresentedGroup(1, [[4]])},
                          {0: Mat([[4]])}, {0: Mat([[1]])}, {})
        res = couple_analyze(cpl)
        z4 = {0: FormalGroup.cyclic(4)}
        assert res.pages == (z4, z4) and res.e_infinity == z4 and res.degeneration_holds
        assert couple._page_invariants(couple_derive(cpl)) == z4

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
        # is Cartesian, so ranks satisfy rk D = rk ker(k) + rk Dbar - rk E_2;
        # a draw with deeper 2-torsion is passed over for the next one
        rng = random.Random(400 + seed)
        cpl = bockstein_couple(random_adjacent_complex(rng))
        while torsion_order(cpl) != 1:
            cpl = bockstein_couple(random_adjacent_complex(rng))
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
    kerk = kernel_mod_lattice(cpl.kmat(deg), cpl.dgroup(deg + 1).rels)
    # ker(k) as an abstract group: the E relations pulled back through it
    grp = PresentedGroup(kerk.cols, kernel_mod_lattice(kerk, cpl.egroup(deg).rels)).invariants()
    return len(grp.torsion) + grp.free_rank


def _dbar_rank(cpl, deg):
    dg = cpl.dgroup(deg)
    r = torsion_order(cpl)
    quot = PresentedGroup(dg.ngens, hstack(dg.rels, cpl.ker_i(deg, r)))
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

    def test_diagonal_group_needs_no_transform(self):
        group = PresentedGroup(2, Mat([[2, 0], [0, 4]]))
        assert couple._diag_normalize(group) == (group, None, None, [2, 4])

    def test_diagonal_couple_is_reduced_without_products(self, intmat_calls):
        # every group square diagonal or free with no unit generator: each
        # map is only reduced modulo the orders of its target generators
        z2_z4, z8 = PresentedGroup(2, Mat([[2, 0], [0, 4]])), PresentedGroup(1, Mat([[8]]))
        cpl = ExactCouple(
            {0: z2_z4, 1: z8, 2: PresentedGroup(1)},
            {0: PresentedGroup(1, Mat([[2]])), 1: z2_z4},
            {0: Mat([[3, -5], [6, 9]]), 1: Mat([[10]]), 2: Mat([[-7]])},
            {0: Mat([[5, -3]]), 1: Mat([[9], [-6]])},
            {0: Mat([[11]]), 1: Mat([[3, -13]])},
        )
        calls = intmat_calls("matmul")
        norm = normalize_couple(cpl)
        assert calls == []
        assert norm.map_i == {0: Mat([[1, 1], [2, 1]]), 1: Mat([[2]]), 2: Mat([[-7]])}
        assert norm.map_j == {0: Mat([[1, 1]]), 1: Mat([[1], [2]]), 2: Mat([], 1)}
        assert norm.map_k == {0: Mat([[3]]), 1: Mat([[3, -13]])}
        assert (norm.d_groups, norm.e_groups) == (cpl.d_groups, cpl.e_groups)


def sympy_bockstein(complex_):
    """The classical Bockstein spectral sequence of H^*(C; Z), read off
    sympy's invariant factors of each differential, with no mwtate algebra.

    In cochain degrees H^d has free rank n_d - rk d_d - rk d_{d-1} and
    torsion the invariant factors of d_{d-1}.  dim E_r^d counts the free
    rank of H^d and the summands Z/2^k, k >= r, of H^d and of H^{d+1}; the
    torsion order is the largest such k (at least 1), and E_inf^d has the
    dimension of the free rank of H^d.  Returns (pages E_1..E_{r+1},
    E_inf, r), each page a {degree: FormalGroup} of its nonzero terms.
    """
    inv = {}
    for w in complex_.weights():
        m = complex_.differential(w)
        entries = [x for row in m for x in row]
        factors = invariant_factors(Matrix(m.rows, m.cols, entries)) if entries else []
        inv[w] = [abs(int(x)) for x in factors if x != 0]
    free, exps = {}, {}
    for d in complex_.weights():
        free[d] = complex_.rank(d) - len(inv.get(d, ())) - len(inv.get(d - 1, ()))
        exps[d] = [(x & -x).bit_length() - 1 for x in inv.get(d - 1, ()) if x % 2 == 0]
    r = max([1] + [k for ks in exps.values() for k in ks])
    degrees = sorted({e for d in complex_.weights() for e in (d - 1, d)})

    def elementary(dims):
        return {d: FormalGroup.from_invariants([2] * n) for d, n in dims.items() if n}

    def page(rr):
        return elementary({
            d: free.get(d, 0)
            + sum(k >= rr for k in exps.get(d, ()))
            + sum(k >= rr for k in exps.get(d + 1, ()))
            for d in degrees
        })

    return [page(rr) for rr in range(1, r + 2)], elementary(free), r


DEEP_TORSION = [
    FreeComplex({0: 1, 1: 1}, {0: [[16]]}),
    FreeComplex({0: 2, 1: 3}, {0: [[4, 0, 0], [0, 24, 0]]}),
    FreeComplex({0: 1, 1: 1, 2: 1, 3: 1}, {0: [[32]], 2: [[12]]}),
    FreeComplex({-1: 2, 0: 2}, {-1: [[8, 6], [2, 10]]}),
]


class TestSympyBocksteinOracle:
    def check(self, c):
        pages, e_inf, r = sympy_bockstein(c)
        res = classical(c)
        assert res.torsion_order == r
        assert list(res.pages) == pages
        assert res.e_infinity == e_inf
        assert res.four_term_exact and res.identification_holds
        assert res.degeneration_holds

    @pytest.mark.parametrize("seed", range(40))
    def test_random_adjacent(self, seed):
        self.check(random_adjacent_complex(random.Random(2000 + seed)))

    @pytest.mark.parametrize("index", range(len(DEEP_TORSION)))
    def test_deep_two_torsion(self, index):
        self.check(DEEP_TORSION[index])

    @pytest.mark.parametrize("seed", range(30))
    def test_twisted_realization(self, seed):
        # the draws of test_twisted_realization below
        rng = random.Random(500 + seed)
        a = random_normal_form(rng, 5, allow_odd=False)
        self.check(_to_free_complex(unimodular_twist(realize(a), rng))[0])

    @pytest.mark.parametrize("rows, cols", [(12, 12), (12, 16), (16, 12)])
    @pytest.mark.parametrize("seed", range(10))
    def test_dense_two_weight(self, rows, cols, seed):
        # a dense differential from weight 0 to weight 1, entries in [-9, 9]:
        # the couple's presentations start far from diagonal
        rng = random.Random(seed)
        d = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        self.check(FreeComplex({0: rows, 1: cols}, {0: d}))


class TestPinnedAnalyses:
    # sha256 prefixes of the reprs of the analyses, and of the groups and
    # maps of the first derived couples, of five random_adjacent_complex
    # draws per seed: every page, presentation and coordinate must come
    # out the same.  The analyses were pinned before the subgroup questions
    # were batched into one solve each, the derived couples (their groups
    # and maps alone) before ExactCouple lost its degree-shift fields.  The
    # derived digests of seeds 1, 3 and 7 were restated when the E groups
    # of bockstein_couple took the Hermite basis of their lattice in place
    # of a basis rebuilt from its Smith form: the same lattice in another
    # basis, so other presentations, with the invariants of
    # PINNED_INVARIANTS and every analysis unchanged.
    PINNED = [
        (0, "519aa24cc9f125ce", "d1d4c4aa26692d6d"),
        (1, "0809a920d5b0fea0", "e5eef8f8592ccccc"),
        (2, "c808df5b98eb6983", "cad94224a87a0f2c"),
        (3, "f09feedc9028069f", "a8b64b842a7405bb"),
        (4, "7ebfdb132049cb3d", "20e02396da4bb750"),
        (5, "c35f956f1372d235", "e4357845101530a0"),
        (6, "81ed0945fa5f76c3", "c3d2247746c0d852"),
        (7, "5be2fc2882ffb6f8", "c2cb593be8f70ad9"),
    ]

    # the same for each DEEP_TORSION fixture (torsion orders 4, 3, 5 and 1),
    # whose deep membership stages the random draws rarely reach
    PINNED_DEEP = [
        (0, "4a19b080f2d883c8", "b476252d51ed182e"),
        (1, "bcc8b26edda124c3", "a179ec1f5f101a5a"),
        (2, "5b8e2363731f36ee", "d2a5b9933e952c06"),
        (3, "fc4a563525659974", "dae603001e798d98"),
    ]

    @staticmethod
    def digest(objs):
        return hashlib.sha256(repr(objs).encode()).hexdigest()[:16]

    @staticmethod
    def content(c):
        return (c.d_groups, c.e_groups, c.map_i, c.map_j, c.map_k)

    # the same, plus the built couples, for five gap_complex draws per seed:
    # deriving must keep each k' map into a zero D' as a matrix without rows.
    # For the same change of E basis the built digests of seeds 0-3 and the
    # derived digests of seeds 2 and 3 were restated.
    PINNED_GAPS = [
        (0, "970ed30efd5cdcb1", "66c13b5c2f75484e", "9fba0629cc6d9f17"),
        (1, "f71e2db8903987fa", "9b206a313cd57d33", "e61fb4ae37075c74"),
        (2, "00b2881b611b928a", "9b0d608dc7870bc6", "7c4e0d502d3e23fe"),
        (3, "bb9eee715cc3b56a", "4c4cb2aa40acfc67", "9b03079475d0c237"),
    ]

    @pytest.mark.parametrize("seed, analyses, derived", PINNED,
                             ids=[str(seed) for seed, _, _ in PINNED])
    def test_same_analyses(self, seed, analyses, derived):
        rng = random.Random(seed)
        couples = [bockstein_couple(random_adjacent_complex(rng)) for _ in range(5)]
        assert self.digest([couple_analyze(c) for c in couples]) == analyses
        assert self.digest([self.content(couple_derive(c)) for c in couples]) == derived

    @pytest.mark.parametrize("index, analysis, derived", PINNED_DEEP,
                             ids=[str(index) for index, _, _ in PINNED_DEEP])
    def test_same_deep_analyses(self, index, analysis, derived):
        cpl = bockstein_couple(DEEP_TORSION[index])
        assert self.digest(couple_analyze(cpl)) == analysis
        assert self.digest(self.content(couple_derive(cpl))) == derived

    @pytest.mark.parametrize("seed, built, analyses, derived", PINNED_GAPS,
                             ids=[str(seed) for seed, *_ in PINNED_GAPS])
    def test_same_gap_analyses(self, seed, built, analyses, derived):
        rng = random.Random(seed)
        couples = [bockstein_couple(gap_complex(rng)) for _ in range(5)]
        assert self.digest([self.content(c) for c in couples]) == built
        assert self.digest([couple_analyze(c) for c in couples]) == analyses
        derived_couples = [couple_derive(c) for c in couples]
        assert self.digest([self.content(c) for c in derived_couples]) == derived
        assert any(m.rows == 0 for c in derived_couples for m in c.map_k.values())

    # the invariants of every D and E group of the built couples above, and
    # the E groups of their derived couples: what a change of basis in a
    # presentation keeps, pinned before the E lattices lost their Smith basis
    PINNED_INVARIANTS = [
        ("adjacent", 0, "9932a5e6db4d6163"),
        ("adjacent", 1, "2a3e638030939411"),
        ("adjacent", 2, "6a19e50c4c15db65"),
        ("adjacent", 3, "7c62db4ff560798d"),
        ("adjacent", 4, "c2becaa41bd2ac27"),
        ("adjacent", 5, "1ddc847d0a9ef609"),
        ("adjacent", 6, "149925f75d8f133f"),
        ("adjacent", 7, "765442c5d28925be"),
        ("gap", 0, "8cf33eaf5014b380"),
        ("gap", 1, "66eef4c1faa71552"),
        ("gap", 2, "7bcefd43bfb6aee3"),
        ("gap", 3, "8469ae6c03d777d5"),
        ("deep", 0, "600f2c9ccc436b9f"),
        ("deep", 1, "018a641be632a278"),
        ("deep", 2, "c9a57c2fd9ac89e6"),
        ("deep", 3, "75d7d1708377191b"),
    ]

    @pytest.mark.parametrize("kind, seed, invariants", PINNED_INVARIANTS)
    def test_same_invariants(self, kind, seed, invariants):
        rng = random.Random(seed)
        draw = random_adjacent_complex if kind == "adjacent" else gap_complex
        complexes = [DEEP_TORSION[seed]] if kind == "deep" else [draw(rng) for _ in range(5)]
        got = []
        for c in map(bockstein_couple, complexes):
            built = {d: (c.dgroup(d).invariants(), c.egroup(d).invariants()) for d in c.degrees()}
            got.append((built, couple._page_invariants(couple_derive(c))))
        assert self.digest(got) == invariants


@st.composite
def small_mats(draw, rows, cols):
    """A rows x cols matrix with entries in [-9, 9]."""
    row = st.lists(st.integers(-9, 9), min_size=cols, max_size=cols)
    return Mat(draw(st.lists(row, min_size=rows, max_size=rows)), cols)


@st.composite
def e_kernel_cases(draw):
    """(group, A, extra) for a kernel into a group whose relations hold
    2Z^m: A up to 10 x 12; relations 2I, or the Hermite form of 2Z^m plus
    up to four integer columns; extra absent or up to four columns."""
    m, n = draw(st.integers(0, 10)), draw(st.integers(0, 12))
    rels = scalar(m, 2)
    if draw(st.booleans()):
        rels = intmat.column_reduce(hstack(rels, draw(small_mats(m, draw(st.integers(0, 4))))))
    extra = draw(st.none() | small_mats(m, draw(st.integers(0, 4))))
    return PresentedGroup.of_hermite(m, rels), draw(small_mats(m, n)), extra


class TestModTwoSide:
    # the mod-2 helpers of the E side against the integer oracle
    # kernel_mod_lattice, column_reduce and solve_columns

    @given(e_kernel_cases())
    def test_kernel_into_an_e_group_is_the_integer_kernel(self, case):
        group, a, extra = case
        lattice = group.rels if extra is None else hstack(extra, group.rels)
        expected = kernel_mod_lattice(a, lattice)
        # read mod 2: the integer kernel is not called
        with mock.patch.object(intmat, "kernel_mod_lattice", side_effect=AssertionError):
            assert couple._kernel_into(group, a, extra) == expected

    @given(st.data())
    def test_hermite_is_the_integer_hermite_form(self, data):
        m = data.draw(small_mats(data.draw(st.integers(0, 10)), data.draw(st.integers(0, 12))))
        expected = intmat.column_reduce(hstack(scalar(m.rows, 2), m))
        assert Mat(f2.hermite(couple._bits(m), m.rows), m.rows) == expected

    @pytest.mark.parametrize("rels", [[[4]], [[2, 0], [1, 2]], [[1, 0], [0, 0]]])
    def test_other_groups_keep_the_integer_kernel(self, rels, intmat_calls):
        # Z/4, a lattice whose 2-column is not 2e_r, and one not of full
        # rank: none holds 2Z^m, and the mod-2 reading of each is wrong
        group = PresentedGroup(len(rels), rels)
        a = intmat.identity(len(rels))
        expected = kernel_mod_lattice(a, group.rels)
        calls = intmat_calls("kernel_mod_lattice")
        assert couple._kernel_into(group, a) == expected and len(calls) == 1

    @given(st.data())
    def test_parity_coordinates_are_the_integer_solve(self, data):
        m, n, k = data.draw(st.integers(0, 10)), data.draw(st.integers(0, 12)), 3
        basis = couple._mod2_kernel(data.draw(small_mats(m, n)))
        coeffs = data.draw(small_mats(n, k))
        assert couple._parity_coordinates(basis, matmul(basis, coeffs)) == coeffs
        images = data.draw(small_mats(n, k))
        expected = intmat.solve_columns(basis, images)
        if expected is None:
            with pytest.raises(InexactCouple):
                couple._parity_coordinates(basis, images)
        else:
            assert couple._parity_coordinates(basis, images) == expected


@pytest.mark.parametrize("lower, upper", [([[1]], [[1]]), ([[1]], [[3]]), ([[1, 1]], [[1], [0]])])
def test_non_composable_complex_is_inexact(lower, upper):
    # the two differentials compose to an odd matrix, so an incoming
    # coboundary leaves the lattice {x : delta x in 2Z}
    ranks = {0: 1, 1: len(lower[0]), 2: len(upper[0])}
    with pytest.raises(InexactCouple):
        bockstein_couple(FreeComplex(ranks, {0: lower, 1: upper}))


GAP_ENTRIES = (0, 0, 1, -1, 2, -2, 4, -4, 8, 3, 6)


def gap_complex(rng):
    """Cells in weights w, w + 1 and v, v + 1 with v >= w + 3, so no cell
    lies in the weights between; a random differential in each pair."""
    lo = rng.randrange(-2, 1)
    up = lo + 1 + rng.randrange(2, 4)
    ranks = {w: rng.randrange(1, 4) for w in (lo, lo + 1, up, up + 1)}
    diffs = {}
    for w in (lo, up):
        cols = ranks[w + 1]
        diffs[w] = [[rng.choice(GAP_ENTRIES) for _ in range(cols)] for _ in range(ranks[w])]
    return FreeComplex(ranks, diffs)


def formula_corpus(kind):
    """The complexes whose couples the formula pages are checked on: the
    DEEP_TORSION fixtures, 40 random_adjacent_complex or 10 gap_complex draws."""
    rng = random.Random(23)
    if kind == "adjacent":
        return [random_adjacent_complex(rng) for _ in range(40)]
    if kind == "gap":
        return [gap_complex(rng) for _ in range(10)]
    return DEEP_TORSION


@pytest.mark.parametrize("kind", ["deep", "adjacent", "gap"])
def test_formula_pages_are_the_derived_pages(kind):
    # the pages couple_analyze reads off the first couple by formula are the
    # E groups of its derived couples, read by their invariant factors, and
    # so is E_{r+2}, which the analysis reads only to test degeneration
    for complex_ in formula_corpus(kind):
        cpl = bockstein_couple(complex_)
        res = couple_analyze(cpl)
        r = res.torsion_order
        level = norm = normalize_couple(cpl)
        derived = [couple._page_invariants(level)]
        for _ in range(r + 1):
            level = couple_derive(level)
            derived.append(couple._page_invariants(level))
        assert derived[: r + 1] == list(res.pages)
        assert derived[r + 1] == couple._nonzero(norm, norm.e_page, r + 1)


@pytest.mark.parametrize("kind", ["deep", "adjacent", "gap"])
def test_analysis_derives_and_factors_nothing(kind, monkeypatch):
    # every page and E_inf of a Bockstein couple is an F2 dimension read off
    # the first couple: no derived couple, no invariant factor, no factoring
    def refuse(*args, **kwargs):
        raise AssertionError("called during the analysis")

    monkeypatch.setattr(couple, "couple_derive", refuse)
    monkeypatch.setattr(intmat, "invariant_factors", refuse)
    monkeypatch.setattr(groups, "factor_prime_powers", refuse)
    for complex_ in formula_corpus(kind):
        assert couple_analyze(bockstein_couple(complex_)).degeneration_holds


def test_zero_coboundary_needs_no_lattice_algebra(intmat_calls):
    # where delta is zero, the kernel and the lattice {x : delta x in 2Z} are
    # Z^n and the D coordinates are the vectors themselves: no kernel and no
    # solve; Z --16--> Z needs both only at weight 0, whose kernel is zero
    kernels, solves = intmat_calls("kernel_basis"), intmat_calls("solve_columns")
    cpl = bockstein_couple(FreeComplex({0: 2, 1: 1, 3: 2}))
    assert kernels == [] and solves == []
    assert cpl.d_groups == {0: PresentedGroup(2), 1: PresentedGroup(1), 3: PresentedGroup(2)}
    assert cpl.map_j == {0: scalar(2, 1), 1: scalar(1, 1), 3: scalar(2, 1)}
    bockstein_couple(DEEP_TORSION[0])
    assert [args[0] for args, _kwargs in kernels] == [Mat([[16]])] and solves == []


def test_kernel_mod_lattice_is_one_hermite_form(intmat_calls, echelon_calls):
    # one echelon pass eliminates [A | R; I 0] and one Hermite form of the
    # x parts follows; the full kernel of [A | R] is never reduced
    reduce_calls = intmat_calls("_hermite")
    kernel_calls = intmat_calls("kernel_basis")
    a = Mat([[2, 4, 1], [0, 6, 3]])
    rels = Mat([[4, 0], [0, 8]])
    for r in (rels, intmat.zeros(2, 0)):
        reduce_calls.clear()
        echelon_calls.clear()
        assert kernel_mod_lattice(a, r).rows == 3
        assert len(reduce_calls) == 1 and len(echelon_calls) == 2
    assert kernel_calls == []


def test_couple_build_solves_each_basis_once(echelon_calls, intmat_calls, monkeypatch):
    # every coordinate bockstein_couple needs in a kernel basis (D
    # relations and k) comes from one solve against that basis, one echelon
    # pass, at each weight whose differential is nonzero: elsewhere the
    # kernel is the identity and needs no solve; the lattice basis (E
    # relations and j) is read off mod 2, with no solve and no integer
    # kernel of its own
    solves = []
    solve = intmat.solve_columns
    lattice_kernels = intmat_calls("kernel_mod_lattice")

    def counted(m, b):
        before = len(echelon_calls)
        out = solve(m, b)
        solves.append((m.rows, m.cols, len(echelon_calls) - before))
        return out

    monkeypatch.setattr(intmat, "solve_columns", counted)
    rng = random.Random(11)
    inputs = DEEP_TORSION + [random_adjacent_complex(rng) for _ in range(10)]
    inputs += [gap_complex(rng) for _ in range(10)]
    for complex_ in inputs:
        solves.clear()
        bockstein_couple(complex_)
        expected = []
        for w in complex_.weights():
            n = complex_.rank(w)
            kernel = intmat.kernel_basis(intmat.transpose(complex_.differential(w)))
            expected += [(n, kernel.cols, 1)] if kernel.cols and w in complex_.rows else []
        assert sorted(solves) == sorted(expected)
    assert lattice_kernels == []


def test_coordinates_is_one_solve(echelon_calls, smith_calls):
    # all image columns in one echelon pass, the group's own Hermite form
    # aside; a zero group takes the same path
    group = PresentedGroup(3, Mat([[4], [0], [0]]))
    gens = Mat([[1, 0], [0, 2], [0, 0]])
    images = Mat([[5, 1, 0, 3], [2, 4, 0, 6], [0, 0, 0, 0]])
    echelon_calls.clear()
    coords = _coordinates(group, gens, images)
    assert len(echelon_calls) == 1
    assert coords.cols == 4
    with pytest.raises(InexactCouple):
        _coordinates(group, gens, Mat([[1], [1], [0]]))
    assert len(echelon_calls) == 2
    zero = PresentedGroup(0)
    echelon_calls.clear()
    assert _coordinates(zero, Mat([], 2), Mat([], 3)) == zeros(2, 3)
    assert len(echelon_calls) == 1 and smith_calls == []


def test_identification_is_one_solve_per_stage(echelon_calls):
    # Z --16--> Z: D is Z/16 in degree 1 and r = 4.  Once the kernel chain
    # exists, each stage n < r is one express and one membership question
    # over all vectors still alive, and the zero test one more: 2r + 1
    # echelon passes.
    cpl = bockstein_couple(DEEP_TORSION[0])
    r = torsion_order(cpl)
    nonzero = [d for d in cpl.degrees() if cpl.dgroup(d).ngens]
    assert r == 4 and len(nonzero) == 1
    echelon_calls.clear()
    assert identification_test(cpl, r)
    assert len(echelon_calls) <= (2 * r + 1) * len(nonzero) == 9


def test_missing_degrees_build_no_group(intmat_calls):
    cpl = bockstein_couple(DEEP_TORSION[0])
    calls = intmat_calls("column_reduce")
    assert cpl.dgroup(7).ngens == 0 == cpl.egroup(-7).ngens
    assert cpl.dgroup(0).ngens == 0
    assert calls == []


def test_analysis_builds_each_kernel_once(intmat_calls, monkeypatch):
    # ker(i^n) of D(deg) is the kernel of the stored matrix i^n, so each
    # (deg, n) shows up as exactly one kernel_mod_lattice call on it.  The
    # analysis works on the normalized couple, the one that
    # normalize_couple returns.
    calls = intmat_calls("kernel_mod_lattice")
    normalized = []

    def recording(c):
        normalized.append(normalize_couple(c))
        return normalized[-1]

    monkeypatch.setattr(couple, "normalize_couple", recording)
    for complex_ in DEEP_TORSION:
        calls.clear()
        normalized.clear()
        r = couple_analyze(bockstein_couple(complex_)).torsion_order
        cpl = normalized[0]
        for deg in cpl.degrees():
            if cpl.dgroup(deg).ngens == 0:
                continue
            for n in range(1, r + 2):
                power = cpl.i_power(deg, n)
                assert sum(args[0] is power for args, _kwargs in calls) == 1


def test_derive_skips_zero_groups(smith_calls):
    # a degree where D or E is zero needs no linear algebra: deriving (and
    # the normalization inside it) makes no Smith form of an empty shape
    shapes = []
    for complex_ in DEEP_TORSION:
        level = bockstein_couple(complex_)
        r = torsion_order(level)
        for _ in range(r + 1):  # the derivations behind pages E_2 .. E_{r+2}
            smith_calls.clear()
            level = couple_derive(level)
            shapes += [(args[0].rows, args[0].cols) for args, _kwargs in smith_calls]
    assert shapes and all(rows and cols for rows, cols in shapes), shapes


def test_analysis_makes_no_smith_form_of_an_empty_shape(smith_calls):
    # a kernel of a matrix without rows and membership in a lattice without
    # generators need no Smith form
    rng = random.Random(0)
    inputs = DEEP_TORSION + [random_adjacent_complex(rng) for _ in range(40)]
    for complex_ in inputs:
        couple_analyze(bockstein_couple(complex_))
    shapes = [(args[0].rows, args[0].cols) for args, _kwargs in smith_calls]
    assert shapes and all(rows and cols for rows, cols in shapes)


@pytest.mark.parametrize("seed", range(60))
def test_couple_pages_count_the_infinite_towers(seed):
    # two layers, one identity: the F2 dimension in degree d of page i - 2
    # of the integer couple of realize(A) is the number of infinite towers
    # in row q = d of the closed-form page pages(A, i)
    a = random_normal_form(random.Random(seed), 5, allow_odd=False)
    _assert_pages_count_the_infinite_towers(classical(_to_free_complex(realize(a))[0]), a)


@pytest.mark.parametrize("seed", range(30))
def test_twisted_realization(seed):
    # the couple of a non-diagonal differential: realize(A) under a random
    # unimodular base change per weight
    rng = random.Random(500 + seed)
    a = random_normal_form(rng, 5, allow_odd=False)
    c = _to_free_complex(unimodular_twist(realize(a), rng))[0]
    res = classical(c)
    assert res.four_term_exact
    assert res.identification_holds
    assert res.degeneration_holds
    h = integer_cohomology(c, 0)
    assert res.e_infinity == {
        d: FormalGroup.from_invariants([2] * g.free_rank) for d, g in h.items() if g.free_rank
    }
    _assert_pages_count_the_infinite_towers(res, a)


def _assert_pages_count_the_infinite_towers(res, a):
    for i in range(2, len(res.pages) + 2):
        dims = {}
        for deg, g in res.pages[i - 2].items():
            assert g.free_rank == 0 and set(g.torsion) == {2}
            dims[deg] = len(g.torsion)
        towers = {}
        for t in pages(a, i).towers:
            if t.infinite():
                towers[t.q] = towers.get(t.q, 0) + 1
        assert dims == towers, (a, i)
