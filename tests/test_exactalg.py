import random

import pytest

from mwtate.exactalg import (
    ConePair,
    FormalGroup,
    FreeCell,
    FreeComplex,
    GradedGroup,
    NonComposable,
    RhoComplex,
    cohomology_of_summands,
    cone_tower,
    decompose_free_complex,
    factor_prime_powers,
    free_tower,
    graded_kunneth,
    integer_cohomology,
    reassemble,
    rho_module_tensor,
    smith_normal_form,
)
from mwtate.exactalg import intmat
from mwtate.exactalg.intmat import Mat

from tests._f2 import f2_rank


def is_unimodular(m):
    n = m.rows
    if n != m.cols:
        return False
    inv = intmat.solve_columns(m, intmat.identity(n))
    return inv is not None


class TestSmithNormalForm:
    def test_identity(self):
        u, s, v = smith_normal_form(intmat.identity(2))
        assert intmat.diagonal(s) == [1, 1]

    def test_zero_rectangular(self):
        u, s, v = smith_normal_form(intmat.zeros(2, 3))
        assert intmat.is_zero_matrix(s)
        assert (s.rows, s.cols) == (2, 3)

    def test_worked_example(self):
        # gcd of the entries is 2 and |det| = 8, so the form is diag(2, 4)
        m = Mat([[2, 4], [6, 8]])
        u, s, v = smith_normal_form(m)
        assert intmat.diagonal(s) == [2, 4]
        assert intmat.matmul(intmat.matmul(u, m), v) == s

    @pytest.mark.parametrize("seed", range(30))
    def test_random_properties(self, seed):
        rng = random.Random(seed)
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = Mat([[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)])
        u, s, v = smith_normal_form(m)
        assert intmat.matmul(intmat.matmul(u, m), v) == s
        assert is_unimodular(u)
        assert is_unimodular(v)
        diag = intmat.diagonal(s)
        for i in range(len(diag)):
            assert diag[i] >= 0
            for j in range(cols):
                if i != j and j < len(diag):
                    continue
            if i + 1 < len(diag) and diag[i] != 0:
                assert diag[i + 1] % diag[i] == 0
        # off-diagonal entries vanish
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0


class TestDecompose:
    def test_lone_generator(self):
        c = FreeComplex({0: 1})
        assert decompose_free_complex(c) == [FreeCell(0)]

    def test_single_cone(self):
        c = FreeComplex({0: 1, 1: 1}, {0: [[6]]})
        assert decompose_free_complex(c) == [ConePair(6, 0)]

    def test_four_cell_example(self):
        # a(0), b(1), c(1), d(2); d(b->a)=2, d(c->a)=0, d(d->c)=3, d(d->b)=0
        c = FreeComplex({0: 1, 1: 2, 2: 1}, {0: [[2, 0]], 1: [[0], [3]]})
        assert decompose_free_complex(c) == [ConePair(2, 0), ConePair(3, 1)]

    def test_unit_cone_retained(self):
        c = FreeComplex({0: 1, 1: 1}, {0: [[1]]})
        assert decompose_free_complex(c) == [ConePair(1, 0)]

    def test_negative_attachment_normalized(self):
        c = FreeComplex({0: 1, 1: 1}, {0: [[-5]]})
        assert decompose_free_complex(c) == [ConePair(5, 0)]

    def test_non_composable_rejected(self):
        c = FreeComplex({0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]})
        with pytest.raises(NonComposable):
            decompose_free_complex(c)


class TestIntegerCohomology:
    def test_cone_two(self):
        c = FreeComplex({0: 1, 1: 1}, {0: [[2]]})
        assert integer_cohomology(c, 0) == GradedGroup({1: FormalGroup.cyclic(2)})

    def test_free_cell(self):
        c = FreeComplex({3: 1})
        assert integer_cohomology(c, 0) == GradedGroup({3: FormalGroup.free(1)})

    def test_cone_four_mod_two(self):
        # long exact sequence for multiplication by 2: Z/2 in two degrees
        c = FreeComplex({1: 1, 2: 1}, {1: [[4]]})
        expected = GradedGroup({1: FormalGroup.cyclic(2), 2: FormalGroup.cyclic(2)})
        assert integer_cohomology(c, 2) == expected


def random_complex(rng, max_cells=8, bound=9):
    """Adjacent-degree complex with a guaranteed-composable differential.

    Built by reassembling random summands and applying random unimodular
    automorphisms per weight, so the true decomposition is known.
    """
    summands = []
    for _ in range(rng.randrange(1, max_cells)):
        w = rng.randrange(-2, 3)
        if rng.random() < 0.4:
            summands.append(FreeCell(w))
        else:
            summands.append(ConePair(rng.randrange(1, bound + 1), w))
    base = reassemble(summands)
    diffs = {w: base.differential(w) for w in base.weights()}
    auts = {w: intmat.random_unimodular(base.rank(w), rng) for w in base.ranks}
    twisted = {}
    for w in list(diffs):
        a_up = auts.get(w + 1)
        m = intmat.matmul(auts[w][0], diffs[w])
        if a_up is not None:
            m = intmat.matmul(m, a_up[1])
        twisted[w] = m
    return FreeComplex(base.ranks, twisted), summands


class TestReassemblyInvariants:
    @pytest.mark.parametrize("seed", range(25))
    def test_decompose_recovers_summands(self, seed):
        # SNF regroups cone orders into divisibility chains, so compare the
        # CRT-split elementary divisors, which are a complete invariant.
        rng = random.Random(100 + seed)
        c, summands = random_complex(rng)
        got = decompose_free_complex(c)
        assert elementary_data(got) == elementary_data(summands)

    @pytest.mark.parametrize("seed", range(25))
    def test_invariant_under_unimodular_automorphisms(self, seed):
        rng = random.Random(900 + seed)
        c, summands = random_complex(rng)
        assert decompose_free_complex(c) == decompose_free_complex(
            reassemble(summands)
        )

    @pytest.mark.parametrize("seed", range(15))
    def test_cohomology_matches_reassembly(self, seed):
        rng = random.Random(200 + seed)
        c, _ = random_complex(rng)
        summands = decompose_free_complex(c)
        for m in (0, 2, 3, 4, 5, 8, 12):
            assert integer_cohomology(c, m) == cohomology_of_summands(summands, m)


def multiset(xs):
    out = {}
    for x in xs:
        out[x] = out.get(x, 0) + 1
    return out


def elementary_data(summands):
    """Free cell degrees, unit-cone degrees, and CRT-split (p^e, degree)."""
    frees = []
    units = []
    pps = []
    for s in summands:
        if isinstance(s, FreeCell):
            frees.append(s.degree)
        elif s.n == 1:
            units.append(s.lower_degree)
        else:
            units.append(s.lower_degree)
            pps.extend((p**e, s.lower_degree) for p, e in factor_prime_powers(s.n))
    return (multiset(frees), multiset(units), multiset(pps))


class TestRhoTensor:
    def test_free_square(self):
        s = RhoComplex([free_tower(0)])
        assert rho_module_tensor(s, s) == RhoComplex([free_tower(0), free_tower(1)])

    def test_free_with_cone(self):
        s = RhoComplex([free_tower(0)])
        s2 = RhoComplex([cone_tower(2, 0)])
        assert rho_module_tensor(s, s2) == RhoComplex(
            [cone_tower(2, 0), cone_tower(2, 1)]
        )

    def test_cone_square(self):
        s1 = RhoComplex([cone_tower(1, 0)])
        assert rho_module_tensor(s1, s1) == RhoComplex(
            [cone_tower(1, 0), cone_tower(1, 1)]
        )

    def test_mixed_cones_use_minimum(self):
        a = RhoComplex([cone_tower(2, 1)])
        b = RhoComplex([cone_tower(3, 0)])
        assert rho_module_tensor(a, b) == RhoComplex(
            [cone_tower(2, 1), cone_tower(2, 2)]
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_commutative_associative(self, seed):
        rng = random.Random(300 + seed)
        xs = [random_rho(rng) for _ in range(3)]
        a, b, c = xs
        assert rho_module_tensor(a, b) == rho_module_tensor(b, a)
        assert rho_module_tensor(rho_module_tensor(a, b), c) == rho_module_tensor(
            a, rho_module_tensor(b, c)
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_homology_matches_brute_force_tor(self, seed):
        rng = random.Random(400 + seed)
        a = random_rho(rng)
        b = random_rho(rng)
        got = rho_module_tensor(a, b)
        assert claimed_module_invariants(got) == bruteforce_tor_invariants(a, b)


def random_rho(rng, max_summands=3):
    out = []
    for _ in range(rng.randrange(1, max_summands + 1)):
        d = rng.randrange(-2, 3)
        if rng.random() < 0.4:
            out.append(free_tower(d))
        else:
            out.append(cone_tower(rng.randrange(1, 5), d))
    return RhoComplex(out)


def claimed_module_invariants(rc):
    """Per chain degree (free rank, sorted torsion exponents) of a sum of
    S / S_j summands: S is R in two degrees, S_j has homology R/rho^j in
    its upper degree only."""
    frees = {}
    tors = {}
    for s in rc.summands:
        if s.shape == "free":
            frees[s.degree] = frees.get(s.degree, 0) + 1
            frees[s.degree + 1] = frees.get(s.degree + 1, 0) + 1
        else:
            tors.setdefault(s.degree + 1, []).append(s.j)
    return {
        d: (frees.get(d, 0), tuple(sorted(tors.get(d, []))))
        for d in set(frees) | set(tors)
        if frees.get(d, 0) or tors.get(d)
    }


def bruteforce_tor_invariants(a, b, n_max=8):
    """Brute-force oracle: build the honest tensor complex of the two-term
    free F2[rho] complexes and recover the homology R-module invariants
    per chain degree from its F2-homology with truncated coefficients
    F2[rho]/rho^N for N = 1..n_max.

    dim H^d(C x R_N) = f_d*N + sum min(j, N) over torsion exponents at
    degrees d and d+1, so the increments in N recover the exponent
    histogram and peeling from the bottom degree splits neighbors.
    """
    chain = []  # chain degree per generator
    arrows = []  # (src, dst, rho_power)
    for sa in a.summands:
        for sb in b.summands:
            base = len(chain)
            d = sa.degree + sb.degree
            # generators: a0b0, a1b0, a0b1, a1b1
            chain.extend([d, d + 1, d + 1, d + 2])
            if sa.shape == "cone":
                arrows.append((base, base + 1, sa.j))
                arrows.append((base + 2, base + 3, sa.j))
            if sb.shape == "cone":
                arrows.append((base, base + 2, sb.j))
                arrows.append((base + 1, base + 3, sb.j))
    out_of = {}
    for src, dst, p in arrows:
        out_of.setdefault(src, []).append((dst, p))
    degrees = sorted(set(chain))

    def homology_dim(d, n):
        # basis of C^d x R_N: pairs (g, m) with chain[g] == d, 0 <= m < n
        def basis(dd):
            return [(g, m) for g in range(len(chain)) if chain[g] == dd
                    for m in range(n)]

        def rank_from(dd):
            src = basis(dd)
            dst = {bm: k for k, bm in enumerate(basis(dd + 1))}
            rows = []
            for g, m in src:
                row = 0
                for tgt, p in out_of.get(g, ()):
                    if m + p < n:
                        row ^= 1 << dst[(tgt, m + p)]
                if row:
                    rows.append(row)
            return f2_rank(rows)

        return len(basis(d)) - rank_from(d) - rank_from(d - 1)

    dims = {d: [0] + [homology_dim(d, n) for n in range(1, n_max + 1)]
            for d in range(min(degrees), max(degrees) + 2)}
    out = {}
    pair_exponents = {}
    for d, seq in dims.items():
        f = seq[n_max] - seq[n_max - 1]
        exps = []
        for n in range(n_max):
            over_n = seq[n + 1] - seq[n] - f  # count of exponents > n
            if n + 1 < n_max:
                over_next = seq[n + 2] - seq[n + 1] - f
            else:
                over_next = 0
            exps.extend([n + 1] * (over_n - over_next))
        pair_exponents[d] = (f, exps)
    # pair_exponents[d] holds torsion of degrees d and d+1; peel upward.
    tors_at = {}
    for d in sorted(pair_exponents):
        below = multiset(tors_at.get(d - 1, []))
        here = multiset(pair_exponents[d - 1][1]) if d - 1 in pair_exponents else {}
        # torsion at degree d = (pair at d-1) minus (torsion at d-1)
        got = dict(here)
        for k, v in below.items():
            got[k] = got.get(k, 0) - v
        tors_at[d] = sorted(
            k for k, v in got.items() for _ in range(v) if v > 0
        )
    for d in pair_exponents:
        f = pair_exponents[d][0]
        t = tuple(tors_at.get(d, []))
        if f or t:
            out[d] = (f, t)
    return out


class TestFormalGroups:
    def test_crt_split(self):
        assert factor_prime_powers(12) == [(2, 2), (3, 1)]
        assert FormalGroup.from_invariants([6]) == FormalGroup.from_invariants([2, 3])

    def test_tensor_tor(self):
        a = FormalGroup.from_invariants([0, 4])
        b = FormalGroup.from_invariants([6])
        assert a.tensor(b) == FormalGroup.from_invariants([6, 2])
        assert a.tor(b) == FormalGroup.from_invariants([2])

    def test_graded_kunneth_places_tor_one_lower(self):
        a = GradedGroup({1: FormalGroup.cyclic(2)})
        b = GradedGroup({1: FormalGroup.cyclic(4)})
        out = graded_kunneth(a, b)
        assert out == GradedGroup(
            {2: FormalGroup.cyclic(2), 1: FormalGroup.cyclic(2)}
        )
