import hashlib
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import Matrix, factorint, isprime, nextprime
from sympy.matrices.normalforms import hermite_normal_form as sympy_hermite_normal_form
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from mwtate.exactalg import (
    ConePair,
    FormalGroup,
    FreeCell,
    FreeComplex,
    GradedGroup,
    NonComposable,
    PresentedGroup,
    cohomology_of_summands,
    decompose_free_complex,
    factor_prime_powers,
    graded_kunneth,
    integer_cohomology,
    smith_normal_form,
)
from mwtate.bockstein.analysis import kunneth_e2
from mwtate.bockstein.pages import (
    R_PIECE,
    S_PIECE,
    SJ_PIECE,
    derived_pieces,
    tensor_pieces,
)
from mwtate.exactalg import intmat
from mwtate.exactalg.groups import is_prime
from mwtate.exactalg.intmat import Mat
from mwtate.checks import random_adjacent_complex, random_normal_form, unimodular_twist
from mwtate.cohomology import witt_cohomology
from mwtate.motives import DyadicEta, Free, NormalForm, _to_free_complex, realize

from tests._f2 import f2_rank


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestLazyPackage:
    def test_import_loads_no_submodule_and_every_name_resolves(self):
        # a fresh process, as this one has loaded every submodule already;
        # a name that resolves is bound in the package, so it resolves once
        probe = (
            "import sys, mwtate.exactalg as e\n"
            "print(sorted(n for n in sys.modules if n.startswith('mwtate.exactalg.')))\n"
            "print([n for n in e.__all__ if getattr(e, n, None) is None or n not in vars(e)])"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=env, timeout=60, check=True)
        assert res.stdout == "[]\n[]\n"

    def test_names_are_the_submodules_own(self):
        import mwtate.exactalg as e
        from mwtate.exactalg import complexes, groups, presented

        assert e.FreeComplex is complexes.FreeComplex and e.split_dyadic is groups.split_dyadic
        assert e.PresentedGroup is presented.PresentedGroup and e.intmat is intmat
        with pytest.raises(AttributeError):
            e.no_such_name


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
        assert s == intmat.zeros(2, 3)

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


def sympy_invariants(m):
    """The nonzero invariant factors of m by sympy, the independent oracle."""
    entries = [x for row in m for x in row]
    factors = sympy_invariant_factors(Matrix(m.rows, m.cols, entries))
    return [abs(int(d)) for d in factors if d != 0]


def random_mat(rng, rows, cols, density=1.0, bound=9):
    def entry():
        return rng.randint(-bound, bound) if rng.random() < density else 0

    return Mat([[entry() for _ in range(cols)] for _ in range(rows)], cols)


def rank_deficient_mat(rng, rows, cols, rank):
    """A rows x rank matrix times a rank x cols one: rank at most ``rank``."""
    left = random_mat(rng, rows, rank, bound=4)
    return intmat.matmul(left, random_mat(rng, rank, cols, bound=4))


class TestInvariantFactors:
    @pytest.mark.parametrize("seed", range(20))
    def test_dense_matches_sympy(self, seed):
        rng = random.Random(300 + seed)
        m = random_mat(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        assert intmat.invariant_factors(m) == sympy_invariants(m)

    @pytest.mark.parametrize("seed", range(20))
    def test_sparse_matches_sympy(self, seed):
        rng = random.Random(400 + seed)
        rows, cols = rng.randrange(1, 10), rng.randrange(1, 10)
        m = random_mat(rng, rows, cols, density=0.25, bound=30)
        assert intmat.invariant_factors(m) == sympy_invariants(m)

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_deficient_matches_sympy(self, seed):
        rng = random.Random(500 + seed)
        rows, cols = rng.randrange(2, 9), rng.randrange(2, 9)
        m = rank_deficient_mat(rng, rows, cols, rng.randrange(1, min(rows, cols)))
        assert intmat.invariant_factors(m) == sympy_invariants(m)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (2, 2)])
    def test_empty_and_zero(self, shape):
        m = intmat.zeros(*shape)
        assert intmat.invariant_factors(m) == sympy_invariants(m) == []

    @pytest.mark.parametrize("n", [12, 20])
    def test_dense_square_sizes_the_transforms_cannot_reach(self, n):
        m = random_mat(random.Random(n), n, n)
        assert intmat.invariant_factors(m) == sympy_invariants(m)

    def test_dense_40_product_is_determinant(self):
        # sympy's invariant_factors took minutes on this matrix, so only the
        # product is checked against sympy, through its determinant
        m = random_mat(random.Random(40), 40, 40)
        got = intmat.invariant_factors(m)
        assert len(got) == 40
        assert all(b % a == 0 for a, b in zip(got, got[1:]))
        product = 1
        for d in got:
            product *= d
        assert product == abs(int(Matrix(m.a).det(method="bareiss")))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_smith_diagonal(self, seed):
        rng = random.Random(600 + seed)
        m = random_mat(rng, rng.randrange(0, 7), rng.randrange(0, 7), density=0.6)
        _, s, _ = smith_normal_form(m)
        assert intmat.invariant_factors(m) == [d for d in intmat.diagonal(s) if d]


@st.composite
def int_matrices(draw, max_dim=6, bound=20):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entry = st.integers(-bound, bound) | st.just(0)
    row = st.lists(entry, min_size=cols, max_size=cols)
    return Mat(draw(st.lists(row, min_size=rows, max_size=rows)), cols)


class TestSmithProperties:
    @given(int_matrices())
    def test_every_transform_request_gives_the_same_form(self, m):
        u, s, v, uinv, vinv = intmat.smith_with_inverses(m)
        assert (u, s, v) == smith_normal_form(m)
        assert intmat.matmul(intmat.matmul(u, m), v) == s
        assert intmat.matmul(u, uinv) == intmat.identity(m.rows)
        assert intmat.matmul(vinv, v) == intmat.identity(m.cols)

    @given(int_matrices(max_dim=7))
    def test_invariant_factors_match_sympy(self, m):
        assert intmat.invariant_factors(m) == sympy_invariants(m)

    def test_same_forms_and_invariants(self):
        # a sha256 prefix of U, S, V and U^-1 of the Smith form, and
        # of the invariant factors, of 400 seeded matrices up to 7 x 7;
        # 192 of them leave a residual to _modular_invariants and 75 hand
        # it a modulus, so the Euclidean step is pinned with and without one
        rng = random.Random(11)
        out = []
        for _ in range(400):
            rows, cols = rng.randint(0, 7), rng.randint(0, 7)
            m = Mat([[rng.choice(SMITH_ENTRIES) for _ in range(cols)] for _ in range(rows)], cols)
            out.append((intmat.smith_with_inverses(m)[:4], intmat.invariant_factors(m)))
        assert hashlib.sha256(repr(out).encode()).hexdigest()[:16] == "dcab2d4d2a8d77f4"


SMITH_ENTRIES = (0, 0, 1, -1, 2, -3, 4, 6, -9)


# entries of the kind cell attachments carry: mostly zero, units, powers of 2
SPARSE_ENTRY = st.sampled_from([0] * 8 + [1, -1, 1, -1, 2, -2, 4, -8, 16, 3, -6])


@st.composite
def sparse_matrices(draw, max_dim=8):
    """Sparse matrices rich in +-1 and 2^t; half of them are a product
    through a narrower middle, so rank-deficient."""
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))

    def mat(r, c):
        row = st.lists(SPARSE_ENTRY, min_size=c, max_size=c)
        return Mat(draw(st.lists(row, min_size=r, max_size=r)), c)

    if draw(st.booleans()):
        return mat(rows, cols)
    inner = draw(st.integers(0, max(0, min(rows, cols) - 1)))
    return intmat.matmul(mat(rows, inner), mat(inner, cols))


class TestSparseInvariantFactors:
    @given(sparse_matrices())
    def test_match_sympy(self, m):
        assert intmat.invariant_factors(m) == sympy_invariants(m)

    @given(sparse_matrices(max_dim=10))
    def test_never_column_reduce(self, m):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intmat, "column_reduce", _refuse)
            got = intmat.invariant_factors(m)
        assert got == sympy_invariants(m)

    def test_dense_rank_deficient_40(self, monkeypatch):
        # U * diag(d, 0) * V with U, V dense unimodular: rank 20, every
        # entry divisible by 6, and the invariant factors known exactly
        monkeypatch.setattr(intmat, "column_reduce", _refuse)
        rng = random.Random(6)
        d = [6] * 10 + [12] * 5 + [36] * 4 + [72]
        core = Mat([[d[i] if i == j < 20 else 0 for j in range(40)] for i in range(40)], 40)
        u, _ = intmat.random_unimodular(40, rng, 400)
        v, _ = intmat.random_unimodular(40, rng, 400)
        m = intmat.matmul(intmat.matmul(u, core), v)
        assert all(x % 6 == 0 for row in m for x in row)
        assert intmat.invariant_factors(m) == d

    def test_dense_rank_deficient_40_without_exact_pivots(self, monkeypatch):
        # 6 * A * B with A 40 x 30 and B 30 x 40 dense: row and column
        # gcds are 6 and entries of +-6 are rare, so one exact pivot is
        # found and a rank-deficient 39 x 39 residual is left to the
        # elimination modulo a gcd of minors
        monkeypatch.setattr(intmat, "column_reduce", _refuse)
        rng = random.Random(1)
        ab = intmat.matmul(random_mat(rng, 40, 30), random_mat(rng, 30, 40))
        m = Mat([[6 * x for x in row] for row in ab], 40)
        assert intmat.invariant_factors(m) == sympy_invariants(m)


def spy_on(monkeypatch, name):
    """Replace intmat.``name`` by a wrapper that records the arguments of
    each call in the returned list and then calls the original."""
    calls = []
    original = getattr(intmat, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(intmat, name, spy)
    return calls


def fraction_det(m):
    """The determinant of a square ``m`` by Gaussian elimination over the
    rationals: an oracle that shares no code with the library."""
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for t in range(n):
        i = next((i for i in range(t, n) if a[i][t]), None)
        if i is None:
            return 0
        if i != t:
            a[t], a[i] = a[i], a[t]
            det = -det
        p = a[t][t]
        det *= p
        for i in range(t + 1, n):
            if a[i][t]:
                q = a[i][t] / p
                a[i][t:] = [x - q * y for x, y in zip(a[i][t:], a[t][t:])]
    return det


class TestModuloMinors:
    # the residual _exact_pivots leaves is eliminated modulo a gcd of
    # minors from one Bareiss pass: modulo g, a gcd of (r-1)-minors, on a
    # square nonsingular residual, and modulo h, a gcd of r-minors, on any
    # other; rank_deficient_mat draws rank 20, where sympy stays fast
    DRAWS = {
        "square": lambda rng: random_mat(rng, 40, 40),
        "tall": lambda rng: random_mat(rng, 40, 28),
        "wide": lambda rng: random_mat(rng, 28, 40),
        "rank-deficient": lambda rng: rank_deficient_mat(rng, 40, 40, 20),
    }

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", sorted(DRAWS))
    def test_dense_40_match_sympy(self, monkeypatch, kind, seed):
        m = self.DRAWS[kind](random.Random(seed))
        residuals = spy_on(monkeypatch, "_modular_invariants")
        got = intmat.invariant_factors(m)
        assert got == sympy_invariants(m)
        [((a, cols), _)] = residuals
        assert {"square": len(a) == cols, "tall": len(a) > cols, "wide": len(a) < cols,
                "rank-deficient": len(got) == 20 < min(len(a), cols)}[kind]

    def test_rectangular_needs_every_r_minor(self):
        # the r-minors left after r-1 Bareiss steps all hold row 0, whose
        # minors share the factor 2; the one without it is 1, so h = 2
        # overstates d1 d2 = 1 and only elimination modulo h finds it
        assert intmat._modular_invariants([[2, 0], [1, 1], [0, 1]], 2) == [1, 1]

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_80_product_is_fraction_determinant(self, seed):
        m = random_mat(random.Random(seed), 80, 80)
        got = intmat.invariant_factors(m)
        assert len(got) == 80
        assert all(b % a == 0 for a, b in zip(got, got[1:]))
        assert got[0] == gcd(*(x for row in m for x in row))
        det = fraction_det(m.a)
        assert det.denominator == 1 and prod(got) == abs(det.numerator)

    def test_square_with_g_one_makes_no_euclidean_step(self, monkeypatch):
        # dense 20 x 20, seed 0, leaves a square nonsingular residual whose
        # (r-1)-minors after r-2 Bareiss steps have gcd 1, so d1 ... d(r-1)
        # are 1 and dr is |det|, with no elimination
        m = random_mat(random.Random(0), 20, 20)
        residuals = spy_on(monkeypatch, "_modular_invariants")
        monkeypatch.setattr(intmat, "_clear_pivot", _refuse)
        got = intmat.invariant_factors(m)
        assert got == sympy_invariants(m)
        [((a, cols), _)] = residuals
        assert len(a) == cols > 1

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_80_moduli_are_small(self, monkeypatch, seed):
        # a cliff guard: one nonzero 80 x 80 minor, the old modulus, has
        # about 387 bits; the gcd of minors is single digits on these draws
        calls = spy_on(monkeypatch, "_clear_pivot")
        intmat.invariant_factors(random_mat(random.Random(seed), 80, 80))
        moduli = [args[5] if len(args) > 5 else kwargs.get("modulus", 0) for args, kwargs in calls]
        assert moduli and max(moduli).bit_length() <= 16


def pairwise_column_reduce(m):
    """The Hermite form as ``intmat.column_reduce`` built it before it had
    an echelon step: one Euclidean pair step per iteration, sorting the
    columns nonzero in the row each time.  An oracle that shares no code
    with the library."""
    rows = m.rows
    cols_v = [c for c in m.columns() if any(c)]
    pivots = []
    for r in range(rows):
        while True:
            nz = [c for c in cols_v if c[r] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[r]))
            a, b = nz[0], nz[1]
            q = b[r] // a[r]
            for i in range(rows):
                b[i] -= q * a[i]
            if not any(b):
                cols_v.remove(b)
        nz = [c for c in cols_v if c[r] != 0]
        if nz:
            piv = nz[0]
            cols_v.remove(piv)
            if piv[r] < 0:
                piv[:] = [-x for x in piv]
            for p in pivots:
                if p[r]:
                    q = p[r] // piv[r]
                    if q:
                        for i in range(rows):
                            p[i] -= q * piv[i]
            pivots.append(piv)
    return Mat.from_columns(pivots, rows)


def smith_kernel_basis(m):
    """The kernel as ``intmat.kernel_basis`` built it before it had an
    echelon step: the columns of V past the nonzero diagonal of a Smith
    form U*M*V, put into Hermite form by the pairwise oracle."""
    if m.rows == 0:
        return intmat.identity(m.cols)
    _, s, v = smith_normal_form(m)
    diag = intmat.diagonal(s)
    free = [j for j in range(m.cols) if j >= len(diag) or diag[j] == 0]
    return pairwise_column_reduce(Mat.from_columns([v.column(j) for j in free], m.cols))


def sympy_kernel_basis(m):
    """The kernel of ``m`` read off sympy's Hermite form of [I; M].

    That form is upper triangular, and the rows of M are eliminated
    first, so the columns that are zero on M form a basis of ker M; their
    I parts go through the pairwise oracle.  A kernel oracle for dense
    input, where the Smith transform V of ``smith_kernel_basis`` takes
    seconds on dense 12 x 12 with entries up to 9 and minutes on some
    dense 20 x 20 with entries up to 1.
    """
    n = m.cols
    if n == 0:
        return Mat([], 0)
    h = sympy_hermite_normal_form(Matrix(intmat.identity(n).a + m.a))
    kernel = [list(h.col(j)[:n]) for j in range(h.cols) if not any(h.col(j)[n:])]
    return pairwise_column_reduce(Mat.from_columns([[int(x) for x in c] for c in kernel], n))


class TestHermiteAgainstTheOldAlgorithms:
    # the Hermite form of a lattice is unique, so the echelon-step
    # column_reduce and kernel_basis must return the old matrices exactly
    @pytest.mark.parametrize("chunk", range(10))
    def test_small_shapes(self, chunk):
        # 200 draws per chunk: shapes 0..8 x 0..8, entries up to 1, 3 or 9,
        # sparse and dense
        rng = random.Random(3100 + chunk)
        for _ in range(200):
            rows, cols = rng.randrange(9), rng.randrange(9)
            bound, density = rng.choice((1, 3, 9)), rng.choice((0.3, 0.6, 1.0))
            m = random_mat(rng, rows, cols, density=density, bound=bound)
            assert intmat.column_reduce(m) == pairwise_column_reduce(m)
            assert intmat.kernel_basis(m) == smith_kernel_basis(m)

    @pytest.mark.parametrize("seed", range(10))
    def test_dense_up_to_20(self, seed):
        # random draws, as a rule of full rank, and one of rank at most 8,
        # whose kernel is large
        rng = random.Random(3200 + seed)
        rows, cols = rng.randint(9, 20), rng.randint(9, 20)
        for m in (
            random_mat(rng, rows, cols, bound=1),
            random_mat(rng, rows, cols),
            rank_deficient_mat(rng, rows, cols, rng.randint(1, 8)),
        ):
            assert intmat.column_reduce(m) == pairwise_column_reduce(m)
            assert intmat.kernel_basis(m) == sympy_kernel_basis(m)

    def test_kernels_make_no_smith_form(self, smith_calls):
        m = random_mat(random.Random(7), 6, 9)
        assert intmat.kernel_basis(m).cols == 3
        assert intmat.kernel_mod_lattice(m, intmat.scalar(6, 2)).cols == 9
        assert smith_calls == []

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_kernel_20_by_25_against_sympy(self, seed):
        m = random_mat(random.Random(seed), 20, 25)
        k = intmat.kernel_basis(m)
        assert intmat.matmul(m, k) == intmat.zeros(20, k.cols)
        assert k.cols == 25 - Matrix(m.a).rank()
        # a basis of the kernel, not a sublattice of finite index
        assert sympy_invariants(k) == [1] * k.cols


class TestMatShapes:
    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (2, 3)])
    def test_columns_round_trip(self, rows, cols):
        m = random_mat(random.Random(7 * rows + cols), rows, cols)
        columns = m.columns()
        assert len(columns) == cols and all(len(c) == rows for c in columns)
        assert Mat.from_columns(columns, rows) == m
        assert intmat.transpose(intmat.transpose(m)) == m

    def test_ragged_rows_refused(self):
        with pytest.raises(ValueError, match="rows of a matrix must have equal length"):
            Mat([[1, 2], [3]])


def two_hermite_kernel_mod_lattice(a, rels):
    """{x : A x in colspan(rels)} as ``intmat.kernel_mod_lattice`` built it
    before it made one Hermite form: the Hermite form of the kernel of
    [A | R], projected onto x and put into Hermite form again."""
    ker = intmat.kernel_basis(intmat.hstack(a, rels))
    return intmat.column_reduce(Mat(ker.a[: a.cols], ker.cols))


class TestKernelModLatticeAgainstTwoHermiteForms:
    # the Hermite form of a lattice is unique, so the one-pass
    # kernel_mod_lattice must return the two-pass matrices exactly
    @pytest.mark.parametrize("chunk", range(10))
    def test_small_shapes(self, chunk):
        # 210 draws per chunk: A of shape 0..8 x 0..8 and R of 0..4
        # columns, entries up to 1, 3 or 9, sparse and dense; every tenth
        # draw has no rows or no columns in A
        rng = random.Random(3500 + chunk)
        for i in range(210):
            rows, cols = rng.randrange(9), rng.randrange(9)
            if i % 10 == 0:
                rows, cols = rng.choice(((0, cols), (rows, 0), (0, 0)))
            bound, density = rng.choice((1, 3, 9)), rng.choice((0.3, 0.6, 1.0))
            a = random_mat(rng, rows, cols, density=density, bound=bound)
            rels = random_mat(rng, rows, rng.randrange(5), density=density, bound=bound)
            want = two_hermite_kernel_mod_lattice(a, rels)
            assert intmat.kernel_mod_lattice(a, rels) == want

    @pytest.mark.parametrize("shape", [(12, 12), (20, 25)])
    @pytest.mark.parametrize("seed", range(3))
    def test_dense(self, shape, seed):
        # A dense with entries up to 9; R empty, 2I or three dense columns
        rng = random.Random(seed)
        rows = shape[0]
        a = random_mat(rng, *shape)
        for rels in (intmat.zeros(rows, 0), intmat.scalar(rows, 2), random_mat(rng, rows, 3)):
            want = two_hermite_kernel_mod_lattice(a, rels)
            assert intmat.kernel_mod_lattice(a, rels) == want

    def test_row_mismatch_is_refused(self):
        with pytest.raises(ValueError, match=r"^row mismatch in kernel_mod_lattice$"):
            intmat.kernel_mod_lattice(Mat([[1, 2]]), Mat([[1], [2]]))


@st.composite
def stacked_systems(draw, max_dim=5, bound=6):
    """(M, B1, B2) with about half of the columns of B1 and B2 built as M*x,
    so solvable; the rest are free draws."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    entry = st.integers(-bound, bound)

    def mat(r, c):
        row = st.lists(entry, min_size=c, max_size=c)
        return Mat(draw(st.lists(row, min_size=r, max_size=r)), c)

    m = mat(rows, cols)

    def rhs():
        parts = [
            intmat.matmul(m, mat(cols, 1)) if draw(st.booleans()) else mat(rows, 1)
            for _ in range(draw(st.integers(0, 3)))
        ]
        return Mat.from_columns([part.column(0) for part in parts], rows)

    return m, rhs(), rhs()


@given(stacked_systems())
def test_solve_columns_of_stacked_right_hand_sides(system):
    # solving [B1 | B2] at once gives the two solutions side by side, and
    # no solution exactly when one of the two has none
    m, b1, b2 = system
    x1, x2 = intmat.solve_columns(m, b1), intmat.solve_columns(m, b2)
    both = intmat.solve_columns(m, intmat.hstack(b1, b2))
    assert (both is None) == (x1 is None or x2 is None)
    if both is not None:
        assert both == intmat.hstack(x1, x2)


def smith_solve_columns(m, b):
    """Exact solutions of M*X == B as ``intmat.solve_columns`` built them
    before it had an echelon step: with U*M*V == S a Smith form, U*B is
    divided row by row by the diagonal of S and V carries the quotients
    back.  An oracle that shares no elimination with the new solve."""
    u, s, v = smith_normal_form(m)
    diag = intmat.diagonal(s)
    z = []
    for i, row in enumerate(intmat.matmul(u, b).a):
        d = diag[i] if i < len(diag) else 0
        if any(x % d for x in row) if d else any(row):
            return None
        if i < m.cols:
            z.append([x // d for x in row] if d else [0] * b.cols)
    z += [[0] * b.cols for _ in range(m.cols - len(z))]
    return intmat.matmul(v, Mat(z, b.cols))


def smith_lattice_contains(gens, vecs):
    """Lattice membership as ``intmat.lattice_contains`` read it before it
    had an echelon step: every row of U*b a multiple of its diagonal entry
    of the Smith form U*M*V == S, zero past it."""
    if gens.cols == 0 or gens.rows == 0:  # the zero lattice, or Z^0
        return [not any(c) for c in vecs.columns()]
    u, s, _ = smith_normal_form(gens)
    diag = intmat.diagonal(s) + [0] * gens.rows
    cols = intmat.matmul(u, vecs).columns()
    return [all((x % d if d else x) == 0 for x, d in zip(c, diag)) for c in cols]


def _timed(f, *args):
    start = time.perf_counter()
    out = f(*args)
    return out, time.perf_counter() - start


class TestSolveAgainstTheSmithForm:
    @pytest.mark.parametrize("chunk", range(10))
    def test_small_shapes(self, chunk):
        # 200 draws per chunk: M of shape 0..8 x 0..8, entries up to 1, 3
        # or 9, sparse and dense; B of 0..4 columns, either all of them
        # M*x or each one M*x or a free draw
        rng = random.Random(3300 + chunk)
        for _ in range(200):
            rows, cols = rng.randrange(9), rng.randrange(9)
            bound, density = rng.choice((1, 3, 9)), rng.choice((0.3, 0.6, 1.0))
            m = random_mat(rng, rows, cols, density=density, bound=bound)
            mixed = rng.random() < 0.5
            parts = []
            for _ in range(rng.randrange(5)):
                if mixed and rng.random() < 0.5:
                    parts.append(random_mat(rng, rows, 1, density=density, bound=bound))
                else:
                    parts.append(intmat.matmul(m, random_mat(rng, cols, 1, bound=3)))
            b = Mat.from_columns([part.column(0) for part in parts], rows)
            got, want = intmat.solve_columns(m, b), smith_solve_columns(m, b)
            assert (got is None) == (want is None)
            if got is not None:
                assert intmat.matmul(m, got) == b
            inside = intmat.lattice_contains(m, b)
            assert inside == smith_lattice_contains(m, b)
            assert (got is not None) == all(inside)

    @pytest.mark.parametrize("seed", range(10))
    def test_dense_15_inverse(self, seed):
        # the Smith transforms of a dense 15 x 15 took over 20 s here; a
        # unimodular draw must give its known inverse back
        rng = random.Random(seed)
        m = random_mat(rng, 15, 15)
        inv, seconds = _timed(intmat.solve_columns, m, intmat.identity(15))
        assert (inv is None) == (abs(Matrix(m.a).det()) != 1)
        assert seconds < 1.0
        if inv is not None:
            assert intmat.matmul(m, inv) == intmat.identity(15)
        u, uinv = intmat.random_unimodular(15, rng, 200)
        assert intmat.solve_columns(u, intmat.identity(15)) == uinv

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_20_by_25_solvable(self, seed):
        rng = random.Random(seed)
        m = random_mat(rng, 20, 25)
        b = intmat.matmul(m, random_mat(rng, 25, 3))
        x, seconds = _timed(intmat.solve_columns, m, b)
        assert intmat.matmul(m, x) == b
        assert seconds < 1.0


def _refuse(*args, **kwargs):
    raise AssertionError("this path must not be taken")


@st.composite
def express_systems(draw, max_dim=4, bound=6):
    """(group, gens, images) with about half of the image columns built as
    gens*x + rels*y, so they lie in <gens> + rels; the rest are free draws."""
    n = draw(st.integers(0, max_dim))
    entry = st.integers(-bound, bound)

    def mat(r, c):
        row = st.lists(entry, min_size=c, max_size=c)
        return Mat(draw(st.lists(row, min_size=r, max_size=r)), c)

    group = PresentedGroup(n, mat(n, draw(st.integers(0, 3))))
    gens = mat(n, draw(st.integers(0, max_dim)))
    span = intmat.hstack(gens, group.rels)
    cols = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            cols.append(intmat.matmul(span, mat(span.cols, 1)).column(0))
        else:
            cols.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return group, gens, Mat.from_columns(cols, n)


class TestPresentedGroup:
    @given(express_systems())
    def test_express_is_the_per_column_solve(self, system):
        group, gens, images = system
        span = intmat.hstack(gens, group.rels)
        per_column = [intmat.solve(span, col) for col in images.columns()]
        got = group.express(gens, images)
        if any(x is None for x in per_column):
            assert got is None
        else:
            want = Mat.from_columns([x[: gens.cols] for x in per_column], gens.cols)
            assert got == want
        assert group.contains_subgroup(gens, images) == (got is not None)
        assert intmat.lattice_contains(span, images) == [x is not None for x in per_column]

    def test_subgroups_equal_is_one_solve_per_side(self, echelon_calls, smith_calls):
        # both sides generate Z + Z + 3Z inside Z^3 / <(4, 0, 0), (0, 6, 0)>
        group = PresentedGroup(3, Mat([[4, 0], [0, 6], [0, 0]]))
        a = Mat([[1, 2, 0], [0, 1, 0], [0, 0, 3]])
        b = Mat([[1, 0, 0], [1, 1, 0], [0, 0, 3]])
        echelon_calls.clear()
        assert group.subgroups_equal(a, b)
        assert len(echelon_calls) == 2 and smith_calls == []

    def test_lattice_contains_is_one_echelon_pass_without_smith(
        self, echelon_calls, smith_calls
    ):
        gens = Mat([[2, 0], [0, 3], [1, 1]])
        vecs = Mat([[2, 2, 0], [3, 0, 0], [2, 1, 0]])
        assert intmat.lattice_contains(gens, vecs) == [True, True, True]
        assert intmat.lattice_contains(gens, Mat([[1], [0], [0]])) == [False]
        assert len(echelon_calls) == 2 and smith_calls == []

    def test_solving_and_membership_make_no_smith_form(self, monkeypatch):
        monkeypatch.setattr(intmat, "smith_normal_form", _refuse)
        rng = random.Random(3400)
        for _ in range(50):
            n = rng.randrange(5)
            group = PresentedGroup(n, random_mat(rng, n, rng.randrange(3), bound=6))
            gens = random_mat(rng, n, rng.randrange(4), bound=3)
            span = intmat.hstack(gens, group.rels)
            images = intmat.matmul(span, random_mat(rng, span.cols, 2, bound=3))
            assert group.express(gens, images) is not None
            assert group.contains_subgroup(gens, images)
            assert intmat.matmul(span, intmat.solve_columns(span, images)) == images
            assert intmat.lattice_contains(span, images) == [True, True]


class TestRandomUnimodular:
    # sha256 prefixes of (matrix, inverse, next draw of the rng), pinned
    # before the row operations were rewritten: the same rng stream must
    # give the same matrices and leave the rng in the same state.
    PINNED = [
        (0, 1, None, "7c4a998c1ebfe952"),
        (1, 2, None, "a70e5d9f147360d0"),
        (3, 3, None, "d1a0b3918eab6acb"),
        (5, 4, 7, "de36864df3dcf850"),
        (8, 5, None, "1c814482ea615ef8"),
        (12, 6, 40, "24bc3dd67460d686"),
        (20, 7, None, "058b4027a336a1f5"),
        (30, 8, 200, "5731a434d3fcdc1f"),
    ]

    @pytest.mark.parametrize("n, seed, steps, digest", PINNED,
                             ids=[f"{n}-{seed}-{steps}" for n, seed, steps, _ in PINNED])
    def test_same_stream_same_matrices(self, n, seed, steps, digest):
        rng = random.Random(seed)
        a, ainv = intmat.random_unimodular(n, rng, steps)
        state = (a.rows, a.cols, a.a, ainv.rows, ainv.cols, ainv.a, rng.random())
        assert hashlib.sha256(repr(state).encode()).hexdigest()[:16] == digest
        assert intmat.matmul(a, ainv) == intmat.identity(n)


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

    @pytest.mark.parametrize("rows", [[{0: 1}], [{2: 1}, {}], [{}, {5: -3}], [{}, {}, {1: 2}]])
    def test_sparse_rows_refused_as_their_dense_matrix(self, rows):
        # a wrong row count, or a column at or above rank(w + 1), is the
        # same shape error as the dense matrix of those rows
        width = max([2, *(j + 1 for r in rows for j in r)])
        dense = [[r.get(j, 0) for j in range(width)] for r in rows]
        with pytest.raises(ValueError) as want:
            FreeComplex({0: 2, 1: 2}, {0: dense})
        with pytest.raises(ValueError) as got:
            FreeComplex.from_rows({0: 2, 1: 2}, {0: rows})
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("differential at weight 0 has shape")

    def test_sparse_rows_match_the_dense_constructor(self):
        rows = {0: [{1: 3}, {}], 1: [{}, {}]}
        c = FreeComplex.from_rows({0: 2, 1: 2, 2: 2}, rows)
        d = FreeComplex({0: 2, 1: 2, 2: 2}, {0: [[0, 3], [0, 0]], 1: [[0, 0], [0, 0]]})
        assert c.rows == d.rows == {0: [{1: 3}, {}]}
        assert c.differential(0) == d.differential(0) == Mat([[0, 3], [0, 0]])
        assert c.differential(1) == d.differential(1) == intmat.zeros(2, 2)
        assert decompose_free_complex(c) == decompose_free_complex(d)


class TestIntegerCohomology:
    def test_cone_two(self):
        c = FreeComplex({0: 1, 1: 1}, {0: [[2]]})
        assert integer_cohomology(c, 0) == GradedGroup({1: FormalGroup.cyclic(2)})

    def test_free_cell(self):
        c = FreeComplex({3: 1})
        assert integer_cohomology(c, 0) == GradedGroup({3: FormalGroup.free(1)})

    @pytest.mark.parametrize("bad", [0.9, 1.0, "1"])
    def test_non_integer_weight_or_rank_refused(self, bad):
        # int() would truncate weight 0.9 to 0 and cohomology a complex
        # that was never given
        with pytest.raises(TypeError):
            FreeComplex({bad: 1})
        with pytest.raises(TypeError):
            FreeComplex({0: bad})
        with pytest.raises(TypeError):
            FreeComplex({0: 1, 1: 1}, {bad: [[6]]})

    def test_cone_four_mod_two(self):
        # long exact sequence for multiplication by 2: Z/2 in two degrees
        c = FreeComplex({1: 1, 2: 1}, {1: [[4]]})
        expected = GradedGroup({1: FormalGroup.cyclic(2), 2: FormalGroup.cyclic(2)})
        assert integer_cohomology(c, 2) == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_dense_two_weight_matches_lattice(self, seed):
        rng = random.Random(2100 + seed)
        for _ in range(5):
            k = rng.randrange(1, 7)
            c = FreeComplex({0: k, 1: k}, {0: random_mat(rng, k, k)})
            for m in (0, 2, 3, 4, 6, 12):
                assert integer_cohomology(c, m) == _lattice_cohomology(c, m)

    @pytest.mark.parametrize("seed", range(20))
    def test_twisted_realization_matches_witt_cohomology(self, seed):
        rng = random.Random(2200 + seed)
        for _ in range(10):
            a = random_normal_form(rng, 8, allow_odd=False)
            c = _to_free_complex(unimodular_twist(realize(a), rng))[0]
            for m in (0, 2, 4, 8):
                assert witt_cohomology(a, m) == _lattice_cohomology(c, m), a

    def test_same_groups(self):
        # sha256 prefix of the groups of 200 random_adjacent_complex draws
        # at each modulus, pinned while integer_cohomology made its own
        # negative-modulus check
        rng = random.Random(2500)
        draws = [random_adjacent_complex(rng) for _ in range(200)]
        got = [integer_cohomology(c, m).items() for c in draws for m in (0, 2, 3, 4, 6, 12)]
        assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == "16a163951996becd"

    def test_reads_no_kernel_and_no_smith_form(self, intmat_calls):
        rng = random.Random(2300)
        inputs = [random_complex(rng)[0] for _ in range(20)]
        names = (
            "smith_normal_form", "kernel_basis", "kernel_mod_lattice", "column_reduce", "solve_columns",
        )
        calls = {name: intmat_calls(name) for name in names}
        for c in inputs:
            for m in (0, 2, 12):
                integer_cohomology(c, m)
        assert {name: len(got) for name, got in calls.items()} == dict.fromkeys(names, 0)


def _lattice_cohomology(c: FreeComplex, modulus: int = 0) -> GradedGroup:
    """Cohomology of the dual complex from kernels and presented groups:
    an oracle that shares no code with the split behind integer_cohomology."""
    c.check_composable()
    if not c.ranks:
        return GradedGroup({})
    weights = c.weights()
    out = {}
    for d in range(min(weights), max(weights) + 1):
        n = c.rank(d)
        if n == 0:
            continue
        delta_out = intmat.transpose(c.differential(d))  # C^d -> C^{d+1}
        delta_in = intmat.transpose(c.differential(d - 1))  # C^{d-1} -> C^d
        if modulus == 0:
            gens = intmat.kernel_basis(delta_out)
            rel_sources = delta_in
        else:
            gens = intmat.kernel_mod_lattice(
                delta_out, intmat.scalar(c.rank(d + 1), modulus)
            )
            rel_sources = intmat.hstack(delta_in, intmat.scalar(n, modulus))
        if gens.cols == 0:
            continue
        # Relation lattice of <gens> / (image + m*Z^n): coordinates z with
        # gens*z in the span of rel_sources.  Coordinates with gens*z = 0
        # are honest relations too, since gens need not be a basis.
        rels = intmat.kernel_mod_lattice(gens, rel_sources)
        grp = PresentedGroup(gens.cols, rels).invariants()
        if not grp.is_zero():
            out[d] = grp
    return GradedGroup(out)


def reassemble(summands) -> FreeComplex:
    """Direct sum of summands as a FreeComplex in canonical block form."""
    ranks: dict[int, int] = {}
    placed: list[tuple[int, int, int, int]] = []  # (weight, row, col, n)
    ordered = sorted(summands, key=_summand_key)
    for s in ordered:
        if isinstance(s, FreeCell):
            ranks[s.degree] = ranks.get(s.degree, 0) + 1
    for s in ordered:
        if isinstance(s, ConePair):
            w = s.lower_degree
            row = ranks.get(w, 0)
            col = ranks.get(w + 1, 0)
            ranks[w] = row + 1
            ranks[w + 1] = col + 1
            placed.append((w, row, col, s.n))
    diffs = {
        w: [[0] * ranks.get(w + 1, 0) for _ in range(ranks.get(w, 0))]
        for w, _, _, _ in placed
    }
    for w, row, col, n in placed:
        diffs[w][row][col] = n
    return FreeComplex(ranks, diffs)


def _summand_key(s):
    if isinstance(s, FreeCell):
        return (0, s.degree, 0)
    return (1, s.lower_degree, s.n)


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
        # both the lattice oracle and the closed form of the summands the
        # draw was built from, never the complex's own decomposition
        rng = random.Random(200 + seed)
        c, summands = random_complex(rng)
        for m in (0, 2, 3, 4, 5, 8, 12):
            got = integer_cohomology(c, m)
            assert got == _lattice_cohomology(c, m)
            assert got == cohomology_of_summands(summands, m)


class TestDecomposeAgainstSympy:
    @pytest.mark.parametrize("seed", range(30))
    def test_cones_are_the_invariant_factors_of_each_differential(self, seed):
        # ConePair(d, w) for each of sympy's nonzero invariants of diffs[w];
        # the rest of each weight's rank is free cells
        c, _ = random_complex(random.Random(1300 + seed), max_cells=14)
        cones = {w: sympy_invariants(c.differential(w)) for w in c.weights()}
        want = [ConePair(d, w) for w, ds in cones.items() for d in ds]
        for w in c.weights():
            free = c.rank(w) - len(cones[w]) - len(cones.get(w - 1, []))
            want += [FreeCell(w)] * free
        assert Counter(decompose_free_complex(c)) == Counter(want)

    @pytest.mark.parametrize("seed", range(10))
    def test_never_calls_smith(self, seed, monkeypatch):
        monkeypatch.setattr(intmat, "smith_normal_form", _refuse)
        c, summands = random_complex(random.Random(1400 + seed), max_cells=14)
        assert elementary_data(decompose_free_complex(c)) == elementary_data(summands)


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
        s = [(S_PIECE, 0, 0)]
        assert tensor_pieces(s, s) == [(S_PIECE, 0, 0), (S_PIECE, 0, 1)]

    def test_free_with_cone(self):
        s = [(S_PIECE, 0, 0)]
        s2 = [(SJ_PIECE, 2, 0)]
        assert tensor_pieces(s, s2) == [(SJ_PIECE, 2, 0), (SJ_PIECE, 2, 1)]

    def test_cone_square(self):
        s1 = [(SJ_PIECE, 1, 0)]
        assert tensor_pieces(s1, s1) == [(SJ_PIECE, 1, 0), (SJ_PIECE, 1, 1)]

    def test_mixed_cones_use_minimum(self):
        a = [(SJ_PIECE, 2, 1)]
        b = [(SJ_PIECE, 3, 0)]
        assert tensor_pieces(a, b) == [(SJ_PIECE, 2, 1), (SJ_PIECE, 2, 2)]

    @pytest.mark.parametrize("seed", range(10))
    def test_commutative_associative(self, seed):
        rng = random.Random(300 + seed)
        xs = [random_rho(rng) for _ in range(3)]
        a, b, c = xs
        assert tensor_pieces(a, b) == tensor_pieces(b, a)
        assert tensor_pieces(tensor_pieces(a, b), c) == tensor_pieces(
            a, tensor_pieces(b, c)
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_homology_matches_brute_force_tor(self, seed):
        rng = random.Random(400 + seed)
        a = random_rho(rng)
        b = random_rho(rng)
        got = derived_pieces(tensor_pieces(a, b))
        assert piece_invariants(got) == bruteforce_tor_invariants(a, b)

    def test_kunneth_pages_checked_pinned(self):
        a = NormalForm([Free(0), DyadicEta(2, 0), DyadicEta(1, 1)])
        b = NormalForm([DyadicEta(3, -1), Free(1), DyadicEta(0, 2)])
        report = kunneth_e2(a, b)
        assert report.equal
        assert report.pages_checked == (
            (2, "complex"),
            (3, "derived"),
            (4, "derived"),
            (5, "derived"),
            (6, "derived"),
        )


def random_rho(rng, max_summands=3):
    """A sum of R, S and S_j pieces (kind, exponent, degree)."""
    out = []
    for _ in range(rng.randrange(1, max_summands + 1)):
        d = rng.randrange(-2, 3)
        u = rng.random()
        if u < 0.2:
            out.append((R_PIECE, 0, d))
        elif u < 0.5:
            out.append((S_PIECE, 0, d))
        else:
            out.append((SJ_PIECE, rng.randrange(1, 5), d))
    return sorted(out)


def piece_invariants(pieces):
    """Per chain degree (free rank, sorted torsion exponents) of a sum of
    lone R and R/rho^j pieces."""
    out = {}
    for kind, j, d in pieces:
        f, tors = out.get(d, (0, ()))
        if kind == R_PIECE:
            out[d] = (f + 1, tors)
        else:
            out[d] = (f, tuple(sorted(tors + (j,))))
    return out


def piece_complex(piece):
    """Generators (chain degrees) and arrows (src, dst, rho_power) of one
    piece: R is one generator, S and S_j are two in degrees d, d+1."""
    kind, j, d = piece
    if kind == R_PIECE:
        return [d], []
    return [d, d + 1], [(0, 1, j)] if kind == SJ_PIECE else []


def bruteforce_tor_invariants(a, b, n_max=8):
    """Brute-force oracle: build the honest tensor complex of the one- and
    two-term free F2[rho] complexes and recover the homology R-module
    invariants per chain degree from its F2-homology with truncated coefficients
    F2[rho]/rho^N for N = 1..n_max.

    dim H^d(C x R_N) = f_d*N + sum min(j, N) over torsion exponents at
    degrees d and d+1, so the increments in N recover the exponent
    histogram and peeling from the bottom degree splits neighbors.
    """
    chain = []  # chain degree per generator
    arrows = []  # (src, dst, rho_power)
    for pa in a:
        for pb in b:
            ga, da = piece_complex(pa)
            gb, db = piece_complex(pb)
            base = len(chain)
            w = len(gb)  # generator x_m (x) y_n sits at base + m * w + n
            chain.extend(x + y for x in ga for y in gb)
            for src, dst, p in da:
                for n in range(w):
                    arrows.append((base + src * w + n, base + dst * w + n, p))
            for src, dst, p in db:
                for m in range(len(ga)):
                    arrows.append((base + m * w + src, base + m * w + dst, p))
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


def sympy_factors(n):
    return sorted((int(p), int(e)) for p, e in factorint(n).items())


class TestFactorPrimePowers:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_below_1e15(self, seed):
        rng = random.Random(seed)
        for n in [rng.randrange(1, 10**15) for _ in range(100)]:
            assert factor_prime_powers(n) == sympy_factors(n), n

    @pytest.mark.parametrize("seed", range(4))
    def test_squares_of_primes_past_trial_division(self, seed):
        rng = random.Random(seed)
        for _ in range(5):
            p = nextprime(rng.randrange(10**5, 10**6))
            assert factor_prime_powers(p * p) == [(p, 2)]

    @pytest.mark.parametrize(
        "n",
        [
            # strong pseudoprimes to the first 4, 5, 6 and 7 prime bases
            3215031751, 2152302898747, 3474749660383, 341550071728321,
            # Carmichael numbers
            561, 41041, 825265,
            # 73^2 * 72337 * 899429
            346715374408517,
            # strong pseudoprimes to the first 9 and 12 prime bases
            3825123056546413051, 318665857834031151167461,
            # two primes near 2^32, two Mersenne primes, primes past 2^64
            4294967291 * 4294967279, (2**31 - 1) * (2**61 - 1), 2**89 - 1,
            nextprime(2**70), 3 * nextprime(2**80),
        ],
    )
    def test_hard_cases(self, n):
        assert factor_prime_powers(n) == sympy_factors(n)

    @pytest.mark.parametrize(
        "n", [4294967291 * 4294967279, 346715374408517, nextprime(2**70), nextprime(3 * 10**24)]
    )
    def test_sympy_only_for_composites_past_2_64(self, n, monkeypatch):
        import sympy

        want = sympy_factors(n)
        monkeypatch.setattr(sympy, "factorint", _refuse)
        assert factor_prime_powers(n) == want


class TestIsPrime:
    def test_matches_sympy_below_20000(self):
        assert [n for n in range(1, 20001) if is_prime(n)] == [
            n for n in range(1, 20001) if isprime(n)
        ]

    @pytest.mark.parametrize("n", [
        # Carmichael numbers, strong pseudoprimes to the first 4 and 12 prime
        # bases, and primes and a semiprime past the exact Miller-Rabin bound
        561, 1105, 41041, 825265, 3215031751, 318665857834031151167461,
        nextprime(3 * 10**24), 2**89 - 1, nextprime(2**66) * nextprime(2**66 + 2**40),
    ])
    def test_hard_cases(self, n):
        assert is_prime(n) == isprime(n)

    @pytest.mark.parametrize("seed", range(4))
    def test_squares_of_primes(self, seed):
        rng = random.Random(seed)
        for p in [nextprime(rng.randrange(10**k, 10**(k + 1))) for k in range(1, 13)]:
            assert is_prime(p) and not is_prime(p * p)


class TestFormalGroups:
    def test_crt_split(self):
        assert factor_prime_powers(12) == [(2, 2), (3, 1)]
        assert FormalGroup.from_invariants([6]) == FormalGroup.from_invariants([2, 3])

    def test_tensor_tor(self):
        a = FormalGroup.from_invariants([0, 4])
        b = FormalGroup.from_invariants([6])
        assert a.tensor(b) == FormalGroup.from_invariants([6, 2])
        assert a.tor(b) == FormalGroup.from_invariants([2])

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1"])
    def test_non_integer_rank_or_order_refused(self, bad):
        with pytest.raises(TypeError):
            FormalGroup(bad)
        with pytest.raises(TypeError):
            FormalGroup(0, (bad,))

    @pytest.mark.parametrize("bad", [1.7, 1.0, "1"])
    def test_non_integer_degree_refused(self, bad):
        with pytest.raises(TypeError):
            GradedGroup({bad: FormalGroup.cyclic(2)})

    def test_graded_kunneth_places_tor_one_lower(self):
        a = GradedGroup({1: FormalGroup.cyclic(2)})
        b = GradedGroup({1: FormalGroup.cyclic(4)})
        out = graded_kunneth(a, b)
        assert out == GradedGroup(
            {2: FormalGroup.cyclic(2), 1: FormalGroup.cyclic(2)}
        )
