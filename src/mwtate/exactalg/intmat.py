"""Exact linear algebra over the integers.

:class:`Mat` is the one integer-matrix type: a list of row lists holding
Python ints plus an explicit column count, so every shape, 0 x n, n x 0 and
0 x 0 included, is a value like any other and every computation is
arbitrary precision by construction.  Kernels, column Hermite forms, exact
solving and lattice membership come from one echelon elimination by
Euclidean column steps; the kernels and column_reduce share one Hermite
routine, _hermite.  :func:`invariant_factors` eliminates exact pivots on
sparse {column: entry} rows, the form in which a FreeComplex keeps its
differentials, and works modulo a gcd of minors on what is left, so no
entry outgrows the input's Hadamard bound.  That modular elimination and
the Smith form share one Euclidean step, _clear_pivot.  No package code
makes a Smith form: it stays as the tests' oracle and a bench layer.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, prod

from ..values import Record


class Mat(Record):
    """An integer matrix with an explicit shape; empty shapes allowed.

    ``Mat(rows)`` takes a list of equally long row lists as it is, with
    no copy and no conversion of entries; ``cols`` gives the width of a
    matrix without rows.  Matrices are values: nothing mutates one after
    it is built.  ``len``, indexing and iteration go over the rows.

    >>> Mat([], 3).cols, Mat([[], []]).rows
    (3, 2)
    """

    __slots__ = _fields = ("rows", "cols", "a")

    def __init__(self, a, cols=0):
        if a:
            cols = len(a[0])
            for row in a:
                if len(row) != cols:
                    raise ValueError("rows of a matrix must have equal length")
        self.a = a
        self.rows = len(a)
        self.cols = cols

    @classmethod
    def from_columns(cls, columns, rows) -> Mat:
        """The matrix whose columns are the given vectors of length ``rows``."""
        a = list(map(list, zip(*columns))) or [[] for _ in range(rows)]
        return cls(a, len(columns))

    def column(self, c) -> list:
        return [row[c] for row in self.a]

    def columns(self) -> list:
        return list(map(list, zip(*self.a))) or [[] for _ in range(self.cols)]

    def __len__(self):
        return self.rows

    def __getitem__(self, i):
        return self.a[i]

    def __iter__(self):
        return iter(self.a)

    def __repr__(self):
        return f"Mat({self.a!r})" if self.a else f"Mat([], {self.cols})"


def zeros(rows: int, cols: int) -> Mat:
    return Mat([[0] * cols for _ in range(rows)], cols)


def scalar(n: int, c: int) -> Mat:
    """c times the n x n identity."""
    return Mat([[0] * i + [c] + [0] * (n - i - 1) for i in range(n)], n)


def identity(n: int) -> Mat:
    return scalar(n, 1)


def transpose(m: Mat) -> Mat:
    return Mat.from_columns(m.a, m.cols)


def matmul(a: Mat, b: Mat) -> Mat:
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    cb = b.cols
    out = [[0] * cb for _ in range(a.rows)]
    for ai, oi in zip(a.a, out):
        for aik, bk in zip(ai, b.a):
            if aik:
                for j in range(cb):
                    oi[j] += aik * bk[j]
    return Mat(out, cb)


def hstack(a: Mat, b: Mat) -> Mat:
    if a.rows != b.rows:
        raise ValueError("row mismatch in hstack")
    return Mat([x + y for x, y in zip(a.a, b.a)], a.cols + b.cols)


def diagonal(m: Mat) -> list[int]:
    return [m.a[i][i] for i in range(min(m.rows, m.cols))]


def _clear_pivot(s, t, pivot, rows, cols, modulus=0):
    """The Euclidean step of :func:`smith_normal_form` and
    :func:`_modular_invariants`: move ``pivot`` to (t, t) of the rows x cols
    block of ``s`` and clear row and column t until gcd(pivot, modulus)
    divides the trailing block, reducing each new entry modulo a nonzero
    ``modulus``.  Row steps act on whole rows, and column steps on every
    row from t down, as rows above t are zero from column t on."""
    i0, j0 = pivot
    s[t], s[i0] = s[i0], s[t]
    if j0 != t:
        for sr in s[t:]:
            sr[t], sr[j0] = sr[j0], sr[t]
    while True:
        # Clear column t with Euclidean row steps.
        dirty = False
        for i in range(t + 1, rows):
            if s[i][t]:
                q = s[i][t] // s[t][t]
                if modulus:
                    s[i] = [(x - q * y) % modulus for x, y in zip(s[i], s[t])]
                else:
                    s[i] = [x - q * y for x, y in zip(s[i], s[t])]
                if s[i][t]:
                    s[t], s[i] = s[i], s[t]
                    dirty = True
        if dirty:
            continue
        # Clear row t with Euclidean column steps.
        st = s[t]
        for j in range(t + 1, cols):
            if st[j]:
                q = st[j] // st[t]
                if modulus:
                    for sr in s[t:]:
                        sr[j] = (sr[j] - q * sr[t]) % modulus
                else:
                    for sr in s[t:]:
                        sr[j] -= q * sr[t]
                if st[j]:
                    for sr in s[t:]:
                        sr[t], sr[j] = sr[j], sr[t]
                    dirty = True
        if dirty:
            continue
        # Fold in the first row with an entry gcd(pivot, modulus) does not divide.
        d = gcd(st[t], modulus)
        offender = None if d == 1 else _non_multiple_row(s, t, rows, cols, d)
        if offender is None:
            return
        if modulus:
            s[t] = [(x + y) % modulus for x, y in zip(st, s[offender])]
        else:
            s[t] = [x + y for x, y in zip(st, s[offender])]


def _smallest_entry(s, t, rows, cols):
    """Position of the first smallest nonzero |entry| of s[t:rows, t:cols]."""
    pivot = None
    best = None
    for i in range(t, rows):
        si = s[i]
        for j in range(t, cols):
            x = si[j]
            if x and (best is None or abs(x) < best):
                best = abs(x)
                pivot = (i, j)
                if best == 1:
                    return pivot
    return pivot


def _non_multiple_row(s, t, rows, cols, d):
    """First row of s[t+1:rows, t+1:cols] holding an entry d does not divide."""
    return next((i for i in range(t + 1, rows) if any(x % d for x in s[i][t + 1 : cols])), None)


def smith_normal_form(m: Mat):
    """Smith normal form with transforms.

    Returns (U, S, V) with U, V unimodular, U*M*V == S diagonal,
    diagonal entries nonnegative with d1 | d2 | ... .  Total on every
    rectangular integer matrix, including empty ones.  Row steps on the
    bordered [[M, I], [I, 0]] build U in its right border and column steps
    V in its bottom one (Kannan and Bachem, SIAM J. Comput. 8, 1979).

    >>> m = Mat([[2, 4], [6, 8]])
    >>> u, s, v = smith_normal_form(m)
    >>> diagonal(s)
    [2, 4]
    >>> matmul(matmul(u, m), v) == s
    True
    """
    rows, cols = m.rows, m.cols
    s = [r + e for r, e in zip(m.a, identity(rows).a)]
    s += [e + [0] * rows for e in identity(cols).a]
    for t in range(min(rows, cols)):
        pivot = _smallest_entry(s, t, rows, cols)
        if pivot is None:
            break
        _clear_pivot(s, t, pivot, rows, cols)
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
    u = Mat([r[cols:] for r in s[:rows]], rows)
    v = Mat([r[:cols] for r in s[rows:]], cols)
    return u, Mat([r[:cols] for r in s[:rows]], cols), v


def smith_with_inverses(m: Mat):
    """Like :func:`smith_normal_form` but also returns Uinv and Vinv."""
    u, s, v = smith_normal_form(m)
    return u, s, v, solve_columns(u, identity(m.rows)), solve_columns(v, identity(m.cols))


def sparse_rows(m: Mat) -> list[dict]:
    """The rows of ``m`` as {column: entry} dicts of their nonzero entries."""
    return [dict(compress(enumerate(row), row)) for row in m.a]


def invariant_factors(m: Mat) -> list[int]:
    """The nonzero invariant factors d1 | d2 | ... of ``m``, no transforms.

    ``m`` is read as sparse rows, the form a FreeComplex keeps, and exact
    pivots are eliminated on them (Dumas, Saunders and Villard, J. Symb.
    Comput. 32, 2001); the residual is eliminated modulo a gcd of minors,
    and the diagonal is brought into the chain d1 | d2 | ... by gcd and lcm.

    >>> invariant_factors(Mat([[2, 4], [6, 8]]))
    [2, 4]
    >>> invariant_factors(Mat([[1, 2], [2, 4]])), invariant_factors(Mat([], 3))
    ([1], [])
    """
    return _row_invariants(sparse_rows(m))


def _row_invariants(rows: list[dict]) -> list[int]:
    """The invariant factors of the matrix with sparse ``rows``; eats them."""
    pivots, rest = _exact_pivots([r for r in rows if r])
    if rest:
        cols = sorted({j for r in rest for j in r})
        pivots += _modular_invariants([[r.get(j, 0) for j in cols] for r in rest], len(cols))
    return _divisor_chain(pivots)


def _exact_pivots(rows: list[dict]) -> tuple[list[int], list[dict]]:
    """Eliminate exact pivots from the nonzero sparse ``rows``.

    Returns the absolute values of the pivots and the nonzero rows of the
    residual, which has no exact pivot left.  A pivot x at (i, j) is
    exact when |x| is the gcd of row i and of column j; row steps then
    clear column j, and column steps clear row i without touching any
    other row, so x splits off as a diagonal entry and every entry left
    is a quotient of minors of the input.  Each scan ranks the exact
    pivots by (|x|, Markowitz cost), so units come first, and eliminates
    them in that order while the scan's earlier eliminations leave their
    row and column untouched.
    """
    rows = dict(enumerate(rows))
    cols: dict[int, set] = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    pivots = []
    while True:
        found = []
        col_gcd = {}
        for i, r in rows.items():
            g = gcd(*r.values())
            for j in [j for j, x in r.items() if x == g or x == -g]:
                if g != 1:
                    if j not in col_gcd:
                        col_gcd[j] = gcd(*[rows[k][j] for k in cols[j]])
                    if col_gcd[j] != g:
                        continue
                found.append((g, (len(r) - 1) * (len(cols[j]) - 1), i, j))
        if not found:
            return pivots, list(rows.values())
        found.sort()
        touched_rows, touched_cols = set(), set()
        for g, _, i, j in found:
            if i in touched_rows or (g != 1 and j in touched_cols):
                continue
            prow = rows.pop(i)
            x = prow.pop(j)
            below = cols.pop(j)
            below.discard(i)
            for k in below:
                rk = rows[k]
                q = rk.pop(j) // x
                for l, y in prow.items():
                    v = rk.get(l, 0) - q * y
                    if v:
                        rk[l] = v
                        cols[l].add(k)
                    elif l in rk:
                        del rk[l]
                        cols[l].discard(k)
                if not rk:
                    del rows[k]
            for l in prow:
                cols[l].discard(i)
                if not cols[l]:
                    del cols[l]
            pivots.append(g)
            touched_rows |= below
            touched_rows.add(i)
            touched_cols.update(prow)
            touched_cols.add(j)


def _modular_invariants(a: list[list[int]], cols: int) -> list[int]:
    """The nonzero invariant factors d1 | ... | dr of the dense ``a``,
    modulo a gcd of minors (Domich, Kannan and Trotter, Math. Oper. Res.
    12, 1987; Saunders and Wan, ISSAC 2004).

    One fraction-free (Bareiss) pass, in which every entry is a minor of
    ``a``, gives the rank r and the gcds of two of its trailing blocks: g
    of the (r-1)-minors left after r-2 steps, which d1...d(r-1) divides,
    and h of the r-minors left after r-1 steps, which d1...dr divides.  An
    invariant that divides a modulus M is an entry of the Smith form over
    Z/MZ, where each entry may be reduced mod M and a zero pivot reads as
    M.  On a square nonsingular ``a``, h is |det a| = d1...dr, so d1 ...
    d(r-1) come modulo g, which is small on dense input (no elimination at
    all when g is 1), and dr is h over their product.  Otherwise all r
    invariants come modulo h: h need not be d1...dr then, since the
    r-minors left all share the first r-1 pivot rows and columns.
    """
    # the blocks the last two pivots came from; [[1]] holds the 0-minor
    blocks, rest, prev = [None, [[1]]], a, 1
    while rest and rest[0]:
        top = next((row for row in rest if row[0]), None)
        if top is None:
            rest = [row[1:] for row in rest]
            continue
        blocks = [blocks[1], rest]
        p, tail = top[0], top[1:]
        rest = [[(p * y - row[0] * z) // prev for y, z in zip(row[1:], tail)]
                for row in rest if row is not top]
        prev = p
    rank = len(a) - len(rest)
    if not rank:
        return []
    g, h = (gcd(*(x for row in b for x in row)) for b in blocks)
    square = rank == len(a) == cols
    modulus, steps = (g, rank - 1) if square else (h, rank)
    out = []
    if modulus > 1:
        a = [[x % modulus for x in row] for row in a]
        for t in range(steps):
            pivot = _smallest_entry(a, t, len(a), cols)
            if pivot is None:
                break
            _clear_pivot(a, t, pivot, len(a), cols, modulus)
            out.append(gcd(a[t][t], modulus))
    out += [modulus] * (steps - len(out))
    return out + [h // prod(out)] if square else out


def _divisor_chain(ds: list[int]) -> list[int]:
    """The Smith form d1 | d2 | ... of diag(ds), positive ``ds``, by
    pairwise gcd and lcm; the units stay in front untouched."""
    rest = sorted(d for d in ds if d != 1)
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            a, b = rest[i], rest[j]
            if b % a:
                g = gcd(a, b)
                rest[i], rest[j] = g, a // g * b
    return [1] * (len(ds) - len(rest)) + rest


def _echelon(cols: list, rows: int) -> list:
    """The (row, pivot) pairs of the echelon form of ``cols`` on its top
    ``rows`` rows: per row, the entry of least |x| reduces the others, all
    zero above row r, until it is alone; ``cols`` keeps the nonzero rest."""
    pivots = []
    for r in range(rows):
        live = [c for c in cols if c[r]]
        while len(live) > 1:
            piv = live[0]
            for c in live:
                if abs(c[r]) < abs(piv[r]):
                    piv = c
            p = piv[r]
            for c in live:
                if c is not piv:
                    q = c[r] // p
                    c[:] = [x - q * y for x, y in zip(c, piv)]
            live = [c for c in live if c[r]]
        if live:  # the only column nonzero in row r
            cols.remove(live[0])
            pivots.append((r, live[0]))
    cols[:] = [c for c in cols if any(c)]
    return pivots


def _reduce(pivots: list, v: list, top: int) -> list | None:
    """What is left of ``v`` below row ``top`` once the echelon ``pivots``,
    each zero above its row, clear its first ``top`` entries, or None when
    they cannot: a pivot that does not divide its entry leaves a remainder
    there that no later pivot touches."""
    for r, p in pivots:
        q, rem = divmod(v[r], p[r])
        if rem:
            return None
        if q:
            v = [x - q * y for x, y in zip(v, p)]
    return None if any(v[:top]) else v[top:]


def _hermite(cols: list, rows: int) -> list:
    """The columns of the column Hermite form of ``cols``, which it eats:
    one echelon step per row, each pivot made positive and the entries of
    earlier pivots reduced into [0, pivot) in its row, so repeated kernel
    and presentation computations do not accumulate huge entries."""
    pivots = _echelon(cols, rows)
    for k, (r, piv) in enumerate(pivots):
        if piv[r] < 0:
            piv[:] = [-x for x in piv]
        for _, p in pivots[:k]:
            q = p[r] // piv[r]
            if q:
                p[:] = [x - q * y for x, y in zip(p, piv)]
    return [p for _, p in pivots]


def column_reduce(m: Mat) -> Mat:
    """The column Hermite form of the column lattice of ``m``.

    >>> column_reduce(Mat([[4, 6], [1, 0]]))
    Mat([[2, 0], [2, 3]])
    """
    return Mat.from_columns(_hermite(m.columns(), m.rows), m.rows)


def _kernel_part(a: Mat, rels: Mat) -> Mat:
    """The Hermite form of {x : A x in colspan(rels)}, the x parts of the
    kernel of [A | R]: what one echelon pass of [A | R; I 0] leaves of its
    columns once the A and R parts are cleared spans it."""
    n, pad = a.cols, [0] * a.cols
    cols = [c + [0] * j + [1] + [0] * (n - j - 1) for j, c in enumerate(a.columns())]
    cols += [c + pad for c in rels.columns()]
    _echelon(cols, a.rows)
    return Mat.from_columns(_hermite([c[a.rows :] for c in cols], n), n)


def kernel_basis(m: Mat) -> Mat:
    """The column Hermite form of the integer kernel of ``m``: the I parts
    of the columns of [M; I] left once each row of M drops its pivot.

    >>> kernel_basis(Mat([[1, 2], [2, 4]]))
    Mat([[2], [-1]])
    >>> kernel_basis(Mat([], 2))
    Mat([[1, 0], [0, 1]])
    >>> kernel_basis(Mat([[1, 0], [1, 3]]))
    Mat([[], []])
    """
    return _kernel_part(m, zeros(m.rows, 0))


def solve_columns(m: Mat, b: Mat) -> Mat | None:
    """Exact solutions X of M*X == B, or None if some column of B has no
    integer solution.

    Each pivot of the echelon form of [M; I] is [M*t; t] for an integer
    t, so reducing a column [-b; 0] by them leaves [M*x - b; x], solved
    when its M part is zero.  That form depends on ``m`` alone, so each
    column gets the solution it would get by itself, and the columns of
    several right-hand sides may be solved in one call and split.

    >>> solve_columns(Mat([[2, 0], [1, 3]]), Mat([[4], [5]]))
    Mat([[2], [1]])
    >>> solve_columns(Mat([[2, 0], [1, 3]]), Mat([[4, 1], [5, 0]])) is None
    True
    """
    if m.rows != b.rows:
        raise ValueError("row mismatch in solve")
    n, pad = m.cols, [0] * m.cols
    cols = [c + [0] * j + [1] + [0] * (n - j - 1) for j, c in enumerate(m.columns())]
    pivots = _echelon(cols, m.rows)
    xs = [_reduce(pivots, [-y for y in c] + pad, m.rows) for c in b.columns()]
    return None if None in xs else Mat.from_columns(xs, n)


def solve(m: Mat, vec) -> list[int] | None:
    """One integer solution x of M x == vec, or None."""
    res = solve_columns(m, Mat([[x] for x in vec], 1))
    return None if res is None else res.column(0)


def lattice_contains(gens: Mat, vecs: Mat) -> list[bool]:
    """Whether each column of ``vecs`` lies in the column span of ``gens``
    over Z: whether the echelon pivots of ``gens`` reduce it to zero with
    exact divisions.

    >>> lattice_contains(Mat([[2, 0], [0, 3]]), Mat([[4, 1], [3, 3]]))
    [True, False]
    >>> lattice_contains(Mat([[], []]), Mat([[0, 1], [0, 0]]))
    [True, False]
    """
    pivots = _echelon(gens.columns(), gens.rows)
    return [_reduce(pivots, c, gens.rows) is not None for c in vecs.columns()]


def kernel_mod_lattice(a: Mat, rels: Mat) -> Mat:
    """Generators of {x : A x in colspan(rels)}, in column Hermite form.

    ``a`` and ``rels`` must have the same number of rows.  That lattice is
    the projection onto x of the kernel of [A | R], so one echelon pass of
    [A | R; I 0] clears the A and R parts, and the x parts of the columns
    left span it; one Hermite form of those is the result, which always
    contains the kernel of ``a`` itself.

    >>> kernel_mod_lattice(Mat([], 2), Mat([], 0))
    Mat([[1, 0], [0, 1]])
    >>> kernel_mod_lattice(Mat([[3, 1]]), Mat([[2]]))
    Mat([[1, 0], [1, 2]])
    """
    if a.rows != rels.rows:
        raise ValueError("row mismatch in kernel_mod_lattice")
    return _kernel_part(a, rels)


_SHEARS = (-2, -1, 1, 2)


def random_unimodular(n: int, rng, steps: int | None = None):
    """A random unimodular matrix together with its inverse.

    Built from elementary shears, swaps and sign flips so the inverse
    is tracked exactly.  The inverse is kept as transposed rows, so the
    column operation matching each row operation is a row operation too.
    """
    a = identity(n).a
    inv_t = identity(n).a
    if n == 0:
        return Mat(a), Mat(inv_t)
    if steps is None:
        steps = 3 * n + 4
    randrange = rng.randrange
    for _ in range(steps):
        kind = randrange(3)
        i = randrange(n)
        j = randrange(n)
        if kind == 0 and i != j:
            q = rng.choice(_SHEARS)
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
            inv_t[j] = [x - q * y for x, y in zip(inv_t[j], inv_t[i])]
        elif kind == 1 and i != j:
            a[i], a[j] = a[j], a[i]
            inv_t[i], inv_t[j] = inv_t[j], inv_t[i]
        elif kind == 2:
            a[i] = [-x for x in a[i]]
            inv_t[i] = [-x for x in inv_t[i]]
    return Mat(a, n), transpose(Mat(inv_t, n))
