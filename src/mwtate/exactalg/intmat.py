"""Exact linear algebra over the integers.

:class:`Mat` is the one integer-matrix type: a list of row lists holding
Python ints plus an explicit column count, so every shape, 0 x n, n x 0
and 0 x 0 included, is a value like any other and every computation is
arbitrary precision by construction.  The workhorse is Smith normal form
by Euclidean row and column steps; each caller asks for just the
unimodular transforms it reads (kernels, exact solving and lattice
membership need V or U and V), and the others are never built.
Invariant factors alone come from :func:`invariant_factors`, which
works modulo a determinant, so no entry outgrows it.
"""

from __future__ import annotations

from math import gcd


class Mat:
    """An integer matrix with an explicit shape; empty shapes allowed.

    ``Mat(rows)`` takes a list of equally long row lists as it is, with
    no copy and no conversion of entries; ``cols`` gives the width of a
    matrix without rows.  Matrices are values: nothing mutates one after
    it is built.  ``len``, indexing and iteration go over the rows.

    >>> Mat([], 3).cols, Mat([[], []]).rows
    (3, 2)
    """

    __slots__ = ("a", "rows", "cols")

    def __init__(self, a, cols=0):
        if a:
            cols = len(a[0])
            if any(len(r) != cols for r in a):
                raise ValueError("rows of a matrix must have equal length")
        self.a = a
        self.rows = len(a)
        self.cols = cols

    @classmethod
    def from_columns(cls, columns, rows) -> Mat:
        """The matrix whose columns are the given vectors of length ``rows``."""
        return cls([[col[r] for col in columns] for r in range(rows)], len(columns))

    def column(self, c) -> list:
        return [row[c] for row in self.a]

    def columns(self) -> list:
        return [[row[c] for row in self.a] for c in range(self.cols)]

    def __len__(self):
        return self.rows

    def __getitem__(self, i):
        return self.a[i]

    def __iter__(self):
        return iter(self.a)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols, self.a) == (other.rows, other.cols, other.a)

    __hash__ = None

    def __repr__(self):
        return f"Mat({self.a!r})" if self.a else f"Mat([], {self.cols})"


def zeros(rows: int, cols: int) -> Mat:
    return Mat([[0] * cols for _ in range(rows)], cols)


def scalar(n: int, c: int) -> Mat:
    """c times the n x n identity."""
    return Mat([[c if i == j else 0 for j in range(n)] for i in range(n)], n)


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


def mat_vec(a: Mat, v) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a.a]


def hstack(a: Mat, b: Mat) -> Mat:
    if a.rows != b.rows:
        raise ValueError("row mismatch in hstack")
    return Mat([x + y for x, y in zip(a.a, b.a)], a.cols + b.cols)


def is_zero_matrix(m: Mat) -> bool:
    return not any(any(row) for row in m.a)


def diagonal(m: Mat) -> list[int]:
    return [m.a[i][i] for i in range(min(m.rows, m.cols))]


def _smith(m: Mat, *, u=False, v=False, uinv=False, vinv=False):
    """Diagonalize ``m`` by unimodular row/column operations.

    Returns (U, S, V, Uinv, Vinv) with U*M*V == S, U*Uinv == I and
    Vinv*V == I.  Only the transforms whose keyword is true are tracked;
    the other slots are None.  Which transforms are tracked never
    changes S or any returned transform.
    """
    rows, cols = m.rows, m.cols
    s = [row[:] for row in m.a]
    # Column operations on V and Uinv are row operations on their
    # transposes, so those two are kept as transposed rows.
    u_rows = identity(rows).a if u else None
    uinv_t = identity(rows).a if uinv else None
    v_t = identity(cols).a if v else None
    vinv_rows = identity(cols).a if vinv else None

    def add(a, i, j, q):
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]

    def swap(a, i, j):
        a[i], a[j] = a[j], a[i]

    def row_add(i, j, q):
        # R_i += q*R_j on S and U; inverse column op on Uinv.
        add(s, i, j, q)
        if u_rows is not None:
            add(u_rows, i, j, q)
        if uinv_t is not None:
            add(uinv_t, j, i, -q)

    def col_add(j, i, q, t):
        # C_j += q*C_i on S and V; inverse row op on Vinv.  Rows above t
        # of S are zero outside the diagonal.
        for r in range(t, rows):
            sr = s[r]
            sr[j] += q * sr[i]
        if v_t is not None:
            add(v_t, j, i, q)
        if vinv_rows is not None:
            add(vinv_rows, i, j, -q)

    def row_swap(i, j):
        swap(s, i, j)
        for a in (u_rows, uinv_t):
            if a is not None:
                swap(a, i, j)

    def col_swap(i, j):
        for sr in s:
            sr[i], sr[j] = sr[j], sr[i]
        for a in (v_t, vinv_rows):
            if a is not None:
                swap(a, i, j)

    def row_negate(i):
        for a in (s, u_rows, uinv_t):
            if a is not None:
                a[i] = [-x for x in a[i]]

    for t in range(min(rows, cols)):
        pivot = _smallest_entry(s, t, rows, cols)
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])

        while True:
            # Clear column t with Euclidean row steps.
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    row_add(i, t, -(s[i][t] // s[t][t]))
                    if s[i][t] != 0:
                        row_swap(i, t)
                        dirty = True
            if dirty:
                continue
            # Clear row t with Euclidean column steps.
            st = s[t]
            for j in range(t + 1, cols):
                if st[j] != 0:
                    col_add(j, t, -(st[j] // st[t]), t)
                    if st[j] != 0:
                        col_swap(j, t)
                        dirty = True
            if dirty:
                continue
            # Fold in any entry the pivot does not divide yet.
            d = st[t]
            offender = None if d in (1, -1) else _non_multiple_row(s, t, rows, d)
            if offender is None:
                break
            row_add(t, offender, 1)
        if s[t][t] < 0:
            row_negate(t)

    return (
        Mat(u_rows, rows) if u else None,
        Mat(s, cols),
        transpose(Mat(v_t, cols)) if v else None,
        transpose(Mat(uinv_t, rows)) if uinv else None,
        Mat(vinv_rows, cols) if vinv else None,
    )


def _smallest_entry(s, t, rows, cols):
    """Position of the first smallest nonzero |entry| of the block s[t:, t:]."""
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


def _non_multiple_row(s, t, rows, d):
    """First row of s[t+1:, t+1:] holding an entry that d does not divide."""
    for i in range(t + 1, rows):
        if any(x % d for x in s[i][t + 1 :]):
            return i
    return None


def smith_normal_form(m: Mat):
    """Smith normal form with transforms.

    Returns (U, S, V) with U, V unimodular, U*M*V == S diagonal,
    diagonal entries nonnegative with d1 | d2 | ... .  Total on every
    rectangular integer matrix, including empty ones.

    >>> m = Mat([[2, 4], [6, 8]])
    >>> u, s, v = smith_normal_form(m)
    >>> diagonal(s)
    [2, 4]
    >>> matmul(matmul(u, m), v) == s
    True
    """
    return _smith(m, u=True, v=True)[:3]


def smith_with_inverses(m: Mat):
    """Like :func:`smith_normal_form` but also returns Uinv and Vinv."""
    return _smith(m, u=True, v=True, uinv=True, vinv=True)


def invariant_factors(m: Mat) -> list[int]:
    """The nonzero invariant factors d1 | d2 | ... of ``m``, no transforms.

    The nonzero part of the Smith diagonal, computed modulo a determinant
    so that no entry outgrows it (Domich-Kannan-Trotter; Cohen, GTM 138,
    Alg. 2.4.14).  Let r be the rank of ``m`` and D one of its nonzero
    r x r minors.  A full-row-rank r x n matrix A with the invariants of
    ``m`` is ``m`` itself, its transpose, or the transposed
    column-Hermite form; its columns span a lattice L of rank r in Z^r
    whose index divides D, so D*Z^r lies in L and every entry may be
    reduced mod D.  Each diagonal entry d = gcd(pivot, R) splits off
    Z/d, and the order of the rest divides R/d, so the modulus R shrinks
    to R/d as the elimination goes on.

    >>> invariant_factors(Mat([[2, 4], [6, 8]]))
    [2, 4]
    >>> invariant_factors(Mat([[1, 2], [2, 4]])), invariant_factors(Mat([], 3))
    ([1], [])
    """
    rank, modulus = _rank_and_minor(m)
    if rank == m.rows:
        s = [row[:] for row in m.a]
    else:  # the columns of a basis of the column lattice
        s = (m if rank == m.cols else column_reduce(m)).columns()
    cols = len(s[0]) if s else 0
    out = []
    for t in range(rank):
        if modulus == 1:
            return out + [1] * (rank - t)
        for i in range(t, rank):
            s[i] = [x % modulus for x in s[i]]
        pivot = _smallest_entry(s, t, rank, cols)
        if pivot is not None:
            _clear_mod(s, t, pivot, modulus, rank, cols)
        d = gcd(s[t][t], modulus)
        out.append(d)
        modulus //= d
    return out


def _rank_and_minor(m: Mat) -> tuple[int, int]:
    """Rank r of ``m`` and the absolute value of one nonzero r x r minor
    (1 for rank 0), by fraction-free (Bareiss) elimination: every
    intermediate entry is itself a minor, so none outgrows the input's
    Hadamard bound."""
    a = [row[:] for row in m.a]
    rank, prev = 0, 1
    for c in range(m.cols):
        if rank == m.rows:
            break
        piv = next((i for i in range(rank, m.rows) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        p = top[c]
        for i in range(rank + 1, m.rows):
            x = a[i][c]
            a[i] = [(p * y - x * z) // prev for y, z in zip(a[i], top)]
        prev = p
        rank += 1
    return rank, abs(prev)


def _clear_mod(s, t, pivot, modulus, rows, cols):
    """Euclidean elimination of row and column t of ``s`` modulo
    ``modulus``, as in :func:`_smith`, until gcd(pivot, modulus) divides
    every entry of the trailing block."""
    i0, j0 = pivot
    s[t], s[i0] = s[i0], s[t]
    if j0 != t:
        for sr in s[t:]:
            sr[t], sr[j0] = sr[j0], sr[t]
    while True:
        dirty = False
        for i in range(t + 1, rows):
            if s[i][t]:
                q = s[i][t] // s[t][t]
                s[i] = [(x - q * y) % modulus for x, y in zip(s[i], s[t])]
                if s[i][t]:
                    s[t], s[i] = s[i], s[t]
                    dirty = True
        if dirty:
            continue
        st = s[t]
        for j in range(t + 1, cols):
            if st[j]:
                q = st[j] // st[t]
                for sr in s[t:]:
                    sr[j] = (sr[j] - q * sr[t]) % modulus
                if st[j]:
                    for sr in s[t:]:
                        sr[t], sr[j] = sr[j], sr[t]
                    dirty = True
        if dirty:
            continue
        d = gcd(st[t], modulus)
        offender = None if d == 1 else _non_multiple_row(s, t, rows, d)
        if offender is None:
            return
        s[t] = [(x + y) % modulus for x, y in zip(st, s[offender])]


def column_reduce(m: Mat) -> Mat:
    """A column-Hermite generating matrix of the same column lattice.

    Unimodular column operations only, zero columns dropped and entries
    of earlier pivots reduced modulo later pivots, so repeated kernel
    and presentation computations do not accumulate huge entries.
    """
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


def kernel_basis(m: Mat) -> Mat:
    """Columns (as a matrix) forming a basis of the integer kernel of ``m``.

    >>> kernel_basis(Mat([[1, 2], [2, 4]]))
    Mat([[2], [-1]])
    >>> kernel_basis(Mat([], 2))
    Mat([[1, 0], [0, 1]])
    """
    _, s, v, _, _ = _smith(m, v=True)
    diag = diagonal(s)
    free = [j for j in range(m.cols) if j >= len(diag) or diag[j] == 0]
    return column_reduce(Mat.from_columns([v.column(j) for j in free], m.cols))


def solve_columns(m: Mat, b: Mat) -> Mat | None:
    """Exact solutions X of M*X == B, or None if no integer solution.

    ``b`` has the same number of rows as ``m``; one particular solution
    is returned per column.
    """
    if m.rows != b.rows:
        raise ValueError("row mismatch in solve")
    u, s, v, _, _ = _smith(m, u=True, v=True)
    diag = diagonal(s)
    ub = matmul(u, b)
    solutions = []
    for rhs in ub.columns():
        z = [0] * m.cols
        for i, x in enumerate(rhs):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if x != 0:
                    return None
            elif x % d != 0:
                return None
            else:
                z[i] = x // d
        solutions.append(mat_vec(v, z))
    return Mat.from_columns(solutions, m.cols)


def solve(m: Mat, vec) -> list[int] | None:
    """One integer solution x of M x == vec, or None."""
    res = solve_columns(m, Mat([[x] for x in vec], 1))
    if res is None:
        return None
    return res.column(0)


def lattice_contains(gens: Mat, vec) -> bool:
    """Whether ``vec`` lies in the column span of ``gens`` over Z."""
    return solve(gens, vec) is not None


def kernel_mod_lattice(a: Mat, rels: Mat) -> Mat:
    """Generators of {x : A x in colspan(rels)}.

    ``a`` and ``rels`` must have the same number of rows.  The result
    is a matrix whose columns generate the preimage lattice; it always
    contains the kernel of ``a`` itself.

    >>> kernel_mod_lattice(Mat([], 2), Mat([], 0))
    Mat([[1, 0], [0, 1]])
    """
    ker = kernel_basis(hstack(a, rels))
    # Project solutions (x; y) onto the x part.
    return column_reduce(Mat(ker.a[: a.cols], ker.cols))


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
