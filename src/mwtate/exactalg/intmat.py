"""Exact linear algebra over the integers.

:class:`Mat` is the one integer-matrix type: a list of row lists holding
Python ints plus an explicit column count, so every shape, 0 x n, n x 0
and 0 x 0 included, is a value like any other and every computation is
arbitrary precision by construction.  The workhorse is Smith normal form
with unimodular transforms; kernels, exact solving and lattice
membership are derived from it.
"""

from __future__ import annotations


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


def _smith(m, want_inverses: bool):
    """Diagonalize ``m`` by unimodular row/column operations.

    Returns (U, S, V, Uinv, Vinv); the inverse slots are None unless
    requested.  Invariants maintained throughout: U*M*V == S,
    U*Uinv == I, Vinv*V == I.
    """
    rows, cols = m.rows, m.cols
    s = [row[:] for row in m.a]
    u = identity(rows).a
    v = identity(cols).a
    uinv = identity(rows).a if want_inverses else None
    vinv = identity(cols).a if want_inverses else None

    def row_add(i, j, q):
        # R_i += q*R_j on S and U; inverse column op on Uinv.
        si, sj = s[i], s[j]
        for c in range(cols):
            si[c] += q * sj[c]
        ui, uj = u[i], u[j]
        for c in range(rows):
            ui[c] += q * uj[c]
        if uinv is not None:
            for r in range(rows):
                uinv[r][j] -= q * uinv[r][i]

    def col_add(j, i, q):
        # C_j += q*C_i on S and V; inverse row op on Vinv.
        for r in range(rows):
            s[r][j] += q * s[r][i]
        for r in range(cols):
            v[r][j] += q * v[r][i]
        if vinv is not None:
            vi, vj = vinv[i], vinv[j]
            for c in range(cols):
                vi[c] -= q * vj[c]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        if uinv is not None:
            for r in range(rows):
                uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def col_swap(i, j):
        for r in range(rows):
            s[r][i], s[r][j] = s[r][j], s[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        if vinv is not None:
            vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_negate(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]
        if uinv is not None:
            for r in range(rows):
                uinv[r][i] = -uinv[r][i]

    n = min(rows, cols)
    for t in range(n):
        # Pivot: smallest nonzero |entry| in the trailing block.
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = s[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
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
                    q = s[i][t] // s[t][t]
                    row_add(i, t, -q)
                    if s[i][t] != 0:
                        row_swap(i, t)
                        dirty = True
            if dirty:
                continue
            # Clear row t with Euclidean column steps.
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    col_add(j, t, -q)
                    if s[t][j] != 0:
                        col_swap(j, t)
                        dirty = True
            if dirty:
                continue
            # Fold in any entry the pivot does not divide yet.
            d = s[t][t]
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if s[i][j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if s[t][t] < 0:
            row_negate(t)

    return (
        Mat(u, rows),
        Mat(s, cols),
        Mat(v, cols),
        Mat(uinv, rows) if want_inverses else None,
        Mat(vinv, cols) if want_inverses else None,
    )


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
    u, s, v, _, _ = _smith(m, want_inverses=False)
    return u, s, v


def smith_with_inverses(m: Mat):
    """Like :func:`smith_normal_form` but also returns Uinv and Vinv."""
    return _smith(m, want_inverses=True)


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
    _, s, v, _, _ = _smith(m, want_inverses=False)
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
    u, s, v, _, _ = _smith(m, want_inverses=False)
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


def random_unimodular(n: int, rng, steps: int | None = None):
    """A random unimodular matrix together with its inverse.

    Built from elementary shears, swaps and sign flips so the inverse
    is tracked exactly.
    """
    a = identity(n).a
    ainv = identity(n).a
    if n == 0:
        return Mat(a), Mat(ainv)
    if steps is None:
        steps = 3 * n + 4
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            q = rng.choice([-2, -1, 1, 2])
            for c in range(n):
                a[i][c] += q * a[j][c]
            for r in range(n):
                ainv[r][j] -= q * ainv[r][i]
        elif kind == 1 and i != j:
            a[i], a[j] = a[j], a[i]
            for r in range(n):
                ainv[r][i], ainv[r][j] = ainv[r][j], ainv[r][i]
        elif kind == 2:
            a[i] = [-x for x in a[i]]
            for r in range(n):
                ainv[r][i] = -ainv[r][i]
    return Mat(a, n), Mat(ainv, n)
