"""Linear algebra over F2 on bitmask vectors: the one mod-2 elimination.

A vector is an int, one bit per coordinate.  A span is kept as a reduced
echelon basis, a dict from top bit to vector with each top bit set in its
own vector only: the same dict, whatever the order of the vectors.  The
module imports nothing.
"""


def reduce(vec: int, basis: dict) -> int:
    """The remainder of ``vec`` modulo the span of ``basis``."""
    for t, b in basis.items():
        if vec >> t & 1:
            vec ^= b
    return vec


def insert(vec: int, basis: dict) -> int:
    """Add ``vec`` to the span of ``basis`` in place, keeping it reduced;
    returns the remainder of ``vec``, 0 when it was in the span."""
    vec = reduce(vec, basis)
    if vec:
        t = vec.bit_length() - 1
        for u, b in basis.items():
            if b >> t & 1:
                basis[u] = b ^ vec
        basis[t] = vec
    return vec


def image(cols: list, vec: int) -> int:
    """Image of ``vec`` under the matrix with these columns, bit k column k."""
    out = 0
    for k, col in enumerate(cols):
        if vec >> k & 1:
            out ^= col
    return out


def kernel(pairs, modulo: dict) -> list:
    """Basis of the vectors in the span of ``pairs``, (vector, image) with
    independent vectors, whose image lies in the span of ``modulo``: each
    image, reduced modulo it, walks down its top bits against the earlier
    (image, vector) pivots, which are never reduced once set.

    >>> kernel([(0b01, 0b1), (0b10, 0b1), (0b100, 0b10)], {1: 0b10})
    [3, 4]
    """
    pivots = {}  # top bit of the image -> (image, vector)
    out = []
    for vec, img in pairs:
        img = reduce(img, modulo)
        while img:
            t = img.bit_length() - 1
            if t not in pivots:
                pivots[t] = img, vec
                break
            pimg, pvec = pivots[t]
            img ^= pimg
            vec ^= pvec
        else:
            out.append(vec)
    return out


def hermite(vecs, n: int) -> list:
    """The rows of the column Hermite form of 2Z^n plus the lifts of the
    vectors below bit n in the span of ``vecs``, bit n - 1 - r row r: the
    only one of a lattice holding 2Z^n, the reduced echelon vector at each
    pivot row and 2e_r at the others."""
    basis = {}
    for v in vecs:
        insert(v, basis)
    pivot = {n - 1 - t: v for t, v in basis.items() if t < n}  # row -> vector
    return [[pivot[c] >> (n - 1 - r) & 1 if c in pivot else 2 * (r == c) for c in range(n)]
            for r in range(n)]
