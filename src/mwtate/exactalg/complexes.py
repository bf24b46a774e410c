"""Bounded complexes of free Z-modules with adjacent-degree differentials.

The only complexes handled here have a differential from degree w+1
into degree w and nothing else, which is exactly the shape cell
attachments produce.  Such a complex splits, degree by degree, into
lone free cells and two-term cones [Z --n--> Z], one cone per nonzero
invariant factor of each differential; cones with n = 1 are kept,
never dropped.  Cohomology is read off that split by one closed form,
``cohomology_of_summands``, which the Witt cohomology of blocks shares.
"""

from __future__ import annotations

import operator

from .. import exactalg
from ..values import Frozen
from .groups import FormalGroup, GradedGroup, graded_kunneth


class NonComposable(ValueError):
    """Consecutive differentials do not compose to zero."""


class FreeCell(Frozen):
    """A lone generator in a single degree."""

    __slots__ = _fields = ("degree",)

    def __init__(self, degree: int):
        object.__setattr__(self, "degree", degree)


class ConePair(Frozen):
    """Generators in degrees (lower, lower+1) with differential n >= 1."""

    __slots__ = _fields = ("n", "lower_degree")

    def __init__(self, n: int, lower_degree: int):
        if n < 1:
            raise ValueError("cone multiplier must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lower_degree", lower_degree)


class FreeComplex:
    """Free modules ``ranks[w]`` with differentials C_{w+1} -> C_w.

    ``diffs[w]`` is a ranks[w] x ranks[w+1] integer matrix, a :class:`Mat`
    or a list of rows (copied); :meth:`from_rows` takes sparse rows.  Each
    nonzero differential is kept as ``rows[w]``, one {column: entry} dict
    per row, and composition and decomposition read only those rows;
    ``differential(w)`` is the matrix given, or one built from the rows on
    request and kept.  Missing entries denote zero modules and zero maps.
    """

    __slots__ = ("ranks", "rows", "_mats", "_defects")

    def __init__(self, ranks, diffs=None):
        self.ranks = {operator.index(w): operator.index(r) for w, r in ranks.items() if r}
        self.rows, self._mats, self._defects = {}, {}, None
        for w, m in (diffs or {}).items():
            w = operator.index(w)
            if not isinstance(m, exactalg.intmat.Mat):
                m = exactalg.intmat.Mat([list(row) for row in m], self.rank(w + 1))
            self._keep(w, exactalg.intmat.sparse_rows(m), m.cols)
            if w in self.rows:
                self._mats[w] = m

    @classmethod
    def from_rows(cls, ranks, rows) -> FreeComplex:
        """The complex with the sparse rows ``rows[w]`` at weight w:
        ranks[w] {column: entry} dicts of nonzero entries, not copied."""
        c = cls(ranks)
        for w, a in rows.items():
            width = max((j + 1 for r in a for j in r), default=0)
            c._keep(w, a, max(width, c.rank(w + 1)))
        return c

    def _keep(self, w, rows, cols):
        """Check the shape of ``rows``, ``cols`` wide; keep them if nonzero."""
        if (len(rows), cols) != (self.rank(w), self.rank(w + 1)):
            raise ValueError(
                f"differential at weight {w} has shape {len(rows)}x{cols}, "
                f"expected {self.rank(w)}x{self.rank(w + 1)}"
            )
        if any(rows):
            self.rows[w] = rows

    def weights(self) -> list[int]:
        return sorted(self.ranks)

    def rank(self, w: int) -> int:
        return self.ranks.get(w, 0)

    def differential(self, w: int) -> exactalg.intmat.Mat:
        intmat = exactalg.intmat
        if w not in self.rows:
            return intmat.zeros(self.rank(w), self.rank(w + 1))
        if w not in self._mats:
            n = self.rank(w + 1)
            self._mats[w] = intmat.Mat([[r.get(j, 0) for j in range(n)] for r in self.rows[w]], n)
        return self._mats[w]

    def composition_defects(self) -> list[tuple[int, int, int]]:
        """(w, r, s) for each nonzero entry (r, s) of the product of the
        differentials at w and w+1, by ascending w, then r, then s; computed
        once, on the sparse rows."""
        if self._defects is None:
            self._defects = [
                (w, r, s)
                for w in sorted(self.rows)
                if w + 1 in self.rows
                for r, s in _product_support(self.rows[w], self.rows[w + 1])
            ]
        return self._defects

    def check_composable(self):
        for w, _, _ in self.composition_defects()[:1]:
            raise NonComposable(
                f"differentials at weights {w + 1} and {w} do not compose to zero"
            )


def _product_support(lower, upper):
    """Positions (r, s) of the nonzero entries of the product of two
    matrices given as sparse rows ({column: entry} dicts), row by row."""
    for r, row in enumerate(lower):
        acc = {}
        for j, x in row.items():
            for s, y in upper[j].items():
                acc[s] = acc.get(s, 0) + x * y
        nonzero = [s for s, x in acc.items() if x]
        if nonzero:
            yield from ((r, s) for s in sorted(nonzero))


def decompose_free_complex(c: FreeComplex) -> list[FreeCell | ConePair]:
    """Split ``c`` into FreeCell and ConePair summands.

    Over Z the image of diffs[w] lies in the kernel of diffs[w-1], which
    is a direct summand, so the complex splits weight by weight: the
    cones at weight w are the nonzero invariant factors of diffs[w]
    alone, and the free cells at w number rank_w - r_w - r_{w-1}, where
    r_w is the rank of diffs[w].  No base change is carried between
    weights.  A non-composable complex raises NonComposable.

    >>> c = FreeComplex({0: 1, 1: 1}, {0: [[6]]})
    >>> decompose_free_complex(c)
    [ConePair(n=6, lower_degree=0)]
    """
    c.check_composable()
    invariants = exactalg.intmat._row_invariants  # read once: see mwtate._lazy_exports
    cones = {w: invariants([dict(r) for r in a]) for w, a in c.rows.items()}
    summands: list[FreeCell | ConePair] = []
    for w in c.weights():
        here = cones.get(w, [])
        summands.extend(ConePair(d, w) for d in here)
        free = c.rank(w) - len(here) - len(cones.get(w - 1, ()))
        summands.extend(FreeCell(w) for _ in range(free))
    return sorted(summands, key=_summand_key)


def _summand_key(s):
    if isinstance(s, FreeCell):
        return (0, s.degree, 0)
    return (1, s.lower_degree, s.n)


def integer_cohomology(c: FreeComplex, modulus: int = 0) -> GradedGroup:
    """Cohomology of the dual complex with Z (modulus 0) or Z/m coefficients,
    read off the split: ``cohomology_of_summands(decompose_free_complex(c), m)``.

    So H^d(C; Z) is Z^(n_d - r_d - r_(d-1)) plus Z/e for each invariant
    factor e of diffs[d-1], and Z/m coefficients follow by universal
    coefficients.  Only invariant factors are computed: no kernel and no
    presented group.  A non-composable complex raises NonComposable.

    >>> c = FreeComplex({0: 1, 1: 1}, {0: [[2]]})
    >>> integer_cohomology(c).items()
    [(1, FormalGroup(free_rank=0, torsion=(2,)))]
    """
    return cohomology_of_summands(decompose_free_complex(c), modulus)


def cohomology_of_summands(summands, modulus: int = 0) -> GradedGroup:
    """Cohomology of the direct sum of ``summands``, in closed form.

    Cochain convention: FreeCell(w) gives Z in degree w and ConePair(n, w)
    gives Z/n in degree w+1 (nothing for n = 1).  A modulus m != 0 applies
    universal coefficients, ``graded_kunneth(h, Z/m in degree 0)``: H^d
    tensor Z/m stays in degree d, and Tor(H^d, Z/m) lands in degree d-1.

    >>> cohomology_of_summands([ConePair(4, 1)], 2).items()
    [(1, FormalGroup(free_rank=0, torsion=(2,))), (2, FormalGroup(free_rank=0, torsion=(2,)))]
    """
    if modulus < 0:
        raise ValueError("modulus must be nonnegative")
    data: dict[int, FormalGroup] = {}
    for s in summands:
        if isinstance(s, FreeCell):
            deg, grp = s.degree, FormalGroup.free(1)
        elif s.n > 1:
            deg, grp = s.lower_degree + 1, FormalGroup.cyclic(s.n)
        else:
            continue
        data[deg] = data[deg].direct_sum(grp) if deg in data else grp
    h = GradedGroup(data)
    if modulus == 0:
        return h
    return graded_kunneth(h, GradedGroup({0: FormalGroup.cyclic(modulus)}))
