"""Bounded complexes of free Z-modules with adjacent-degree differentials.

The only complexes handled here have a differential from degree w+1
into degree w and nothing else, which is exactly the shape cell
attachments produce.  Such a complex splits, by an iterated Smith
normal form sweep from the bottom degree up, into lone free cells and
two-term cones [Z --n--> Z]; cones with n = 1 are kept, never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intmat
from .groups import GradedGroup
from .intmat import Mat
from .presented import PresentedGroup


class NonComposable(ValueError):
    """Consecutive differentials do not compose to zero."""


@dataclass(frozen=True)
class FreeCell:
    """A lone generator in a single degree."""

    degree: int


@dataclass(frozen=True)
class ConePair:
    """Generators in degrees (lower, lower+1) with differential n >= 1."""

    n: int
    lower_degree: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cone multiplier must be positive")


class FreeComplex:
    """Free modules ``ranks[w]`` with differentials C_{w+1} -> C_w.

    ``diffs[w]`` is a ranks[w] x ranks[w+1] integer matrix, a
    :class:`Mat` or a list of rows (copied).  Missing entries denote zero
    modules and zero maps.
    """

    __slots__ = ("ranks", "diffs")

    def __init__(self, ranks, diffs=None):
        self.ranks = {int(w): int(r) for w, r in ranks.items() if r}
        self.diffs = {}
        for w, m in (diffs or {}).items():
            w = int(w)
            if not isinstance(m, Mat):
                m = Mat([list(row) for row in m], self.rank(w + 1))
            if (m.rows, m.cols) != (self.rank(w), self.rank(w + 1)):
                raise ValueError(
                    f"differential at weight {w} has shape {m.rows}x{m.cols}, "
                    f"expected {self.rank(w)}x{self.rank(w + 1)}"
                )
            if not intmat.is_zero_matrix(m):
                self.diffs[w] = m

    def weights(self) -> list[int]:
        return sorted(self.ranks)

    def rank(self, w: int) -> int:
        return self.ranks.get(w, 0)

    def differential(self, w: int) -> Mat:
        if w in self.diffs:
            return self.diffs[w]
        return intmat.zeros(self.rank(w), self.rank(w + 1))

    def check_composable(self):
        for w in self.weights():
            prod = intmat.matmul(self.differential(w), self.differential(w + 1))
            if not intmat.is_zero_matrix(prod):
                raise NonComposable(
                    f"differentials at weights {w + 1} and {w} do not compose to zero"
                )


def decompose_free_complex(c: FreeComplex) -> list[FreeCell | ConePair]:
    """Split ``c`` into FreeCell and ConePair summands.

    Sweeps weights from the bottom: Smith normal form of the incoming
    differential splits off one cone per nonzero diagonal entry, and
    composability forces the base-changed next differential to vanish
    on the consumed generators.  The sweep tests exactly that, so a
    non-composable complex raises NonComposable.  Where the next
    differential is zero no base change is read, and the invariant
    factors alone are computed.

    >>> c = FreeComplex({0: 1, 1: 1}, {0: [[6]]})
    >>> decompose_free_complex(c)
    [ConePair(n=6, lower_degree=0)]
    """
    summands: list[FreeCell | ConePair] = []
    rank_left = dict(c.ranks)
    pending = {w: c.differential(w) for w in c.weights()}
    for w in c.weights():
        n_here = rank_left.get(w, 0)
        n_above = rank_left.get(w + 1, 0)
        m = pending[w]
        if n_here == 0:
            continue
        if n_above == 0:
            summands.extend(FreeCell(w) for _ in range(n_here))
            rank_left[w] = 0
            continue
        moved = pending[w + 1]
        if intmat.is_zero_matrix(moved):
            diag = intmat.invariant_factors(m)
        else:
            _, s, _, _, vinv = intmat._smith(m, vinv=True)
            diag = [d for d in intmat.diagonal(s) if d]
            moved = intmat.matmul(vinv, moved)
        r = len(diag)
        summands.extend(ConePair(d, w) for d in diag)
        summands.extend(FreeCell(w) for _ in range(n_here - r))
        rank_left[w] = 0
        rank_left[w + 1] = n_above - r
        if any(any(row) for row in moved.a[:r]):
            raise NonComposable(
                f"differentials at weights {w + 2} and {w + 1} do not compose to zero"
            )
        pending[w + 1] = Mat(moved.a[r:], moved.cols)
    return sorted(summands, key=_summand_key)


def _summand_key(s):
    if isinstance(s, FreeCell):
        return (0, s.degree, 0)
    return (1, s.lower_degree, s.n)


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


def integer_cohomology(c: FreeComplex, modulus: int = 0) -> GradedGroup:
    """Cohomology of the dual complex with Z (modulus 0) or Z/m coefficients.

    Cochain convention: a ConePair(n, w) summand contributes Z/n in
    degree w+1 integrally, and a FreeCell(w) contributes Z in degree w.

    >>> c = FreeComplex({0: 1, 1: 1}, {0: [[2]]})
    >>> integer_cohomology(c).items()
    [(1, FormalGroup(free_rank=0, torsion=(2,)))]
    """
    if modulus < 0:
        raise ValueError("modulus must be nonnegative")
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


def cohomology_of_summands(summands, modulus: int = 0) -> GradedGroup:
    """integer_cohomology of the reassembled direct sum."""
    return integer_cohomology(reassemble(summands), modulus)
