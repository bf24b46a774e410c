"""Finitely presented abelian groups over Z.

A group is Z^n modulo the column span of an n x r relation matrix.
Subgroups are carried around as generator matrices inside an ambient
presentation.  Every question about elements is asked of all of them
at once, one column each, against the one matrix [gens | rels] by
:mod:`mwtate.exactalg.intmat`: membership (do they lie in a subgroup)
reduces them by the echelon pivots of that matrix, and coordinates in
the subgroup solve [gens | rels] X = B by the echelon pivots of
[gens | rels; I].  Invariants come from the invariant factors of the
relations.
"""

from __future__ import annotations

from ..values import Record
from . import intmat
from .groups import FormalGroup
from .intmat import Mat


class PresentedGroup(Record):
    """Z^ngens / colspan(rels); rels has ngens rows (none: a free group).

    ``rels`` may also come as a list of rows; it is stored as a
    column-reduced :class:`Mat`.
    """

    __slots__ = _fields = ("ngens", "rels")

    def __init__(self, ngens: int, rels: Mat | None = None):
        if rels is None:
            rels = intmat.zeros(ngens, 0)
        elif not isinstance(rels, Mat):
            rels = Mat(rels)
        if rels.rows != ngens:
            raise ValueError("relation matrix must have one row per generator")
        # keep relation entries small; the column lattice is unchanged
        self.ngens = ngens
        self.rels = intmat.column_reduce(rels) if rels.cols else rels

    @classmethod
    def of_hermite(cls, ngens: int, rels: Mat) -> PresentedGroup:
        """Z^ngens / colspan(rels) for ``rels`` in column Hermite form, as
        :func:`intmat.kernel_mod_lattice` returns it: kept as it is."""
        group = cls.__new__(cls)
        group.ngens, group.rels = ngens, rels
        return group

    def invariants(self) -> FormalGroup:
        nonzero = intmat.invariant_factors(self.rels)
        free = self.ngens - len(nonzero)
        return FormalGroup.from_invariants([0] * free + nonzero)

    def contains_subgroup(self, gens_a: Mat, gens_b: Mat) -> bool:
        """Whether every column of gens_b lies in <gens_a> + rels, by one
        lattice membership test against [gens_a | rels]."""
        return all(intmat.lattice_contains(intmat.hstack(gens_a, self.rels), gens_b))

    def subgroups_equal(self, gens_a: Mat, gens_b: Mat) -> bool:
        return self.contains_subgroup(gens_a, gens_b) and self.contains_subgroup(
            gens_b, gens_a
        )

    def express(self, gens: Mat, images: Mat) -> Mat | None:
        """Coordinates of the columns of ``images`` in the columns of
        ``gens`` modulo the relations, one column each, or None if some
        column is not in that subgroup.  One solve of
        [gens | rels] X = images; the top ``gens.cols`` rows of X are the
        coordinates."""
        sol = intmat.solve_columns(intmat.hstack(gens, self.rels), images)
        if sol is None:
            return None
        return Mat(sol.a[: gens.cols], sol.cols)
