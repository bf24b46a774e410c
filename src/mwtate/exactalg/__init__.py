"""Exact linear algebra over Z and F2: integer matrices, free cochain
complexes, presented and formal abelian groups, bitmask elimination (f2).

The package re-exports the names in ``__all__`` and, like
``mwtate.bockstein``, imports the submodule that defines one the first time
the name is looked up; ``exactalg.intmat`` and the other submodules load the
same way.  So only the code that builds a matrix loads ``intmat``.
"""

from .. import _lazy_exports

__all__, __getattr__ = _lazy_exports(globals(), {
    "complexes": (
        "ConePair", "FreeCell", "FreeComplex", "NonComposable",
        "cohomology_of_summands", "decompose_free_complex", "integer_cohomology",
    ),
    "groups": (
        "FormalGroup", "GradedGroup", "factor_prime_powers", "graded_kunneth", "split_dyadic",
    ),
    "f2": (), "intmat": ("smith_normal_form",), "presented": ("PresentedGroup",),
})
