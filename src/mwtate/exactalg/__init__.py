"""Exact linear algebra over Z: integer matrices, free cochain complexes,
presented and formal abelian groups."""

from .complexes import (
    ConePair,
    FreeCell,
    FreeComplex,
    NonComposable,
    cohomology_of_summands,
    decompose_free_complex,
    integer_cohomology,
)
from .groups import (
    FormalGroup,
    GradedGroup,
    factor_prime_powers,
    graded_kunneth,
    split_dyadic,
)
from .intmat import smith_normal_form
from .presented import PresentedGroup

__all__ = [
    "ConePair",
    "FormalGroup",
    "FreeCell",
    "FreeComplex",
    "GradedGroup",
    "NonComposable",
    "PresentedGroup",
    "cohomology_of_summands",
    "decompose_free_complex",
    "factor_prime_powers",
    "graded_kunneth",
    "integer_cohomology",
    "smith_normal_form",
    "split_dyadic",
]
