"""Exact linear algebra over Z and over Z/2[rho]."""

from .complexes import (
    ConePair,
    FreeCell,
    FreeComplex,
    NonComposable,
    cohomology_of_summands,
    decompose_free_complex,
    integer_cohomology,
    reassemble,
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
from .rho import RhoComplex, RhoSummand, cone_tower, free_tower, rho_module_tensor

__all__ = [
    "ConePair",
    "FormalGroup",
    "FreeCell",
    "FreeComplex",
    "GradedGroup",
    "NonComposable",
    "PresentedGroup",
    "RhoComplex",
    "RhoSummand",
    "cohomology_of_summands",
    "cone_tower",
    "decompose_free_complex",
    "factor_prime_powers",
    "free_tower",
    "graded_kunneth",
    "integer_cohomology",
    "reassemble",
    "rho_module_tensor",
    "smith_normal_form",
    "split_dyadic",
]
