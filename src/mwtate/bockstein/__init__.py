"""Bockstein spectral sequence machinery: page tables, page analysis,
the Bockstein exact couple, and the symbolic square-zero check."""

from .analysis import (
    CheckReport,
    KunnethReport,
    VGroupResult,
    kunneth_e2,
    leibniz_check,
    truncated_check,
    v_group,
)
from .couple import (
    CoupleAnalysis,
    ExactCouple,
    InexactCouple,
    bockstein_couple,
    couple_analyze,
    couple_derive,
)
from .pages import (
    Page,
    PageTooSmall,
    Tower,
    WittProfile,
    block_pages,
    degeneracy_page,
    pages,
    pages_from_witt,
    tower,
)
from .steenrod import DSquareReport, steenrod_dsquare_check

__all__ = [
    "CheckReport",
    "CoupleAnalysis",
    "DSquareReport",
    "ExactCouple",
    "InexactCouple",
    "KunnethReport",
    "Page",
    "PageTooSmall",
    "Tower",
    "VGroupResult",
    "WittProfile",
    "block_pages",
    "bockstein_couple",
    "couple_analyze",
    "couple_derive",
    "degeneracy_page",
    "kunneth_e2",
    "leibniz_check",
    "pages",
    "pages_from_witt",
    "steenrod_dsquare_check",
    "tower",
    "truncated_check",
    "v_group",
]
