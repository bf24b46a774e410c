"""Bockstein spectral sequence machinery: page tables (``pages``), page
analysis on fiber models (``analysis``, ``fibers``), the Bockstein exact
couple (``couple``) and the symbolic square-zero check (``steenrod``).

The package re-exports the names in ``__all__`` and imports the submodule
that defines one the first time the name is looked up, so a caller loads
only the layers it uses: the ``pages`` and ``pbundle-hp1`` verbs load
``bockstein.pages`` and nothing else here.
"""

import sys
import types

from .. import _lazy_exports

__all__, __getattr__ = _lazy_exports(globals(), {
    "analysis": (
        "CheckReport", "KunnethReport", "VGroupResult",
        "kunneth_e2", "leibniz_check", "truncated_check", "v_group",
    ),
    "couple": (
        "CoupleAnalysis", "ExactCouple", "InexactCouple",
        "bockstein_couple", "couple_analyze", "couple_derive",
    ),
    "pages": (
        "Page", "PageTooSmall", "Tower",
        "block_pages", "degeneracy_page", "pages", "pages_from_witt", "tower",
    ),
    "steenrod": ("DSquareReport", "steenrod_dsquare_check"),
})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # importing the submodule ``pages`` would bind the module to the
        # package's name ``pages``, which belongs to the function
        if name == "pages" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
