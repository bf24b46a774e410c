"""mwtate: exact block calculus for Tate cell complexes over a Euclidean base.

Decides the canonical direct-sum normal form of integer eta-attachment
cell complexes, computes their Chow/Witt/mod-2 invariants and Bockstein
page tables, derives the Bockstein exact couple of integer cohomology,
and classifies rank-n bundles on HP^1 by Euler-class data.
"""

import importlib

__version__ = "0.1.0"


def _lazy_exports(namespace, exports):
    """``__all__`` and a module ``__getattr__`` (PEP 562) for the package with
    globals ``namespace`` that re-exports ``exports``, {submodule: names}.

    A name, or one of the submodules, is imported the first time it is looked
    up; a name is then bound in ``namespace``, so later lookups find it there.
    CPython 3.11 does not specialize attribute reads on a module that defines
    ``__getattr__``, so a loop reads such a name once, before it starts."""
    package = namespace["__name__"]
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        module = home.get(name, name)
        if module not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(f"{package}.{module}")
        if name in home:
            value = namespace[name] = getattr(value, name)
        return value

    return sorted(home), __getattr__
