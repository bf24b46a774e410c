"""mwtate: exact block calculus for Tate cell complexes over a Euclidean base.

Decides the canonical direct-sum normal form of integer eta-attachment
cell complexes, computes their Chow/Witt/mod-2 invariants and Bockstein
page tables, derives the Bockstein exact couple of integer cohomology,
and classifies rank-n bundles on HP^1 by Euler-class data.
"""

__version__ = "0.1.0"
