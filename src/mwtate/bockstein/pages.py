"""Closed-form Bockstein page tables and the Z/2[rho] piece calculus.

Every page of every block is a direct sum of rho-cyclic towers: a tower
based at bidegree (p, q) with height h occupies (p+k, q+k) for
0 <= k < h (h = None meaning infinite), and rho acts by moving up the
tower.  The only differentials live on the page matching a dyadic
exponent: at page j+1 the u-tower of a 2^j cone maps onto rho^j times
its v-tower; everything else is zero.

Over R = Z/2[rho] each block contributes one standard piece per page, a
tuple (kind, exponent, degree): a lone free tower R, the two-term
complexes S (R, R with zero differential) and S_j (R --rho^j--> R) in
degrees (d, d+1), or a lone truncated tower T = R/rho^j in degree d.
The degree d of a piece is the weight of its lowest tower, based at
(2d, d).

One builder turns a sum of pieces into a page, for a block, a normal
form and Witt cohomology alike; a Z/2^j Witt summand is read as the 2^j
eta cone one degree below it, so it shares the cone's page rule.
"""

from __future__ import annotations

import operator

from ..exactalg.groups import GradedGroup, split_dyadic
from ..motives import DyadicEta, Free, NormalForm
from ..values import Frozen, Ordered


class PageTooSmall(ValueError):
    """Page tables start at the second page."""


INF = None  # tower height marker


class Tower(Ordered):
    __slots__ = _fields = ("p", "q", "height_key", "label")

    def __init__(self, p: int, q: int, height_key: int, label: str):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "height_key", height_key)  # 0: infinite, else the height
        object.__setattr__(self, "label", label)

    @property
    def height(self):
        return INF if self.height_key == 0 else self.height_key

    def covers(self, p: int, q: int) -> bool:
        k = q - self.q
        if k < 0 or p - self.p != k:
            return False
        return self.height_key == 0 or k < self.height_key

    def infinite(self) -> bool:
        return self.height_key == 0


TOWER_TABLE_SIZE = 1024
_towers: dict = {}  # (p, q, height_key, label) -> the one Tower of that value


def tower(p: int, q: int, height=INF, label: str = "plain") -> Tower:
    """The tower based at (p, q) with this height (INF: infinite) and label.

    p, q and the height go through ``operator.index``, so a float is
    refused before anything is looked up.  Towers are frozen, and each
    value is one shared Tower from a table of at most TOWER_TABLE_SIZE
    entries, emptied when full: the pages of a normal form, the Witt
    pages and the fiber models reuse the towers they met before.
    """
    key = (operator.index(p), operator.index(q), 0 if height is INF else operator.index(height), label)
    t = _towers.get(key)
    if t is None:
        if len(_towers) >= TOWER_TABLE_SIZE:
            _towers.clear()
        t = _towers[key] = Tower(*key)
    return t


class Page(Frozen):
    """One page: towers plus the rho-power arrows of its differential.

    Arrows are stored as (source tower, target tower, rho power); the
    differential sends offset k of the source onto offset k + power of
    the target, which matches the bidegree shift (index+1, index).
    Pages are equal when their sorted towers and arrows are.
    """

    __slots__ = _fields = ("index", "towers", "arrows")

    def __init__(self, index: int, towers: tuple, arrows: tuple):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "towers", towers)
        object.__setattr__(self, "arrows", arrows)

    def dim(self, p: int, q: int) -> int:
        return sum(1 for t in self.towers if t.covers(p, q))

    def differential_rank(self, p: int, q: int) -> int:
        """Rank of the page differential out of bidegree (p, q).

        Arrows join distinct tower pairs, so the rank is the number of
        arrows whose source covers (p, q) and whose image entry is
        nonzero on the target tower.
        """
        rank = 0
        for src, dst, power in self.arrows:
            if src.covers(p, q):
                k = q - src.q
                if dst.covers(dst.p + k + power, dst.q + k + power):
                    rank += 1
        return rank

    def canonical(self) -> tuple:
        return (
            self.index,
            tuple(sorted(self.towers)),
            tuple(sorted((s, d, power) for s, d, power in self.arrows)),
        )

    _key = staticmethod(canonical)


R_PIECE = "R"
S_PIECE = "S"
SJ_PIECE = "Sj"
T_PIECE = "T"


def _cone_piece(i: int, j: int, w: int):
    """The page-i piece of the cone of 2^j eta on weight w: S up to page
    j, S_j with its rho^j arrow on page j+1, R/rho^j one row up after."""
    if i <= j:
        return (S_PIECE, 0, w)
    if i == j + 1:
        return (SJ_PIECE, j, w)
    return (T_PIECE, j, w + 1)


def block_piece(block, i: int):
    """The piece (kind, exponent, degree) one atomic block is on page i,
    or None when the block vanishes mod 2.

    >>> block_piece(DyadicEta(2, 0), 3), block_piece(DyadicEta(2, 0), 4)
    (('Sj', 2, 0), ('T', 2, 1))
    """
    if isinstance(block, Free):
        return (R_PIECE, 0, block.weight)
    if not isinstance(block, DyadicEta) or block.t == 0:
        # odd blocks vanish mod 2; Sq2 is an isomorphism on the plain eta cone
        return None
    return _cone_piece(i, block.t, block.weight)


def _page(i: int, pieces) -> Page:
    """Page i of a sum of pieces, as towers and arrows; None pieces vanish.
    An iterator of pieces is read only once the page index is checked."""
    i = operator.index(i)
    if i < 2:
        raise PageTooSmall(f"pages start at 2, got {i}")
    towers = []
    arrows = []
    for kind, j, d in filter(None, pieces):
        if kind == R_PIECE:
            towers.append(tower(2 * d, d))
        elif kind == T_PIECE:
            towers.append(tower(2 * d, d, j, "v"))
        else:
            u = tower(2 * d, d, INF, "u")
            v = tower(2 * d + 2, d + 1, INF, "v")
            towers += (u, v)
            if kind == SJ_PIECE:
                arrows.append((u, v, j))
    return Page(i, tuple(towers), tuple(arrows))


def block_pages(block, i: int) -> Page:
    """The page-i table of one atomic block: its piece as towers and arrows.

    >>> pg = block_pages(DyadicEta(2, 0), 4)
    >>> pg.towers
    (Tower(p=2, q=1, height_key=2, label='v'),)
    """
    return _page(i, [block_piece(block, i)])


def _resolved(piece):
    """T_j(d) = R/rho^j as its free resolution S_j(d-1); others unchanged."""
    kind, j, d = piece
    return (SJ_PIECE, j, d - 1) if kind == T_PIECE else piece


def tensor_pieces(xs, ys):
    """Tensor product over Z/2[rho] of two sums of pieces, as pieces.

    R is the unit, S (x) S = S + S[1], and a cone against anything
    two-term gives S_m + S_m[1] with m the smallest cone exponent.  A
    truncated T_j(d) enters through its free resolution S_j(d-1), so
    with T pieces the result computes the derived tensor product.

    >>> tensor_pieces([(S_PIECE, 0, 0)], [(S_PIECE, 0, 0)])
    [('S', 0, 0), ('S', 0, 1)]
    >>> tensor_pieces([(SJ_PIECE, 1, 0)], [(SJ_PIECE, 1, 0)])
    [('Sj', 1, 0), ('Sj', 1, 1)]
    """
    xs = [_resolved(x) for x in xs]
    ys = [_resolved(y) for y in ys]
    out = []
    for kx, jx, dx in xs:
        for ky, jy, dy in ys:
            d = dx + dy
            if kx == R_PIECE:
                out.append((ky, jy, d))
            elif ky == R_PIECE:
                out.append((kx, jx, d))
            else:
                js = [j for k, j in ((kx, jx), (ky, jy)) if k == SJ_PIECE]
                kind, j = (SJ_PIECE, min(js)) if js else (S_PIECE, 0)
                out.append((kind, j, d))
                out.append((kind, j, d + 1))
    return sorted(out)


def derived_pieces(xs):
    """Homology as lone pieces: S = R + R[1], S_j = R/rho^j on top.

    >>> derived_pieces([(S_PIECE, 0, 0), (S_PIECE, 0, 1)])
    [('R', 0, 0), ('R', 0, 1), ('R', 0, 1), ('R', 0, 2)]
    >>> derived_pieces([(SJ_PIECE, 1, 0), (SJ_PIECE, 1, 1)])
    [('T', 1, 1), ('T', 1, 2)]
    """
    out = []
    for k, j, d in xs:
        if k == S_PIECE:
            out.append((R_PIECE, 0, d))
            out.append((R_PIECE, 0, d + 1))
        elif k == SJ_PIECE:
            out.append((T_PIECE, j, d + 1))
        else:
            out.append((k, j, d))
    return sorted(out)


def page_pieces(a: NormalForm, i: int):
    """The pieces of the blocks of ``a`` on page i that do not vanish mod 2."""
    return filter(None, (block_piece(b, i) for b in a.blocks))


def pages(a: NormalForm, i: int) -> Page:
    """Direct sum of the block tables of a normal form."""
    return _page(i, page_pieces(a, i))


def pages_from_witt(h: GradedGroup, i: int) -> Page:
    """Page tables recovered from the Witt cohomology groups alone.

    A free Z in cochain degree d is the piece R in degree d, and a cyclic
    summand of order 2^j s, s odd and j >= 1, in degree d is the page-i
    piece of the cone of 2^j eta on weight d-1, the same pieces the blocks
    give; per degree the R pieces come first, then the cones by j.  Odd
    torsion is invisible.

    >>> h = GradedGroup({0: __import__('mwtate').exactalg.FormalGroup.free(1)})
    >>> len(pages_from_witt(h, 5).towers)
    1
    """
    return _page(i, (
        piece
        for d, grp in h.items()
        for piece in [(R_PIECE, 0, d)] * grp.free_rank + [
            _cone_piece(i, j, d - 1)
            for j in sorted(split_dyadic(c)[0] for c in grp.torsion if c % 2 == 0)
        ]
    ))


def degeneracy_page(a: NormalForm) -> int:
    """The page index from which the tables are constant.

    Equals r + 2, where r is the largest t of a Z/2^t eta cone among
    the blocks (r = 0 when there is none): the last nonzero differential
    is that cone's d_(r+1).  The same r gives the largest Z/2^r summand
    of the Witt cohomology, since only those cones contribute 2-torsion.

    >>> degeneracy_page(NormalForm([Free(0), DyadicEta(3, 1)]))
    5
    """
    return max((b.t for b in a if isinstance(b, DyadicEta)), default=0) + 2
