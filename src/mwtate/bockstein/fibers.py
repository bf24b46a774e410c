"""Second-page fiber models with cycle/boundary tracking.

A fiber model is a set of infinite rho-towers at the second page (made
with ``pages.tower``), one per generator key, together with lifted
higher differentials: per page, a list of arrows (source key, target
key).  An arrow of page i sends the class of its source at (p, q) to the
class of its target at (p+i+1, q+i).  Which rho-multiple of the target
that is follows from the two bidegrees, so arrows carry no rho power.

The model of a product has one generator (g, h) per pair of factor
generators, based at the sum of their bases, and each arrow of either
factor acts on its own side of every pair: the Leibniz rule
d(gh) = d(g)h + g d(h), which needs no signs over F2.

Pages are then computed per bidegree by the standard subspace recursion

    Z(i+1) = { z in Z(i) : d_i(z) in B(i) },
    B(i+1) = B(i) + d_i(Z(i)),

with all fibers finite F2 spaces: Z as a list of bitmask vectors, B as
an ``exactalg.f2`` basis, and each step one ``f2.kernel`` and ``f2.insert``.
This is exact for the block world: every differential here comes from
one dyadic cone firing on a single page.
"""

from __future__ import annotations

from ..exactalg import f2
from ..values import Record
from .pages import tower


class FiberModel(Record):
    """Generators (key -> infinite tower) plus per-page arrows
    (page -> list of (source key, target key)).  Models are equal when
    their generators and arrows are; the arrows by source, and the fibers
    and differential columns met so far, are kept beside them."""

    __slots__ = ("gens", "arrows", "_targets", "_fibers", "_columns")
    _fields = ("gens", "arrows")

    def __init__(self, gens: dict, arrows: dict):
        self.gens = gens
        self.arrows = arrows
        self._targets = {}  # page -> source -> targets
        for i, pairs in arrows.items():
            out = self._targets.setdefault(i, {})
            for src, dst in pairs:
                out.setdefault(src, []).append(dst)
        self._fibers, self._columns = {}, {}

    def __mul__(self, other: FiberModel) -> FiberModel:
        """The product model, with differentials by the Leibniz rule."""
        gens = {
            (g, h): tower(s.p + t.p, s.q + t.q)
            for g, s in self.gens.items()
            for h, t in other.gens.items()
        }
        arrows: dict[int, list] = {}
        for i, pairs in self.arrows.items():
            arrows.setdefault(i, []).extend(
                ((s, h), (d, h)) for s, d in pairs for h in other.gens
            )
        for i, pairs in other.arrows.items():
            arrows.setdefault(i, []).extend(
                ((g, s), (g, d)) for s, d in pairs for g in self.gens
            )
        return FiberModel(gens, arrows)

    def fiber(self, p: int, q: int) -> dict:
        """The generators covering (p, q), each with its bit position;
        the generators are scanned once per bidegree."""
        fib = self._fibers.get((p, q))
        if fib is None:
            covering = [g for g, t in self.gens.items() if t.covers(p, q)]
            fib = self._fibers[p, q] = {g: k for k, g in enumerate(covering)}
        return fib

    def differential(self, i: int, b) -> list[int]:
        """The page-i arrows out of bidegree b as columns: per fiber
        generator, the bitmask of its targets in the fiber at
        (p+i+1, q+i); built once per page and bidegree."""
        cols = self._columns.get((i, b))
        if cols is None:
            tgt = self.fiber(b[0] + i + 1, b[1] + i)
            out = self._targets.get(i, {})
            cols = self._columns[i, b] = []
            for g in self.fiber(*b):
                col = 0
                for d in out.get(g, ()):
                    if d in tgt:
                        col ^= 1 << tgt[d]
                cols.append(col)
        return cols

    def page_states(self, up_to: int, window):
        """Z/B bases per bidegree for pages 2..up_to.

        Returns {page: {(p, q): (Z basis, B basis)}}, Z a list of vectors
        and B an ``f2`` basis dict.  The window is an iterable of
        bidegrees; boundaries landing outside it are dropped, so callers
        should pass a window closed under the arrows they care about.
        """
        current = {b: ([1 << k for k in range(len(self.fiber(*b)))], {}) for b in window}
        states = {2: current}
        for i in range(2, up_to):
            if i not in self._targets:  # d_i = 0: the page repeats
                states[i + 1] = current
                continue
            cycles = {}
            images: dict = {}
            for b, (z, _) in current.items():
                if not z:
                    cycles[b] = z
                    continue
                tgt = (b[0] + i + 1, b[1] + i)
                cols = self.differential(i, b)
                pairs = [(vec, f2.image(cols, vec)) for vec in z]
                cycles[b] = f2.kernel(pairs, current.get(tgt, ([], {}))[1])
                images.setdefault(tgt, []).extend(img for _, img in pairs if img)
            nxt = {}
            for b, z in cycles.items():
                bb = current[b][1]
                if images.get(b):
                    bb = dict(bb)
                    for img in images[b]:
                        f2.insert(img, bb)
                nxt[b] = (z, bb)  # boundaries are always cycles; B stays inside Z
            states[i + 1] = current = nxt
        return states
