"""Second-page fiber models with cycle/boundary tracking.

A fiber model is a set of infinite rho-towers at the second page (made
with ``pages.tower``, so equal towers are one shared value), one per
generator key, together with lifted higher differentials: per page, a
list of arrows (source key, target key).  An arrow of page i sends the
class of its source at (p, q) to the class of its target at
(p+i+1, q+i).  Which rho-multiple of the target that is follows from
the two bidegrees, so arrows carry no rho power.  A finite tower is
refused with ValueError: the fibers below rely on every tower running
up its line for ever.

An infinite tower based at (p0, q0) covers the cells (p, q) of its line
p - q = p0 - q0 with q >= q0.  So the model keeps each line's generators
sorted by base row, and the fiber at (p, q) is a prefix of its line: a
generator's bit position is its place on the line, the same in every
fiber that holds it.  A page-i arrow goes from line a to line a + 1, so
the page-i differential is one column list per (page, line), cut to the
source prefix and masked to the target prefix.

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

from bisect import bisect_right

from ..exactalg import f2
from ..values import Record
from .pages import tower

_NO_LINE = ((), (), {})  # base rows, generators, {generator: bit}
NO_STATE = ([], {})  # the Z and B of a bidegree outside a window


class FiberModel(Record):
    """Generators (key -> infinite tower) plus per-page arrows
    (page -> list of (source key, target key)).  Models are equal when
    their generators and arrows are; the arrows by source, the lines and
    the differential columns met so far are kept beside them."""

    __slots__ = ("gens", "arrows", "_targets", "_lines", "_columns")
    _fields = ("gens", "arrows")

    def __init__(self, gens: dict, arrows: dict):
        self.gens = gens
        self.arrows = arrows
        self._lines = {}  # p - q -> (base rows, generators, {generator: bit}), by base row
        for g, t in sorted(gens.items(), key=lambda item: item[1].q):
            if t.height_key:
                raise ValueError(f"fiber model towers are infinite, got {g!r}: {t!r}")
            rows, keys, bits = self._lines.setdefault(t.p - t.q, ([], [], {}))
            bits[g] = len(keys)
            rows.append(t.q)
            keys.append(g)
        self._targets = {}  # page -> source -> targets
        for i, pairs in arrows.items():
            out = self._targets.setdefault(i, {})
            for src, dst in pairs:
                out.setdefault(src, []).append(dst)
        self._columns = {}  # (page, line) and (page, line, both prefix sizes) -> columns

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

    def size(self, p: int, q: int) -> int:
        """The dimension of the fiber at (p, q): its line's prefix length."""
        return bisect_right(self._lines.get(p - q, _NO_LINE)[0], q)

    def fiber(self, p: int, q: int) -> dict:
        """The generators covering (p, q), each with its bit position: the
        prefix of its line based at rows up to q."""
        _, keys, bits = self._lines.get(p - q, _NO_LINE)
        return {g: bits[g] for g in keys[: self.size(p, q)]}

    def differential(self, i: int, b) -> list[int]:
        """The page-i arrows out of bidegree b as columns: per fiber
        generator, the bitmask of its targets in the fiber at
        (p+i+1, q+i).  These are the columns of b's line, built once per
        page and line, cut to the source prefix and masked to the target
        prefix: one shared list per page, line and pair of prefix sizes."""
        p, q = b
        key = (i, p - q, self.size(p, q), self.size(p + i + 1, q + i))
        cols = self._columns.get(key)
        if cols is None:
            line = self._columns.get((i, p - q))
            if line is None:
                line = self._columns[i, p - q] = self._line_columns(i, p - q)
            mask = (1 << key[3]) - 1
            cols = self._columns[key] = [col & mask for col in line[: key[2]]]
        return cols

    def _line_columns(self, i: int, a: int) -> list[int]:
        """Per generator of line a, the bitmask of its page-i targets on
        line a + 1, the only line a page-i arrow out of line a can hit."""
        bits = self._lines.get(a + 1, _NO_LINE)[2]
        out = self._targets.get(i, {})
        cols = []
        for g in self._lines.get(a, _NO_LINE)[1]:
            col = 0
            for d in out.get(g, ()):
                if d in bits:
                    col ^= 1 << bits[d]
            cols.append(col)
        return cols

    def page_states(self, up_to: int, window):
        """Z/B bases per bidegree for pages 2..up_to.

        Returns {page: {(p, q): (Z basis, B basis)}}, Z a list of vectors
        and B an ``f2`` basis dict.  The window is an iterable of
        bidegrees; boundaries landing outside it are dropped, so callers
        should pass a window closed under the arrows they care about.
        Each page with arrows is one pass over the window: the cycles of
        each bidegree, then the images of its one source inserted into
        its B.  Equal states are shared objects: the fibers of a size
        start from one basis and one empty B, and a step whose inputs
        (Z, columns and target B; or B and images) are the objects of a
        step already taken on the page reuses its result.  Rows high
        enough above the bases of a line repeat the same inputs, so a
        taller window adds no elimination.  Callers must not change a
        state in place.
        """
        longest = max((len(keys) for _, keys, _ in self._lines.values()), default=0)
        units = [[1 << k for k in range(n)] for n in range(longest + 1)]
        current = {b: (units[self.size(*b)], NO_STATE[1]) for b in window}
        states = {2: current}
        for i in range(2, up_to):
            if i not in self._targets:  # d_i = 0: the page repeats
                states[i + 1] = current
                continue
            # steps: (Z, columns, target B) -> (cycles, images) and
            # (B, images) -> the larger B, keyed by the ids of live objects
            nxt, images, steps = {}, {}, {}
            for b, (z, bb) in current.items():
                if z:
                    tgt = (b[0] + i + 1, b[1] + i)
                    cols, bt = self.differential(i, b), current.get(tgt, NO_STATE)[1]
                    key = (id(z), id(cols), id(bt))
                    if key not in steps:
                        pairs = [(vec, f2.image(cols, vec)) for vec in z]
                        steps[key] = f2.kernel(pairs, bt), [img for _, img in pairs if img]
                    z, images[tgt] = steps[key]
                nxt[b] = (z, bb)
            for b, imgs in images.items():
                if imgs and b in nxt:  # boundaries are always cycles; B stays inside Z
                    z, bb = nxt[b]
                    key = (id(bb), id(imgs))
                    if key not in steps:
                        steps[key] = dict(bb)
                        for img in imgs:
                            f2.insert(img, steps[key])
                    nxt[b] = (z, steps[key])
            states[i + 1] = current = nxt
        return states
