"""Second-page fiber models with cycle/boundary tracking.

A fiber model is a list of uniquely labelled infinite rho-towers (made
with ``pages.tower``) at the second page, together with lifted higher
differentials: at page i a generator may map to rho-power multiples of
other generators.  Pages are then computed per bidegree by the standard
subspace recursion

    Z(i+1) = { z in Z(i) : d_i(z) in B(i) },
    B(i+1) = B(i) + d_i(Z(i)),

with all fibers finite F2 spaces handled as bitmask bases.  This is
exact for the block world: every differential here comes from one
dyadic cone firing on a single page.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def f2_reduce(vec: int, basis: list[int]) -> int:
    for b in basis:
        vec = min(vec, vec ^ b)
    return vec


def f2_insert(vec: int, basis: list[int]) -> bool:
    vec = f2_reduce(vec, basis)
    if vec:
        basis.append(vec)
        basis.sort(reverse=True)
        return True
    return False


@dataclass
class FiberModel:
    """Generators plus per-page arrows (source label -> (target, power))."""

    gens: list
    arrows: dict  # page index -> list of (src_label, dst_label, rho_power)
    _index: dict = field(default_factory=dict)

    def __post_init__(self):
        self._index = {g.label: k for k, g in enumerate(self.gens)}
        if len(self._index) != len(self.gens):
            raise ValueError("generator labels must be unique")

    def fiber(self, p: int, q: int) -> list[int]:
        return [k for k, g in enumerate(self.gens) if g.covers(p, q)]

    def page_states(self, up_to: int, window):
        """Z/B bases per bidegree for pages 2..up_to.

        Returns {page: {(p, q): (Z basis, B basis, fiber gen indices)}}.
        The window is an iterable of bidegrees; differentials whose
        target leaves the window are resolved by extending on demand,
        so callers should pass a window closed under the arrows they
        care about.
        """
        window = list(window)
        states = {}
        current = {}
        for b in window:
            fib = self.fiber(*b)
            full = [1 << k for k in range(len(fib))]
            current[b] = (full, [], fib)
        states[2] = {b: (z[:], bb[:], f) for b, (z, bb, f) in current.items()}
        for i in range(2, up_to):
            nxt = {}
            images = {}
            for b, (z, bb, fib) in current.items():
                tgt = (b[0] + i + 1, b[1] + i)
                tgt_state = current.get(tgt)
                tgt_b = tgt_state[1] if tgt_state is not None else []
                img_vecs = images.setdefault(tgt, [])
                # kernel of z -> fiber(tgt)/B(tgt), tracking combinations
                pivots = []  # (reduced image, combination over z)
                new_z = []
                for k, vec in enumerate(z):
                    img = self._apply(i, b, vec, fib, tgt)
                    if img:
                        img_vecs.append(img)
                    img = f2_reduce(img, tgt_b)
                    combo = 1 << k
                    for pimg, pcombo in pivots:
                        if img ^ pimg < img:
                            img ^= pimg
                            combo ^= pcombo
                    if img:
                        pivots.append((img, combo))
                        pivots.sort(key=lambda t: -t[0])
                    else:
                        kernel_vec = 0
                        for bit in range(len(z)):
                            if (combo >> bit) & 1:
                                kernel_vec ^= z[bit]
                        f2_insert(kernel_vec, new_z)
                nxt[b] = (new_z, fib)
            out = {}
            for b, (z, fib) in nxt.items():
                old_b = current[b][1][:]
                for img in images.get(b, ()):
                    f2_insert(img, old_b)
                # boundaries are always cycles; keep B inside Z
                out[b] = (z, old_b, fib)
            current = out
            states[i + 1] = {b: (z[:], bb[:], f) for b, (z, bb, f) in current.items()}
        return states

    def _apply(self, i: int, b, vec: int, fib, tgt) -> int:
        """Image bitmask of a fiber vector under the page-i arrows."""
        tgt_fib = self.fiber(*tgt)
        col = {g: k for k, g in enumerate(tgt_fib)}
        out = 0
        for pos, gidx in enumerate(fib):
            if not (vec >> pos) & 1:
                continue
            src = self.gens[gidx]
            for s, d, _power in self.arrows.get(i, ()):  # power fixed by bidegree
                if s == src.label:
                    didx = self._index[d]
                    if didx in col:
                        out ^= 1 << col[didx]
        return out

    def dims(self, states, page: int, b) -> int:
        z, bb, _ = states[page][b]
        return len(z) - len(bb)

    def induced_rank(self, states, page: int, b) -> int:
        """Rank of the page differential out of bidegree b on classes."""
        z, bb, fib = states[page][b]
        tgt = (b[0] + page + 1, b[1] + page)
        if tgt not in states[page]:
            return 0
        tz, tb, _tfib = states[page][tgt]
        img = tb[:]
        before = len(img)
        for vec in z:
            f2_insert(self._apply(page, b, vec, fib, tgt), img)
        return len(img) - before
