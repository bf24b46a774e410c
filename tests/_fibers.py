"""Cover-scan fibers and page states of a fiber model, kept as a test oracle.

These are the fiber model's fibers and page states as they were first
written: a fiber is one ``Tower.covers`` scan of every generator per
bidegree, with bit positions in the model's generator order, and each
differential column is built from the arrows one bidegree at a time.
"""

from mwtate.exactalg import f2


def cover_fiber(model, p: int, q: int) -> dict:
    """The generators of ``model`` covering (p, q), each with its bit position."""
    covering = [g for g, t in model.gens.items() if t.covers(p, q)]
    return {g: k for k, g in enumerate(covering)}


def cover_differential(model, i: int, b) -> list:
    """Per generator of the fiber at b, the bitmask of its page-i targets
    in the fiber at (p+i+1, q+i)."""
    tgt = cover_fiber(model, b[0] + i + 1, b[1] + i)
    cols = []
    for g in cover_fiber(model, *b):
        col = 0
        for s, d in model.arrows.get(i, ()):
            if s == g and d in tgt:
                col ^= 1 << tgt[d]
        cols.append(col)
    return cols


def cover_page_states(model, up_to: int, window) -> dict:
    """{page: {(p, q): (Z basis, B basis)}} for pages 2..up_to, by the
    subspace recursion Z(i+1) = d_i^-1(B(i)) in Z(i), B(i+1) = B(i) + d_i Z(i)."""
    current = {b: ([1 << k for k in range(len(cover_fiber(model, *b)))], {}) for b in window}
    states = {2: current}
    for i in range(2, up_to):
        if not model.arrows.get(i):
            states[i + 1] = current
            continue
        cycles = {}
        images: dict = {}
        for b, (z, _) in current.items():
            if not z:
                cycles[b] = z
                continue
            tgt = (b[0] + i + 1, b[1] + i)
            cols = cover_differential(model, i, b)
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
            nxt[b] = (z, bb)
        states[i + 1] = current = nxt
    return states


def spans_by_generator(vectors, fiber: dict, order: dict) -> dict:
    """The span of bitmask vectors over ``fiber`` ({generator: bit}), as a
    reduced echelon basis over the bit positions of ``order``: the same
    dict for the same subspace of generator sums, whatever the bits."""
    out: dict = {}
    for vec in vectors:
        moved = 0
        for g, k in fiber.items():
            if vec >> k & 1:
                moved |= 1 << order[g]
        f2.insert(moved, out)
    return out
