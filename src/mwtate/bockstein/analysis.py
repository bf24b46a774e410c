"""Page-level analysis: Kunneth comparison, truncated sequences, the
Leibniz identity on product pages, and the V-group fiber products.

The Kunneth comparison reads every page as a sum of the standard
Z/2[rho]-pieces of ``pages``.  Pages without truncated pieces are
compared strictly as complexes; pages with them are compared in the
derived sense, where S_j collapses to its top homology R/rho^j.

The truncated check tallies both sides of each page from the towers of
A and A/2^j eta and compares them only where one of them is nonzero.

The Leibniz check and the V-groups work on fiber models (``fibers``).
The model of a normal form has one tower per free block and a u/v pair
per dyadic cone, keyed by (block index, kind); the model of a product,
such as A/2^j eta = A (x) cone(2^j eta), is the product of the factors'
models, whose differentials follow the Leibniz rule.  Both read its
pages, and a V-group its fiber product, through ``exactalg.f2``.  The
Leibniz check scans every bidegree of a window of rows, and checks
dimensions, ranks and d_i o d_i = 0 there; a V-group computes page
states only on the bidegrees its three targets depend on.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import chain

from .. import exactalg
from ..exactalg import FormalGroup, f2
from ..motives import DyadicEta, Free, NormalForm, quotient_by_dyadic_eta, tensor
from ..values import Frozen
from .fibers import FiberModel
from .pages import (
    T_PIECE,
    block_piece,
    degeneracy_page,
    derived_pieces,
    pages,
    tensor_pieces,
    tower,
)


def _page_pieces(a: NormalForm, i: int):
    """E_i of a normal form as standard pieces (kind, exponent, degree)."""
    return sorted(p for p in (block_piece(b, i) for b in a.blocks) if p is not None)


class KunnethReport(Frozen):
    __slots__ = _fields = ("equal", "pages_checked", "first_discrepancy")

    def __bool__(self):
        return self.equal


def kunneth_e2(a: NormalForm, b: NormalForm) -> KunnethReport:
    """Compare E_i(A) (x)_{Z/2[rho]} E_i(B) with E_i(A (x) B), i >= 2.

    Strictly as complexes on pages where both sides are sums of R, S and
    S_j; in the derived category once truncated towers appear.  Checks
    every page up to one past all three degeneracy pages.

    >>> d1 = NormalForm([DyadicEta(1, 0)])
    >>> kunneth_e2(d1, d1).equal
    True
    """
    t = tensor(a, b)
    i_max = max(degeneracy_page(a), degeneracy_page(b), degeneracy_page(t)) + 1
    checked = []
    for i in range(2, i_max + 1):
        xs = _page_pieces(a, i)
        ys = _page_pieces(b, i)
        rhs = _page_pieces(t, i)
        lhs = tensor_pieces(xs, ys)
        mode = "complex"
        if any(k == T_PIECE for k, _, _ in xs + ys + rhs):
            lhs, rhs = derived_pieces(lhs), derived_pieces(rhs)
            mode = "derived"
        checked.append((i, mode))
        if lhs != rhs:
            return KunnethReport(False, tuple(checked), (i, tuple(lhs), tuple(rhs)))
    return KunnethReport(True, tuple(checked), None)


class CheckReport(Frozen):
    __slots__ = _fields = ("holds", "detail")
    _defaults = {"detail": None}

    def __bool__(self):
        return self.holds


def _page_window(pg, margin: int):
    ps = [t.p for t in pg.towers] or [0]
    qs = [t.q for t in pg.towers] or [0]
    return (
        range(min(ps) - 2, max(ps) + margin + 1),
        range(min(qs) - 2, max(qs) + margin + 1),
    )


def _cells(towers, offsets, dp, dq):
    """The bidegrees at the given offsets of each tower, moved by (dp, dq);
    ``offsets(t)`` is a range of offsets k of tower t."""
    return ((t.p + k + dp, t.q + k + dq) for t in towers for k in offsets(t))


def truncated_check(a: NormalForm, j: int) -> CheckReport:
    """Dimension bookkeeping of the truncated-coefficient sequences.

    For 2 <= i <= j+1 the sequence 0 -> E^{*-2,*-1}(A) -> E(A/2^j eta)
    -> E(A) -> 0 forces dimension additivity per bidegree; on page j+2
    the rho^j long exact sequence forces dim E(A/2^j eta) to equal the
    kernel of rho^j plus the cokernel of rho^j two columns over.

    Both sides are read off the towers in one pass: a tower adds to the
    dimension at each of its cells, infinite ones up to the top row of
    the window around the quotient's towers; on page j+2 the kernel of
    rho^j is the top j cells of each finite tower and its cokernel the
    bottom j cells of each tower.  Only bidegrees where either side is
    nonzero are compared, in (p, q) order.
    """
    if j < 1:
        raise ValueError("need j >= 1")
    quot = quotient_by_dyadic_eta(a, j)
    failures = []
    for i in range(2, j + 3):
        pa = pages(a, i)
        pq = pages(quot, i)
        prange, qrange = _page_window(pq, j + i + 4)

        def rows(t):
            return range(t.height_key or max(qrange[-1] - t.q + 1, 0))

        if i <= j + 1:  # dim E(A) at (p-2, q-1) plus at (p, q)
            want = Counter(chain(_cells(pa.towers, rows, 0, 0), _cells(pa.towers, rows, 2, 1)))
        else:  # ker rho^j at (p, q) plus coker rho^j at (p-2, q-1)
            want = Counter(chain(
                _cells(pa.towers, lambda t: range(max(t.height_key - j, 0), t.height_key), 0, 0),
                _cells(pa.towers, lambda t: range(min(t.height_key or j, j)), 2, 1),
            ))
        got = Counter(_cells(pq.towers, rows, 0, 0))
        for b in sorted(want.keys() | got.keys()):
            g, w = got.get(b, 0), want.get(b, 0)
            if g != w and b[0] in prange and b[1] in qrange:
                failures.append((i, *b, g, w))
    return CheckReport(not failures, tuple(failures[:5]) or None)


def _block_fiber_model(blocks) -> FiberModel:
    """Fiber model of a normal form: an x tower per free block and a u/v
    tower pair per dyadic cone, keyed by (block index, kind), with the
    u -> v arrow of a 2^t cone on page t + 1."""
    gens = {}
    arrows: dict[int, list] = {}
    for idx, b in enumerate(blocks):
        if isinstance(b, Free):
            gens[idx, "x"] = tower(2 * b.weight, b.weight)
        elif isinstance(b, DyadicEta) and b.t >= 1:
            w = b.weight
            gens[idx, "u"] = tower(2 * w, w)
            gens[idx, "v"] = tower(2 * w + 2, w + 1)
            arrows.setdefault(b.t + 1, []).append(((idx, "u"), (idx, "v")))
    return FiberModel(gens, arrows)


_U, _V = (0, "u"), (0, "v")


def _cone_model(j: int) -> FiberModel:
    """Fiber model of cone(2^j eta), with generators _U and _V."""
    return _block_fiber_model([DyadicEta(j, 0)])


def _model_window(model: FiberModel, q_lo: int, q_hi: int):
    out = []
    lines = sorted({g.p - g.q for g in model.gens.values()}) or [0]
    for a_line in range(min(lines), max(lines) + 2):
        for q in range(q_lo, q_hi + 1):
            out.append((q + a_line, q))
    return out


def _page_failures(model: FiberModel, nf: NormalForm, i_max: int, q_lo: int, q_top: int):
    """Where pages 2..i_max of a fiber model differ from the block tables
    of nf in dimension or differential rank, or where d_i o d_i is not
    zero on the page, as (kind, i, p, q, got, want), over rows
    q_lo..q_top.

    The window runs 2 i_max rows above q_top, so d_i and d_i o d_i out
    of every checked bidegree land inside it or on a line without
    generators; the rank of d_i on classes is dim Z_i - dim Z_{i+1},
    and d_i o d_i must send Z_i into B_i two steps up.  The tables are
    tallied once per page from the towers and the arrows that hit them.
    """
    def rows(t):  # the offsets of tower t up to row q_top
        return range(t.height_key or max(q_top - t.q + 1, 0))
    window = _model_window(model, q_lo, q_top + 2 * i_max)
    states = model.page_states(i_max + 1, window)
    failures = []
    for i in range(2, i_max + 1):
        pg = pages(nf, i)
        dims = Counter(_cells(pg.towers, rows, 0, 0))
        ranks = Counter((s.p + k, s.q + k) for s, d, power in pg.arrows
                        for k in rows(s) if d.covers(d.p + k + power, d.q + k + power))
        for p, q in window:
            if q > q_top:
                continue
            z, bb = states[i][p, q]
            if z and model.arrows.get(i):
                d = model.differential(i, (p, q))
                d_next = model.differential(i, (p + i + 1, q + i))
                bb2 = states[i].get((p + 2 * i + 2, q + 2 * i), ([], {}))[1]
                twice = [(v, f2.image(d_next, f2.image(d, v))) for v in z]
                got = len(z) - len(f2.kernel(twice, bb2))
                if got:
                    failures.append(("dd", i, p, q, got, 0))
            got, want = len(z) - len(bb), dims[p, q]
            if got != want:
                failures.append(("dim", i, p, q, got, want))
                continue
            got, want = len(z) - len(states[i + 1][p, q][0]), ranks[p, q]
            if got != want:
                failures.append(("rank", i, p, q, got, want))
    return failures


def leibniz_check(j: int, k: int) -> CheckReport:
    """Verify the Leibniz differentials on cone(2^j eta) (x) cone(2^k eta).

    The product of the two cones' fiber models carries exactly the
    differentials dictated by the Leibniz rule on u x u, u x v, v x u,
    v x v; its pages and their ranks must reproduce the block tables of
    the fused normal form on every page through degeneration.

    >>> leibniz_check(1, 1).holds
    True
    """
    if j < 1 or k < 1:
        raise ValueError("need j, k >= 1")
    model = _cone_model(j) * _cone_model(k)
    t = tensor(NormalForm([DyadicEta(j, 0)]), NormalForm([DyadicEta(k, 0)]))
    failures = _page_failures(model, t, max(j, k) + 3, -1, j + k + 4)
    return CheckReport(not failures, tuple(failures[:5]) or None)


class VGroupResult(Frozen):
    __slots__ = _fields = ("dim_V", "fiber_product")


def _v_states(model: FiberModel, targets):
    """Page states on the bidegrees that the (page, bidegree) targets
    depend on: a page-i bidegree needs, on page i-1, itself and, when
    d_(i-1) is nonzero, its target (p+i, q+i-1) and its source
    (p-i, q-i+1).  Bidegrees with an empty fiber are left out: Z and B
    are empty there and take no image."""
    top = max(i for i, _ in targets)
    window: set = set()
    layer: set = set()
    for i in range(top, 1, -1):
        layer |= {b for page, b in targets if page == i}
        layer = {b for b in layer if model.fiber(*b)}
        window |= layer
        if model.arrows.get(i - 1):
            layer |= {(p + s * i, q + s * (i - 1)) for p, q in layer for s in (1, -1)}
    return model.page_states(top, sorted(window))


def _bits(fib: dict, vec: int) -> list:
    """The generators of a fiber that a bitmask vector over it contains."""
    return [g for g, k in fib.items() if (vec >> k) & 1]


def v_group(a: NormalForm, j: int, n: int) -> VGroupResult:
    """The constrained cycle pairs at the Chow corner and their fiber
    product with mod-2^j Witt cohomology.

    It reads Z_(j+1) at (2n, n), Z_(j+2) at (2n+2, n+1) and B_(j+1) at
    (2n+j+2, n+j+1) of A, and B_(j+2) at (2n+2, n+1) of A/2^j eta, and
    computes page states only on the bidegrees those depend on.

    V collects pairs (x, y) of a page-(j+1) cycle x at (2n, n) and a
    page-(j+2) cycle y at (2n+2, n+1) with beta^{j+1}(x) = rho^j y; the
    result also carries the fiber product of V with H^n(A, W/2^j) over
    the page-(j+2) fiber of A/2^j eta at (2n+2, n+1), taken along the
    Kunneth product maps (x, y) -> x*v + y*u and the mod-2 reduction of
    each cyclic Witt summand onto its cone class.
    """
    j, n = operator.index(j), operator.index(n)
    if j < 1:
        raise ValueError("need j >= 1")
    amodel = _block_fiber_model(a.blocks)
    b_x, b_y, b_t = (2 * n, n), (2 * n + 2, n + 1), (2 * n + j + 2, n + j + 1)
    states = _v_states(amodel, [(j + 1, b_x), (j + 2, b_y), (j + 1, b_t)])
    zx = states[j + 1].get(b_x, ([], {}))[0]
    zy = states[j + 2].get(b_y, ([], {}))[0]
    bt = states[j + 1].get(b_t, ([], {}))[1]
    fib_x, fib_y, fib_t = amodel.fiber(*b_x), amodel.fiber(*b_y), amodel.fiber(*b_t)
    # solve beta(x) + rho^j y in B_j at the target over F2; a pair is packed
    # as its y-bits shifted above the x fiber width, and rho^j sends a tower
    # generator to itself j rows up
    width = len(fib_x)
    cols = amodel.differential(j + 1, b_x) + [1 << fib_t[g] for g in fib_y]
    packed = zx + [y << width for y in zy]
    v_basis = f2.kernel([(vec, f2.image(cols, vec)) for vec in packed], bt)
    v_pairs = [(vec & ((1 << width) - 1), vec >> width) for vec in v_basis]
    return VGroupResult(len(v_basis), _fiber_product(a, j, n, amodel, v_pairs, fib_x, fib_y))


def _fiber_product(a, j, n, amodel, v_pairs, fib_x, fib_y):
    """ker of V + H^n(A, W/2^j) -> E_{j+2}^{(2n+2, n+1)}(A/2^j eta)."""
    tmodel = amodel * _cone_model(j)
    b_e = (2 * n + 2, n + 1)
    eb = _v_states(tmodel, [(j + 2, b_e)])[j + 2].get(b_e, ([], {}))[1]
    efib = tmodel.fiber(*b_e)

    def e_class(keys):
        """The sum of these product generators at b_e, a lift of its class."""
        out = 0
        for key in keys:
            if key in efib:
                out ^= 1 << efib[key]
        return out

    # (order, class) per generator: V pairs map to x*v + y*u
    gens = [
        (2, e_class([(g, _V) for g in _bits(fib_x, xv)] + [(g, _U) for g in _bits(fib_y, yv)]))
        for xv, yv in v_pairs
    ]
    # mod-2^j Witt summands map onto the surviving v-tower classes of
    # their product pair: the partner of the u-differential, which is
    # v*u, u*v or their sum according to how t compares with j
    for idx, b in enumerate(a.blocks):
        if isinstance(b, Free) and b.weight == n:
            gens.append((1 << j, e_class([((idx, "x"), _V)])))
        elif isinstance(b, DyadicEta) and b.t >= 1:
            order = 1 << min(b.t, j)
            if b.weight + 1 == n:  # quotient part of the degree-n group
                gens.append((order, e_class([((idx, "v"), _V)])))
            if b.weight == n:  # torsion part fed by the degree-(n+1) group
                partner = [((idx, "v"), _U)] if b.t <= j else []
                partner += [((idx, "u"), _V)] if b.t >= j else []
                gens.append((order, e_class(partner)))

    if not gens:
        return FormalGroup.zero()
    # K = {x : sum x_c class_c = 0} holds 2Z^size, so D = diag(orders) too: K/D
    size, intmat = len(gens), exactalg.intmat
    pairs = [(1 << (size - 1 - c), vec) for c, (_, vec) in enumerate(gens)]
    kernel = intmat.Mat(f2.hermite(f2.kernel(pairs, eb), size), size)
    orders = intmat.Mat([[o * (r == c) for c in range(size)] for r, (o, _) in enumerate(gens)])
    return exactalg.PresentedGroup(size, intmat.solve_columns(kernel, orders)).invariants()
