"""Page-level analysis: Kunneth comparison, truncated sequences, the
Leibniz identity on product pages, and the V-group fiber products.

The Kunneth comparison reads every page as a sum of the standard
Z/2[rho]-pieces of ``pages``.  Pages without truncated pieces are
compared strictly as complexes; pages with them are compared in the
derived sense, where S_j collapses to its top homology R/rho^j.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exactalg import FormalGroup, PresentedGroup, intmat
from ..motives import DyadicEta, Free, NormalForm, quotient_by_dyadic_eta, tensor
from .fibers import FiberModel, f2_insert, f2_reduce
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


@dataclass(frozen=True)
class KunnethReport:
    equal: bool
    pages_checked: tuple
    first_discrepancy: tuple | None

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


@dataclass(frozen=True)
class CheckReport:
    holds: bool
    detail: tuple | None = None

    def __bool__(self):
        return self.holds


def _page_window(pg, margin: int):
    ps = [t.p for t in pg.towers] or [0]
    qs = [t.q for t in pg.towers] or [0]
    return (
        range(min(ps) - 2, max(ps) + margin + 1),
        range(min(qs) - 2, max(qs) + margin + 1),
    )


def _rho_pair_count(pg, p, q, j):
    """Towers covering both (p, q) and (p+j, q+j): the rank of rho^j."""
    return sum(1 for t in pg.towers if t.covers(p, q) and t.covers(p + j, q + j))


def truncated_check(a: NormalForm, j: int) -> CheckReport:
    """Dimension bookkeeping of the truncated-coefficient sequences.

    For 2 <= i <= j+1 the sequence 0 -> E^{*-2,*-1}(A) -> E(A/2^j eta)
    -> E(A) -> 0 forces dimension additivity per bidegree; on page j+2
    the rho^j long exact sequence forces dim E(A/2^j eta) to equal the
    kernel of rho^j plus the cokernel of rho^j two columns over.
    """
    if j < 1:
        raise ValueError("need j >= 1")
    quot = quotient_by_dyadic_eta(a, j)
    failures = []
    for i in range(2, j + 2):
        pa = pages(a, i)
        pq = pages(quot, i)
        prange, qrange = _page_window(pq, j + i + 4)
        for p in prange:
            for q in qrange:
                want = pa.dim(p - 2, q - 1) + pa.dim(p, q)
                got = pq.dim(p, q)
                if got != want:
                    failures.append((i, p, q, got, want))
    i = j + 2
    pa = pages(a, i)
    pq = pages(quot, i)
    prange, qrange = _page_window(pq, j + i + 4)
    for p in prange:
        for q in qrange:
            ker = pa.dim(p, q) - _rho_pair_count(pa, p, q, j)
            coker = pa.dim(p - 2, q - 1) - _rho_pair_count(
                pa, p - 2 - j, q - 1 - j, j
            )
            got = pq.dim(p, q)
            if got != ker + coker:
                failures.append((i, p, q, got, ker + coker))
    return CheckReport(not failures, tuple(failures[:5]) or None)


def _product_fiber_model(blocks, j: int):
    """Fiber model of (sum of blocks) (x) cone(2^j eta) in the Kunneth
    product basis; labels record the factor basis vectors."""
    gens = []
    arrows: dict[int, list] = {}

    def arrow(i, s, d, power):
        arrows.setdefault(i, []).append((s, d, power))

    for idx, b in enumerate(blocks):
        if isinstance(b, Free):
            w = b.weight
            gens.append(tower(2 * w, w, label=f"{idx}:x*u"))
            gens.append(tower(2 * w + 2, w + 1, label=f"{idx}:x*v"))
            arrow(j + 1, f"{idx}:x*u", f"{idx}:x*v", j)
        elif isinstance(b, DyadicEta) and b.t >= 1:
            t, w = b.t, b.weight
            gens.append(tower(2 * w, w, label=f"{idx}:u*u"))
            gens.append(tower(2 * w + 2, w + 1, label=f"{idx}:u*v"))
            gens.append(tower(2 * w + 2, w + 1, label=f"{idx}:v*u"))
            gens.append(tower(2 * w + 4, w + 2, label=f"{idx}:v*v"))
            arrow(t + 1, f"{idx}:u*u", f"{idx}:v*u", t)
            arrow(j + 1, f"{idx}:u*u", f"{idx}:u*v", j)
            arrow(t + 1, f"{idx}:u*v", f"{idx}:v*v", t)
            arrow(j + 1, f"{idx}:v*u", f"{idx}:v*v", j)
    return FiberModel(gens, arrows)


def _block_fiber_model(blocks):
    """Fiber model of a normal form itself (u/v towers per dyadic cone)."""
    gens = []
    arrows: dict[int, list] = {}
    for idx, b in enumerate(blocks):
        if isinstance(b, Free):
            gens.append(tower(2 * b.weight, b.weight, label=f"{idx}:x"))
        elif isinstance(b, DyadicEta) and b.t >= 1:
            t, w = b.t, b.weight
            gens.append(tower(2 * w, w, label=f"{idx}:u"))
            gens.append(tower(2 * w + 2, w + 1, label=f"{idx}:v"))
            arrows.setdefault(t + 1, []).append((f"{idx}:u", f"{idx}:v", t))
    return FiberModel(gens, arrows)


def _model_window(model: FiberModel, q_lo: int, q_hi: int):
    out = []
    lines = sorted({g.p - g.q for g in model.gens}) or [0]
    for a_line in range(min(lines), max(lines) + 2):
        for q in range(q_lo, q_hi + 1):
            out.append((q + a_line, q))
    return out


def leibniz_check(j: int, k: int) -> CheckReport:
    """Verify the Leibniz differentials on cone(2^j eta) (x) cone(2^k eta).

    The product fiber model carries exactly the differentials dictated
    by the Leibniz rule on u x u, u x v, v x u, v x v; its pages and
    their ranks must reproduce the block tables of the fused normal
    form on every page through degeneration.

    >>> leibniz_check(1, 1).holds
    True
    """
    if j < 1 or k < 1:
        raise ValueError("need j, k >= 1")
    a = NormalForm([DyadicEta(j, 0)])
    b = NormalForm([DyadicEta(k, 0)])
    t = tensor(a, b)
    model = _product_fiber_model([DyadicEta(j, 0)], k)
    i_max = max(j, k) + 3
    q_hi = j + k + i_max + 4
    window = _model_window(model, -1, q_hi)
    states = model.page_states(i_max + 1, window)
    failures = []
    for i in range(2, i_max + 1):
        pg = pages(t, i)
        for bdeg in window:
            p, q = bdeg
            if q > j + k + 4:
                continue
            got = model.dims(states, i, bdeg)
            want = pg.dim(p, q)
            if got != want:
                failures.append(("dim", i, p, q, got, want))
                continue
            got_rank = model.induced_rank(states, i, bdeg)
            want_rank = pg.differential_rank(p, q)
            if got_rank != want_rank:
                failures.append(("rank", i, p, q, got_rank, want_rank))
    return CheckReport(not failures, tuple(failures[:5]) or None)


@dataclass(frozen=True)
class VGroupResult:
    dim_V: int
    fiber_product: FormalGroup


def v_group(a: NormalForm, j: int, n: int) -> VGroupResult:
    """The constrained cycle pairs at the Chow corner and their fiber
    product with mod-2^j Witt cohomology.

    V collects pairs (x, y) of a page-(j+1) cycle x at (2n, n) and a
    page-(j+2) cycle y at (2n+2, n+1) with beta^{j+1}(x) = rho^j y; the
    result also carries the fiber product of V with H^n(A, W/2^j) over
    the page-(j+2) fiber of A/2^j eta at (2n+2, n+1), taken along the
    Kunneth product maps (x, y) -> x*v + y*u and the mod-2 reduction of
    each cyclic Witt summand onto its cone class.
    """
    if j < 1:
        raise ValueError("need j >= 1")
    blocks = list(a.blocks)
    amodel = _block_fiber_model(blocks)
    qs = [g.q for g in amodel.gens] + [n, n + j + 1]
    window = _model_window(amodel, min(qs) - 2, max(qs) + 2 * j + 10)
    states = amodel.page_states(j + 3, window)

    b_x = (2 * n, n)
    b_y = (2 * n + 2, n + 1)
    b_t = (2 * n + j + 2, n + j + 1)
    zx, _, fib_x = states[j + 1].get(b_x, ([], [], amodel.fiber(*b_x)))
    zy, _, fib_y = states[j + 2].get(b_y, ([], [], amodel.fiber(*b_y)))
    _, bt, fib_t = states[j + 1].get(b_t, ([], [], amodel.fiber(*b_t)))

    col_t = {g: i for i, g in enumerate(fib_t)}

    def beta_image(vec):
        return amodel._apply(j + 1, b_x, vec, fib_x, b_t)

    def rho_image(vec):
        # rho^j within a tower: the same generator one page window over
        out = 0
        for pos, gidx in enumerate(fib_y):
            if (vec >> pos) & 1 and gidx in col_t:
                out ^= 1 << col_t[gidx]
        return out

    # solve beta(x) + rho^j y in B_j at the target over F2; pairs are
    # packed as y-bits shifted above the x fiber width
    width = len(fib_x)
    pairs = [vec for vec in zx] + [vec << width for vec in zy]
    pivots = []
    v_basis = []
    for packed in pairs:
        xv = packed & ((1 << width) - 1)
        yv = packed >> width
        img = f2_reduce(beta_image(xv) ^ rho_image(yv), bt)
        combo = packed
        for pimg, pcombo in pivots:
            if img ^ pimg < img:
                img ^= pimg
                combo ^= pcombo
        if img:
            pivots.append((img, combo))
            pivots.sort(key=lambda r: -r[0])
        elif combo:
            f2_insert(combo, v_basis)
    dim_v = len(v_basis)
    v_pairs = [(vec & ((1 << width) - 1), vec >> width) for vec in v_basis]
    fp = _fiber_product(a, j, n, amodel, v_pairs, fib_x, fib_y)
    return VGroupResult(dim_v, fp)


def _fiber_product(a, j, n, amodel, v_basis, fib_x, fib_y):
    """ker of V + H^n(A, W/2^j) -> E_{j+2}^{(2n+2, n+1)}(A/2^j eta)."""
    blocks = list(a.blocks)
    tmodel = _product_fiber_model(blocks, j)
    qs = [g.q for g in tmodel.gens] + [n, n + j + 1]
    window = _model_window(tmodel, min(qs) - 2, max(qs) + 2 * j + 10)
    tstates = tmodel.page_states(j + 3, window)
    b_e = (2 * n + 2, n + 1)
    ez, eb, efib = tstates[j + 2].get(b_e, ([], [], tmodel.fiber(*b_e)))
    ecol = {g: i for i, g in enumerate(efib)}
    label_of = {i: g.label for i, g in enumerate(tmodel.gens)}
    index_of = {g.label: i for i, g in enumerate(tmodel.gens)}

    def evec_of_label(label):
        gi = index_of.get(label)
        if gi is None or gi not in ecol:
            return 0
        return 1 << ecol[gi]

    def phi(xv, yv):
        # x*v + y*u in the product basis
        out = 0
        for pos, gidx in enumerate(fib_x):
            if (xv >> pos) & 1:
                lbl = amodel.gens[gidx].label
                idx, kind = lbl.split(":")
                prod = f"{idx}:{'x*v' if kind == 'x' else kind + '*v'}"
                out ^= evec_of_label(prod)
        for pos, gidx in enumerate(fib_y):
            if (yv >> pos) & 1:
                lbl = amodel.gens[gidx].label
                idx, kind = lbl.split(":")
                prod = f"{idx}:{'x*u' if kind == 'x' else kind + '*u'}"
                out ^= evec_of_label(prod)
        return f2_reduce(out, eb)

    # mod-2^j Witt summands map onto the surviving v-tower classes of
    # their product pair: the partner of the u-differential, which is
    # v*u, u*v or their sum according to how t compares with j
    def v_partner(idx, t):
        if t < j:
            return evec_of_label(f"{idx}:v*u")
        if t > j:
            return evec_of_label(f"{idx}:u*v")
        return evec_of_label(f"{idx}:u*v") ^ evec_of_label(f"{idx}:v*u")

    h_orders = []
    h_vecs = []
    for idx, b in enumerate(blocks):
        if isinstance(b, Free) and b.weight == n:
            h_orders.append(1 << j)
            h_vecs.append(f2_reduce(evec_of_label(f"{idx}:x*v"), eb))
        elif isinstance(b, DyadicEta) and b.t >= 1:
            m = min(b.t, j)
            if b.weight + 1 == n:  # quotient part of the degree-n group
                h_orders.append(1 << m)
                h_vecs.append(f2_reduce(evec_of_label(f"{idx}:v*v"), eb))
            if b.weight == n:  # torsion part fed by the degree-(n+1) group
                h_orders.append(1 << m)
                h_vecs.append(f2_reduce(v_partner(idx, b.t), eb))

    e_dim = len(efib)
    gens_count = len(v_basis) + len(h_orders)
    if gens_count == 0:
        return FormalGroup.zero()
    theta = [[0] * gens_count for _ in range(e_dim)]
    orders = []
    for cidx, (xv, yv) in enumerate(v_basis):
        orders.append(2)
        img = phi(xv, yv)
        for rbit in range(e_dim):
            if (img >> rbit) & 1:
                theta[rbit][cidx] = 1
    for hidx, vec in enumerate(h_vecs):
        cidx = len(v_basis) + hidx
        orders.append(h_orders[hidx])
        for rbit in range(e_dim):
            if (vec >> rbit) & 1:
                theta[rbit][cidx] = 1
    kernel = intmat.kernel_mod_lattice(
        intmat.Mat(theta, gens_count), intmat.scalar(e_dim, 2)
    )
    order_cols = [
        [orders[r] if r == c else 0 for c in range(gens_count)]
        for r in range(gens_count)
    ]
    group = PresentedGroup(gens_count, order_cols)
    sub = group.subgroup_presentation(kernel)
    return sub.invariants()
