"""The Bockstein exact couple over finitely generated abelian groups.

Groups are finite presentations (Z^n modulo integer relation columns in
column Hermite form), graded by degree, with i: D^d -> D^d, j: D^d -> E^d,
k: E^d -> D^{d+1}; normalizing drops the generators those forms make
units, with no Smith form.  Deriving replaces D by im(i) and E by the
homology of j o k, maps by exact solving; the analysis derives nothing,
as the n-th derived E is E_{n+1} = k^-1(i^n D)/j(ker i^n) of the first
couple (Massey).  The couple of an attachment complex is the
multiplication-by-2 couple on its integer cohomology: E_1 is mod-2
cohomology, d_1 the integral Bockstein.  Its E side is read mod 2: a
lattice holding 2Z^n has one Hermite form, fixed by its image mod 2, so
E lattices come from ``exactalg.f2`` and each page is an F2 dimension.

Every lattice has one column Hermite form, so a subgroup identity is an
equality of Hermite forms (``span``) against a kernel the couple keeps:
i^n, ker(i^n), j(ker(i^n)), ker(k) and E_inf of a degree are built once
each, by one method each.
"""

from __future__ import annotations

import functools

from ..exactalg import FormalGroup, FreeComplex, PresentedGroup, f2, intmat
from ..exactalg.intmat import Mat
from ..values import Frozen, Record


class InexactCouple(ValueError):
    """The given triangle fails exactness somewhere."""


_ZERO = PresentedGroup(0)  # the group of every missing degree
TORSION_CAP = 64  # kernel chain steps before torsion_order gives up


def _kept(build):
    """A couple method whose values the couple keeps, one per argument tuple."""
    def method(self, *args):
        key = (build.__name__, *args)
        if key not in self._store:
            self._store[key] = build(self, *args)
        return self._store[key]
    return functools.wraps(build)(method)


class ExactCouple(Record):
    """Graded couple (D, E, i, j, k) with i: D^d -> D^d, j: D^d -> E^d
    and k: E^d -> D^{d+1}.

    ``d_groups`` and ``e_groups`` map degree -> PresentedGroup; the map
    dictionaries hold one Mat per source degree.  Missing degrees are
    zero groups and missing maps are zero maps.  What the couple builds
    is kept in ``_store``, which is neither compared nor shown.
    """

    __slots__ = ("d_groups", "e_groups", "map_i", "map_j", "map_k", "_store")
    _fields = __slots__[:-1]

    def __init__(self, d_groups: dict, e_groups: dict, map_i: dict, map_j: dict, map_k: dict):
        self.d_groups = d_groups
        self.e_groups = e_groups
        self.map_i = map_i
        self.map_j = map_j
        self.map_k = map_k
        self._store = {}

    def degrees(self):
        return sorted(set(self.d_groups) | set(self.e_groups))

    def dgroup(self, deg) -> PresentedGroup:
        return self.d_groups.get(deg, _ZERO)

    def egroup(self, deg) -> PresentedGroup:
        return self.e_groups.get(deg, _ZERO)

    def imat(self, deg) -> Mat:
        return _map(self.map_i, deg, self.dgroup(deg), self.dgroup(deg))

    def jmat(self, deg) -> Mat:
        return _map(self.map_j, deg, self.egroup(deg), self.dgroup(deg))

    def kmat(self, deg) -> Mat:
        return _map(self.map_k, deg, self.dgroup(deg + 1), self.egroup(deg))

    @_kept
    def i_power(self, deg, n) -> Mat:
        """i^n on D(deg) as one matrix."""
        if n == 0:
            return intmat.identity(self.dgroup(deg).ngens)
        if n == 1:  # i itself, as a Mat of its own: i^1 and i stay apart by identity
            return Mat(self.imat(deg).a, self.dgroup(deg).ngens)
        return intmat.matmul(self.imat(deg), self.i_power(deg, n - 1))

    @_kept
    def ker_i(self, deg, n) -> Mat:
        """Generators of ker(i^n) in D(deg); no columns for n = 0 or a zero D(deg)."""
        if n == 0 or not self.dgroup(deg).ngens:
            return intmat.zeros(self.dgroup(deg).ngens, 0)
        return intmat.kernel_mod_lattice(self.i_power(deg, n), self.dgroup(deg).rels)

    @_kept
    def ker_k(self, deg) -> Mat:
        """Generators of ker(k) in E(deg)."""
        return intmat.kernel_mod_lattice(self.kmat(deg), self.dgroup(deg + 1).rels)

    @_kept
    def boundaries(self, deg, n) -> Mat:
        """j(ker(i^n)) in E(deg)."""
        return intmat.matmul(self.jmat(deg), self.ker_i(deg, n))

    @_kept
    def boundary_space(self, deg, n) -> dict:
        """The F2 span of j(ker(i^n)) and the relations of E(deg), mod 2."""
        basis = {}
        for v in _bits(intmat.hstack(self.boundaries(deg, n), self.egroup(deg).rels)):
            f2.insert(v, basis)
        return basis

    @_kept
    def e_inf(self, deg, r) -> PresentedGroup:
        """E_inf(deg) = ker(k)/j(ker(i^r)), presented on the columns of ker(k)."""
        return self.e_page(deg, r, self.ker_k(deg))

    def cycles(self, deg, n) -> Mat:
        """k^-1(i^n D(deg+1)) in E(deg), in Hermite form: all of it for n = 0 or D(deg+1) = 0."""
        if n == 0 or not self.dgroup(deg + 1).ngens:
            return intmat.identity(self.egroup(deg).ngens)
        below = intmat.hstack(self.i_power(deg + 1, n), self.dgroup(deg + 1).rels)
        return intmat.kernel_mod_lattice(self.kmat(deg), below)

    def e_page(self, deg, n, cycles: Mat | None = None) -> PresentedGroup:
        """E_{n+1}(deg) = k^-1(i^n D(deg+1))/j(ker(i^n)) of this couple (Massey), on
        the columns of the first or of ``cycles``: E(deg), by value, for n = 0."""
        cycles = self.cycles(deg, n) if cycles is None else cycles
        rels = _kernel_into(self.egroup(deg), cycles, self.boundaries(deg, n))
        return PresentedGroup.of_hermite(cycles.cols, rels)


def _map(maps, deg, target: PresentedGroup, source: PresentedGroup) -> Mat:
    m = maps.get(deg)
    return m if m is not None else intmat.zeros(target.ngens, source.ngens)


def _coordinates(group: PresentedGroup | None, gens: Mat, images: Mat) -> Mat:
    """Coordinates of the columns of ``images`` in the columns of ``gens``
    modulo the relations of ``group``, or of none for None, one column each."""
    coords = group.express(gens, images) if group else intmat.solve_columns(gens, images)
    if coords is None:
        raise InexactCouple("element does not lie in the expected subgroup")
    return coords


def _split(m: Mat, at: int) -> tuple[Mat, Mat]:
    """The first ``at`` columns of ``m`` and the rest."""
    return Mat([r[:at] for r in m.a], at), Mat([r[at:] for r in m.a], m.cols - at)


def _bits(m: Mat) -> list[int]:
    """The columns of ``m`` mod 2 as bitmasks, row 0 the highest bit."""
    out = [0] * m.cols
    for row in m.a:
        out = [2 * b + (x & 1) for b, x in zip(out, row)]
    return out


def _mod2_kernel(a: Mat, rels=()) -> Mat:
    """{x : A x in 2Z^m + the lifts of the bitmasks ``rels``} in Hermite form:
    the part with a zero A half of the F2 span of [rel; 0] and [A e_j; e_j]."""
    n = a.cols
    vecs = [b << n for b in rels] + [b << n | 1 << (n - 1 - j) for j, b in enumerate(_bits(a))]
    return Mat(f2.hermite(vecs, n), n)


def _holds_two(rels: Mat) -> bool:
    """Whether ``rels`` is a square Hermite form, diagonal 1s and 2s, with 2e_r as 2-columns."""
    return rels.cols == rels.rows and all(
        col[r] == 1 or col[r] == 2 and col.count(0) == rels.rows - 1
        for r, col in enumerate(rels.columns())
    )


def _kernel_into(group: PresentedGroup, a: Mat, extra: Mat | None = None) -> Mat:
    """{x : A x in colspan(extra) + the relations of ``group``} in Hermite
    form, read mod 2 if those hold 2Z^m, as an E group's do."""
    rels = group.rels if extra is None else intmat.hstack(extra, group.rels)
    if not _holds_two(group.rels):
        return intmat.kernel_mod_lattice(a, rels)
    return _mod2_kernel(a, _bits(rels))


def span(group: PresentedGroup, gens: Mat) -> Mat:
    """The column Hermite form of <gens> + the relations of ``group``, read
    mod 2 if those hold 2Z^n: one form per lattice, so two subgroups, or a
    subgroup and a kernel holding the relations, are equal iff theirs are."""
    if _holds_two(group.rels):
        return Mat(f2.hermite(_bits(intmat.hstack(gens, group.rels)), group.ngens), group.ngens)
    return intmat.column_reduce(intmat.hstack(gens, group.rels))


def _parity_coordinates(basis: Mat, images: Mat) -> Mat:
    """Coordinates of the columns of ``images`` in a basis from ``f2.hermite``:
    v_p at each pivot row p, else (v_r - the v_p with a 1 in row r) / 2."""
    out = list(images.a)
    for r, row in enumerate(basis.a):
        if row[r] == 2:
            v = images.a[r]
            for p in range(r):
                if row[p]:
                    v = [x - y for x, y in zip(v, images.a[p])]
            if any(x & 1 for x in v):
                raise InexactCouple("element does not lie in the expected subgroup")
            out[r] = [x >> 1 for x in v]
    return Mat(out, images.cols)


def _unit_free(group: PresentedGroup):
    """``group`` without the generators its Hermite relations make units.

    A relation with pivot 1 in row u says e_u = -(its entries below u), and
    every other relation is 0 in row u, so dropping those rows and relations
    leaves the unit-free Hermite form.  Returns (new_group, to_new, keep):
    to_new, the identity on the kept rows and -(relation u) on them in
    column u, carries old coordinates into new ones, and new coordinate i
    is old coordinate keep[i]; (group, None, None) without a unit pivot.
    """
    pivots = [(next(r for r, x in enumerate(c) if x), c) for c in group.rels.columns()]
    units = {r: c for r, c in pivots if c[r] == 1}
    if not units:
        return group, None, None
    n = group.ngens
    keep = [r for r in range(n) if r not in units]
    to_new = Mat([[-units[q][r] if q in units else int(q == r) for q in range(n)] for r in keep], n)
    rels = [[c[r] for r in keep] for p, c in pivots if p not in units]
    return PresentedGroup.of_hermite(len(keep), Mat.from_columns(rels, len(keep))), to_new, keep


def _reduce_columns(group: PresentedGroup, m: Mat) -> Mat:
    """``m`` with each column reduced top down modulo the Hermite relations
    of ``group``: its entry at each pivot row goes into [0, pivot)."""
    a = list(m.a)
    for rel in group.rels.columns():
        r = next(i for i, x in enumerate(rel) if x)
        qs = [x // rel[r] for x in a[r]]
        if any(qs):
            a[r:] = [[x - q * y for x, q in zip(row, qs)] if y else row
                     for row, y in zip(a[r:], rel[r:])]
    return Mat(a, m.cols)


def normalize_couple(c: ExactCouple) -> ExactCouple:
    """Drop the unit generators of every group and reduce each map modulo
    the relations of its target."""
    d = {deg: _unit_free(c.dgroup(deg)) for deg in c.degrees()}
    e = {deg: _unit_free(c.egroup(deg)) for deg in c.degrees()}

    def conv(mat_of, src, dst, step):
        # step is the degree the map raises: 1 for k, 0 for i and j
        out = {}
        for deg in [x for x in c.degrees() if x + step in dst]:
            m, keep, (group, to_new, _) = mat_of(deg), src[deg][2], dst[deg + step]
            m = m if keep is None else Mat([[row[q] for q in keep] for row in m.a], len(keep))
            out[deg] = _reduce_columns(group, m if to_new is None else intmat.matmul(to_new, m))
        return out

    return ExactCouple(
        {deg: g for deg, (g, _, _) in d.items() if g.ngens},
        {deg: g for deg, (g, _, _) in e.items() if g.ngens},
        conv(c.imat, d, d, 0),
        conv(c.jmat, d, e, 0),
        conv(c.kmat, e, d, 1),
    )


def verify_exactness(c: ExactCouple) -> None:
    """Exactness of ... -k-> D -i-> D -j-> E -k-> D ... at every node."""
    for deg in c.degrees():
        dg = c.dgroup(deg)
        if dg.ngens:
            # at D(deg) between i (incoming from D(deg)) and j
            if span(dg, c.imat(deg)) != _kernel_into(c.egroup(deg), c.jmat(deg)):
                raise InexactCouple(f"im(i) != ker(j) at D degree {deg}")
            # at D(deg) between k (incoming from E(deg - 1)) and i
            if span(dg, c.kmat(deg - 1)) != c.ker_i(deg, 1):
                raise InexactCouple(f"im(k) != ker(i) at D degree {deg}")
        eg = c.egroup(deg)
        if eg.ngens and span(eg, c.jmat(deg)) != c.ker_k(deg):
            raise InexactCouple(f"im(j) != ker(k) at E degree {deg}")


def couple_derive(c: ExactCouple) -> ExactCouple:
    """The derived couple: D' = im(i), E' = ker(jk)/im(jk), with the
    structure maps induced by exact solving."""
    empty = intmat.zeros(0, 0)
    d2, e2, i2, j2, k2, e_cycles = {}, {}, {}, {}, {}, {}

    for deg in c.degrees():
        # D' = im(i) on the columns i(e_b), with relations ker(i)
        if c.dgroup(deg).ngens:
            d2[deg] = PresentedGroup.of_hermite(c.imat(deg).cols, c.ker_i(deg, 1))
        eg = c.egroup(deg)
        e_cycles[deg] = empty
        e2[deg] = _ZERO
        if eg.ngens == 0:
            continue
        # the differential j o k raises the degree by one
        dmat = intmat.matmul(c.jmat(deg + 1), c.kmat(deg))
        cycles = e_cycles[deg] = _kernel_into(c.egroup(deg + 1), dmat)
        if cycles.cols == 0:
            continue
        rels = _kernel_into(eg, cycles, intmat.matmul(c.jmat(deg), c.kmat(deg - 1)))
        e2[deg] = PresentedGroup.of_hermite(cycles.cols, rels)

    for deg in c.degrees():
        # i': restriction of i to the image, and k' from degree deg - 1:
        # cycle z -> k(z), both expressed in D'(deg) by one solve; a k' into
        # a degree c lacks is the zero map that normalize_couple fills in
        gens, below = c.imat(deg), e_cycles.get(deg - 1, empty)
        images = intmat.hstack(
            intmat.matmul(c.imat(deg), gens), intmat.matmul(c.kmat(deg - 1), below)
        )
        i2[deg], k2[deg - 1] = _split(_coordinates(c.dgroup(deg), gens, images), gens.cols)
        # j': i(x) -> [j(x)] in E'; generator b of D' is i(e_b), so its
        # image is column b of j
        j2[deg] = _coordinates(c.egroup(deg), e_cycles[deg], c.jmat(deg))

    raw = ExactCouple(
        {d: g for d, g in d2.items() if g.ngens},
        {d: g for d, g in e2.items() if g.ngens},
        {d: m for d, m in i2.items() if m.cols},
        {d: m for d, m in j2.items() if m.cols},
        {d: m for d, m in k2.items() if m.cols},
    )
    return normalize_couple(raw)


def torsion_order(c: ExactCouple) -> int:
    """Least r >= 1 with ker(i^{r+1}) = ker(i^r), as Hermite forms, in every degree."""
    for r in range(1, TORSION_CAP + 1):
        if all(c.ker_i(d, r) == c.ker_i(d, r + 1) for d in c.degrees() if c.dgroup(d).ngens):
            return r
    raise InexactCouple(f"kernel chain did not stabilize within {TORSION_CAP} steps")


class CoupleAnalysis(Frozen):
    # no __slots__: the fields stay readable as vars(analysis)
    _fields = (
        "pages",  # pages[m] = {degree: FormalGroup} for E_{m+1}
        "e_infinity", "torsion_order",
        "four_term_exact", "identification_holds", "degeneration_holds",
    )


def _page_invariants(c: ExactCouple) -> dict:
    groups = {deg: c.egroup(deg).invariants() for deg in c.degrees()}
    return {deg: g for deg, g in groups.items() if not g.is_zero()}


def _page(c: ExactCouple, deg, n, cycles: Mat | None = None) -> FormalGroup:
    """``c.e_page(deg, n, cycles)`` up to isomorphism.  If the relations R
    of E(deg) hold 2Z^m, so does every lattice between them and Z^m: the
    page Z/(j(ker(i^n)) + R) is an F2-space, of the dimension of Z mod 2,
    the 1-pivots of its Hermite form, less the F2 rank of j(ker(i^n)) + R."""
    if not _holds_two(c.egroup(deg).rels):
        return c.e_page(deg, n, cycles).invariants()
    ones = intmat.diagonal(c.cycles(deg, n) if cycles is None else cycles).count(1)
    return FormalGroup(0, (2,) * (ones - len(c.boundary_space(deg, n))))


def _nonzero(c: ExactCouple, n, cycles=lambda deg: None) -> dict:
    """The nonzero ``_page(c, deg, n, cycles(deg))`` where E is not zero."""
    groups = {d: _page(c, d, n, cycles(d)) for d in c.degrees() if c.egroup(d).ngens}
    return {deg: g for deg, g in groups.items() if not g.is_zero()}


def e_infinity(c: ExactCouple, r: int) -> dict:
    """ker(k)/j(ker(i^r)) per degree as FormalGroups."""
    return _nonzero(c, r, c.ker_k)


def _four_term_exact(c: ExactCouple, r: int) -> bool:
    """Exactness of 0 -> D1 n ker(i^inf) -> D -> ker(k) + Dbar -> E_inf -> 0.

    Verified per degree as two subgroup identities inside the middle
    terms: ker(j, p) = D1 n ker(i^inf) and ker(pi, -jbar) = im(j, p).
    Surjectivity onto E_inf needs no test: the map M -> E_inf is
    [I | -j], so its first kerk.cols columns are the identity columns
    that generate E_inf, a quotient of ker(k).
    """
    for deg in c.degrees():
        dg = c.dgroup(deg)
        if dg.ngens == 0:
            continue
        n, eg = dg.ngens, c.egroup(deg)
        ker_inf, kerk, einf_group = c.ker_i(deg, r), c.ker_k(deg), c.e_inf(deg, r)
        # D1 n ker(i^r) = i(ker(i^(r+1))): i x lies in ker(i^r) iff x in ker(i^(r+1))
        inter = intmat.matmul(c.imat(deg), c.ker_i(deg, r + 1))
        # middle group M = ker(k) + D/ker(i^inf); map (j, p) on the
        # generators of D, in kerk coordinates followed by D coordinates
        j_coords = (_parity_coordinates(kerk, c.jmat(deg)) if _holds_two(eg.rels)
                    else _coordinates(eg, kerk, c.jmat(deg)))
        dm = Mat(j_coords.a + intmat.identity(n).a, n)
        # relations of M: kerk relations lifted and ker(i^inf), which holds
        # the D relations; two Hermite forms on disjoint rows are one
        k_rels = _kernel_into(eg, kerk)
        pad_k, pad_d = [0] * ker_inf.cols, [0] * k_rels.cols
        m_rels = [row + pad_k for row in k_rels.a] + [pad_d + row for row in ker_inf.a]
        m_group = PresentedGroup.of_hermite(kerk.cols + n, Mat(m_rels, k_rels.cols + ker_inf.cols))
        if span(dg, inter) != intmat.kernel_mod_lattice(dm, m_group.rels):
            return False
        # exactness at M: kernel of (pi, -jbar) into E_inf equals im(dm);
        # the map M -> E_inf is the identity on kerk coordinates and
        # -[j(x)] on the Dbar part
        minus_j = Mat([[-x for x in row] for row in j_coords.a], j_coords.cols)
        to_einf = intmat.hstack(intmat.identity(kerk.cols), minus_j)
        if span(m_group, dm) != _kernel_into(einf_group, to_einf):
            return False
    return True


def identification_test(c: ExactCouple, r: int) -> bool:
    """The membership criterion on the i-power-torsion part: an element
    of ker(i^inf) is zero iff the staged classes j^(n) vanish for all
    0 <= n < r.  Checked on every generator of ker(i^inf) per degree,
    and on zero itself.

    Stage n tests whether j(y), for y with i^n(y) = x, lies in
    j(ker i^n) plus the relations, i.e. whether the class of x vanishes
    in E_{n+1} = Z_n / B_n; preimages differ by ker(i^n), so the test is
    well defined.  Only the elements whose class vanished at stage n are
    looked at in stage n + 1, all of them in one solve and one
    membership test, mod 2 where the E relations hold 2Z^m.
    """
    for deg in c.degrees():
        dg = c.dgroup(deg)
        if dg.ngens == 0:
            continue
        jm, mod2 = c.jmat(deg), _holds_two(c.egroup(deg).rels)
        vectors = intmat.hstack(c.ker_i(deg, r), intmat.zeros(dg.ngens, 1))
        alive = list(range(vectors.cols))
        for n in range(r):
            x = Mat([[row[a] for a in alive] for row in vectors.a], len(alive))
            y = x if n == 0 else _coordinates(dg, c.i_power(deg, n), x)  # i^n(y) = x mod rels
            jy = intmat.matmul(jm, y)
            if mod2:
                vanish = [not f2.reduce(v, c.boundary_space(deg, n)) for v in _bits(jy)]
            else:
                bound = intmat.hstack(c.boundaries(deg, n), c.egroup(deg).rels)
                vanish = intmat.lattice_contains(bound, jy)
            alive = [a for a, v in zip(alive, vanish) if v]
            if not alive:
                break
        declared = [a in alive for a in range(vectors.cols)]
        if declared != intmat.lattice_contains(dg.rels, vectors):
            return False
    return True


def couple_analyze(c: ExactCouple) -> CoupleAnalysis:
    """Pages, degeneration and the structure checks of the normalized ``c``.

    Returns pages E_1..E_{r+1}, the limit term, the least r with
    ker(i^{r+1}) = ker(i^r), the four-term exactness verdict, and the
    membership-criterion verdict, all invariants of the couple.  Each page,
    E_{r+2} too for degeneration, is read off ``c`` itself by ``_page``.
    """
    c = normalize_couple(c)
    verify_exactness(c)
    r = torsion_order(c)
    pages = [_nonzero(c, n) for n in range(r + 2)]
    einf = e_infinity(c, r)
    degeneration = pages[r] == einf and pages[r + 1] == pages[r]
    return CoupleAnalysis(
        pages=tuple(pages[: r + 1]),
        e_infinity=einf,
        torsion_order=r,
        four_term_exact=_four_term_exact(c, r),
        identification_holds=identification_test(c, r),
        degeneration_holds=degeneration,
    )


def bockstein_couple(complex_: FreeComplex) -> ExactCouple:
    """The multiplication-by-2 couple on integer cohomology.

    D is H^*(C; Z) with i = 2, E is H^*(C; Z/2) with j the reduction
    and k the integral Bockstein of weight +1, built degree by degree.
    """
    weights = complex_.weights()
    if not weights:
        return ExactCouple({}, {}, {}, {}, {})
    d_groups, e_groups, map_i, map_j, map_k, lattices = {}, {}, {}, {}, {}, {}
    for deg in range(min(weights), max(weights) + 2):
        n = complex_.rank(deg)
        if n == 0:
            continue
        delta_in = intmat.transpose(complex_.differential(deg - 1))
        zero, delta = deg not in complex_.rows, intmat.transpose(complex_.differential(deg))
        ker = intmat.identity(n) if zero else intmat.kernel_basis(delta)
        # the lattice {x : delta x in 2Z}, whose Hermite form is a basis of it;
        # like ker, Z^n where delta is zero, in which coordinates are vectors
        basis = lattices[deg] = ker if zero else _mod2_kernel(delta)
        # E relations: [2I | delta_in] in the basis, read mod 2; j: the kernel
        rhs = intmat.hstack(intmat.hstack(intmat.scalar(n, 2), delta_in), ker)
        rels, j = _split(rhs if zero else _parity_coordinates(basis, rhs), n + delta_in.cols)
        e_groups[deg] = PresentedGroup.of_hermite(n, Mat(f2.hermite(_bits(rels), n), n))
        if ker.cols == 0:
            continue
        # D relations: delta_in in the kernel; k from degree deg - 1: half
        # the boundary of each lattice vector there, in the kernel
        image = intmat.matmul(delta_in, lattices.get(deg - 1, intmat.zeros(0, 0)))
        if any(x % 2 for row in image.a for x in row):
            raise InexactCouple("lattice vector with odd boundary")
        half = Mat([[x // 2 for x in row] for row in image.a], image.cols)
        coords = intmat.hstack(delta_in, half)
        rels, k = _split(coords if zero else _coordinates(None, ker, coords), delta_in.cols)
        d_groups[deg] = PresentedGroup(ker.cols, rels)
        map_i[deg], map_j[deg] = intmat.scalar(ker.cols, 2), j
        if deg - 1 in lattices:
            map_k[deg - 1] = k
    return ExactCouple(d_groups, e_groups, map_i, map_j, map_k)

