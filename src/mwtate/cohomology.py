"""Cohomological invariants of block normal forms.

All integral answers are minimal-model answers: hom tables evaluate the
motivic cohomology of the base point in the minimal Euclidean model,
where the 2-divisible summands of Milnor K-theory vanish in positive
weights (``_h_mod2``, ``_h_integral`` and ``_two_torsion_free_milnor``).
Witt cohomology follows the cochain convention, so the torsion of a
dyadic cone in weight i sits in degree i + 1; it shares the closed form
of the integer split, ``exactalg.cohomology_of_summands``.
"""

from __future__ import annotations

from . import exactalg
from .exactalg.groups import FormalGroup, GradedGroup, split_dyadic
from .motives import DyadicEta, Free, NormalForm, OddTorsion
from .values import Frozen
from .wittring import fundamental_ideal_power


class NonpositiveL(ValueError):
    """hom tables against the cone of l*eta need l >= 1."""


def _h_mod2(a: int, b: int) -> FormalGroup:
    """H^{a,b}(pt; Z/2) = Z/2 exactly for 0 <= a <= b (rho^a tau^(b-a))."""
    if 0 <= a <= b:
        return FormalGroup.cyclic(2)
    return FormalGroup.zero()


def _h_integral(a: int, b: int) -> FormalGroup:
    """H^{a,b}(pt; Z): Z at (0, 0) and Z/2 on the diagonal a = b >= 1."""
    if a == b == 0:
        return FormalGroup.free(1)
    if a == b and a >= 1:
        return FormalGroup.cyclic(2)
    return FormalGroup.zero()


def _two_torsion_free_milnor(q: int) -> FormalGroup:
    """The 2-divisible summand 2K^M_q: Z for q = 0, zero otherwise."""
    if q == 0:
        return FormalGroup.free(1)
    return FormalGroup.zero()


def chow(a: NormalForm, mod2: bool = False) -> GradedGroup:
    """Chow groups of the underlying ordinary motive.

    Odd blocks vanish: their defining endomorphism maps to the unit
    motivically, so the cone dies.  A dyadic cone keeps both of its
    cells, split, since eta itself maps to zero.

    >>> chow(NormalForm([DyadicEta(3, 1)])).degrees()
    [1, 2]
    """
    unit = FormalGroup.cyclic(2) if mod2 else FormalGroup.free(1)
    data: dict[int, FormalGroup] = {}

    def add(deg):
        data[deg] = data.get(deg, FormalGroup.zero()).direct_sum(unit)

    for b in a.blocks:
        if isinstance(b, Free):
            add(b.weight)
        elif isinstance(b, DyadicEta):
            add(b.weight)
            add(b.weight + 1)
    return GradedGroup(data)


def _summand(b):
    if isinstance(b, Free):
        return exactalg.FreeCell(b.weight)
    if isinstance(b, DyadicEta):
        return exactalg.ConePair(1 << b.t, b.weight)
    return exactalg.ConePair(b.p**b.r, b.shift)


def witt_cohomology(a: NormalForm, modulus: int = 0) -> GradedGroup:
    """Witt-sheaf cohomology, integrally or with W/2^j coefficients.

    Each block reads as a cell or cone of the integer split, and
    ``cohomology_of_summands`` gives their cohomology: Z in degree i for
    Free(i), Z/2^t in degree i+1 for DyadicEta(t, i) (nothing for t = 0)
    and Z/p^r in degree s+1 for OddTorsion(p, r, s), then universal
    coefficients for a modulus 2^j.

    >>> witt_cohomology(NormalForm([DyadicEta(2, 0)]), 2).items()
    [(0, FormalGroup(free_rank=0, torsion=(2,))), (1, FormalGroup(free_rank=0, torsion=(2,)))]
    """
    if modulus != 0 and (modulus < 1 or modulus & (modulus - 1)):
        raise ValueError("modulus must be 0 or a power of 2")
    return exactalg.cohomology_of_summands(map(_summand, a.blocks), modulus)


class HModule(Frozen):
    """A free module over Z/2[rho, tau] given by generator bidegrees."""

    __slots__ = _fields = ("generators",)

    def __init__(self, generators=()):
        object.__setattr__(self, "generators", tuple(sorted(generators)))


def mod2_motivic(a: NormalForm) -> HModule:
    """Mod-2 motivic cohomology as a free module over Z/2[rho, tau].

    >>> mod2_motivic(NormalForm([DyadicEta(0, 0)])).generators
    ((0, 0), (2, 1))
    """
    gens = []
    for b in a.blocks:
        if isinstance(b, Free):
            gens.append((2 * b.weight, b.weight))
        elif isinstance(b, DyadicEta):
            gens.append((2 * b.weight, b.weight))
            gens.append((2 * b.weight + 2, b.weight + 1))
    return HModule(gens)


def eta_inverted(a: NormalForm, p: int, q: int) -> FormalGroup:
    """The image of bidegree (p, q) in the eta-periodic theory.

    With m = 2q - p, the group is I^m times the Witt cohomology in
    degree p - q: free and odd summands are unchanged as abstract
    groups, and Z/2^t scales down to Z/2^max(t-m, 0); m <= 0 returns the
    Witt group itself.

    >>> eta_inverted(NormalForm([DyadicEta(2, 1)]), 5, 3)
    FormalGroup(free_rank=0, torsion=(2,))
    """
    m = 2 * q - p
    h = witt_cohomology(a, 0)[p - q]
    if m <= 0:
        return h
    # Z/2^t s = Z/2^t + Z/s with s odd, of which I^m keeps Z/2^max(t-m, 0) + Z/s
    tors = [c for t, s in map(split_dyadic, h.torsion) for c in (1 << max(t - m, 0), s) if c > 1]
    return FormalGroup(h.free_rank, tuple(tors))


def hom_cone(l: int, p: int, q: int, category: str = "MW") -> FormalGroup:
    """Maps from the cone of l*eta into the twist (q)[p], minimal model.

    Three rows: away from p = q, q+1 the answer is the two-summand
    motivic expression; on p = q the integral row keeps the 2-divisible
    Milnor summand; on p = q+1 the answer is I^q/sI^q + I^{q-1}/2^tI^q
    (plus the 2-divisible summand integrally), with l = 2^t s.

    >>> hom_cone(6, 3, 2, "MW")
    FormalGroup(free_rank=0, torsion=(3, 4))
    """
    if l < 1:
        raise NonpositiveL(f"need l >= 1, got {l}")
    if category not in ("MW", "W"):
        raise ValueError(f"category must be 'MW' or 'W', not {category!r}")
    t, s = split_dyadic(l)
    if p == q + 1:
        # I^q / s I^q + I^{q-1} / 2^t I^q, as indices of scaled copies of Z
        iq_mod = FormalGroup.cyclic(s)
        lower = fundamental_ideal_power(q - 1)
        upper = (1 << t) * fundamental_ideal_power(q)
        iq1_mod = FormalGroup.cyclic(upper // lower)
        out = iq_mod.direct_sum(iq1_mod)
        if category == "MW":
            out = out.direct_sum(_two_torsion_free_milnor(q - 1))
        return out
    if p == q:
        if category == "MW":
            return _two_torsion_free_milnor(q).direct_sum(_h_integral(p - 2, q - 1))
        return _h_mod2(p - 2, q - 1)
    if category == "MW":
        return _h_integral(p, q).direct_sum(_h_integral(p - 2, q - 1))
    return _h_mod2(p, q).direct_sum(_h_mod2(p - 2, q - 1))


def mw_diagonal(a: NormalForm, n: int) -> FormalGroup:
    """The diagonal (2n, n) group of the refined theory, block by block.

    Free(i) contributes the Milnor-Witt K-group of weight n - i: the
    full Grothendieck-Witt group Z^2 on the nose (n = i), the Witt group
    Z below the diagonal (n < i), and the minimal-model pullback of the
    mod-2 square above it (n > i).  Cones contribute through their hom
    tables; an odd block contributes exactly Z/p^r one step above its
    shift.
    """
    total = FormalGroup.zero()
    for b in a.blocks:
        if isinstance(b, Free):
            m = n - b.weight
            if m == 0:
                total = total.direct_sum(FormalGroup.free(2))
            elif m < 0:
                total = total.direct_sum(FormalGroup.free(1))
            else:
                # Milnor-Witt weight m >= 1 via the Cartesian square: the
                # pullback of K^M_m -> Z/2 <- I^m = Z is Z + 2K^M_m, and
                # the 2-divisible summand is zero in the minimal model.
                total = total.direct_sum(FormalGroup.free(1)).direct_sum(
                    _two_torsion_free_milnor(m)
                )
        elif isinstance(b, DyadicEta):
            m = n - b.weight
            total = total.direct_sum(hom_cone(1 << b.t, 2 * m, m, "MW"))
        else:
            if n == b.shift + 1:
                total = total.direct_sum(FormalGroup.cyclic(b.p**b.r))
    return total
