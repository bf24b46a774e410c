"""Geometric constructors: HP^1 bundle classes, projective bundles over
HP^1 as cell complexes, and blow-up assembly.

Rank-2 bundles on HP^1 are classified by the unit-orbit of their Euler
class in GW(k); higher ranks by the second Chern number.  The
projective bundle of a rank-2 bundle is a four-cell complex whose only
attachment is the Witt image of the Euler class between weights 2 and
1, so its degree-2 Witt cohomology is cyclic of that order.

The blow-up pipeline assembles the cone of a caller-supplied Gysin
matrix from the ambient complex into the (weight-shifted) Thom complex
of the centre and adds one plain eta cone of the centre for each step
of the even codimension.
"""

from __future__ import annotations

import operator

from .motives import (
    DyadicEta,
    Free,
    NormalForm,
    TateComplex,
    cone_eta_map,
    decompose,
    tensor,
    twist,
    validate_complex,
    InvalidComplex,
)
from .cohomology import witt_cohomology
from .values import Frozen
from .wittring import GWElement, kx_orbit_canonical


class RankTooSmall(ValueError):
    """Bundle classification starts at rank 2."""


class OddCodimension(ValueError):
    """The blow-up formula requires even codimension."""


# Gysin entry errors reuse the motives-level gluing exceptions.
from .motives import IllegalEntry as IllegalGysinEntry  # noqa: E402
from .motives import NonComposableResult  # noqa: E402


class Hp1BundleClass(Frozen):
    # euler: the canonical orbit representative, a GWElement, on rank 2 only;
    # c2: an int, on rank >= 3 only
    __slots__ = _fields = ("rank", "euler", "c2", "is_free", "stably_free_nontrivial")


def hp1_classify(rank: int, datum) -> Hp1BundleClass:
    """Classify a rank-n bundle on HP^1 from its Euler or Chern datum.

    >>> hp1_classify(2, GWElement(0, 4)).stably_free_nontrivial
    True
    >>> hp1_classify(5, 7).is_free
    False
    """
    rank = operator.index(rank)
    if rank < 2:
        raise RankTooSmall(f"rank must be at least 2, got {rank}")
    if rank == 2:
        if not isinstance(datum, GWElement):
            raise TypeError("rank-2 classification needs a GW element")
        rep = kx_orbit_canonical(datum)
        return Hp1BundleClass(
            rank=2,
            euler=rep,
            c2=None,
            is_free=rep.is_zero(),
            stably_free_nontrivial=rep.rank == 0 and rep.signature != 0,
        )
    c2 = operator.index(datum)
    return Hp1BundleClass(
        rank=rank, euler=None, c2=c2, is_free=c2 == 0, stably_free_nontrivial=False
    )


def projective_bundle_hp1(e: GWElement) -> TateComplex:
    """The four-cell complex of P(E) for a rank-2 bundle with Euler
    class e; only the Witt image (the signature) enters the attachment.

    >>> decompose(projective_bundle_hp1(GWElement(0, 4)))
    NormalForm([Free(weight=0), Free(weight=3), DyadicEta(t=2, weight=1)])
    """
    cells = [("p0", 0), ("p1", 1), ("p2", 2), ("p3", 3)]
    attach = {}
    if e.signature != 0:
        attach[("p2", "p1")] = e.signature
    return TateComplex(cells, attach)


def blowup_motive(
    x: TateComplex,
    z: NormalForm,
    n: int,
    th: TateComplex,
    g,
) -> NormalForm:
    """Blocks of the blow-up of X along a centre of even codimension n.

    ``th`` is the Thom complex of the centre's determinant normal
    bundle, supplied by the caller together with the Gysin coefficients
    ``g`` from X-cells of weight u to Th-cells of weight u - n + 1.  The
    Thom cells are shifted by n - 2 so the glued total complex sits in
    pure cell positions, decomposed, and the extra eta cones of the
    centre are added, twisted into odd weights.

    >>> x = TateComplex([("x0", 0), ("x1", 1), ("x2", 2)])
    >>> th = TateComplex([("t", 1)])
    >>> blowup_motive(x, NormalForm([Free(0)]), 2, th, {("x2", "t"): 1})
    NormalForm([Free(weight=0), Free(weight=1), DyadicEta(t=0, weight=1)])
    """
    if n % 2 != 0 or n < 2:
        raise OddCodimension(f"codimension must be even and >= 2, got {n}")
    for c in (x, th):
        report = validate_complex(c)
        if not report.ok:
            raise InvalidComplex(report)
    shifted = TateComplex(
        [(cid, w + n - 2) for cid, w in th.cells],
        {pair: v for pair, v in th.attach.items()},
    )
    glued = cone_eta_map(x, shifted, g)
    blocks = decompose(glued)
    eta_cone = NormalForm([DyadicEta(0, 0)])
    for i in range(1, n // 2):
        blocks = blocks.direct_sum(twist(tensor(z, eta_cone), 2 * i - 1))
    return blocks


class EtaCheckReport(Frozen):
    __slots__ = _fields = ("holds", "plain_cone_weights", "detail")
    _defaults = {"detail": ""}


def blowup_eta_check(result: NormalForm) -> EtaCheckReport:
    """The plain eta cones contributed by the centre are invisible to
    every eta-inverted invariant: their Witt cohomology vanishes, so
    the eta-local blow-up equals the cone part alone.  Equal Witt groups
    of ``result`` and of the rest cover every eta-inverted group, since
    ``eta_inverted(a, p, q)`` reads only ``witt_cohomology(a, 0)[p - q]``."""
    plain = [b for b in result.blocks if isinstance(b, DyadicEta) and b.t == 0]
    rest = NormalForm(b for b in result.blocks if not (isinstance(b, DyadicEta) and b.t == 0))
    cones = NormalForm(plain)
    if not witt_cohomology(cones, 0).is_zero():
        return EtaCheckReport(False, tuple(b.weight for b in plain), "plain cones carry Witt classes")
    if witt_cohomology(result, 0) != witt_cohomology(rest, 0):
        return EtaCheckReport(False, tuple(b.weight for b in plain), "Witt cohomology differs")
    return EtaCheckReport(True, tuple(b.weight for b in plain))
