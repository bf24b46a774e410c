"""Grothendieck-Witt and Witt ring arithmetic for a Euclidean base field.

Over a Euclidean field the Witt ring is Z via the signature, and the
Grothendieck-Witt ring is the subring of Z x Z of pairs (rank,
signature) with equal parity.  The fundamental ideal I^q corresponds to
2^q Z inside W = Z (with I^m = W for m <= 0).
"""

from __future__ import annotations

import operator

from .values import Frozen


class InvalidParity(ValueError):
    """rank and signature of a GW class must have equal parity."""


class GWElement(Frozen):
    """An element of GW(k) as a (rank, signature) pair of equal parity.

    >>> EPSILON * EPSILON == GW_ONE
    True
    >>> (GWElement(0, 4) + GWElement(0, -4)).is_zero()
    True
    """

    __slots__ = _fields = ("rank", "signature")

    def __init__(self, rank: int, signature: int):
        rank, signature = operator.index(rank), operator.index(signature)
        if (rank - signature) % 2 != 0:
            raise InvalidParity(f"rank {rank} and signature {signature} differ in parity")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "signature", signature)

    def __add__(self, other: GWElement) -> GWElement:
        return GWElement(self.rank + other.rank, self.signature + other.signature)

    def __mul__(self, other: GWElement) -> GWElement:
        return GWElement(self.rank * other.rank, self.signature * other.signature)

    def __neg__(self) -> GWElement:
        return GWElement(-self.rank, -self.signature)

    def __sub__(self, other: GWElement) -> GWElement:
        return self + (-other)

    def is_zero(self) -> bool:
        return self.rank == 0 and self.signature == 0


GW_ONE = GWElement(1, 1)
EPSILON = GWElement(-1, 1)  # -<-1>


def fundamental_ideal_power(q: int) -> int:
    """I^q = 2^max(q,0) Z inside W(k) = Z; I^m is all of W for m <= 0."""
    return 1 << max(q, 0)


def kx_orbit_canonical(e: GWElement) -> GWElement:
    """Canonical representative of the unit-group orbit {e, <-1>*e}.

    Multiplication by <alpha> over a Euclidean field either fixes e or
    flips its signature, so the orbit representative is the one with
    nonnegative signature.

    >>> kx_orbit_canonical(GWElement(3, -1))
    GWElement(rank=3, signature=1)
    """
    if e.signature < 0:
        return GWElement(e.rank, -e.signature)
    return e
