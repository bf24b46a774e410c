"""Finitely generated abelian groups in split prime-power form.

A :class:`FormalGroup` is a free rank plus a multiset of prime powers;
torsion is CRT-split eagerly so that equality, direct sums and the
tensor/Tor calculus are all multiset bookkeeping.  A
:class:`GradedGroup` assigns a FormalGroup to finitely many integer
degrees.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def factor_prime_powers(n: int) -> list[tuple[int, int]]:
    """The prime factorization of ``n`` >= 1 as (p, e) pairs, p ascending.

    >>> factor_prime_powers(360)
    [(2, 3), (3, 2), (5, 1)]
    >>> factor_prime_powers(1)
    []
    """
    if n < 1:
        raise ValueError("need n >= 1")
    out = []
    for d in itertools.chain(_SMALL_PRIMES, range(41, 100000, 2)):
        if d * d > n:
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
    if n > 1:
        if n < 100000 * 100000:
            out.append((n, 1))  # no factor below min(sqrt(n), 1e5), so n is prime
        else:
            from sympy import factorint  # rare huge cofactors only

            out.extend((int(p), int(e)) for p, e in sorted(factorint(n).items()))
    return out


def split_dyadic(n: int) -> tuple[int, int]:
    """(t, s) with n = 2^t s and s odd, for n >= 1.

    >>> split_dyadic(24)
    (3, 3)
    """
    t = (n & -n).bit_length() - 1
    return t, n >> t


@dataclass(frozen=True)
class FormalGroup:
    """free_rank copies of Z plus cyclic groups of prime-power order.

    >>> FormalGroup.from_invariants([0, 12])
    FormalGroup(free_rank=1, torsion=(3, 4))
    >>> FormalGroup.from_invariants([6]) == FormalGroup.from_invariants([2, 3])
    True
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "torsion", tuple(sorted(self.torsion)))

    @classmethod
    def from_invariants(cls, divisors) -> FormalGroup:
        """Build from cyclic orders, 0 meaning Z; units are dropped."""
        rank = 0
        tors: list[int] = []
        for d in divisors:
            d = abs(d)
            if d == 0:
                rank += 1
            elif d > 1:
                tors.extend(p**e for p, e in factor_prime_powers(d))
        return cls(rank, tuple(tors))

    @classmethod
    def zero(cls) -> FormalGroup:
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> FormalGroup:
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> FormalGroup:
        return cls.from_invariants([n])

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, *others: FormalGroup) -> FormalGroup:
        rank = self.free_rank + sum(g.free_rank for g in others)
        tors = list(self.torsion)
        for g in others:
            tors.extend(g.torsion)
        return FormalGroup(rank, tuple(tors))

    def tensor(self, other: FormalGroup) -> FormalGroup:
        # Z/a (x) Z/b = Z/gcd(a, b); prime powers meet only at a shared prime.
        rank = self.free_rank * other.free_rank
        tors = []
        tors.extend(list(self.torsion) * other.free_rank)
        tors.extend(list(other.torsion) * self.free_rank)
        for a in self.torsion:
            for b in other.torsion:
                g = _pp_gcd(a, b)
                if g > 1:
                    tors.append(g)
        return FormalGroup(rank, tuple(tors))

    def tor(self, other: FormalGroup) -> FormalGroup:
        # Tor(Z, -) = 0 and Tor(Z/a, Z/b) = Z/gcd(a, b).
        tors = []
        for a in self.torsion:
            for b in other.torsion:
                g = _pp_gcd(a, b)
                if g > 1:
                    tors.append(g)
        return FormalGroup(0, tuple(tors))

    def dyadic_exponent(self) -> int:
        """Largest t with a Z/2^t summand (0 if no 2-torsion)."""
        best = 0
        for q in self.torsion:
            if q % 2 == 0:
                best = max(best, q.bit_length() - 1)
        return best

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{q}" for q in self.torsion]
        return " + ".join(parts) if parts else "0"


def _pp_gcd(a: int, b: int) -> int:
    # a, b prime powers: gcd is the smaller iff they share the prime.
    return math.gcd(a, b)


class GradedGroup:
    """Finite-support map from integer degree to FormalGroup.

    >>> g = GradedGroup({0: FormalGroup.free(1), 2: FormalGroup.cyclic(4)})
    >>> g[2]
    FormalGroup(free_rank=0, torsion=(4,))
    >>> g[5].is_zero()
    True
    """

    __slots__ = ("_groups",)

    def __init__(self, groups=None):
        data = {}
        if groups:
            for deg, g in groups.items():
                if not g.is_zero():
                    data[int(deg)] = g
        self._groups = dict(sorted(data.items()))

    def __getitem__(self, degree: int) -> FormalGroup:
        return self._groups.get(degree, FormalGroup.zero())

    def degrees(self):
        return list(self._groups)

    def items(self):
        return list(self._groups.items())

    def is_zero(self) -> bool:
        return not self._groups

    def direct_sum(self, *others: GradedGroup) -> GradedGroup:
        data: dict[int, FormalGroup] = dict(self._groups)
        for other in others:
            for deg, g in other.items():
                data[deg] = data.get(deg, FormalGroup.zero()).direct_sum(g)
        return GradedGroup(data)

    def shift(self, by: int) -> GradedGroup:
        return GradedGroup({d + by: g for d, g in self._groups.items()})

    def max_dyadic_exponent(self) -> int:
        return max((g.dyadic_exponent() for g in self._groups.values()), default=0)

    def __eq__(self, other):
        if not isinstance(other, GradedGroup):
            return NotImplemented
        return self._groups == other._groups

    def __hash__(self):
        return hash(tuple(self._groups.items()))

    def __repr__(self):
        inner = ", ".join(f"{d}: {g}" for d, g in self._groups.items())
        return f"GradedGroup({{{inner}}})"


def graded_kunneth(a: GradedGroup, b: GradedGroup) -> GradedGroup:
    """Integer Kunneth of graded groups, cochain convention.

    Tensor terms of H^i (x) H^j land in degree i+j; the torsion-product
    (Tor) correction of the pair lands one degree lower, at i+j-1.
    """
    data: dict[int, FormalGroup] = {}

    def add(deg, g):
        if not g.is_zero():
            data[deg] = data.get(deg, FormalGroup.zero()).direct_sum(g)

    for i, gi in a.items():
        for j, gj in b.items():
            add(i + j, gi.tensor(gj))
            add(i + j - 1, gi.tor(gj))
    return GradedGroup(data)
