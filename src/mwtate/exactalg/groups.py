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
import operator

from ..values import Frozen


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below ``n``, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(itertools.compress(range(n), sieve))


_TRIAL_PRIMES = _primes_below(1000)
# Miller-Rabin to the first 13 prime bases, 2 to 41, is exact below this
# bound (Sorenson and Webster, Math. Comp. 86, 2017); the first 12 reach
# only 3.2e23.
_MR_BASES = _TRIAL_PRIMES[:13]
_MR_LIMIT = 3317044064679887385961981


def factor_prime_powers(n: int) -> list[tuple[int, int]]:
    """The prime factorization of ``n`` >= 1 as (p, e) pairs, p ascending.

    Trial division by the primes below 1000, then a deterministic
    Miller-Rabin test of the cofactor below 3.3e24, and Pollard rho for
    composite cofactors below 2^64; sympy, imported only then, factors
    what is left.

    >>> factor_prime_powers(360)
    [(2, 3), (3, 2), (5, 1)]
    >>> factor_prime_powers(1)
    []
    """
    if n < 1:
        raise ValueError("need n >= 1")
    exps: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            exps[p] = exps.get(p, 0) + 1
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if m < 1000 * 1000 or (m < _MR_LIMIT and _is_prime(m)):
            exps[m] = exps.get(m, 0) + 1
        elif m < 1 << 64:
            f = _rho_factor(m)
            todo += [f, m // f]
        else:
            from sympy import factorint  # rare huge composites only

            for p, e in factorint(m).items():
                exps[int(p)] = exps.get(int(p), 0) + int(e)
    return sorted(exps.items())


def is_prime(n: int) -> bool:
    """Whether ``n`` is prime, decided as factor_prime_powers decides it
    but with no factoring: trial division, which settles every n below
    10^6, then Miller-Rabin below _MR_LIMIT and sympy's isprime above it.

    >>> [n for n in range(20) if is_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    for p in _TRIAL_PRIMES:
        if p * p > n or n % p == 0:
            return p * p > n > 1
    if n < _MR_LIMIT:
        return n < 1000 * 1000 or _is_prime(n)
    from sympy import isprime  # huge n only

    return bool(isprime(n))


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES, for odd n > 41; exact below
    _MR_LIMIT."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite ``n``: Pollard rho with
    Brent's cycle finding and batched gcds, a new constant on failure."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step through it one by one
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def split_dyadic(n: int) -> tuple[int, int]:
    """(t, s) with n = 2^t s and s odd, for n >= 1.

    >>> split_dyadic(24)
    (3, 3)
    """
    t = (n & -n).bit_length() - 1
    return t, n >> t


class FormalGroup(Frozen):
    """free_rank copies of Z plus cyclic groups of prime-power order.

    >>> FormalGroup.from_invariants([0, 12])
    FormalGroup(free_rank=1, torsion=(3, 4))
    >>> FormalGroup.from_invariants([6]) == FormalGroup.from_invariants([2, 3])
    True
    """

    __slots__ = _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        free_rank = operator.index(free_rank)
        if free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", tuple(sorted(map(operator.index, torsion))))

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
        # Z/a (x) Z/b = Z/gcd(a, b), the same terms as Tor(Z/a, Z/b)
        tors = self.torsion * other.free_rank + other.torsion * self.free_rank
        return FormalGroup(self.free_rank * other.free_rank, tors + self.tor(other).torsion)

    def tor(self, other: FormalGroup) -> FormalGroup:
        # Tor(Z, -) = 0 and Tor(Z/a, Z/b) = Z/gcd(a, b).
        tors = []
        for a in self.torsion:
            for b in other.torsion:
                g = math.gcd(a, b)
                if g > 1:
                    tors.append(g)
        return FormalGroup(0, tuple(tors))

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{q}" for q in self.torsion]
        return " + ".join(parts) if parts else "0"


class GradedGroup(Frozen):
    """Finite-support map from integer degree to FormalGroup.  Zero groups
    are dropped; two are equal when their items, in degree order, are.

    >>> g = GradedGroup({0: FormalGroup.free(1), 2: FormalGroup.cyclic(4)})
    >>> g[2]
    FormalGroup(free_rank=0, torsion=(4,))
    >>> g[5].is_zero()
    True
    """

    __slots__ = ("_groups",)
    _key = staticmethod(lambda g: tuple(g._groups.items()))

    def __init__(self, groups=None):
        data = {}
        if groups:
            for deg, g in groups.items():
                if not g.is_zero():
                    data[operator.index(deg)] = g
        object.__setattr__(self, "_groups", dict(sorted(data.items())))

    def __getitem__(self, degree: int) -> FormalGroup:
        return self._groups.get(degree, FormalGroup.zero())

    def degrees(self):
        return list(self._groups)

    def items(self):
        return list(self._groups.items())

    def is_zero(self) -> bool:
        return not self._groups

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
