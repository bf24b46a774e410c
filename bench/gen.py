"""Seeded inputs for the benchmark workloads, in plain Python data.

Nothing here imports mwtate, so neither the program nor its test helpers
(``checks.unimodular_twist``, ``intmat.random_unimodular``) can change what
is measured.  Round ``k`` of a workload draws from its own stream
``random.Random(f"{workload}:{seed}:{k}")``, so a run that stops after any
number of rounds has seen exactly the inputs of rounds ``0 .. k``.

Data shapes:
  block     ("free", w) | ("dyadic", t, w) | ("odd", p, r, s)
  complex   (ranks, diffs): ranks {w: n}, diffs {w: n_w x n_{w+1} rows};
            diffs[w] is the attachment from weight w+1 onto weight w.
"""

from __future__ import annotations

import functools
import math
import random

SMOOTH_BOUND = 10**5
ODD_PRIME_BANDS = ((3, 100), (100, 10**4), (10**4, 10**5), (10**5, 10**6))


def _primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(n + 1) if sieve[i]]


@functools.cache
def _primorial() -> int:
    return math.prod(_primes_upto(SMOOTH_BOUND))


def _is_smooth(d: int) -> bool:
    """Whether d != 0 has no prime factor above SMOOTH_BOUND."""
    d = abs(d)
    if d == 0:
        return False
    while d > 1:
        g = math.gcd(d, _primorial())
        if g == 1:
            return False
        d //= g
    return True


def det(m) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_in(rng, lo, hi):
    while True:
        p = rng.randrange(lo, hi) | 1
        if p >= 3 and is_prime(p):
            return p


# ------------------------------------------------------------ normal forms


def random_normal_form(rng, n_blocks, odd=True, max_t=4, weights=(-3, 3)):
    blocks = []
    for _ in range(n_blocks):
        w = rng.randint(*weights)
        roll = rng.random()
        if roll < 0.35:
            blocks.append(("free", w))
        elif roll < 0.85 or not odd:
            blocks.append(("dyadic", rng.randint(0, max_t), w))
        else:
            blocks.append(("odd", rng.choice((3, 5, 7)), rng.randint(1, 2), w))
    return blocks


def realize(blocks):
    """The diagonal complex of an odd-free normal form: one cell per Free
    block, and a cone of 2^t between weights w+1 and w per DyadicEta."""
    ranks: dict = {}
    entries = []
    for b in blocks:
        if b[0] == "free":
            ranks[b[1]] = ranks.get(b[1], 0) + 1
        else:
            _, t, w = b
            row = ranks.get(w, 0)
            col = ranks.get(w + 1, 0)
            ranks[w] = row + 1
            ranks[w + 1] = col + 1
            entries.append((w, row, col, 1 << t))
    diffs = {w: [[0] * ranks[w + 1] for _ in range(ranks[w])] for w, _, _, _ in entries}
    for w, row, col, n in entries:
        diffs[w][row][col] = n
    return ranks, diffs


def twist(ranks, diffs, rng):
    """Sparse unimodular base change per weight: n + 4 elementary steps
    (shear by +-1 or +-2, swap, sign flip) on the n cells of each weight,
    applied to the rows of the outgoing and, inverted, to the columns of
    the incoming attachment, so composability is kept exactly.

    The criterion-4 suite uses 3n + 4 steps; on 100 or more blocks that
    sometimes sends the Smith form over its coefficient cliff for minutes
    (see the README), so the benchmark twists more lightly."""
    diffs = {w: [row[:] for row in m] for w, m in diffs.items()}
    for w in sorted(ranks):
        n = ranks[w]
        below = diffs.get(w)  # rows index the cells of weight w
        above = diffs.get(w - 1)  # columns index the cells of weight w
        for _ in range(n + 4):
            kind, i, j = rng.randrange(3), rng.randrange(n), rng.randrange(n)
            if kind == 0 and i != j:
                q = rng.choice((-2, -1, 1, 2))
                if below is not None:
                    below[i] = [x + q * y for x, y in zip(below[i], below[j])]
                if above is not None:
                    for row in above:
                        row[j] -= q * row[i]
            elif kind == 1 and i != j:
                if below is not None:
                    below[i], below[j] = below[j], below[i]
                if above is not None:
                    for row in above:
                        row[i], row[j] = row[j], row[i]
            elif kind == 2:
                if below is not None:
                    below[i] = [-x for x in below[i]]
                if above is not None:
                    for row in above:
                        row[i] = -row[i]
    return ranks, diffs


def dense_two_weight(rng, n, bound=9):
    """An n x n attachment with entries in [-bound, bound] whose
    determinant is nonzero and SMOOTH_BOUND-smooth (see README)."""
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if _is_smooth(det(m)):
            lo = rng.randint(-2, 2)
            return {lo: n, lo + 1: n}, {lo: m}


def odd_prime_complex(rng):
    """Two or three cones between two weights whose orders are 2^t * q with
    q an odd prime power from one of ODD_PRIME_BANDS, mixed by a light
    unimodular change of basis."""
    lo = rng.randint(-2, 2)
    k = rng.randint(2, 3)
    m = [[0] * k for _ in range(k)]
    bands = rng.sample(ODD_PRIME_BANDS, k)
    for i, band in enumerate(bands):
        p = _prime_in(rng, *band)
        r = 2 if p < 100 and rng.random() < 0.5 else 1
        m[i][i] = (1 << rng.randint(0, 3)) * p**r
    return twist({lo: k, lo + 1: k}, {lo: m}, rng)


def two_weight(rng, n_lo, n_hi, bound=9):
    lo = rng.randint(-2, 2)
    m = [[rng.randint(-bound, bound) for _ in range(n_hi)] for _ in range(n_lo)]
    return {lo: n_lo, lo + 1: n_hi}, {lo: m}


def cells_and_attach(ranks, diffs):
    """TateComplex-style data: cells [(id, w)] and {(hi id, lo id): coeff}."""
    name = lambda w, k: f"w{w}n{k}"  # noqa: E731
    cells = [(name(w, k), w) for w in sorted(ranks) for k in range(ranks[w])]
    attach = {}
    for w, m in diffs.items():
        for r, row in enumerate(m):
            for s, x in enumerate(row):
                if x:
                    attach[(name(w + 1, s), name(w, r))] = x
    return cells, attach


def block_json(b):
    """A block in the documented normal-form JSON schema."""
    if b[0] == "free":
        return {"kind": "free", "weight": b[1]}
    if b[0] == "dyadic":
        return {"kind": "dyadic", "t": b[1], "weight": b[2]}
    return {"kind": "odd", "p": b[1], "r": b[2], "shift": b[3]}


def complex_json(ranks, diffs):
    """A complex in the documented complex JSON schema."""
    cells, attach = cells_and_attach(ranks, diffs)
    return {
        "cells": [{"id": c, "weight": w} for c, w in cells],
        "attach": [{"from": hi, "to": lo, "coeff": v} for (hi, lo), v in attach.items()],
    }


# ---------------------------------------------------------------- rounds

TWIST_BLOCKS = tuple(range(10, 161, 10))
DENSE_SIZES = (4, 5, 6, 7, 8) + (9,) * 8
ODD_PER_ROUND = 8


def decompose_round(seed, k):
    """Operations of one decompose round, as (kind, label, payload)."""
    rng = random.Random(f"decompose:{seed}:{k}")
    ops = []
    for nb in TWIST_BLOCKS:
        blocks = random_normal_form(rng, nb, odd=False)
        ops.append(("twisted", f"twisted-{nb}", (twist(*realize(blocks), rng), blocks)))
    for n in DENSE_SIZES:
        ops.append(("dense", f"dense-{n}", dense_two_weight(rng, n)))
    for _ in range(ODD_PER_ROUND):
        ops.append(("odd", "odd-primes", odd_prime_complex(rng)))
    return ops


# (cells in the lower weight, cells in the upper weight).  A square 10 x 10
# attachment is left out: its couple takes 0.2 to over 1 s, which would make
# one input decide a run.
COUPLE_SHAPES = ((4, 4), (4, 6), (5, 5), (6, 6), (5, 7), (7, 7), (8, 8), (10, 6), (6, 10))
REALIZED_PER_ROUND = 4
# Counts chosen so that the median operation falls among the kunneth_e2
# calls, inside a cluster of similar costs rather than at a gap between two.
PAGE_PAIRS_PER_ROUND = 15
KUNNETH_PER_ROUND = 12
CHECKS_PER_ROUND = 6


def spectral_round(seed, k):
    rng = random.Random(f"spectral:{seed}:{k}")
    ops = []
    for n_lo, n_hi in COUPLE_SHAPES:
        ops.append(("couple", f"couple-{n_lo}x{n_hi}", (two_weight(rng, n_lo, n_hi), None)))
    for _ in range(REALIZED_PER_ROUND):
        blocks = random_normal_form(rng, rng.randint(1, 5), odd=False, max_t=3)
        ops.append(("couple", "couple-realized", (realize(blocks), blocks)))
    for _ in range(PAGE_PAIRS_PER_ROUND):
        a = random_normal_form(rng, rng.randint(1, 8))
        ops.append(("pages", "pages", a))
        ops.append(("pages_from_witt", "pages_from_witt", a))
    for _ in range(KUNNETH_PER_ROUND):
        a = random_normal_form(rng, rng.randint(1, 8))
        ops.append(("kunneth", "kunneth", (a, random_normal_form(rng, rng.randint(1, 4)))))
    for _ in range(CHECKS_PER_ROUND):
        a = random_normal_form(rng, rng.randint(1, 8))
        ops.append(("truncated", "truncated", (a, rng.randint(1, 3))))
        ops.append(("leibniz", "leibniz", (rng.randint(1, 3), rng.randint(1, 3))))
        ops.append(("v_group", "v_group", (a, rng.randint(1, 2), rng.randint(-2, 2))))
    return ops


def cli_round(seed, k):
    """Seeded inputs of one cli round; the fixed-input verbs live in run.py."""
    rng = random.Random(f"cli:{seed}:{k}")
    t, p = rng.randint(0, 4), rng.choice((1, 3, 5, 7, 9, 11, 13, 15, 21, 25, 27))
    small = ({0: 1, 1: 1}, {0: [[(1 << t) * p]]})
    blocks = random_normal_form(rng, 90, odd=False)
    big = (twist(*realize(blocks), rng), blocks)
    return {
        "small": small,
        "big": big,
        "tensor": (random_normal_form(rng, 4), random_normal_form(rng, 4)),
        "witt": random_normal_form(rng, 8),
        "chow": random_normal_form(rng, 8),
        "mod2": random_normal_form(rng, 8),
    }
