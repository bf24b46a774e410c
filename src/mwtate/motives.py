"""Tate cell complexes and their canonical block decomposition.

A TateComplex is a list of weighted cells with integer eta-attachment
coefficients between adjacent weights only; composability of the
attachment matrices is part of validity.  Every valid complex splits
into three species of atomic blocks:

  * Free(i)              -- a lone cell of weight i,
  * DyadicEta(t, i)      -- the cone of 2^t eta on weight i (t = 0 is
                            the plain eta cone),
  * OddTorsion(p, r, s)  -- the eta-local block of order p^r sitting in
                            shift s; odd blocks absorb Tate twists into
                            shifts, so they carry no weight.

The decomposition reads the cones off the invariant factors of each
attachment matrix and splits each cone order n = 2^t s dyadically and
odd-prime by prime.
Tensor products are computed on normal forms by the bilinear fusion
table; the naive complex-level tensor is wrong in this calculus, which
is why no such operation exists here.
"""

from __future__ import annotations

import operator
from typing import Iterable

from . import exactalg
from .exactalg.groups import factor_prime_powers, is_prime, split_dyadic
from .values import Frozen, Ordered, Record


class InvalidComplex(ValueError):
    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class OddBlockNotRealizable(ValueError):
    """Odd blocks exist only as summands of eta cones, never alone."""


class IllegalEntry(ValueError):
    """A gluing coefficient between non-adjacent weights."""


class NonComposableResult(ValueError):
    """A glued complex whose attachments fail composability."""


class Free(Ordered):
    __slots__ = _fields = ("weight",)

    def __init__(self, weight: int):
        object.__setattr__(self, "weight", operator.index(weight))

    def twisted(self, q: int) -> Free:
        return Free(self.weight + q)


class DyadicEta(Ordered):
    __slots__ = _fields = ("t", "weight")

    def __init__(self, t: int, weight: int):
        t, weight = operator.index(t), operator.index(weight)
        if t < 0:
            raise ValueError("dyadic exponent must be nonnegative")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "weight", weight)

    def twisted(self, q: int) -> DyadicEta:
        return DyadicEta(self.t, self.weight + q)


class OddTorsion(Ordered):
    __slots__ = _fields = ("p", "r", "shift")

    def __init__(self, p: int, r: int, shift: int):
        p, r, shift = map(operator.index, (p, r, shift))
        if r < 1:
            raise ValueError("odd torsion exponent must be positive")
        if p < 3 or not is_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "shift", shift)

    def twisted(self, q: int) -> OddTorsion:
        return OddTorsion(self.p, self.r, self.shift + q)


AtomicBlock = Free | DyadicEta | OddTorsion


def _block_key(b: AtomicBlock):
    if isinstance(b, Free):
        return (0, b.weight, 0, 0)
    if isinstance(b, DyadicEta):
        return (1, b.weight, b.t, 0)
    return (2, b.shift, b.p, b.r)


class NormalForm(Frozen):
    """Canonical multiset of atomic blocks.

    >>> NormalForm([DyadicEta(1, 0), Free(0)]).blocks
    (Free(weight=0), DyadicEta(t=1, weight=0))
    """

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks: Iterable[AtomicBlock] = ()):
        object.__setattr__(self, "blocks", tuple(sorted(blocks, key=_block_key)))

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __repr__(self):
        return f"NormalForm({list(self.blocks)!r})"

    def is_zero(self) -> bool:
        return not self.blocks

    def direct_sum(self, other: NormalForm) -> NormalForm:
        return NormalForm(self.blocks + other.blocks)


class Violation(Frozen):
    __slots__ = _fields = ("kind", "cells", "detail")


class ValidationReport(Frozen):
    __slots__ = ("violations", "free_complex")
    # the attachment data as a FreeComplex, once ids and weights are valid,
    # is neither compared nor shown
    _fields = ("violations",)

    def __init__(self, violations: tuple, free_complex: exactalg.FreeComplex | None = None):
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "free_complex", free_complex)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        return "; ".join(f"{v.kind}{list(v.cells)}: {v.detail}" for v in self.violations)


class TateComplex(Record):
    """Weighted cells plus integer attachments between adjacent weights.

    ``cells`` is a sequence of (id, weight); ``attach`` maps
    (higher cell id, lower cell id) to an integer coefficient, where the
    first cell must sit one weight above the second.  Complexes are equal
    when their sorted cells and their attachments are.
    """

    __slots__ = _fields = ("cells", "attach")
    _key = staticmethod(lambda c: (sorted(c.cells), c.attach))

    def __init__(self, cells, attach=None):
        self.cells = tuple((str(c), operator.index(w)) for c, w in cells)
        given = (attach or {}).items()
        attach = ((str(a), str(b), operator.index(v)) for (a, b), v in given)
        self.attach = {(a, b): v for a, b, v in attach if v}

    def __repr__(self):
        return f"TateComplex(cells={list(self.cells)!r}, attach={self.attach!r})"


def validate_complex(c: TateComplex) -> ValidationReport:
    """Check cell-id uniqueness, weight adjacency of every attachment,
    and composability of consecutive attachment matrices.

    >>> validate_complex(TateComplex([("a", 0)])).ok
    True
    """
    violations = []
    ids = [cid for cid, _ in c.cells]
    seen = set()
    for cid in ids:
        if cid in seen:
            violations.append(Violation("DuplicateCell", (cid,), "cell id reused"))
        seen.add(cid)
    weight = dict(c.cells)
    for (hi, lo), coeff in c.attach.items():
        if hi not in weight or lo not in weight:
            violations.append(
                Violation("UnknownCell", (hi, lo), "attachment names a missing cell")
            )
            continue
        if weight[hi] != weight[lo] + 1:
            violations.append(
                Violation(
                    "NonAdjacent",
                    (hi, lo),
                    f"weights {weight[hi]} -> {weight[lo]} are not adjacent",
                )
            )
    if violations:
        return ValidationReport(tuple(violations))
    fc, index = _to_free_complex(c)
    violations = [
        Violation(
            "NonComposable",
            (index[w + 2][s], index[w][r]),
            "consecutive attachments compose nonzero",
        )
        for w, r, s in fc.composition_defects()
    ]
    return ValidationReport(tuple(violations), fc)


def _to_free_complex(c: TateComplex):
    """FreeComplex of the attachment data plus the cell-id bookkeeping.

    The cells must have distinct ids and every attachment must join known
    cells of adjacent weights, as :func:`validate_complex` checks.
    """
    index: dict[int, list[str]] = {}
    pos = {}
    for cid, w in c.cells:
        ids = index.setdefault(w, [])
        pos[cid] = (w, len(ids))
        ids.append(cid)
    rows = {w: [{} for _ in ids] for w, ids in index.items() if w + 1 in index}
    for (hi, lo), x in c.attach.items():
        w, r = pos[lo]
        rows[w][r][pos[hi][1]] = x
    return exactalg.FreeComplex.from_rows({w: len(ids) for w, ids in index.items()}, rows), index


def decompose(c: TateComplex) -> NormalForm:
    """The canonical block normal form of a valid complex.

    Each cone of order n = 2^t s (s odd) contributes DyadicEta(t)
    plus one odd block per prime power of s; unit cones survive as
    DyadicEta(0), the plain eta cone.

    >>> decompose(TateComplex([("a", 0), ("b", 1)], {("b", "a"): 6}))
    NormalForm([DyadicEta(t=1, weight=0), OddTorsion(p=3, r=1, shift=0)])
    """
    report = validate_complex(c)
    if not report.ok:
        raise InvalidComplex(report)
    return NormalForm(blocks_of_summands(exactalg.decompose_free_complex(report.free_complex)))


def blocks_of_summands(summands) -> list[AtomicBlock]:
    blocks: list[AtomicBlock] = []
    free_cell = exactalg.FreeCell  # read once: see mwtate._lazy_exports
    for s in summands:
        if isinstance(s, free_cell):
            blocks.append(Free(s.degree))
            continue
        t, odd = split_dyadic(s.n)
        blocks.append(DyadicEta(t, s.lower_degree))
        for p, r in factor_prime_powers(odd) if odd > 1 else ():
            blocks.append(OddTorsion(p, r, s.lower_degree))
    return blocks


def realize(a: NormalForm) -> TateComplex:
    """Canonical complex presenting an odd-free normal form.

    >>> realize(NormalForm([DyadicEta(2, 1)]))
    TateComplex(cells=[('c0', 1), ('c1', 2)], attach={('c1', 'c0'): 4})
    """
    cells = []
    attach = {}

    def new_cell(w):
        cid = f"c{len(cells)}"
        cells.append((cid, w))
        return cid

    for b in a.blocks:
        if isinstance(b, OddTorsion):
            raise OddBlockNotRealizable(
                f"{b} only occurs inside an eta cone; it has no lone cell model"
            )
        if isinstance(b, Free):
            new_cell(b.weight)
        else:
            lo = new_cell(b.weight)
            hi = new_cell(b.weight + 1)
            attach[(hi, lo)] = 1 << b.t
    return TateComplex(cells, attach)


def _tensor_blocks(a: AtomicBlock, b: AtomicBlock) -> list[AtomicBlock]:
    if isinstance(a, Free):
        return [b.twisted(a.weight)]
    if isinstance(b, Free):
        return [a.twisted(b.weight)]
    if isinstance(a, DyadicEta) and isinstance(b, DyadicEta):
        t = min(a.t, b.t)
        w = a.weight + b.weight
        return [DyadicEta(t, w + 1), DyadicEta(t, w)]
    if isinstance(a, OddTorsion) and isinstance(b, OddTorsion):
        if a.p != b.p:
            return []
        r = min(a.r, b.r)
        s = a.shift + b.shift
        return [OddTorsion(a.p, r, s + 1), OddTorsion(a.p, r, s)]
    # dyadic against odd: 2^t eta acts invertibly on the eta-local odd
    # block with 2 a unit, so the cone vanishes
    return []


def tensor(a: NormalForm, b: NormalForm) -> NormalForm:
    """Bilinear extension of the block fusion table.

    >>> tensor(NormalForm([DyadicEta(1, 0)]), NormalForm([DyadicEta(2, 0)]))
    NormalForm([DyadicEta(t=1, weight=0), DyadicEta(t=1, weight=1)])
    """
    out: list[AtomicBlock] = []
    for x in a.blocks:
        for y in b.blocks:
            out.extend(_tensor_blocks(x, y))
    return NormalForm(out)


def twist(a: NormalForm, q: int) -> NormalForm:
    """Tensor with Free(q): weights and odd shifts move by q."""
    return NormalForm(b.twisted(q) for b in a.blocks)


def quotient_by_dyadic_eta(a: NormalForm, j: int) -> NormalForm:
    """A / 2^j eta, the tensor with the cone of 2^j eta."""
    return tensor(a, NormalForm([DyadicEta(j, 0)]))


def cone_eta_map(source: TateComplex, target: TateComplex, f) -> TateComplex:
    """Total complex of an eta-matrix map from ``source`` into ``target``.

    ``f`` maps (source cell id, target cell id) to an integer, legal only
    when the source cell sits one weight above the target cell.  Cells
    keep their weights; the new attachments are the union of both
    complexes' attachments with ``f``.
    """
    for c in (source, target):
        report = validate_complex(c)
        if not report.ok:
            raise InvalidComplex(report)
    src_w = dict(source.cells)
    tgt_w = dict(target.cells)
    shared = set(src_w) & set(tgt_w)
    if shared:
        raise IllegalEntry(f"cell ids shared between source and target: {sorted(shared)}")
    attach = dict(target.attach)
    attach.update(source.attach)
    for (u, v), coeff in (f or {}).items():
        u, v, coeff = str(u), str(v), operator.index(coeff)
        if coeff == 0:
            continue
        if u not in src_w or v not in tgt_w:
            raise IllegalEntry(f"gluing entry ({u}, {v}) names a missing cell")
        if src_w[u] != tgt_w[v] + 1:
            raise IllegalEntry(
                f"gluing entry ({u}, {v}) joins weights {src_w[u]} -> {tgt_w[v]}"
            )
        attach[(u, v)] = coeff
    total = TateComplex(tuple(target.cells) + tuple(source.cells), attach)
    report = validate_complex(total)
    if not report.ok:
        raise NonComposableResult(str(report))
    return total
