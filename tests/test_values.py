"""The plain value classes against dataclass twins.

Each class below was declared with ``dataclasses.dataclass``; it is now a
plain class (``mwtate.values``), so that no ``mwtate`` process imports
dataclasses or executes generated code.  Its twin here is the old
declaration, under the same name, so the two print alike.  On seeded field
values the tests compare repr, equality within and across classes, hash,
order, keyword, positional and default construction, validation, and
assignment.  Equality, hash and order come from one key per class, built
from ``_fields`` in ``mwtate.values`` or declared by the class;
``test_one_comparison_protocol`` checks that no class of ``mwtate`` writes
them out again.

One difference is deliberate: a ``FiberModel`` compares its generators and
arrows only, where the dataclass also compared the fibers it had cached.
Fresh models, as drawn here, compare alike either way.
"""

import copy
import importlib
import inspect
import itertools
import pickle
import pkgutil
import random
from dataclasses import dataclass, field

import pytest

import mwtate
from mwtate import motives
from mwtate.bockstein.pages import tower
from mwtate.exactalg import factor_prime_powers, groups, intmat
from mwtate.exactalg.intmat import Mat
from mwtate.wittring import InvalidParity

HOMES = {  # class: the module that defines it
    "Free": "mwtate.motives",
    "DyadicEta": "mwtate.motives",
    "OddTorsion": "mwtate.motives",
    "Violation": "mwtate.motives",
    "ValidationReport": "mwtate.motives",
    "FormalGroup": "mwtate.exactalg.groups",
    "FreeCell": "mwtate.exactalg.complexes",
    "ConePair": "mwtate.exactalg.complexes",
    "PresentedGroup": "mwtate.exactalg.presented",
    "GWElement": "mwtate.wittring",
    "HModule": "mwtate.cohomology",
    "Hp1BundleClass": "mwtate.geometry",
    "EtaCheckReport": "mwtate.geometry",
    "SuiteResult": "mwtate.checks",
    "Tower": "mwtate.bockstein.pages",
    "Page": "mwtate.bockstein.pages",
    "ExactCouple": "mwtate.bockstein.couple",
    "CoupleAnalysis": "mwtate.bockstein.couple",
    "FiberModel": "mwtate.bockstein.fibers",
    "EntryReport": "mwtate.bockstein.steenrod",
    "DSquareReport": "mwtate.bockstein.steenrod",
    "KunnethReport": "mwtate.bockstein.analysis",
    "CheckReport": "mwtate.bockstein.analysis",
    "VGroupResult": "mwtate.bockstein.analysis",
}
ORDERED = ("Free", "DyadicEta", "OddTorsion", "Tower")
MUTABLE = ("PresentedGroup", "ExactCouple", "FiberModel")


def real(name):
    return getattr(importlib.import_module(HOMES[name]), name)


# ---------------------------------------------------------------- twins


@dataclass(frozen=True, order=True)
class Free:
    weight: int


@dataclass(frozen=True, order=True)
class DyadicEta:
    t: int
    weight: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("dyadic exponent must be nonnegative")


@dataclass(frozen=True, order=True)
class OddTorsion:
    p: int
    r: int
    shift: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("odd torsion exponent must be positive")
        if self.p < 3 or self.p % 2 == 0 or factor_prime_powers(self.p) != [(self.p, 1)]:
            raise ValueError(f"{self.p} is not an odd prime")


@dataclass(frozen=True)
class Violation:
    kind: str
    cells: tuple
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple
    free_complex: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FormalGroup:
    free_rank: int = 0
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "torsion", tuple(sorted(self.torsion)))


@dataclass(frozen=True)
class FreeCell:
    degree: int


@dataclass(frozen=True)
class ConePair:
    n: int
    lower_degree: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cone multiplier must be positive")


@dataclass
class PresentedGroup:
    ngens: int
    rels: object = None

    def __post_init__(self):
        if self.rels is None:
            self.rels = intmat.zeros(self.ngens, 0)
        elif not isinstance(self.rels, Mat):
            self.rels = Mat(self.rels)
        if self.rels.rows != self.ngens:
            raise ValueError("relation matrix must have one row per generator")
        if self.rels.cols:
            self.rels = intmat.column_reduce(self.rels)


@dataclass(frozen=True)
class GWElement:
    rank: int
    signature: int

    def __post_init__(self):
        if (self.rank - self.signature) % 2 != 0:
            raise InvalidParity(
                f"rank {self.rank} and signature {self.signature} differ in parity"
            )


@dataclass(frozen=True)
class HModule:
    generators: tuple

    def __init__(self, generators=()):
        object.__setattr__(self, "generators", tuple(sorted(generators)))


@dataclass(frozen=True)
class Hp1BundleClass:
    rank: int
    euler: object
    c2: object
    is_free: bool
    stably_free_nontrivial: bool


@dataclass(frozen=True)
class EtaCheckReport:
    holds: bool
    plain_cone_weights: tuple
    detail: str = ""


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""


@dataclass(frozen=True, order=True)
class Tower:
    p: int
    q: int
    height_key: int
    label: str


@dataclass(frozen=True)
class Page:
    index: int
    towers: tuple
    arrows: tuple

    def canonical(self):
        return real("Page").canonical(self)

    def __eq__(self, other):
        if not isinstance(other, Page):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())


@dataclass
class ExactCouple:
    d_groups: dict
    e_groups: dict
    map_i: dict
    map_j: dict
    map_k: dict
    _store: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class CoupleAnalysis:
    pages: tuple
    e_infinity: dict
    torsion_order: int
    four_term_exact: bool
    identification_holds: bool
    degeneration_holds: bool


@dataclass
class FiberModel:
    gens: dict
    arrows: dict
    _targets: dict = field(init=False, repr=False)
    _fibers: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self._targets = {}
        for i, pairs in self.arrows.items():
            out = self._targets.setdefault(i, {})
            for src, dst in pairs:
                out.setdefault(src, []).append(dst)


@dataclass(frozen=True)
class EntryReport:
    position: tuple
    start: frozenset
    normal_form: frozenset
    reduced_to_zero: bool
    trace: tuple


@dataclass(frozen=True)
class DSquareReport:
    entries: tuple
    all_zero: bool
    rules_used: str


@dataclass(frozen=True)
class KunnethReport:
    equal: bool
    pages_checked: tuple
    first_discrepancy: object


@dataclass(frozen=True)
class CheckReport:
    holds: bool
    detail: object = None


@dataclass(frozen=True)
class VGroupResult:
    dim_V: int
    fiber_product: object


TWINS = {name: globals()[name] for name in HOMES}


# ---------------------------------------------------------------- draws


def _tower(rng):
    return real("Tower")(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1),
                         rng.choice("uv"))


def _maybe(rng, kw, **defaulted):
    """``kw`` with the defaulted fields added, each or none at random."""
    if rng.random() < 0.5:
        kw.update(defaulted)
    return kw


def _page(rng):
    towers = tuple(_tower(rng) for _ in range(rng.randint(0, 2)))
    arrows = ((towers[0], towers[-1], rng.randint(1, 2)),) if towers and rng.random() < .5 else ()
    return dict(index=rng.randint(2, 3), towers=towers, arrows=arrows)


def _presented(rng):
    n = rng.randint(0, 2)
    rels = [[rng.randint(-2, 2) for _ in range(rng.randint(1, 2))]] * n
    return _maybe(rng, dict(ngens=n), rels=rng.choice((None, rels)))


def _gw(rng):
    rank = rng.randint(-1, 1)
    return dict(rank=rank, signature=rank + 2 * rng.randint(-1, 1))


# class: seeded keyword arguments, fields in declaration order
DRAWS = {
    "Free": lambda rng: dict(weight=rng.randint(-2, 2)),
    "DyadicEta": lambda rng: dict(t=rng.randint(0, 2), weight=rng.randint(-1, 1)),
    "OddTorsion": lambda rng: dict(p=rng.choice((3, 5)), r=rng.randint(1, 2),
                                   shift=rng.randint(-1, 1)),
    "Violation": lambda rng: dict(kind=rng.choice(("NonAdjacent", "UnknownCell")),
                                  cells=(rng.choice("ab"),), detail="d"),
    "ValidationReport": lambda rng: _maybe(
        rng, dict(violations=tuple("xy"[: rng.randint(0, 2)])),
        free_complex=rng.choice((None, "complex"))),
    "FormalGroup": lambda rng: _maybe(
        rng, {}, free_rank=rng.randint(0, 1),
        torsion=tuple(rng.sample((2, 3, 4, 5), rng.randint(0, 3)))),
    "FreeCell": lambda rng: dict(degree=rng.randint(-1, 1)),
    "ConePair": lambda rng: dict(n=rng.randint(1, 3), lower_degree=rng.randint(-1, 1)),
    "PresentedGroup": _presented,
    "GWElement": _gw,
    "HModule": lambda rng: _maybe(rng, {}, generators=[
        (rng.randint(0, 2), rng.randint(0, 1)) for _ in range(rng.randint(0, 2))]),
    "Hp1BundleClass": lambda rng: dict(
        rank=rng.randint(2, 3), euler=rng.choice((None, (0, 2))), c2=rng.choice((None, 1)),
        is_free=rng.random() < .5, stably_free_nontrivial=rng.random() < .5),
    "EtaCheckReport": lambda rng: _maybe(
        rng, dict(holds=rng.random() < .5, plain_cone_weights=(rng.randint(0, 1),)),
        detail=rng.choice(("", "Witt cohomology differs"))),
    "SuiteResult": lambda rng: _maybe(
        rng, dict(name=rng.choice(("hp1", "leibniz")), passed=rng.random() < .5,
                  cases=rng.randint(0, 2)),
        detail=rng.choice(("", "fake"))),
    "Tower": lambda rng: dict(p=rng.randint(0, 1), q=rng.randint(0, 1),
                              height_key=rng.randint(0, 1), label=rng.choice("uv")),
    "Page": _page,
    "ExactCouple": lambda rng: dict(
        d_groups={0: rng.randint(0, 1)}, e_groups={}, map_i={}, map_j={},
        map_k={0: rng.randint(0, 1)}),
    "CoupleAnalysis": lambda rng: dict(
        pages=({0: rng.randint(0, 1)},), e_infinity={}, torsion_order=rng.randint(1, 2),
        four_term_exact=True, identification_holds=rng.random() < .5,
        degeneration_holds=True),
    "FiberModel": lambda rng: dict(
        gens={(0, "u"): _tower(rng)}, arrows=rng.choice(({}, {2: [((0, "u"), (0, "u"))]}))),
    "EntryReport": lambda rng: dict(
        position=(1, rng.randint(1, 2)), start=frozenset({(0, ("Sq2",))}),
        normal_form=frozenset(), reduced_to_zero=rng.random() < .5, trace=("Sq2 Sq2",)),
    "DSquareReport": lambda rng: dict(entries=(), all_zero=rng.random() < .5,
                                      rules_used=rng.choice(("quoted", "custom"))),
    "KunnethReport": lambda rng: dict(
        equal=rng.random() < .5, pages_checked=((2, "complex"),),
        first_discrepancy=rng.choice((None, (2, (), ())))),
    "CheckReport": lambda rng: _maybe(rng, dict(holds=rng.random() < .5),
                                      detail=rng.choice((None, ("fake",)))),
    "VGroupResult": lambda rng: dict(dim_V=rng.randint(0, 1),
                                     fiber_product=real("FormalGroup")(0, (2,))),
}


def outcome(fn, *args):
    """What calling ``fn`` gives: ("value", result) or ("raises", type, message)."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raises", type(exc), str(exc))


def pairs(name, n=20, seed=0):
    """n seeded (real, twin) instance pairs of one class, built alike."""
    rng = random.Random(f"{name}-{seed}")
    out = []
    for _ in range(n):
        kw = DRAWS[name](rng)
        out.append((real(name)(**kw), TWINS[name](**kw)))
    return out


def pool():
    return [pair for name in HOMES for pair in pairs(name, 6)]


def test_every_former_dataclass_has_a_twin_and_draws():
    assert len(HOMES) == 24
    assert sorted(TWINS) == sorted(DRAWS) == sorted(HOMES)
    for name in HOMES:
        assert real(name).__name__ == TWINS[name].__name__ == name


@pytest.mark.parametrize("name", sorted(HOMES))
def test_repr(name):
    for r, t in pairs(name):
        assert repr(r) == repr(t)


@pytest.mark.parametrize("name", sorted(HOMES))
def test_keyword_positional_and_default_construction(name):
    rng = random.Random(name)
    for _ in range(12):
        kw = DRAWS[name](rng)
        args = list(kw.values())
        assert repr(real(name)(**kw)) == repr(TWINS[name](**kw)) == repr(real(name)(*args))
        assert real(name)(**kw) == real(name)(*args)


def test_equality_within_and_across_classes():
    values = pool()
    for (r1, t1), (r2, t2) in itertools.product(values, repeat=2):
        assert (r1 == r2) == (t1 == t2), (r1, r2)
        assert (r1 != r2) == (t1 != t2), (r1, r2)


def mwtate_classes():
    """Every class an ``mwtate`` module defines, by name, but exceptions
    and the bases of ``mwtate.values``."""
    modules = [mwtate] + [importlib.import_module(m.name)
                          for m in pkgutil.walk_packages(mwtate.__path__, "mwtate.")]
    found = {
        cls.__qualname__: cls
        for module in modules if module.__name__ != "mwtate.values"
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
        and not issubclass(cls, BaseException)
    }
    assert set(HOMES) < set(found)
    return found


CLASSES = mwtate_classes()


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_one_comparison_protocol(name):
    # equality, hash and order come from the key of mwtate.values: the
    # field values, or the key a class equal up to an order declares
    for method in ("__eq__", "__hash__", "__lt__"):
        assert method not in vars(CLASSES[name]), method


@pytest.mark.parametrize("name", sorted(HOMES))
def test_hash(name):
    for r, t in pairs(name):
        assert outcome(hash, r) == outcome(hash, t)
    assert (real(name).__hash__ is None) == (TWINS[name].__hash__ is None)


def test_order_within_and_across_classes():
    values = [pair for name in ORDERED for pair in pairs(name, 6)]
    ops = (lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b)
    for (r1, t1), (r2, t2) in itertools.product(values, repeat=2):
        for op in ops:
            assert outcome(op, r1, r2) == outcome(op, t1, t2), (r1, r2)
    for name in ORDERED:
        ranked = pairs(name, 12)
        assert [repr(r) for r in sorted(r for r, _ in ranked)] == [
            repr(t) for t in sorted(t for _, t in ranked)
        ]


@pytest.mark.parametrize("name, args", [
    ("DyadicEta", (-1, 0)),
    ("OddTorsion", (9, 1, 0)),
    ("OddTorsion", (3, 0, 0)),
    ("ConePair", (0, 0)),
    ("FormalGroup", (-1,)),
    ("GWElement", (1, 2)),
])
def test_validation(name, args):
    got = outcome(real(name), *args)
    assert got[0] == "raises"
    assert got == outcome(TWINS[name], *args)


@pytest.mark.parametrize("name", sorted(HOMES))
def test_assignment(name):
    for r, t in pairs(name, 3):
        fields = list(vars(TWINS[name])["__dataclass_fields__"])
        # slots refuse a new attribute on any class; a frozen one refuses every name
        for attr in fields if name in MUTABLE else fields + ["other"]:
            got = outcome(setattr, r, attr, 0)
            want = outcome(setattr, t, attr, 0)
            if name in MUTABLE:
                assert got == want == ("value", None)
            else:
                assert got[0] == want[0] == "raises"
                assert issubclass(got[1], AttributeError) and issubclass(want[1], AttributeError)
                assert got[2] == want[2]


@pytest.mark.parametrize("name", sorted(HOMES))
def test_copy_and_pickle(name):
    for r, _ in pairs(name, 3):
        for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(twin) is type(r) and repr(twin) == repr(r) and twin == r


@pytest.mark.parametrize("name", sorted(HOMES))
def test_argument_errors(name):
    # too many positional arguments, a missing field, an unknown keyword
    # and a field given twice: TypeError from the class and from its twin
    params = inspect.signature(TWINS[name]).parameters
    required = [p for p, v in params.items() if v.default is inspect.Parameter.empty]
    for r, _ in pairs(name, 3):
        kw = {p: getattr(r, p) for p in params}
        args = list(kw.values())
        calls = [
            lambda cls: cls(*args, 0),
            lambda cls: cls(**kw, other=0),
            lambda cls: cls(*args[:1], **kw),
        ] + [lambda cls, f=f: cls(**{k: v for k, v in kw.items() if k != f}) for f in required]
        for call in calls:
            got, want = outcome(call, real(name)), outcome(call, TWINS[name])
            assert got[:2] == want[:2] == ("raises", TypeError), (got, want)


# ------------------------------------------------- equal up to an order


def test_tate_complex_is_equal_up_to_the_order_of_its_cells():
    cells = [("a", 1), ("b", 1), ("c", 0), ("d", 0)]
    attach = {("a", "c"): 2, ("b", "d"): -1, ("a", "d"): 3}
    one = motives.TateComplex(cells, attach)
    for order in itertools.permutations(cells):
        assert motives.TateComplex(order, dict(reversed(attach.items()))) == one
    for key in attach:
        assert motives.TateComplex(cells, {**attach, key: attach[key] + 1}) != one
    assert motives.TateComplex(cells, {**attach, ("b", "c"): 0}) == one
    assert motives.TateComplex(cells[:3], attach) != one
    assert one != (tuple(cells), attach)
    with pytest.raises(TypeError):
        hash(one)


def test_normal_form_is_equal_and_hashed_alike_in_any_block_order():
    blocks = [real("Free")(0), real("Free")(2), real("DyadicEta")(1, 0),
              real("DyadicEta")(0, 1), real("OddTorsion")(3, 1, 0)]
    one = motives.NormalForm(blocks)
    for order in itertools.permutations(blocks):
        form = motives.NormalForm(order)
        assert form == one and hash(form) == hash(one)
    assert motives.NormalForm(blocks[1:]) != one
    assert motives.NormalForm(blocks + blocks[:1]) != one
    assert one != one.blocks and motives.NormalForm() == motives.NormalForm([])


def test_graded_group_is_equal_and_hashed_alike_in_any_degree_order():
    group = real("FormalGroup")
    parts = {0: group(1), 2: group(0, (4,)), -1: group(1, (3,))}
    one = groups.GradedGroup(parts)
    for order in itertools.permutations(parts.items()):
        g = groups.GradedGroup(dict(order))
        assert g == one and hash(g) == hash(one)
    # zero groups do not count
    with_zero = groups.GradedGroup({5: group(), **parts, 7: group()})
    assert with_zero == one and hash(with_zero) == hash(one)
    assert groups.GradedGroup({0: group()}) == groups.GradedGroup()
    assert groups.GradedGroup({**parts, 2: group(0, (8,))}) != one
    assert groups.GradedGroup({**parts, 3: group(0, (4,))}) != one


def test_mat_compares_its_shape_and_does_not_hash():
    assert Mat([], 2) != Mat([], 3)
    assert Mat([], 2) == Mat([], 2)
    assert Mat([[], []]) != Mat([], 0)
    assert Mat([[1, 2]]) == Mat([[1, 2]]) != Mat([[1], [2]])
    assert Mat([[1, 2]]) != [[1, 2]]
    with pytest.raises(TypeError):
        hash(Mat([[1]]))


def test_page_is_equal_and_hashed_alike_up_to_the_order_of_towers_and_arrows():
    page = real("Page")
    towers = [tower(0, 0), tower(1, 0, 2, "v"), tower(0, 1, label="u")]
    arrows = [(towers[0], towers[1], 1), (towers[2], towers[1], 2)]
    one = page(2, tuple(towers), tuple(arrows))
    for tower_order in itertools.permutations(towers):
        for arrow_order in itertools.permutations(arrows):
            p = page(2, tower_order, arrow_order)
            assert p == one and hash(p) == hash(one)
    assert page(3, tuple(towers), tuple(arrows)) != one
    assert page(2, tuple(towers), tuple(arrows[:1])) != one
    assert page(2, tuple(towers[:2]), tuple(arrows)) != one
    assert one != one.canonical()
