"""Named verification suites behind both `mwtate check` and the
acceptance tests, so desk verification and CI run identical code.

Every suite takes only a seed and is deterministic for it; the corpus
sizes are the acceptance-grade values, written into each suite.

A suite is a generator that yields one verdict per case: None when the
case holds, otherwise a string that says what failed.  `run_suite` is
the one place that reads verdicts: it counts the cases, stops at the
first failure and reports the run as a `SuiteResult`.
"""

from __future__ import annotations

import importlib
import random
from collections.abc import Iterator

from .exactalg.groups import FormalGroup, GradedGroup, graded_kunneth, split_dyadic
from .motives import (
    DyadicEta,
    Free,
    NormalForm,
    OddTorsion,
    TateComplex,
    decompose,
    realize,
    tensor,
    _to_free_complex,
)
from .values import Frozen
from .wittring import GWElement, kx_orbit_canonical

# The layers past the block calculus and the groups, by module, with the
# names the suites and their helpers use from each.  A suite, or a helper
# that tests also call, imports its layers when it starts (`_use`), so
# `mwtate check --suite NAME` loads only what that suite runs.
_LAYERS = {
    ".bockstein.analysis": ("kunneth_e2", "leibniz_check", "truncated_check"),
    ".bockstein.couple": ("_page_invariants", "bockstein_couple", "couple_analyze",
                          "couple_derive"),
    ".bockstein.pages": ("block_pages", "degeneracy_page", "pages", "pages_from_witt"),
    ".bockstein.steenrod": ("QUOTED_RULES", "identity_sanity", "steenrod_dsquare_check"),
    ".cohomology": ("chow", "hom_cone", "witt_cohomology"),
    ".exactalg.complexes": ("FreeComplex", "integer_cohomology"),
    ".exactalg.intmat": ("matmul", "random_unimodular"),
    ".geometry": ("hp1_classify", "projective_bundle_hp1"),
}


def _use(*layers):
    """Import ``layers`` and bind the names the suites use from them here,
    keeping a name already bound: a test may have replaced it."""
    for layer in layers:
        module = importlib.import_module(layer, __package__)
        for name in _LAYERS[layer]:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name):
    """A layer name looked up from outside, such as ``checks.pages``."""
    for layer, names in _LAYERS.items():
        if name in names:
            _use(layer)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SuiteResult(Frozen):
    __slots__ = _fields = ("name", "passed", "cases", "detail")
    _defaults = {"detail": ""}

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{mark}  {self.name}: {self.cases} cases{extra}"


def run_suite(name: str, seed: int) -> SuiteResult:
    """Run the suite ``SUITES[name]`` at ``seed`` up to its first failure.

    >>> run_suite("leibniz", 0).line()
    'pass  leibniz: 9 cases'
    """
    cases = 0
    for detail in SUITES[name](seed):
        cases += 1
        if detail is not None:
            return SuiteResult(name, False, cases, detail)
    return SuiteResult(name, True, cases)


# ---------------------------------------------------------------- corpora


ODD_PRIMES = (3, 5, 7)
MAX_T = 4  # the largest dyadic exponent t of a random block


def random_normal_form(rng, max_blocks=8, allow_odd=True) -> NormalForm:
    blocks = []
    for _ in range(rng.randrange(1, max_blocks + 1)):
        w = rng.randrange(-3, 4)
        roll = rng.random()
        if roll < 0.35:
            blocks.append(Free(w))
        elif roll < 0.85 or not allow_odd:
            blocks.append(DyadicEta(rng.randrange(0, MAX_T + 1), w))
        else:
            blocks.append(
                OddTorsion(rng.choice(ODD_PRIMES), rng.randrange(1, 3), w)
            )
    return NormalForm(blocks)


def unimodular_twist(c: TateComplex, rng) -> TateComplex:
    """A complex isomorphic to c via random unimodular base change per
    weight, with fresh cell ids."""
    _use(".exactalg.intmat")
    fc, index = _to_free_complex(c)
    auts = {w: random_unimodular(fc.rank(w), rng) for w in fc.ranks}
    diffs = {}
    for w in fc.weights():
        if w + 1 in auts:
            m = matmul(auts[w][0], fc.differential(w))
            diffs[w] = matmul(m, auts[w + 1][1])
    cells = []
    names = {}
    for w in fc.weights():
        for k in range(fc.rank(w)):
            cid = f"w{w}n{k}"
            names[(w, k)] = cid
            cells.append((cid, w))
    attach = {}
    for w, m in diffs.items():
        for r, row in enumerate(m):
            for s, x in enumerate(row):
                if x:
                    attach[(names[(w + 1, s)], names[(w, r)])] = x
    return TateComplex(cells, attach)


def chow_direct(c: TateComplex) -> GradedGroup:
    """Chow groups straight from the complex: the eta attachments die
    in the ordinary motive, so each cell contributes a split Z."""
    data = {}
    for _, w in c.cells:
        data[w] = data.get(w, 0) + 1
    return GradedGroup({w: FormalGroup.free(n) for w, n in data.items()})


def witt_direct(c: TateComplex, modulus: int = 0) -> GradedGroup:
    """Witt cohomology straight from the complex: the integer
    cohomology of the attachment data."""
    _use(".exactalg.complexes")
    fc, _ = _to_free_complex(c)
    return integer_cohomology(fc, modulus)


# ----------------------------------------------------------------- suites


def suite_block_pages(seed) -> Iterator[str | None]:
    """Block tables against a direct transcription of the four cases."""
    _use(".bockstein.pages")
    for j in (1, 2, 3):
        for w in (-1, 0, 2):
            for i in range(2, j + 4):
                pg = block_pages(DyadicEta(j, w), i)
                for qq in range(-2, 11):
                    for line in (-1, 0, 1, 2, 3):
                        q = qq + w
                        p = q + line + w  # p - 2w ranges around the diagonal
                        got = pg.dim(p, q)
                        want = _oracle_dim(j, i, p - 2 * w, q - w)
                        want_r = 1 if (p - 2 * w == q - w >= 0 and i == j + 1) else 0
                        if got != want:
                            yield f"dim at j={j} i={i} (p,q)=({p},{q}): {got} != {want}"
                        elif pg.differential_rank(p, q) != want_r:
                            yield f"differential at j={j} i={i} ({p},{q})"
                        else:
                            yield None


def _oracle_dim(j, i, p, q):
    # verbatim four-case table for the untwisted block
    if j > 0 and i <= j + 1 and p == q and q >= 0:
        return 1
    if j > 0 and i <= j + 1 and p == q + 1 and q >= 1:
        return 1
    if j > 0 and p == q + 1 and 0 < q < j + 1:
        return 1
    return 0


def suite_torsion_profile(seed) -> Iterator[str | None]:
    _use(".bockstein.pages", ".cohomology")
    rng = random.Random(seed)
    for _ in range(300):
        a = random_normal_form(rng, 12)
        h = witt_cohomology(a, 0)
        for i in range(2, degeneracy_page(a) + 3):
            mismatch = pages_from_witt(h, i) != pages(a, i)
            yield f"mismatch at page {i} for {a}" if mismatch else None


def suite_degeneracy(seed) -> Iterator[str | None]:
    _use(".bockstein.pages")
    rng = random.Random(seed)
    for _ in range(300):
        a = random_normal_form(rng, 12)
        d = degeneracy_page(a)
        r = d - 2
        stable = _page_content(pages(a, d))
        if any(_page_content(pages(a, m)) != stable for m in range(d + 1, d + 3)):
            yield f"not stable for {a}"
        elif r >= 1 and _page_content(pages(a, d - 1)) == stable:
            yield f"stabilized early for {a}"
        else:
            yield None


def _page_content(pg):
    return pg.canonical()[1:]


def suite_decompose(seed) -> Iterator[str | None]:
    """Each realization decomposes back to its blocks, and so do 100
    unimodular twists of it, one case each.  The last case of a draw
    compares the Chow and Witt groups of the blocks with those read
    straight off the complex.  That conservativity case compares two
    closed forms: `witt_direct` reads the same invariant factors of the
    same differentials as `decompose`.  Only the round trip and the
    twist cases check `decompose` independently."""
    _use(".cohomology")
    rng = random.Random(seed)
    for _ in range(500):
        a = random_normal_form(rng, 12, allow_odd=False)
        c = realize(a)
        base = decompose(c)
        yield f"round trip failed: {a}" if base != a else None
        for _k in range(100):
            twisted = unimodular_twist(c, rng)
            changed = decompose(twisted) != base
            yield f"automorphism changed blocks: {a}" if changed else None
        if chow(base) != chow_direct(c) or witt_cohomology(base, 0) != witt_direct(c):
            yield f"invariants differ: {a}"
        else:
            yield None


def suite_pbundle(seed) -> Iterator[str | None]:
    _use(".bockstein.pages", ".cohomology", ".geometry")
    for n in range(1, 7):
        blocks = decompose(projective_bundle_hp1(GWElement(0, 2**n)))
        w = witt_cohomology(blocks, 0)
        if w[2] != FormalGroup.cyclic(2**n):
            yield f"H^2 wrong for 2^{n}"
        elif degeneracy_page(blocks) != n + 2:
            yield f"page wrong for 2^{n}"
        else:
            yield None
    blocks = decompose(projective_bundle_hp1(GWElement(1, 3)))
    if witt_cohomology(blocks, 0)[2] != FormalGroup.cyclic(3):
        yield "odd Euler class torsion wrong"
    elif degeneracy_page(blocks) != 2:
        yield "odd Euler class page wrong"
    else:
        yield None


def suite_kunneth(seed) -> Iterator[str | None]:
    _use(".bockstein.analysis")
    rng = random.Random(seed)
    for t1 in range(0, 5):
        for t2 in range(0, 5):
            rep = kunneth_e2(
                NormalForm([DyadicEta(t1, 0)]), NormalForm([DyadicEta(t2, 0)])
            )
            yield f"block pair ({t1},{t2})" if not rep.equal else None
    for _ in range(100):
        a = random_normal_form(rng, 8)
        b = random_normal_form(rng, 8)
        rep = kunneth_e2(a, b)
        yield f"{a} x {b}" if not rep.equal else None


def suite_tensor_witt(seed) -> Iterator[str | None]:
    _use(".cohomology")
    rng = random.Random(seed)
    for _ in range(200):
        a = random_normal_form(rng, 8)
        b = random_normal_form(rng, 8)
        got = witt_cohomology(tensor(a, b), 0)
        want = graded_kunneth(witt_cohomology(a, 0), witt_cohomology(b, 0))
        yield f"{a} x {b}" if got != want else None


def suite_bounded(seed) -> Iterator[str | None]:
    _use(".bockstein.pages", ".cohomology")
    rng = random.Random(seed)
    for _ in range(100):
        a = random_normal_form(rng, 8)
        pg = pages(a, 2)
        wmod2 = witt_cohomology(a, 2)
        qs = [t.q for t in pg.towers] or [0]
        q0 = min(qs) - 2
        for q in range(q0, q0 + 20):
            for p in range(q - 3, 2 * q + 4):
                dim = pg.dim(p, q)
                if p > 2 * q:
                    yield f"nonzero above line: {a}" if dim != 0 else None
                    continue
                grp = wmod2[p - q]
                want = len(grp.torsion) + grp.free_rank
                yield f"({p},{q}) of {a}: {dim} != {want}" if dim != want else None


MAX_CELLS = 8  # cells of a random adjacent complex, at most
BOUND = 9  # the largest absolute entry of its differentials


def random_adjacent_complex(rng) -> FreeComplex:
    """Random small composable complex with entries in [-BOUND, BOUND].

    Either a single random differential between two adjacent weights
    (composability is vacuous) or a stack of elementary cones whose
    matrices stay within the entry bound.
    """
    _use(".exactalg.complexes")
    if rng.random() < 0.7:
        lo = rng.randrange(-2, 2)
        n_lo = rng.randrange(1, MAX_CELLS // 2 + 1)
        n_hi = rng.randrange(1, MAX_CELLS - n_lo + 1)
        m = [
            [rng.randrange(-BOUND, BOUND + 1) for _ in range(n_hi)]
            for _ in range(n_lo)
        ]
        return FreeComplex({lo: n_lo, lo + 1: n_hi}, {lo: m})
    ranks = {}
    diffs = {}
    w0 = rng.randrange(-2, 1)
    spread = rng.randrange(2, 4)
    for w in range(w0, w0 + spread + 1):
        ranks[w] = rng.randrange(1, 3)
    for w in range(w0, w0 + spread):
        m = [[0] * ranks[w + 1] for _ in range(ranks[w])]
        # block-diagonal cones only, so consecutive products vanish
        if rng.random() < 0.7:
            r = rng.randrange(0, ranks[w])
            s = rng.randrange(0, ranks[w + 1])
            if (w - w0) % 2 == 0:
                m[r][s] = rng.randrange(1, BOUND + 1)
        diffs[w] = m
    return FreeComplex(ranks, diffs)


def couple_torsion(pages) -> dict:
    """{(n, 2^t): b} for the b summands Z/2^t of H^n(C; Z), read off the pages
    E_1 .. E_(r+1): d_t: E_t^(n-1) -> E_t^n has rank b_t^n, so e_t^n - e_(t+1)^n
    = b_t^n + b_t^(n+1), solved upward from the lowest degree of E_1 (Browder)."""
    dims = [{d: len(g.torsion) for d, g in page.items()} for page in pages]
    out = {}
    for t in range(1, len(dims)):
        b = 0
        for n in range(min(dims[0], default=0), max(dims[0], default=-1) + 1):
            b = dims[t - 1].get(n, 0) - dims[t].get(n, 0) - b
            if b:
                out[n + 1, 2**t] = b
    return out


def suite_couple(seed) -> Iterator[str | None]:
    _use(".bockstein.couple", ".exactalg.complexes")
    rng = random.Random(seed)
    for _ in range(100):
        c = random_adjacent_complex(rng)
        cpl = bockstein_couple(c)
        res = couple_analyze(cpl)
        derived = [_page_invariants(cpl)]  # the pages the long way, by derived couples
        for _ in range(res.torsion_order + 1):
            cpl = couple_derive(cpl)
            derived.append(_page_invariants(cpl))
        h = integer_cohomology(c, 0)
        expected = {d: FormalGroup(0, (2,) * g.free_rank) for d, g in h.items() if g.free_rank}
        two = {(d, q): g.torsion.count(q) for d, g in h.items() for q in g.torsion if q % 2 == 0}
        if res.e_infinity != expected:
            yield f"E_inf mismatch: {c.ranks}"
        elif not res.four_term_exact:
            yield f"four-term: {c.ranks}"
        elif not res.identification_holds:
            yield f"identification: {c.ranks}"
        elif not res.degeneration_holds:
            yield f"degeneration: {c.ranks}"
        elif derived != [*res.pages, res.pages[-1]]:  # E_{r+2} = E_{r+1} by degeneration
            yield f"derived pages: {c.ranks}"
        elif couple_torsion(res.pages) != two:
            yield f"2-primary torsion: {c.ranks}"
        else:
            yield None


def suite_steenrod(seed) -> Iterator[str | None]:
    """The quoted-set reductions, the mutation sanity check, and the
    extended Cartan closure.  The (2,2) entry is irreducible under the
    exact quoted set; see the extended mode for the full square."""
    _use(".bockstein.steenrod")
    rep = steenrod_dsquare_check()
    for pos in ((1, 1), (1, 2), (2, 1)):
        yield f"entry {pos} nonzero" if not rep.entry(*pos).reduced_to_zero else None
    closed = rep.entry(2, 2).reduced_to_zero
    yield "(2,2) unexpectedly closed by quoted set" if closed else None
    closed = steenrod_dsquare_check(extended=True).all_zero
    yield "extended set fails" if not closed else None
    mutated = tuple(r for r in QUOTED_RULES if r[0] != ("Sq2", "Sq2"))
    closed = steenrod_dsquare_check(rules=mutated).entry(1, 1).reduced_to_zero
    yield "mutation not detected" if closed else None
    yield "identity sanity" if not identity_sanity() else None


def suite_truncated(seed) -> Iterator[str | None]:
    _use(".bockstein.analysis")
    rng = random.Random(seed)
    for _ in range(50):
        a = random_normal_form(rng, 6)
        for j in range(1, 4):
            rep = truncated_check(a, j)
            yield f"j={j} for {a}: {rep.detail}" if not rep.holds else None


def suite_leibniz(seed) -> Iterator[str | None]:
    _use(".bockstein.analysis")
    for j in range(1, 4):
        for k in range(1, 4):
            yield f"(j,k)=({j},{k})" if not leibniz_check(j, k).holds else None


def suite_hom_cone(seed) -> Iterator[str | None]:
    _use(".cohomology")
    wrong = hom_cone(6, 3, 2, "MW") != FormalGroup.from_invariants([3, 4])
    yield "spot value l=6 failed" if wrong else None
    for l in range(1, 25):
        t, s = split_dyadic(l)
        for cat in ("MW", "W"):
            for p in range(-6, 7):
                for q in range(-6, 7):
                    lhs = hom_cone(l, p, q, cat).direct_sum(hom_cone(1, p, q, cat))
                    rhs = hom_cone(1 << t, p, q, cat).direct_sum(
                        hom_cone(s, p, q, cat)
                    )
                    yield f"l={l} ({p},{q}) {cat}" if lhs != rhs else None


def suite_hp1(seed) -> Iterator[str | None]:
    _use(".geometry")
    for rank in range(-5, 6):
        for sig in range(-5, 6):
            if (rank - sig) % 2:
                continue
            e = GWElement(rank, sig)
            canon = kx_orbit_canonical(e)
            flipped = GWElement(rank, -sig)
            cls = hp1_classify(2, e)
            want = rank == 0 and sig != 0
            if kx_orbit_canonical(canon) != canon:
                yield "canonicalization not idempotent"
            elif kx_orbit_canonical(flipped) != canon:
                yield "orbit members disagree"
            elif cls.stably_free_nontrivial != want:
                yield f"flag wrong at ({rank},{sig})"
            elif cls.is_free != (rank == 0 and sig == 0):
                yield f"free flag at ({rank},{sig})"
            elif hp1_classify(2, flipped) != cls:
                yield "orbit constancy failed"
            else:
                yield None


SUITES = {
    "block-pages": suite_block_pages,
    "torsion-profile": suite_torsion_profile,
    "degeneracy": suite_degeneracy,
    "decompose": suite_decompose,
    "pbundle": suite_pbundle,
    "kunneth": suite_kunneth,
    "tensor-witt": suite_tensor_witt,
    "bounded": suite_bounded,
    "couple": suite_couple,
    "steenrod": suite_steenrod,
    "truncated": suite_truncated,
    "leibniz": suite_leibniz,
    "hom-cone": suite_hom_cone,
    "hp1": suite_hp1,
}
