"""Symbolic square-zero check for the first-page differential matrix.

Operators are F2 sums of words in Sq1, Sq2, Sq3, Sq5 and the
coefficient tau, with rho kept as a central scalar (it commutes with
every Sq since it is integrally defined and its squares vanish over the
base in play); tau does NOT commute and only moves through the rewrite
rules.  The differential is the 2 x 2 matrix

    D = [[Sq2,     tau        ],
         [Sq3Sq1,  Sq2 + rhoSq1]]

and the check reduces the four entries of D*D with a fixed rule set.

The quoted rule set consists of the four displayed identities

    Sq2 Sq2     -> tau Sq3 Sq1
    Sq2 Sq3 Sq1 -> Sq5 Sq1
    Sq3 Sq1 Sq2 -> Sq3 Sq3 -> Sq5 Sq1
    Sq2 tau     -> tau Sq2 + tau rho Sq1

plus Sq1 Sq1 = 0 and Sq1 Sq3 Sq1 = 0.  These reduce the top row and the
bottom-left entry to zero.  The bottom-right entry composes Sq3 Sq1
past a tau and is NOT reducible by the quoted set; the extended mode
adds the Cartan-forced slides

    Sq1 tau -> rho + tau Sq1
    Sq3 tau -> rho Sq2 + tau Sq3 + rho^2 Sq1
    Sq1 Sq2 -> Sq3

under which all four entries vanish.
"""

from __future__ import annotations

from ..values import Frozen

# A term is (rho exponent, word tuple); an element is a frozenset of
# terms (coefficients are mod 2).

SQ1, SQ2, SQ3, SQ5, TAU = "Sq1", "Sq2", "Sq3", "Sq5", "tau"


def element(*terms) -> frozenset:
    out = set()
    for rho, word in terms:
        key = (rho, tuple(word))
        out.symmetric_difference_update({key})
    return frozenset(out)


def add(a: frozenset, b: frozenset) -> frozenset:
    return a.symmetric_difference(b)


def compose(a: frozenset, b: frozenset) -> frozenset:
    """Operator composition: a after b, word of a then word of b."""
    out = set()
    for ra, wa in a:
        for rb, wb in b:
            key = (ra + rb, wa + wb)
            if key in out:
                out.remove(key)
            else:
                out.add(key)
    return frozenset(out)


# rule: lhs word -> list of (rho increment, replacement word)
QUOTED_RULES = (
    ((SQ2, SQ2), ((0, (TAU, SQ3, SQ1)),)),
    ((SQ2, SQ3, SQ1), ((0, (SQ5, SQ1)),)),
    ((SQ3, SQ1, SQ2), ((0, (SQ3, SQ3)),)),
    ((SQ3, SQ3), ((0, (SQ5, SQ1)),)),
    ((SQ2, TAU), ((0, (TAU, SQ2)), (1, (TAU, SQ1)))),
    ((SQ1, SQ1), ()),
    ((SQ1, SQ3, SQ1), ()),
)

CARTAN_SLIDES = (
    ((SQ1, TAU), ((1, ()), (0, (TAU, SQ1)))),
    ((SQ3, TAU), ((1, (SQ2,)), (0, (TAU, SQ3)), (2, (SQ1,)))),
    ((SQ1, SQ2), ((0, (SQ3,)),)),
)


def _match(word, rules):
    """Leftmost-longest rule match: (position, lhs, rhs) or None."""
    best = None
    for pos in range(len(word)):
        for lhs, rhs in rules:
            if word[pos : pos + len(lhs)] == lhs:
                if best is None or pos < best[0] or (
                    pos == best[0] and len(lhs) > len(best[1])
                ):
                    best = (pos, lhs, rhs)
        if best is not None and best[0] == pos:
            break
    return best


def reduce_element(elem: frozenset, rules, max_steps: int = 10000):
    """Reduce to a normal form; returns (normal form, trace of rules)."""
    trace = []
    current = set(elem)
    for _ in range(max_steps):
        target = None
        for term in sorted(current):
            hit = _match(term[1], rules)
            if hit is not None:
                target = (term, hit)
                break
        if target is None:
            return frozenset(current), trace
        (rho, word), (pos, lhs, rhs) = target
        current.remove((rho, word))
        trace.append(" ".join(lhs))
        for rho_inc, repl in rhs:
            key = (rho + rho_inc, word[:pos] + repl + word[pos + len(lhs) :])
            if key in current:
                current.remove(key)
            else:
                current.add(key)
    raise RuntimeError("rewrite did not terminate")


class EntryReport(Frozen):
    __slots__ = _fields = ("position", "start", "normal_form", "reduced_to_zero", "trace")


class DSquareReport(Frozen):
    __slots__ = _fields = ("entries", "all_zero", "rules_used")

    def entry(self, row: int, col: int) -> EntryReport:
        for e in self.entries:
            if e.position == (row, col):
                return e
        raise KeyError((row, col))


def differential_matrix():
    a = element((0, (SQ2,)))
    b = element((0, (TAU,)))
    c = element((0, (SQ3, SQ1)))
    d = element((0, (SQ2,)), (1, (SQ1,)))
    return ((a, b), (c, d))


def steenrod_dsquare_check(extended: bool = False, rules=None) -> DSquareReport:
    """Compose D with itself and reduce all four entries.

    With the quoted rule set the (2,2) entry is irreducible (its
    leading word composes Sq3 Sq1 into tau, which no quoted identity
    touches); extended=True adds the Cartan slides and closes it.

    >>> steenrod_dsquare_check().entry(1, 1).reduced_to_zero
    True
    >>> steenrod_dsquare_check(extended=True).all_zero
    True
    """
    if rules is None:
        rules = QUOTED_RULES + (CARTAN_SLIDES if extended else ())
        used = "quoted+slides" if extended else "quoted"
    else:
        rules = tuple(rules)
        used = "custom"
    m = differential_matrix()
    entries = []
    ok = True
    for r in range(2):
        for c in range(2):
            start = add(
                compose(m[r][0], m[0][c]), compose(m[r][1], m[1][c])
            )
            nf, trace = reduce_element(start, rules)
            zero = not nf
            ok = ok and zero
            entries.append(EntryReport((r + 1, c + 1), start, nf, zero, tuple(trace)))
    return DSquareReport(tuple(entries), ok, used)


def identity_sanity() -> bool:
    """Composing the identity matrix with itself returns the identity."""
    one = element((0, ()))
    zero = element()
    m = ((one, zero), (zero, one))
    for r in range(2):
        for c in range(2):
            got = add(compose(m[r][0], m[0][c]), compose(m[r][1], m[1][c]))
            nf, _ = reduce_element(got, QUOTED_RULES)
            want = one if r == c else zero
            if nf != want:
                return False
    return True
