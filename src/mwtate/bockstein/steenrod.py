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
MAX_REWRITES = 10000  # rewrite steps before reduce_element gives up


def element(*terms) -> frozenset:
    out = set()
    for rho, word in terms:
        key = (rho, tuple(word))
        out ^= {key}
    return frozenset(out)


def add(a: frozenset, b: frozenset) -> frozenset:
    return a.symmetric_difference(b)


def compose(a: frozenset, b: frozenset) -> frozenset:
    """Operator composition: a after b, word of a then word of b."""
    return element(*((ra + rb, wa + wb) for ra, wa in a for rb, wb in b))


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
    """Leftmost-longest rule match: (position, lhs, rhs) or None; of equally
    long matches the first rule wins."""
    for pos in range(len(word)):
        hits = [(lhs, rhs) for lhs, rhs in rules if word[pos : pos + len(lhs)] == lhs]
        if hits:
            lhs, rhs = max(hits, key=lambda hit: len(hit[0]))
            return pos, lhs, rhs
    return None


def reduce_element(elem: frozenset, rules):
    """Reduce to a normal form; returns (normal form, trace of rules)."""
    trace = []
    current = set(elem)
    for _ in range(MAX_REWRITES):
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
            current ^= {key}
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


def _square(m):
    """The four entries of the 2 x 2 product m*m, each with its position."""
    for r in range(2):
        for c in range(2):
            entry = add(compose(m[r][0], m[0][c]), compose(m[r][1], m[1][c]))
            yield (r + 1, c + 1), entry


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
    entries = []
    for position, start in _square(differential_matrix()):
        nf, trace = reduce_element(start, rules)
        entries.append(EntryReport(position, start, nf, not nf, tuple(trace)))
    return DSquareReport(tuple(entries), all(e.reduced_to_zero for e in entries), used)


def identity_sanity() -> bool:
    """Composing the identity matrix with itself returns the identity."""
    one = element((0, ()))
    zero = element()
    m = ((one, zero), (zero, one))
    for (r, c), got in _square(m):
        nf, _ = reduce_element(got, QUOTED_RULES)
        want = one if r == c else zero
        if nf != want:
            return False
    return True
