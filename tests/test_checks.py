"""The failure path of every `mwtate check` suite, and the guard that
every suite has a pinned case count.

Each failure case swaps one name that `mwtate.checks` imports for a
fake that answers like the real function for the first few calls and
then wrongly, so the suite fails after some passing cases.  The exact
``FAIL`` line pins the detail string and the case count at the failing
case.
"""

import contextlib
import io
from types import SimpleNamespace

import pytest

from mwtate import checks
from mwtate.cli import main
from mwtate.exactalg import FormalGroup, GradedGroup
from mwtate.motives import DyadicEta, NormalForm

from tests.test_acceptance import CASES as ACCEPTANCE_CASES
from tests.test_golden import CASES as GOLDEN_CASES, GOLDEN


_REAL = {
    name: getattr(checks, name)
    for name in ("block_pages", "split_dyadic", "degeneracy_page")
}


def _block_pages_one_higher(blk, i):
    return _REAL["block_pages"](DyadicEta(blk.t + 1, blk.weight), i)


def _split_dyadic_one_higher(l):
    t, s = _REAL["split_dyadic"](l)
    return t + 1, s


# suite: (name in mwtate.checks, real calls before the fault, fake, FAIL line)
FAULTS = {
    "block-pages": (
        "block_pages", 1, _block_pages_one_higher,
        "FAIL  block-pages: 77 cases (dim at j=1 i=3 (p,q)=(-2,-1): 1 != 0)",
    ),
    "bounded": (
        "witt_cohomology", 3, lambda a, m: GradedGroup(),
        "FAIL  bounded: 728 cases ((2,1) of NormalForm([DyadicEta(t=2, weight=1)]): "
        "1 != 0)",
    ),
    "couple": (
        "integer_cohomology", 5, lambda c, m: GradedGroup(),
        "FAIL  couple: 6 cases (E_inf mismatch: {0: 1, 1: 2, 2: 2, 3: 1})",
    ),
    "decompose": (
        "decompose", 3, lambda c: NormalForm([]),
        "FAIL  decompose: 4 cases (automorphism changed blocks: "
        "NormalForm([Free(weight=1), Free(weight=3), DyadicEta(t=4, weight=-2), "
        "DyadicEta(t=3, weight=-1), DyadicEta(t=1, weight=0), DyadicEta(t=2, "
        "weight=0), DyadicEta(t=0, weight=3)]))",
    ),
    "degeneracy": (
        "degeneracy_page", 5, lambda a: _REAL["degeneracy_page"](a) + 1,
        "FAIL  degeneracy: 6 cases (stabilized early for "
        "NormalForm([Free(weight=-3), Free(weight=1), DyadicEta(t=2, weight=0), "
        "DyadicEta(t=3, weight=2)]))",
    ),
    "hom-cone": (
        "split_dyadic", 2, _split_dyadic_one_higher,
        "FAIL  hom-cone: 691 cases (l=3 (-5,-6) MW)",
    ),
    "hp1": (
        "hp1_classify", 10,
        lambda n, e: SimpleNamespace(stably_free_nontrivial=None, is_free=None),
        "FAIL  hp1: 6 cases (flag wrong at (-5,5))",
    ),
    "kunneth": (
        "kunneth_e2", 30, lambda a, b: SimpleNamespace(equal=False),
        "FAIL  kunneth: 31 cases (NormalForm([DyadicEta(t=1, weight=-3), "
        "DyadicEta(t=4, weight=-3), DyadicEta(t=0, weight=-1)]) x "
        "NormalForm([Free(weight=-3), DyadicEta(t=4, weight=-2)]))",
    ),
    "leibniz": (
        "leibniz_check", 4, lambda j, k: SimpleNamespace(holds=False, detail="fake"),
        "FAIL  leibniz: 5 cases ((j,k)=(2,2))",
    ),
    "pbundle": (
        "witt_cohomology", 1, lambda a, m: GradedGroup(),
        "FAIL  pbundle: 2 cases (H^2 wrong for 2^2)",
    ),
    "steenrod": (
        "identity_sanity", 0, lambda: False,
        "FAIL  steenrod: 7 cases (identity sanity)",
    ),
    "tensor-witt": (
        "graded_kunneth", 10, lambda g, h: GradedGroup(),
        "FAIL  tensor-witt: 11 cases (NormalForm([Free(weight=2), DyadicEta(t=2, "
        "weight=-3), DyadicEta(t=0, weight=-2), DyadicEta(t=2, weight=-2), "
        "DyadicEta(t=0, weight=3), DyadicEta(t=3, weight=3), OddTorsion(p=7, r=1, "
        "shift=1)]) x NormalForm([Free(weight=-1), DyadicEta(t=0, weight=-3), "
        "DyadicEta(t=3, weight=-3)]))",
    ),
    "torsion-profile": (
        "pages_from_witt", 3, lambda h, i: None,
        "FAIL  torsion-profile: 4 cases (mismatch at page 5 for "
        "NormalForm([Free(weight=1), Free(weight=3), DyadicEta(t=4, weight=-2), "
        "DyadicEta(t=1, weight=0), DyadicEta(t=2, weight=1), OddTorsion(p=7, r=1, "
        "shift=1), OddTorsion(p=3, r=2, shift=3)]))",
    ),
    "truncated": (
        "truncated_check", 4, lambda a, j: SimpleNamespace(holds=False, detail="fake"),
        "FAIL  truncated: 5 cases (j=2 for NormalForm([Free(weight=3), "
        "Free(weight=3)]): fake)",
    ),
}


def _fail_after(monkeypatch, name, good, fake):
    real = getattr(checks, name)
    calls = [0]

    def faulty(*args):
        calls[0] += 1
        return real(*args) if calls[0] <= good else fake(*args)

    monkeypatch.setattr(checks, name, faulty)


def _check(suite) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", "--suite", suite, "--seed", "0"])
    return code, out.getvalue()


def test_every_suite_has_a_fault():
    assert sorted(FAULTS) == sorted(checks.SUITES)


@pytest.mark.parametrize("suite", sorted(FAULTS))
def test_failure_line(monkeypatch, suite):
    name, good, fake, line = FAULTS[suite]
    assert ": 1 cases" not in line  # a count of one would not test counting
    _fail_after(monkeypatch, name, good, fake)
    assert _check(suite) == (2, line + "\n")


def test_couple_suite_reads_the_two_primary_torsion(monkeypatch):
    # the integer cohomology with each Z/4 read as Z/8 keeps every free rank,
    # so only the torsion that the couple pages give can catch it
    real = checks.integer_cohomology

    def z4_as_z8(c, modulus):
        h = real(c, modulus)
        return GradedGroup({d: FormalGroup(g.free_rank, [8 if q == 4 else q for q in g.torsion])
                            for d, g in h.items()})

    monkeypatch.setattr(checks, "integer_cohomology", z4_as_z8)
    line = "FAIL  couple: 6 cases (2-primary torsion: {0: 1, 1: 2, 2: 2, 3: 1})\n"
    assert _check("couple") == (2, line)


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_every_suite_has_a_pinned_case_count(suite):
    # in tests/test_acceptance.py, or in a golden line of `mwtate check`
    golden = f"check-{suite}"
    assert suite in ACCEPTANCE_CASES or (
        golden in GOLDEN_CASES and (GOLDEN / f"{golden}.out").is_file()
    )
