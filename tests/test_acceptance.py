"""Acceptance criteria, one test per criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -s` to see
the lines, or via `mwtate check --suite all`.

Criterion 10's literal reading (all four matrix entries reduce to zero
under exactly the quoted identity set) is unattainable: the (2,2)
entry composes Sq3 Sq1 past tau, which no quoted identity touches; see
the strict xfail below and tests/test_steenrod.py for the Cartan-slide
closure of the full square.
"""

import pytest

from mwtate import checks
from mwtate.bockstein.steenrod import steenrod_dsquare_check


# the case count of each suite at its acceptance seed: a corpus cannot
# shrink without a test failing
CASES = {
    "block-pages": 2340,
    "torsion-profile": 1722,
    "degeneracy": 300,
    "decompose": 51000,
    "pbundle": 7,
    "kunneth": 125,
    "tensor-witt": 200,
    "bounded": 25500,
    "couple": 100,
    "steenrod": 7,
    "truncated": 150,
    "hom-cone": 8113,
    "hp1": 61,
}


def record(result):
    status = "PASS" if result.passed else "FAIL"
    line = f"criterion[{result.name}] {status} ({result.cases} cases)"
    if result.detail:
        line += f" :: {result.detail}"
    print(line)
    assert result.passed, line
    assert result.cases == CASES[result.name], line


class TestAcceptance:
    def test_criterion_01_block_page_tables(self):
        record(checks.run_suite("block-pages", 0))

    def test_criterion_02_torsion_profile_formula(self):
        record(checks.run_suite("torsion-profile", 7))

    def test_criterion_03_degeneration(self):
        record(checks.run_suite("degeneracy", 7))

    def test_criterion_04_decomposition_soundness(self):
        record(checks.run_suite("decompose", 11))

    def test_criterion_05_projective_bundle_reproduction(self):
        record(checks.run_suite("pbundle", 0))

    def test_criterion_06_kunneth_second_page(self):
        record(checks.run_suite("kunneth", 5))

    def test_criterion_07_tensor_witt_consistency(self):
        record(checks.run_suite("tensor-witt", 3))

    def test_criterion_08_second_page_is_mod2_witt(self):
        record(checks.run_suite("bounded", 9))

    def test_criterion_09_exact_couple_engine(self):
        record(checks.run_suite("couple", 13))

    def test_criterion_10_steenrod_check(self):
        # the attainable content: the three entries the proof reduces,
        # the mutation sanity, and the extended closure of the square
        record(checks.run_suite("steenrod", 0))

    @pytest.mark.xfail(
        strict=True,
        reason="spec defect: the (2,2) entry of the squared differential "
        "composes Sq3 Sq1 past tau and is irreducible under exactly the "
        "quoted identity set (the source never expands that entry); the "
        "Cartan slides close it, see steenrod_dsquare_check(extended=True)",
    )
    def test_criterion_10_literal_all_four_entries(self):
        rep = steenrod_dsquare_check()  # exactly the quoted set
        line = f"criterion[steenrod-all-four-literal] {'PASS' if rep.all_zero else 'FAIL'}"
        print(line)
        assert rep.all_zero, line

    def test_criterion_11_truncated_sequences(self):
        record(checks.run_suite("truncated", 17))

    def test_criterion_12_hom_cone_values(self):
        record(checks.run_suite("hom-cone", 0))

    def test_criterion_13_hp1_classification(self):
        record(checks.run_suite("hp1", 0))
