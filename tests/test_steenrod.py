import pytest

from mwtate.bockstein.steenrod import (
    CARTAN_SLIDES,
    QUOTED_RULES,
    SQ1,
    SQ2,
    SQ3,
    TAU,
    add,
    compose,
    element,
    identity_sanity,
    reduce_element,
    steenrod_dsquare_check,
)


class TestRewriting:
    def test_sq2_squared(self):
        start = add(
            compose(element((0, (SQ2,))), element((0, (SQ2,)))),
            compose(element((0, (TAU,))), element((0, (SQ3, SQ1)))),
        )
        nf, trace = reduce_element(start, QUOTED_RULES)
        assert not nf
        assert "Sq2 Sq2" in trace

    def test_bottom_left_entry(self):
        d_entry = add(element((0, (SQ2,))), element((1, (SQ1,))))
        start = add(
            compose(element((0, (SQ3, SQ1))), element((0, (SQ2,)))),
            compose(d_entry, element((0, (SQ3, SQ1)))),
        )
        nf, trace = reduce_element(start, QUOTED_RULES)
        assert not nf
        assert "Sq1 Sq3 Sq1" in trace  # the derived Adem vanishing fires

    def test_coinciding_products_cancel(self):
        # Sq1 . rho Sq2Sq3 and rho Sq1Sq2 . Sq3 are the same term: mod 2
        # the pair cancels, and only the other two products are left
        a = element((0, (SQ1,)), (1, (SQ1, SQ2)))
        b = element((1, (SQ2, SQ3)), (0, (SQ3,)))
        want = element((0, (SQ1, SQ3)), (2, (SQ1, SQ2, SQ2, SQ3)))
        assert compose(a, b) == want

    def test_identity_matrix_sanity(self):
        assert identity_sanity()

    def test_rho_is_central_by_representation(self):
        a = element((1, (SQ2,)))
        b = element((0, (SQ1,)))
        left = compose(a, b)
        right = compose(element((0, (SQ2,))), element((1, (SQ1,))))
        assert left == right


class TestDSquare:
    def test_three_entries_reduce_under_quoted_set(self):
        rep = steenrod_dsquare_check()
        for pos in ((1, 1), (1, 2), (2, 1)):
            assert rep.entry(*pos).reduced_to_zero

    def test_bottom_right_is_irreducible_under_quoted_set(self):
        # the (2,2) entry composes Sq3 Sq1 into tau; no quoted identity
        # moves tau past Sq1 or Sq3, so a residue survives
        entry = steenrod_dsquare_check().entry(2, 2)
        assert not entry.reduced_to_zero
        residue_words = {word for _, word in entry.normal_form}
        assert ("Sq3", "Sq1", "tau") in residue_words

    def test_extended_cartan_slides_close_the_square(self):
        rep = steenrod_dsquare_check(extended=True)
        assert rep.all_zero

    def test_mutation_sanity(self):
        mutated = tuple(r for r in QUOTED_RULES if r[0] != (SQ2, SQ2))
        rep = steenrod_dsquare_check(rules=mutated)
        assert not rep.entry(1, 1).reduced_to_zero
        assert not rep.all_zero

    def test_reports_traces(self):
        rep = steenrod_dsquare_check()
        assert rep.entry(1, 1).trace  # at least one rewrite recorded


class TestSlidesAreConsistent:
    def test_slides_do_not_break_quoted_entries(self):
        rep = steenrod_dsquare_check(extended=True)
        for r in range(1, 3):
            for c in range(1, 3):
                assert rep.entry(r, c).reduced_to_zero

    def test_sq1_slide_squares_to_zero(self):
        # Sq1 Sq1 tau reduces to zero both ways around
        word = element((0, (SQ1, SQ1, TAU)))
        nf, _ = reduce_element(word, QUOTED_RULES + CARTAN_SLIDES)
        assert not nf
