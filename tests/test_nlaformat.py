"""Parser and printer: grammar cases, round trips, total-parse fuzzing."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nlacs import corpus
from nlacs.ceq import ComplexEquations
from nlacs.exactlin import GaussRational
from nlacs.liealg import ascending_type
from nlacs.nlaformat import (MAX_DIM, DuplicateBracket, IndexOutOfRange,
                             JInconsistent, NlaParseError, NlaSyntaxError,
                             parse_complex_equations, parse_nla, parse_pairing,
                             parse_vector_list, print_complex_equations,
                             print_nla)


class TestGrammar:
    def test_heisenberg(self):
        doc = parse_nla("dim 3\n[1,2] = 3\n")
        g = doc.algebra()
        assert g.basis_bracket(1, 2) == (0, 0, 1)

    def test_ex2_5_file_round_trips_downstream(self):
        doc = corpus.load("ex2_5")
        assert ascending_type(doc.algebra()) == (3, 5, 8)
        assert doc.structure_names() == ("J", "hat")

    def test_terms_with_coefficients(self):
        doc = parse_nla("dim 4\n[1,2] = -3 1/2*4\n")
        assert doc.algebra().basis_bracket(1, 2) \
            == (0, 0, Fraction(-1), Fraction(1, 2))

    def test_self_bracket_rejected(self):
        with pytest.raises(NlaSyntaxError):
            parse_nla("dim 3\n[1,1] = 2\n")

    def test_reversed_key_rejected(self):
        with pytest.raises(NlaSyntaxError):
            parse_nla("dim 3\n[2,1] = 3\n")

    def test_duplicate_bracket(self):
        with pytest.raises(DuplicateBracket) as err:
            parse_nla("dim 3\n[1,2] = 3\n[1,2] = 3\n")
        assert err.value.line == 3

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            parse_nla("dim 3\n[1,2] = 4\n")
        with pytest.raises(IndexOutOfRange):
            parse_nla("dim 3\n[1,4] = 2\n")

    def test_dim_required_first(self):
        with pytest.raises(NlaSyntaxError):
            parse_nla("[1,2] = 3\ndim 3\n")
        with pytest.raises(NlaSyntaxError):
            parse_nla("name \"x\"\n")

    def test_dim_limit(self):
        assert parse_nla(f"dim {MAX_DIM}\n").dim == MAX_DIM
        assert parse_nla("dim 007\n").dim == 7
        for text in (f"dim {MAX_DIM + 1}", "dim 3000", "dim " + "9" * 5000):
            with pytest.raises(NlaSyntaxError) as exc:
                parse_nla("# huge\n" + text + "\n")
            assert (exc.value.line, exc.value.col) == (2, 1)
            assert f"limit of {MAX_DIM}" in str(exc.value)
        for text in ("dim 0", "dim 000", "dim", "dim -3", "dim \u00b2"):
            with pytest.raises(NlaSyntaxError, match="dim N with N >= 1"):
                parse_nla(text + "\n")

    def test_comments_and_blank_lines(self):
        doc = parse_nla("# header\n\ndim 3  # trailing\n[1,2] = 3 # more\n")
        assert doc.dim == 3 and len(doc.brackets) == 1

    def test_shorthand_defines_both_rows(self):
        doc = parse_nla("dim 2\nJ 1 = 2\n")
        j = doc.structure("J")
        assert j.apply((1, 0)) == (0, 1)
        assert j.apply((0, 1)) == (-1, 0)

    def test_explicit_rows(self):
        doc = parse_nla("dim 2\nJ 1 = 1*2\nJ 2 = -1\n")
        j = doc.structure("J")
        assert j.apply((1, 0)) == (0, 1)

    def test_overlapping_shorthand(self):
        with pytest.raises(JInconsistent):
            parse_nla("dim 4\nJ 1 = 2\nJ 2 = 3\n")

    def test_self_pair_rejected(self):
        with pytest.raises(JInconsistent):
            parse_nla("dim 2\nJ 1 = 1\n")

    def test_incomplete_structure(self):
        doc = parse_nla("dim 4\nJ 1 = 2\n")
        with pytest.raises(JInconsistent):
            doc.structure("J")

    def test_missing_structure(self):
        doc = parse_nla("dim 2\n")
        with pytest.raises(JInconsistent):
            doc.structure("J")

    def test_named_structures(self):
        doc = parse_nla("dim 2\nJ 1 = 2\nJ(other) 2 = 1\n")
        assert doc.structure_names() == ("J", "other")
        assert doc.structure("other").apply((0, 1)) == (1, 0)

    def test_invalid_j_matrix_rejected_at_use(self):
        doc = parse_nla("dim 2\nJ 1 = 1*1\nJ 2 = 1*2\n")
        from nlacs.errors import NotAlmostComplex
        with pytest.raises(NotAlmostComplex):
            doc.structure("J")


class TestRoundTrip:
    def test_corpus_model_round_trip(self):
        for name in corpus.names():
            doc = corpus.load(name)
            printed = print_nla(doc)
            assert parse_nla(printed) == doc, name
            assert print_nla(parse_nla(printed)) == printed, name

    def test_unit_coefficient_rows_stay_explicit(self):
        doc = parse_nla("dim 2\nJ 1 = 1*2\nJ 2 = -1\n")
        assert parse_nla(print_nla(doc)) == doc


class TestHelpers:
    def test_vector_list(self):
        vecs = parse_vector_list("7;8", 8)
        assert vecs[0][6] == 1 and vecs[1][7] == 1
        vecs = parse_vector_list("1 -1/2*3", 3)
        assert vecs == [(1, 0, Fraction(-1, 2))]

    def test_pairing(self):
        assert parse_pairing("4,8;3,7", 8) == ((4, 8), (3, 7))
        with pytest.raises(NlaSyntaxError):
            parse_pairing("4;3,7", 8)


class TestFuzz:
    @given(st.text(max_size=300))
    @settings(max_examples=300, deadline=None)
    @example("dim 3\n[1,2] = 3")
    @example("dim 0")
    @example("[")
    @example("J 1 =")
    @example("dim 4\nJ(x 1 = 2")
    def test_parser_total(self, text):
        try:
            parse_nla(text)
        except NlaParseError as exc:
            assert exc.line >= 1 and exc.col >= 1

    @given(st.text(alphabet="dim nameJ()[]=,*/-0123456789 \n\"#", max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_parser_total_structured_alphabet(self, text):
        try:
            parse_nla(text)
        except NlaParseError:
            pass


class TestEquationSerialization:
    def test_round_trip_committed(self):
        from nlacs.families import COMMITTED_INSTANCES, family_instantiate

        for params in COMMITTED_INSTANCES.values():
            eqs = family_instantiate(params)
            assert parse_complex_equations(print_complex_equations(eqs)) == eqs

    def test_zero_line(self):
        eqs = ComplexEquations(2, {})
        assert print_complex_equations(eqs) == "dw1 = 0\ndw2 = 0\n"
        assert parse_complex_equations("dw1 = 0\ndw2 = 0\n") == eqs

    def test_key_rendering(self):
        eqs = ComplexEquations(3, {
            (1, ("20", 1, 2)): GaussRational.parse("1+2i"),
            (1, ("11", 1, 3)): GaussRational.parse("-1/2"),
            (2, ("02", 2, 3)): GaussRational.parse("i"),
        })
        text = print_complex_equations(eqs)
        assert "dw1 = (1+2i) w1^2 + (-1/2) w1^-3" in text
        assert "dw2 = (i) w-2^-3" in text
