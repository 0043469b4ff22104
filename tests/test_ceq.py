"""Structure equations: transcription, d^2, complexification, realification."""

import random
from fractions import Fraction

import pytest

from nlacs import ceq
from nlacs.ceq import (ComplexEquations, algebra_from_real_equations,
                       bidegree_split, complex_equations, d_square_defect,
                       real_equations, realify)
from nlacs.cpx import adapt_frame, integrability_defect, standard_acs
from nlacs.errors import BadPairing, ConjugationInconsistent, NotIntegrable
from nlacs.exactlin import GaussRational
from nlacs.families import FamilyParams, family_instantiate
from nlacs.liealg import LieAlgebra, change_basis, jacobi_defect

from conftest import random_algebra, random_invertible

H3 = LieAlgebra.from_brackets(3, {(1, 2): {3: 1}})
NOT_JACOBI = LieAlgebra.from_brackets(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
STD_PAIRING = tuple((2 * a - 1, 2 * a) for a in range(1, 5))


class TestRealEquations:
    def test_abelian(self):
        assert real_equations(LieAlgebra.from_brackets(4, {})).coeffs == {}

    def test_h3(self):
        eqs = real_equations(H3)
        assert eqs.coeffs == {(3, 1, 2): Fraction(-1)}

    def test_ex2_5_transcription(self, algebras):
        eqs = real_equations(algebras["ex2_5"])
        assert eqs.coeffs == {
            (6, 1, 3): Fraction(-1), (6, 2, 4): Fraction(-1),
            (1, 3, 5): Fraction(1), (2, 4, 5): Fraction(1)}

    def test_round_trip_to_algebra(self, algebras):
        for g in algebras.values():
            assert algebra_from_real_equations(real_equations(g)).table == g.table


class TestDSquare:
    def test_abelian_empty(self):
        assert d_square_defect(real_equations(LieAlgebra.from_brackets(5, {}))) == []

    def test_ex2_6_empty(self, algebras):
        assert d_square_defect(real_equations(algebras["ex2_6"])) == []

    def test_non_jacobi_nonempty(self):
        assert d_square_defect(real_equations(NOT_JACOBI))

    def test_equivalence_with_jacobi(self, algebras):
        rnd = random.Random(59)
        samples = list(algebras.values())
        samples += [random_algebra(rnd, rnd.randint(3, 6)) for _ in range(30)]
        for g in samples:
            assert (not jacobi_defect(g)) \
                == (not d_square_defect(real_equations(g)))


class TestComplexEquations:
    def test_abelian_all_zero(self):
        g = LieAlgebra.from_brackets(8, {})
        eqs = complex_equations(g, standard_acs(8), STD_PAIRING)
        assert eqs.coeffs == {}

    def test_ex3_18_no_02_block(self, docs, algebras):
        g, j = algebras["ex3_18"], docs["ex3_18"].structure("J")
        pairing = ((2, 1), (3, 4), (7, 6), (8, 5))  # J e2 = e1 etc.
        eqs = complex_equations(g, j, pairing)
        assert all(key[1][0] != "02" for key in eqs.coeffs)

    def test_bad_pairing(self, docs, algebras):
        g, j = algebras["ex3_18"], docs["ex3_18"].structure("J")
        with pytest.raises(BadPairing):
            complex_equations(g, j, ((1, 2), (3, 4), (5, 6), (7, 8)))
        with pytest.raises(BadPairing):
            complex_equations(g, j, ((2, 1), (3, 4), (7, 6)))

    def test_requires_integrability_by_default(self, algebras):
        rnd = random.Random(61)
        g = change_basis(algebras["ex2_5"], random_invertible(rnd, 8))
        j = standard_acs(8)
        if integrability_defect(g, j):
            with pytest.raises(NotIntegrable):
                complex_equations(g, j, STD_PAIRING)
            eqs = complex_equations(g, j, STD_PAIRING,
                                    require_integrability=False)
            assert any(key[1][0] == "02" for key in eqs.coeffs)

    def test_02_guard_is_an_error_not_an_assert(self, monkeypatch):
        # [e1,e3] = e1 makes N(e1, e3) nonzero for the standard structure;
        # with the Nijenhuis check skipped, the (0,2) guard must still fire
        g = LieAlgebra.from_brackets(4, {(1, 3): {1: 1}})
        j = standard_acs(4)
        assert integrability_defect(g, j)
        monkeypatch.setattr(ceq, "require_integrable", lambda g, j: None)
        with pytest.raises(NotIntegrable, match="(0,2)"):
            complex_equations(g, j, ((1, 2), (3, 4)))

    def test_default_ordering_reproduces_family(self, docs, algebras):
        # the committed corpus realifications use the standard pairing
        from nlacs.families import COMMITTED_INSTANCES

        for (fam, typ), params in COMMITTED_INSTANCES.items():
            stem = f"{fam.lower()}_{''.join(str(d) for d in typ)}"
            g, j = algebras[stem], docs[stem].structure("J")
            eqs = complex_equations(g, j, STD_PAIRING)
            assert eqs == family_instantiate(params), stem


class TestBidegree:
    def test_single_mixed_term(self):
        eqs = ComplexEquations(2, {(1, ("11", 1, 1)): GaussRational.of(1)})
        p20, p11, p02 = bidegree_split(eqs, 1)
        assert p20 == {} and p02 == {}
        assert p11 == {(1, 1): GaussRational.of(1)}

    def test_family_dw3_blocks(self):
        p = FamilyParams.make("G2dim4", {"D": "1/2", "E": "1/2i", "F": "-1"})
        eqs = family_instantiate(p)
        p20, p11, p02 = bidegree_split(eqs, 3)
        D, E, F = (GaussRational.parse(x) for x in ("1/2", "1/2i", "-1"))
        assert p20 == {(1, 2): -D, (1, 4): -E}
        assert p11 == {(1, 2): D, (1, 4): E, (1, 1): F}
        assert p02 == {}

    def test_recombination(self):
        p = FamilyParams.make("G2dim3", {"C": "1+1/2i", "D": "2i", "G": "-1",
                                         "N": "1/2"})
        eqs = family_instantiate(p)
        for a in range(1, 5):
            p20, p11, p02 = bidegree_split(eqs, a)
            merged = {("20", b, c): v for (b, c), v in p20.items()}
            merged |= {("11", b, c): v for (b, c), v in p11.items()}
            merged |= {("02", b, c): v for (b, c), v in p02.items()}
            assert merged == eqs.d_of(a)


class TestRealify:
    def test_all_zero(self):
        g, j, pairing = realify(ComplexEquations(4, {}))
        assert g.table == () and j.matrix == standard_acs(8).matrix
        assert pairing == STD_PAIRING

    def test_single_imaginary_coefficient(self):
        # dw4 = i w^{1 1~} realifies to the single bracket [e1, e2] = 2 e7
        eqs = ComplexEquations(4, {(4, ("11", 1, 1)): GaussRational.parse("i")})
        g, j, _ = realify(eqs)
        expected = LieAlgebra.from_brackets(8, {(1, 2): {7: 2}})
        assert g.table == expected.table
        assert jacobi_defect(g) == [] and integrability_defect(g, j) == []

    def test_round_trip_from_random_tables(self):
        rnd = random.Random(67)
        kinds = ("20", "11", "02")
        for _ in range(25):
            m = rnd.choice((2, 3, 4))
            coeffs = {}
            for _ in range(rnd.randint(0, 6)):
                a = rnd.randint(1, m)
                kind = rnd.choice(kinds)
                b, c = rnd.randint(1, m), rnd.randint(1, m)
                if kind in ("20", "02"):
                    if b == c:
                        continue
                    b, c = min(b, c), max(b, c)
                coeffs[(a, (kind, b, c))] = GaussRational(
                    Fraction(rnd.randint(-2, 2), rnd.randint(1, 2)),
                    Fraction(rnd.randint(-2, 2), rnd.randint(1, 2)))
            eqs = ComplexEquations(m, coeffs)
            g, j, pairing = realify(eqs)
            back = complex_equations(g, j, pairing, require_integrability=False)
            assert back == eqs

    def test_round_trip_through_adapted_corpus_pairs(self, integrable_pairs):
        for name, sname, g, j in integrable_pairs:
            g2, j2, _ = adapt_frame(g, j)
            pairing = tuple((2 * a - 1, 2 * a) for a in range(1, g.dim // 2 + 1))
            eqs = complex_equations(g2, j2, pairing)
            g3, j3, _ = realify(eqs)
            assert g3.table == g2.table, (name, sname)
            assert j3.matrix == j2.matrix

    def test_jacobi_matches_d_square(self):
        rnd = random.Random(71)
        for _ in range(15):
            coeffs = {(4, ("11", 1, 1)): GaussRational(Fraction(rnd.randint(-2, 2))),
                      (2, ("20", 1, rnd.choice((3, 4)))):
                          GaussRational(Fraction(rnd.randint(-2, 2)), Fraction(1))}
            eqs = ComplexEquations(4, {k: v for k, v in coeffs.items()
                                       if not v.is_zero()})
            g, _, _ = realify(eqs)
            assert (not jacobi_defect(g)) \
                == (not d_square_defect(real_equations(g)))


class TestMalformedTables:
    def test_unordered_holomorphic_key(self):
        with pytest.raises(ConjugationInconsistent):
            ComplexEquations(4, {(1, ("20", 2, 1)): GaussRational.of(1)})

    def test_index_out_of_range(self):
        with pytest.raises(ConjugationInconsistent):
            ComplexEquations(2, {(1, ("11", 3, 1)): GaussRational.of(1)})

    def test_unknown_block(self):
        with pytest.raises(ConjugationInconsistent):
            ComplexEquations(2, {(1, ("33", 1, 1)): GaussRational.of(1)})
