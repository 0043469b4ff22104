"""Acceptance criteria, one test per criterion, all tolerances exact.

Each test prints a single ``[criterion N] PASS|FAIL`` line (visible under
``pytest -s`` / ``-v``) before asserting, so a red criterion still
reports itself.  Every expected value here is either a corpus-verified
constant or produced by an independent oracle (brute force, counting,
or the deterministic grid search).
"""

import random
import time
from functools import lru_cache

from nlacs import corpus
from nlacs.ceq import complex_equations, d_square_defect, real_equations, realify
from nlacs.cpx import (Acs, JKind, adapt_frame, integrability_defect,
                       j_compatible_series, largest_j_invariant, nijenhuis,
                       standard_acs)
from nlacs.exactlin import (Subspace, intersect, is_zero_vector, sum_span,
                            unit_vector)
from nlacs.families import (ACCEPTANCE_GRIDS, COMMITTED_INSTANCES,
                            acceptance_candidates, brute_force_case_search,
                            family_case_check, family_instantiate)
from nlacs.liealg import (LieAlgebra, ascending_central_series, center,
                          change_basis, jacobi_defect, quotient)
from nlacs.obstruct import audit_failures, obstruction_report, theorem_audit

from conftest import random_acs, random_algebra, random_invertible, random_subspace
from test_families import coefficient_map


def report(n: int, ok: bool, detail: str = "") -> bool:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def e(n, k):
    return unit_vector(n, k - 1)


def span(vectors, n):
    return Subspace.span(vectors, n)


def test_criterion_1_example_2_5():
    t0 = time.perf_counter()
    doc = corpus.load("ex2_5")
    g = doc.algebra()
    rep = ascending_central_series(g)
    cls_j = j_compatible_series(g, doc.structure("J"))
    cls_h = j_compatible_series(g, doc.structure("hat"))
    elapsed = time.perf_counter() - t0

    ok_type = rep.ascending_type == (3, 5, 8)
    top = cls_j.term(cls_j.stabilization_index)
    ok_j = (top == span([e(8, 7), e(8, 8)], 8)
            and cls_j.kind is JKind.WEAKLY_NON_NILPOTENT)
    ok_h = ([cls_h.term(k).dim for k in (1, 2, 3)] == [2, 4, 8]
            and cls_h.kind is JKind.NILPOTENT)
    ok_time = elapsed < 1.0
    ok = report(1, ok_type and ok_j and ok_h and ok_time,
                f"type {rep.ascending_type}, J {cls_j.kind.value}, "
                f"hat dims {[cls_h.term(k).dim for k in (1, 2, 3)]}, "
                f"{elapsed:.3f}s")
    assert ok


def test_criterion_2_example_2_6():
    t0 = time.perf_counter()
    doc = corpus.load("ex2_6")
    g = doc.algebra()
    rep = ascending_central_series(g)
    cls_j = j_compatible_series(g, doc.structure("J"))
    cls_h = j_compatible_series(g, doc.structure("hat"))
    elapsed = time.perf_counter() - t0

    ok_type = rep.ascending_type == (2, 6, 10)
    ok_j = (cls_j.kind is JKind.STRONGLY_NON_NILPOTENT
            and cls_j.term(1).dim == 0)
    ok_h = (cls_h.kind is JKind.NILPOTENT
            and cls_h.term(1) == rep.term(1) and cls_h.term(2) == rep.term(2)
            and (cls_h.term(1).dim, cls_h.term(2).dim) == (2, 6))
    ok_time = elapsed < 1.0
    ok = report(2, ok_type and ok_j and ok_h and ok_time,
                f"type {rep.ascending_type}, {elapsed:.3f}s")
    assert ok


def test_criterion_3_example_3_17():
    """Red by design: the two pins on ex3_17 contradict each other.

    For a nilpotent g with center Z = Z_1(g), the preimage of Z_k(g/Z)
    under the projection is Z_{k+1}(g).  Induct on k: the preimage of
    Z_0(g/Z) = 0 is Z = Z_1(g), and x + Z is in Z_k(g/Z) exactly when
    [x, g] lies in the preimage of Z_{k-1}(g/Z), which is Z_k(g), i.e.
    when x is in Z_{k+1}(g).  Hence Z_k(g/Z) = Z_{k+1}(g)/Z and
    dim Z_k(g/Z) = dim Z_{k+1}(g) - dim Z.  Type (2,4,5,6,8) for g
    therefore forces quotient type (4-2, 5-2, 6-2, 8-2) = (2,3,4,6), not
    the pinned (1,2,3,4,6).  The assertion is kept as written.
    """
    doc = corpus.load("ex3_17")
    g = doc.algebra()
    rep = ascending_central_series(g)
    ok_type = rep.ascending_type == (2, 4, 5, 6, 8)

    q, _ = quotient(g, rep.term(1))
    expected = LieAlgebra.from_brackets(6, {
        (1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {6: 1}})
    ok_brackets = q.table == expected.table  # field-exact comparison

    q_type = ascending_central_series(q).ascending_type
    ok_qtype = q_type == (1, 2, 3, 4, 6)

    ok = report(3, ok_type and ok_brackets and ok_qtype,
                f"type {rep.ascending_type}, quotient brackets "
                f"{'exact' if ok_brackets else 'WRONG'}, "
                f"quotient type {q_type} (required (1, 2, 3, 4, 6))")
    assert ok


def test_criterion_4_example_3_18():
    doc = corpus.load("ex3_18")
    g = doc.algebra()
    j = doc.structure("J")
    ok_defect = integrability_defect(g, j) == []
    cls = j_compatible_series(g, j)
    cen = center(g)
    ok_a1 = cls.term(1) == cen and cen.dim == 2
    ok_kind = cls.kind is not JKind.STRONGLY_NON_NILPOTENT
    ok = report(4, ok_defect and ok_a1 and ok_kind,
                f"integrable, a_1 = center (dim {cen.dim}), "
                f"kind {cls.kind.value}")
    assert ok


@lru_cache(maxsize=1)
def _search_results():
    """One deterministic grid search per session, shared by criteria 5/7/8."""
    results = {}
    t0 = time.perf_counter()
    for case in ACCEPTANCE_GRIDS:
        found = brute_force_case_search(*case, acceptance_candidates(*case),
                                        limit=1)
        results[case] = found
    return results, time.perf_counter() - t0


def _corpus_pairs():
    pairs = []
    for name in corpus.names():
        doc = corpus.load(name)
        g = doc.algebra()
        for sname in doc.structure_names():
            pairs.append((name, sname, g, doc.structure(sname)))
    return pairs


def test_criterion_5_theorem_audit_master():
    failures = []
    audited = 0
    for name, sname, g, j in _corpus_pairs():
        bad = audit_failures(theorem_audit(g, j))
        audited += 1
        if bad:
            failures.append((name, sname, [c.rule for c in bad]))
    results, _ = _search_results()
    for case, found in results.items():
        for params in found:
            g, j, _ = realify(family_instantiate(params))
            bad = audit_failures(theorem_audit(g, j))
            audited += 1
            if bad:
                failures.append((case, [c.rule for c in bad]))
    ok = report(5, not failures,
                f"{audited} pairs audited, failures: {failures or 'none'}")
    assert ok


def test_criterion_6_equivalence_cross_checks():
    cases = 200
    corpus_names = [n for n in corpus.names()
                    if corpus.load(n).algebra().dim % 2 == 0]
    pairs = _corpus_pairs()

    # (a) d^2 = 0 iff Jacobi, on randomized structure-constant tables
    rnd = random.Random(601)
    seen = {True: 0, False: 0}
    for i in range(cases):
        if i % 4 == 0:
            g = corpus.load(rnd.choice(corpus_names)).algebra()
            g = change_basis(g, random_invertible(rnd, g.dim))
        else:
            g = random_algebra(rnd, rnd.randint(2, 6))
        jac_ok = not jacobi_defect(g)
        dd_ok = not d_square_defect(real_equations(g))
        assert jac_ok == dd_ok
        seen[jac_ok] += 1
    assert seen[True] and seen[False]

    # (b) (0,2) block vanishes iff the Nijenhuis tensor does
    rnd = random.Random(602)
    seen = {True: 0, False: 0}
    for i in range(cases):
        if i % 2 == 0:
            name, sname, g, j = pairs[rnd.randrange(len(pairs))]
            g, j, _ = adapt_frame(g, j)
        else:
            g = corpus.load(rnd.choice(corpus_names)).algebra()
            g = change_basis(g, random_invertible(rnd, g.dim))
            j = standard_acs(g.dim)
        pairing = tuple((2 * a - 1, 2 * a) for a in range(1, g.dim // 2 + 1))
        eqs = complex_equations(g, j, pairing, require_integrability=False)
        has02 = any(key[1][0] == "02" for key in eqs.coeffs)
        integrable = not integrability_defect(g, j)
        assert has02 == (not integrable)
        seen[integrable] += 1
    assert seen[True] and seen[False]

    # (c) dim(a+b) + dim(a ∩ b) = dim a + dim b
    rnd = random.Random(603)
    for _ in range(cases):
        n = rnd.randint(1, 8)
        a, b = random_subspace(rnd, n), random_subspace(rnd, n)
        assert sum_span(a, b).dim + intersect(a, b).dim == a.dim + b.dim

    # (d) a_1(J) = center ∩ J(center)
    rnd = random.Random(604)
    for _ in range(cases):
        name, sname, g, j = pairs[rnd.randrange(len(pairs))]
        p = random_invertible(rnd, g.dim)
        g2 = change_basis(g, p)
        j2 = Acs(g.dim, p.inverse() @ j.matrix @ p)
        cls = j_compatible_series(g2, j2)
        assert cls.term(1) == largest_j_invariant(j2, center(g2))

    report(6, True, f"4 equivalences x {cases} randomized cases")


def test_criterion_7_family_search():
    results, elapsed = _search_results()
    problems = []
    for case, found in results.items():
        family, target_type = case
        if not found:
            problems.append((case, "no instance found"))
            continue
        params = found[0]
        rep = family_case_check(params)
        if not (rep.passed and rep.ascending_type == target_type
                and rep.kind is JKind.STRONGLY_NON_NILPOTENT
                and rep.center_dim == 1):
            problems.append((case, rep))
        if params != COMMITTED_INSTANCES[case]:
            problems.append((case, "first survivor differs from the "
                                   "committed instance"))
    ok_budget = elapsed <= 600.0
    ok = report(7, not problems and ok_budget,
                f"8/8 cases in {elapsed:.1f}s"
                + (f", problems: {problems}" if problems else ""))
    assert ok


def test_criterion_8_round_trip_and_coefficient_relations():
    problems = []
    for (family, typ), params in COMMITTED_INSTANCES.items():
        eqs = family_instantiate(params)
        g, j, pairing = realify(eqs)
        if complex_equations(g, j, pairing) != eqs:
            problems.append((family, typ, "coefficient table round trip"))
        recovered = coefficient_map(g)
        for sym, value in recovered.items():
            if sym in dict(params.values) or not value.is_zero():
                if value != params.get(sym):
                    problems.append((family, typ, sym))
        # the committed corpus file carries exactly this realification
        stem = f"{family.lower()}_{''.join(str(d) for d in typ)}"
        doc = corpus.load(stem)
        if doc.algebra().table != g.table or doc.structure("J") != j:
            problems.append((family, typ, "corpus file drift"))
    ok = report(8, not problems,
                f"{len(COMMITTED_INSTANCES)} instances; "
                + (f"problems: {problems}" if problems else
                   "round trips exact, coefficient relations hold"))
    assert ok


def test_criterion_9_filiform_obstructions():
    doc = corpus.load("filiform8")
    g = doc.algebra()
    verdicts = {v.rule: v.triggered for v in obstruction_report(g)}
    ok_rules = verdicts["filiform"] and verdicts["halfway-series-gap"]

    rnd = random.Random(9009)
    all_fail = True
    for _ in range(1000):
        j = random_acs(rnd, 8)
        found = False
        for a in range(1, 9):
            for b in range(a + 1, 9):
                if not is_zero_vector(nijenhuis(g, j, e(8, a), e(8, b))):
                    found = True
                    break
            if found:
                break
        if not found:
            all_fail = False
            break
    ok = report(9, ok_rules and all_fail,
                "both rules triggered, 1000/1000 sampled structures "
                "non-integrable" if all_fail else "an integrable sample?!")
    assert ok
