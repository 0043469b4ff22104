"""Cross-module equivalences, exercised through hypothesis.

The acceptance suite reruns these four equivalences with >= 200 seeded
cases each; here hypothesis explores the same statements more freely.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nlacs import corpus, cpx, liealg
from nlacs.ceq import complex_equations, d_square_defect, real_equations
from nlacs.cpx import (Acs, adapt_frame, integrability_defect,
                       j_compatible_series, largest_j_invariant, nijenhuis,
                       standard_acs)
from nlacs.exactlin import (Matrix, Subspace, add_vectors, intersect,
                            kernel_basis, sum_span, unit_vector)
from nlacs.liealg import (LieAlgebra, ascending_central_series, bracket, center,
                          change_basis, direct_product, jacobi_defect,
                          require_lie_algebra)
from nlacs.obstruct import theorem_audit

from conftest import (random_acs, random_algebra, random_fraction,
                      random_invertible, random_matrix, random_subspace,
                      sympy_nullspace)

EVEN_CORPUS = ("abelian4", "abelian8", "ex2_5", "ex2_6", "ex3_17", "ex3_18",
               "filiform8", "heis3xR3", "g2dim3_138", "g2dim5_158")
INTEGRABLE = (("ex2_5", "J"), ("ex2_5", "hat"), ("ex2_6", "J"),
              ("ex2_6", "hat"), ("ex3_18", "J"), ("heis3xR3", "J"),
              ("g2dim3_1368", "J"), ("g2dim4_148", "J"), ("g2dim5_1568", "J"))


@st.composite
def subspace_pair(draw):
    seed = draw(st.integers(0, 10**6))
    rnd = random.Random(seed)
    n = rnd.randint(1, 7)
    return random_subspace(rnd, n), random_subspace(rnd, n)


@given(subspace_pair())
@settings(max_examples=150, deadline=None)
def test_dimension_formula(pair):
    a, b = pair
    assert sum_span(a, b).dim + intersect(a, b).dim == a.dim + b.dim


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_d_square_iff_jacobi(seed):
    rnd = random.Random(seed)
    if rnd.random() < 0.3:
        g = corpus.load(rnd.choice(EVEN_CORPUS)).algebra()
        g = change_basis(g, random_invertible(rnd, g.dim))
    else:
        g = random_algebra(rnd, rnd.randint(2, 6))
    assert (not jacobi_defect(g)) == (not d_square_defect(real_equations(g)))


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_nijenhuis_iff_02_block(seed):
    rnd = random.Random(seed)
    if rnd.random() < 0.5:
        name, sname = rnd.choice(INTEGRABLE)
        doc = corpus.load(name)
        g, j, _ = adapt_frame(doc.algebra(), doc.structure(sname))
    else:
        g = corpus.load(rnd.choice(EVEN_CORPUS)).algebra()
        g = change_basis(g, random_invertible(rnd, g.dim))
        j = standard_acs(g.dim)
    pairing = tuple((2 * a - 1, 2 * a) for a in range(1, g.dim // 2 + 1))
    eqs = complex_equations(g, j, pairing, require_integrability=False)
    has02 = any(key[1][0] == "02" for key in eqs.coeffs)
    assert has02 == bool(integrability_defect(g, j))


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_a1_is_largest_invariant_subspace_of_center(seed):
    rnd = random.Random(seed)
    name, sname = rnd.choice(INTEGRABLE)
    doc = corpus.load(name)
    g, j = doc.algebra(), doc.structure(sname)
    p = random_invertible(rnd, g.dim)
    g2 = change_basis(g, p)
    from nlacs.cpx import Acs
    j2 = Acs(g.dim, p.inverse() @ j.matrix @ p)
    assert integrability_defect(g2, j2) == []
    cls = j_compatible_series(g2, j2)
    assert cls.term(1) == largest_j_invariant(j2, center(g2))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_series_term_invariants_transported(seed):
    # a_k stays J-invariant, even-dimensional and inside g_k in any frame
    from nlacs.exactlin import member
    from nlacs.liealg import ascending_central_series

    rnd = random.Random(seed)
    name, sname = rnd.choice(INTEGRABLE)
    doc = corpus.load(name)
    g, j = doc.algebra(), doc.structure(sname)
    p = random_invertible(rnd, g.dim)
    from nlacs.cpx import Acs
    g2, j2 = change_basis(g, p), Acs(g.dim, p.inverse() @ j.matrix @ p)
    cls = j_compatible_series(g2, j2)
    rep = ascending_central_series(g2)
    for k, term in enumerate(cls.j_series):
        assert term.dim % 2 == 0
        assert largest_j_invariant(j2, term) == term
        assert all(member(v, rep.term(k)) for v in term.basis.entries)


# --- sparse evaluators against dense references built from `bracket` ----

def _random_table(rnd: random.Random, dim: int) -> LieAlgebra:
    """Sparse or dense constants, several targets per bracket; Jacobi usually fails."""
    density = rnd.choice((0.1, 0.3, 0.7, 1.0))
    table = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            if rnd.random() < density:
                table[(i, j)] = {rnd.randint(1, dim): random_fraction(rnd)
                                 for _ in range(rnd.randint(1, dim))}
    return LieAlgebra.from_brackets(dim, table)


def _seeded_algebra(seed: int) -> LieAlgebra:
    rnd = random.Random(seed)
    pick = rnd.random()
    if pick < 0.3:
        g = corpus.load(rnd.choice(EVEN_CORPUS)).algebra()
        return change_basis(g, random_invertible(rnd, g.dim))
    if pick < 0.5:
        return random_algebra(rnd, rnd.randint(1, 7))
    return _random_table(rnd, rnd.randint(1, 7))


def _dense_jacobi(g: LieAlgebra):
    e = [unit_vector(g.dim, i) for i in range(g.dim)]
    out = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                total = add_vectors(
                    add_vectors(bracket(g, bracket(g, e[i], e[j]), e[k]),
                                bracket(g, bracket(g, e[j], e[k]), e[i])),
                    bracket(g, bracket(g, e[k], e[i]), e[j]))
                if any(x != 0 for x in total):
                    out.append(((i + 1, j + 1, k + 1), total))
    return out


def _dense_nijenhuis(g: LieAlgebra, j: Acs):
    e = [unit_vector(g.dim, i) for i in range(g.dim)]
    out = []
    for i in range(g.dim):
        for k in range(i + 1, g.dim):
            v = nijenhuis(g, j, e[i], e[k])
            if any(x != 0 for x in v):
                out.append(((i + 1, k + 1), v))
    return out


def _same_entries(a, b) -> bool:
    """Equal lists whose vectors hold Fractions in every slot."""
    return a == b and all(type(x) is Fraction for _, v in a for x in v)


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_jacobi_defect_matches_dense_reference(seed):
    g = _seeded_algebra(seed)
    assert _same_entries(jacobi_defect(g), _dense_jacobi(g))


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_integrability_defect_matches_nijenhuis(seed):
    rnd = random.Random(seed)
    if rnd.random() < 0.5:
        # a corpus pair in a random frame, or a random conjugate of the
        # standard structure on a corpus algebra (usually not integrable)
        name, sname = rnd.choice(INTEGRABLE)
        doc = corpus.load(name)
        g = doc.algebra()
        j = (doc.structure(sname) if rnd.random() < 0.5
             else random_acs(rnd, g.dim))
        p = random_invertible(rnd, g.dim)
        g, j = change_basis(g, p), Acs(g.dim, p.inverse() @ j.matrix @ p)
    else:
        dim = rnd.choice((2, 4, 6))
        g = _random_table(rnd, dim)
        j = random_acs(rnd, dim) if rnd.random() < 0.7 else standard_acs(dim)
    assert _same_entries(integrability_defect(g, j), _dense_nijenhuis(g, j))


def test_integrability_defect_on_fixed_pairs():
    # integrable: ex2_5 with its J conjugated into a random frame
    rnd = random.Random(7)
    doc = corpus.load("ex2_5")
    p = random_invertible(rnd, 8)
    g = change_basis(doc.algebra(), p)
    j = Acs(8, p.inverse() @ doc.structure("J").matrix @ p)
    assert integrability_defect(g, j) == _dense_nijenhuis(g, j) == []
    # not integrable: [e1,e3] = e1 under the standard structure
    g = LieAlgebra.from_brackets(4, {(1, 3): {1: 1}})
    j = standard_acs(4)
    defects = integrability_defect(g, j)
    assert defects and _same_entries(defects, _dense_nijenhuis(g, j))


def test_jacobi_evaluated_once_per_instance(monkeypatch):
    calls = []
    original = liealg._jacobi_contraction

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(liealg, "_jacobi_contraction", counting)
    doc = corpus.load("ex2_5")
    g0, j = doc.algebra(), doc.structure("J")
    g = LieAlgebra(g0.dim, g0.names, g0.table)
    for _ in range(2):
        jacobi_defect(g)
        require_lie_algebra(g)
        center(g)
        ascending_central_series(g)
        j_compatible_series(g, j)
    assert len(calls) == 1
    twin = LieAlgebra(g.dim, g.names, g.table)
    jacobi_defect(twin)
    assert len(calls) == 2 and calls[1] is twin


def test_defect_lists_are_fresh():
    rnd = random.Random(3)
    for _ in range(20):
        g = _random_table(rnd, 5)
        first = jacobi_defect(g)
        expected = list(first)
        first.clear()
        first.append(((1, 2, 3), (Fraction(1),) * 5))
        assert jacobi_defect(g) == expected
        assert jacobi_defect(g) is not jacobi_defect(g)
    # the cached Nijenhuis defects too: [e1,e3] = e1 under the standard J
    g, j = LieAlgebra.from_brackets(4, {(1, 3): {1: 1}}), standard_acs(4)
    first = integrability_defect(g, j)
    expected = list(first)
    first.clear()
    assert expected and integrability_defect(g, j) == expected
    assert integrability_defect(g, j) is not integrability_defect(g, j)


def test_nijenhuis_evaluated_once_per_audit(monkeypatch):
    calls = []
    original = cpx._nijenhuis_contraction

    def counting(g, j):
        calls.append((g, j))
        return original(g, j)

    monkeypatch.setattr(cpx, "_nijenhuis_contraction", counting)
    doc = corpus.load("ex2_5")
    g0, j = doc.algebra(), doc.structure("J")
    g = LieAlgebra(g0.dim, g0.names, g0.table)
    theorem_audit(g, j)
    assert len(calls) == 1
    # the cache is keyed by J's matrix, not by the Acs object
    first = integrability_defect(g, Acs(j.dim, j.matrix))
    assert first == [] and len(calls) == 1
    integrability_defect(g, doc.structure("hat"))
    assert len(calls) == 2
    twin = LieAlgebra(g.dim, g.names, g.table)
    integrability_defect(twin, j)
    assert len(calls) == 3 and calls[2][0] is twin


# --- the series kernel builder against a dense reference ------------------

def _dense_next_term(g: LieAlgebra, prev: Subspace, j: Acs | None = None):
    """{x : [x, e_k] (and [Jx, e_k]) in prev for all k}, from dense brackets.

    Every coordinate of prev.reduce([e_i, e_k]) gives a row, zero or
    not; the kernel comes from the sympy oracle, and every basis vector
    of the result is checked with Subspace.contains.
    """
    n = g.dim
    e = [unit_vector(n, i) for i in range(n)]
    images = [e] if j is None else [e, [j.apply(v) for v in e]]
    rows = []
    for k in range(n):
        for src in images:
            cols = [prev.reduce(bracket(g, x, e[k])) for x in src]
            rows += [[col[c] for col in cols] for c in range(n)]
    term = sympy_nullspace(Matrix.from_rows(rows))
    for x in term.basis.entries:
        for k in range(n):
            assert prev.contains(bracket(g, x, e[k]))
            if j is not None:
                assert prev.contains(bracket(g, j.apply(x), e[k]))
    return term


def _dense_series(g: LieAlgebra, j: Acs | None = None) -> list[Subspace]:
    terms = [Subspace.zero(g.dim)]
    while True:
        nxt = _dense_next_term(g, terms[-1], j)
        if nxt == terms[-1]:
            return terms[1:]
        terms.append(nxt)


# [h, e] = 2e, [h, f] = -2f, [e, f] = h, and [x, y] = y: not nilpotent
SL2 = LieAlgebra.from_brackets(3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})
AFFINE_LINE = LieAlgebra.from_brackets(2, {(1, 2): {2: 1}})


def _seeded_lie_algebra(rnd: random.Random) -> LieAlgebra:
    """A corpus algebra, or a non-nilpotent one, in a random frame."""
    pick = rnd.random()
    if pick < 0.5:
        g = corpus.load(rnd.choice(EVEN_CORPUS)).algebra()
    elif pick < 0.75:
        g = direct_product(rnd.choice((SL2, AFFINE_LINE)),
                           corpus.load(rnd.choice(("h3", "abelian4"))).algebra())
    else:
        g = rnd.choice((SL2, AFFINE_LINE, direct_product(AFFINE_LINE, AFFINE_LINE)))
    return change_basis(g, random_invertible(rnd, g.dim))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_next_term_matches_dense_reference(seed):
    # any table (Jacobi or not, sparse or dense), any subspace as prev
    rnd = random.Random(seed)
    dim = rnd.choice((2, 4, 6))
    g = _seeded_algebra(seed) if rnd.random() < 0.3 else _random_table(rnd, dim)
    prev = random_subspace(rnd, g.dim)
    assert liealg._next_term(g, prev) == _dense_next_term(g, prev)
    if g.dim % 2 == 0:
        j = random_acs(rnd, g.dim) if rnd.random() < 0.7 else standard_acs(g.dim)
        assert liealg._next_term(g, prev, j) == _dense_next_term(g, prev, j)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_ascending_central_series_matches_dense_reference(seed):
    g = _seeded_lie_algebra(random.Random(seed))
    terms = _dense_series(g)
    rep = ascending_central_series(g)
    assert list(rep.terms) == terms
    # a centerless algebra has no terms: the series stops at g_0 = 0
    top = terms[-1] if terms else Subspace.zero(g.dim)
    assert rep.is_nilpotent == (top == Subspace.full(g.dim))
    assert center(g) == (terms[0] if terms else Subspace.zero(g.dim))


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_j_compatible_series_matches_dense_reference(seed):
    rnd = random.Random(seed)
    name, sname = rnd.choice(INTEGRABLE)
    doc = corpus.load(name)
    g, j = doc.algebra(), doc.structure(sname)
    p = random_invertible(rnd, g.dim)
    g2, j2 = change_basis(g, p), Acs(g.dim, p.inverse() @ j.matrix @ p)
    cls = j_compatible_series(g2, j2)
    assert list(cls.j_series[1:]) == _dense_series(g2, j2)


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_kernel_basis_with_zero_rows_matches_sympy(seed):
    rnd = random.Random(seed)
    cols = rnd.randint(1, 6)
    rows = [list(r) for r in random_matrix(rnd, rnd.randint(0, 5), cols).entries]
    for _ in range(rnd.randint(1, 4)):
        rows.insert(rnd.randint(0, len(rows)), [Fraction(0)] * cols)
    m = Matrix.from_rows(rows)
    assert kernel_basis(m) == sympy_nullspace(m)


def test_kernel_basis_without_rows_is_full():
    for n in (1, 3):
        assert kernel_basis(Matrix(0, n, ())) == Subspace.full(n)


@given(subspace_pair())
@settings(max_examples=80, deadline=None)
def test_coords_mod_matches_reduce(pair):
    s, t = pair
    for v in t.basis.entries + (unit_vector(s.ambient_dim, 0),):
        rem = s.reduce(v)
        assert s.coords_mod(v) == tuple(rem[c] for c in s.nonpivots)
