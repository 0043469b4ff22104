"""Almost complex structures on Lie algebras.

Covers integrability via the Nijenhuis tensor, the J-compatible ascending
series with its three-way classification, structures induced on
quotients, and the doubly-adapted-basis test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import (DimensionMismatch, IndexOutOfRange, NotAlmostComplex,
                     NotIntegrable, NotJAdapted, OddDimension, SingularMatrix)
from .exactlin import (Matrix, Subspace, Vector, add_vectors, apply_map,
                       intersect, is_zero_vector, member, scale_vector,
                       unit_vector, vector)
from .liealg import (LieAlgebra, _next_term, ascending_central_series,
                     bracket, quotient, require_lie_algebra)


@dataclass(frozen=True)
class Acs:
    """Almost complex structure: a rational matrix squaring to -Id."""

    dim: int
    matrix: Matrix

    def __post_init__(self):
        m = self.matrix
        if not (m.is_square() and m.rows == self.dim):
            raise DimensionMismatch("structure matrix has the wrong shape")
        if self.dim % 2 != 0:
            raise OddDimension("almost complex structures need even dimension")
        if m @ m != Matrix.identity(self.dim).scale(-1):
            raise NotAlmostComplex("matrix does not square to -Id")

    def apply(self, v: Sequence) -> Vector:
        return self.matrix.apply(vector(v))

    @cached_property
    def _columns(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Nonzero entries ((row, value), ...) of each column, 1-based rows."""
        m = self.matrix
        return tuple(tuple((r, x) for r, x in enumerate(m.col(c), start=1) if x != 0)
                     for c in range(self.dim))


def validate_acs(j: Matrix) -> Acs:
    """Check J^2 = -Id (and even dimension) and wrap the matrix."""
    return Acs(j.rows, j)


def standard_acs(dim: int) -> Acs:
    """Block structure J e_{2a-1} = e_{2a} on consecutive pairs."""
    if dim % 2 != 0:
        raise OddDimension("even dimension required")
    rows = []
    for i in range(dim):
        row = [Fraction(0)] * dim
        if i % 2 == 0:
            row[i + 1] = Fraction(-1)
        else:
            row[i - 1] = Fraction(1)
        rows.append(row)
    return Acs(dim, Matrix.from_rows(rows))


class JKind(enum.Enum):
    NILPOTENT = "nilpotent"
    WEAKLY_NON_NILPOTENT = "weakly non-nilpotent"
    STRONGLY_NON_NILPOTENT = "strongly non-nilpotent"


@dataclass(frozen=True)
class JClassification:
    """J-compatible ascending series a_0 = 0, a_1, ... and its kind."""

    ambient_dim: int
    kind: JKind
    stabilization_index: int
    j_series: tuple[Subspace, ...]  # j_series[k] = a_k, starting at a_0 = 0

    def term(self, k: int) -> Subspace:
        if k < 0:
            return Subspace.zero(self.ambient_dim)
        return self.j_series[min(k, len(self.j_series) - 1)]


def nijenhuis(g: LieAlgebra, j: Acs, x: Sequence, y: Sequence) -> Vector:
    """N(x, y) = [x,y] + J[Jx,y] + J[x,Jy] - [Jx,Jy], evaluated exactly."""
    if j.dim != g.dim:
        raise DimensionMismatch("structure and algebra dimensions differ")
    xv, yv = vector(x), vector(y)
    jx, jy = j.apply(xv), j.apply(yv)
    t = bracket(g, xv, yv)
    t = add_vectors(t, j.apply(bracket(g, jx, yv)))
    t = add_vectors(t, j.apply(bracket(g, xv, jy)))
    return add_vectors(t, scale_vector(Fraction(-1), bracket(g, jx, jy)))


def integrability_defect(g: LieAlgebra, j: Acs) -> list[tuple[tuple[int, int], Vector]]:
    """Nonzero N(e_i, e_k) over basis pairs i < k; empty iff J is integrable.

    The pairs come in lexicographic order.  The evaluation is cached on g
    by J's matrix, and every call returns a fresh list.
    """
    if j.dim != g.dim:
        raise DimensionMismatch("structure and algebra dimensions differ")
    defects = g._nijenhuis.get(j.matrix)
    if defects is None:
        defects = g._nijenhuis[j.matrix] = _nijenhuis_contraction(g, j)
    return list(defects)


def _nijenhuis_contraction(g: LieAlgebra,
                           j: Acs) -> tuple[tuple[tuple[int, int], Vector], ...]:
    """N(e_i, e_k) from the nonzero structure constants and J's nonzero entries.

    With w_k(p) = [e_p, J e_k], [J e_i, e_k] = -w_i(k) and
    [J e_i, J e_k] = sum_p J_pi w_k(p), so
    N(e_i, e_k) = [e_i, e_k] + J(w_k(i) - w_i(k)) - sum_p J_pi w_k(p).
    """
    n = g.dim
    sparse, partners, jcols = g._sparse, g._partners, j._columns
    # w[k - 1] = {p: w_k(p)} over the p with a nonzero value, as {m: coefficient}
    w: list[dict[int, dict[int, Fraction]]] = []
    for col in jcols:
        wk: dict[int, dict[int, Fraction]] = {}
        for q, jq in col:
            for p, terms in partners.get(q, ()):  # terms = [e_q, e_p] = -[e_p, e_q]
                acc = wk.setdefault(p, {})
                for m, c in terms:
                    acc[m] = acc.get(m, 0) - jq * c
        w.append(wk)
    zero = Fraction(0)
    out = []
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            total = [zero] * n
            for m, c in sparse.get((i, k), ()):
                total[m - 1] += c
            inner = dict(w[k - 1].get(i, {}))
            for m, c in w[i - 1].get(k, {}).items():
                inner[m] = inner.get(m, 0) - c
            for m, c in inner.items():
                if c:
                    for r, jr in jcols[m - 1]:
                        total[r - 1] += jr * c
            for p, jp in jcols[i - 1]:
                for m, c in w[k - 1].get(p, {}).items():
                    total[m - 1] -= jp * c
            if not is_zero_vector(total):
                out.append(((i, k), tuple(total)))
    return tuple(out)


def require_integrable(g: LieAlgebra, j: Acs) -> None:
    if integrability_defect(g, j):
        raise NotIntegrable("the Nijenhuis tensor does not vanish")


def j_compatible_series(g: LieAlgebra, j: Acs) -> JClassification:
    """Series a_k = {x : [x,g] and [Jx,g] lie in a_{k-1}} with its kind.

    Requires an integrable structure on an actual Lie algebra: the
    classification is only meaningful for complex structures.
    """
    require_lie_algebra(g)
    require_integrable(g, j)
    series: list[Subspace] = [Subspace.zero(g.dim)]
    while True:
        nxt = _next_term(g, series[-1], j)
        if nxt == series[-1]:
            break
        series.append(nxt)
    top = series[-1]
    if g.dim == 0 or top == Subspace.full(g.dim):
        # the zero-dimensional algebra counts as (trivially) nilpotent
        kind = JKind.NILPOTENT
    elif top.dim == 0:
        kind = JKind.STRONGLY_NON_NILPOTENT
    else:
        kind = JKind.WEAKLY_NON_NILPOTENT
    return JClassification(
        ambient_dim=g.dim,
        kind=kind,
        stabilization_index=len(series) - 1,
        j_series=tuple(series),
    )


def largest_j_invariant(j: Acs, s: Subspace) -> Subspace:
    """s ∩ J(s): the largest J-invariant subspace contained in s."""
    if j.dim != s.ambient_dim:
        raise DimensionMismatch("structure and subspace dimensions differ")
    return intersect(s, apply_map(j.matrix, s))


def induced_quotient(g: LieAlgebra, j: Acs, q: int) -> tuple[LieAlgebra, Acs]:
    """Quotient by a_q(J) with the structure J induced on representatives.

    a_q(J) is J-invariant, so x -> class of Jx is well defined; the
    complement representatives are the non-pivot coordinates, matching
    the plain quotient construction.
    """
    cls = j_compatible_series(g, j)
    if not (0 <= q <= cls.stabilization_index):
        raise IndexOutOfRange(
            f"q={q} outside the stabilized range 0..{cls.stabilization_index}")
    ideal = cls.term(q)
    gq, proj = quotient(g, ideal)
    comp = ideal.nonpivots
    cols = [proj.apply(j.apply(unit_vector(g.dim, c))) for c in comp]
    jq = Matrix.from_rows([[cols[b][a] for b in range(len(comp))]
                           for a in range(len(comp))])
    return gq, Acs(gq.dim, jq)


def doubly_adapted_check(g: LieAlgebra, j: Acs, basis: Matrix) -> bool:
    """Counting test: #(basis columns inside g_k) = dim g_k for every k.

    The columns must come in consecutive (X, JX) pairs; vectors of a basis
    lying in g_k are automatically independent, so the count criterion is
    equivalent to some permutation being adapted to the series.
    """
    n = g.dim
    if not (basis.is_square() and basis.rows == n and n % 2 == 0):
        raise DimensionMismatch("basis must be a square matrix of even size")
    for a in range(0, n, 2):
        if j.apply(basis.col(a)) != basis.col(a + 1):
            raise NotJAdapted(f"columns {a + 1},{a + 2} are not an (X, JX) pair")
    try:
        basis.inverse()
    except SingularMatrix:
        raise SingularMatrix("basis matrix is singular") from None
    report = ascending_central_series(g)
    cols = [basis.col(a) for a in range(n)]
    for term in report.terms:
        count = sum(1 for c in cols if member(c, term))
        if count != term.dim:
            return False
    return True


def adapt_frame(g: LieAlgebra, j: Acs) -> tuple[LieAlgebra, Acs, Matrix]:
    """Change coordinates so that J becomes the standard pair structure.

    Greedily extends a J-invariant span by pairs (v, Jv); over Q a vector
    outside a J-invariant subspace always yields an independent pair.
    Returns the transported algebra, the standard structure, and the
    change-of-basis matrix (columns are the new frame).
    """
    from .liealg import change_basis  # local import keeps module load acyclic

    n = g.dim
    span = Subspace.zero(n)
    columns: list[Vector] = []
    for i in range(n):
        if span.dim == n:
            break
        v = unit_vector(n, i)
        if member(v, span):
            continue
        jv = j.apply(v)
        columns.extend([v, jv])
        span = Subspace.span(columns, n)
    p = Matrix.from_rows([[columns[b][a] for b in range(n)] for a in range(n)])
    return change_basis(g, p), standard_acs(n), p
