"""Finite-dimensional Lie algebras given by rational structure constants.

A LieAlgebra stores the brackets [e_i, e_j] for i < j only; antisymmetry
is structural.  Basis indices are 1-based throughout this module (the
text format and all reports use the same convention), while coordinate
vectors are plain Python tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import (BadIndex, DimensionMismatch, NotALieAlgebra, NotAnIdeal,
                     NotNilpotent, SingularMatrix)
from .exactlin import (Matrix, Subspace, Vector, is_zero_vector,
                       kernel_basis, member, scalar, scale_vector,
                       unit_vector, vector)

if TYPE_CHECKING:
    from .cpx import Acs


@dataclass(frozen=True)
class LieAlgebra:
    """Anticommutative algebra over Q; Jacobi is *not* assumed at construction."""

    dim: int
    names: tuple[str, ...]
    # canonical: sorted by (i, j), 1-based keys, zero rows omitted
    table: tuple[tuple[tuple[int, int], Vector], ...]

    @classmethod
    def from_brackets(cls, dim: int,
                      brackets: Mapping[tuple[int, int], Mapping[int, object]],
                      names: Sequence[str] | None = None) -> "LieAlgebra":
        """Build from a mapping {(i, j): {k: coeff}} with 1 <= i < j <= dim."""
        if names is None:
            names = tuple(f"e{k}" for k in range(1, dim + 1))
        else:
            names = tuple(names)
            if len(names) != dim:
                raise DimensionMismatch("wrong number of basis names")
        rows: list[tuple[tuple[int, int], Vector]] = []
        for (i, j), targets in sorted(brackets.items()):
            if not (1 <= i < j <= dim):
                raise BadIndex(f"bracket key ({i},{j}) out of range for dim {dim}")
            coeffs = [Fraction(0)] * dim
            for k, val in targets.items():
                if not (1 <= k <= dim):
                    raise BadIndex(f"bracket target {k} out of range")
                coeffs[k - 1] += scalar(val)
            if not is_zero_vector(coeffs):
                rows.append(((i, j), tuple(coeffs)))
        return cls(dim, names, tuple(rows))

    @cached_property
    def _table(self) -> dict[tuple[int, int], Vector]:
        return dict(self.table)

    @cached_property
    def _sparse(self) -> dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]:
        """Nonzero constants {(i, j): ((k, c_ij^k), ...)}, both orders, 1-based.

        The (j, i) entry carries the flipped signs, so a lookup needs no
        ordering of the pair; a missing key is a zero bracket.
        """
        sparse = {}
        for (i, j), coeffs in self.table:
            terms = tuple((k, c) for k, c in enumerate(coeffs, start=1) if c != 0)
            sparse[(i, j)] = terms
            sparse[(j, i)] = tuple((k, -c) for k, c in terms)
        return sparse

    @cached_property
    def _partners(self) -> dict[int, tuple[tuple[int, tuple[tuple[int, Fraction], ...]], ...]]:
        """For each index l, its nonzero brackets [e_l, e_c] as ((c, terms), ...)."""
        partners: dict[int, list] = {}
        for (l, c), terms in self._sparse.items():
            partners.setdefault(l, []).append((c, terms))
        return {l: tuple(row) for l, row in partners.items()}

    @cached_property
    def _jacobi(self) -> tuple[tuple[tuple[int, int, int], Vector], ...]:
        # one evaluation per instance, shared by every caller that validates
        return _jacobi_contraction(self)

    @cached_property
    def _nijenhuis(self) -> dict[Matrix, tuple[tuple[tuple[int, int], Vector], ...]]:
        # integrability defects by structure matrix, filled in by
        # cpx.integrability_defect: one evaluation per (algebra, J)
        return {}

    def basis_bracket(self, i: int, j: int) -> Vector:
        """[e_i, e_j] for 1-based i, j (antisymmetric extension)."""
        if i == j:
            return tuple(Fraction(0) for _ in range(self.dim))
        if i < j:
            v = self._table.get((i, j))
            return v if v is not None else tuple(Fraction(0) for _ in range(self.dim))
        v = self._table.get((j, i))
        return (scale_vector(Fraction(-1), v) if v is not None
                else tuple(Fraction(0) for _ in range(self.dim)))

    def basis_vector(self, i: int) -> Vector:
        return unit_vector(self.dim, i - 1)


@dataclass(frozen=True)
class SeriesReport:
    """Ascending central series g_1 < g_2 < ... up to stabilization."""

    ambient_dim: int
    terms: tuple[Subspace, ...]
    stabilized_at: int
    is_nilpotent: bool
    step: int | None
    ascending_type: tuple[int, ...] | None

    def term(self, k: int) -> Subspace:
        """g_k, with g_0 = 0 and g_k constant beyond stabilization."""
        if k <= 0 or not self.terms:
            return Subspace.zero(self.ambient_dim)
        return self.terms[min(k, len(self.terms)) - 1]


def bracket(g: LieAlgebra, x: Sequence, y: Sequence) -> Vector:
    """Bilinear antisymmetric extension of the stored structure constants."""
    xv, yv = vector(x), vector(y)
    if len(xv) != g.dim or len(yv) != g.dim:
        raise DimensionMismatch("vector length differs from the algebra dimension")
    out = [Fraction(0)] * g.dim
    sparse = g._sparse
    for i, j in g._table:
        c = xv[i - 1] * yv[j - 1] - xv[j - 1] * yv[i - 1]
        if c != 0:
            for k, ck in sparse[(i, j)]:
                out[k - 1] += c * ck
    return tuple(out)


def _jacobi_contraction(g: LieAlgebra) -> tuple[tuple[tuple[int, int, int], Vector], ...]:
    """Jacobi defects as the contraction sum c_ab^l c_lc^m over nonzero constants.

    Jac(e_i, e_j, e_k) sums [[e_x, e_y], e_z] over the cyclic orders of
    i < j < k.  With the bracketed pair written as a stored pair a < b, a
    term is +[[e_a, e_b], e_c], or -[[e_a, e_b], e_c] when a < c < b, and
    expands to sum c_ab^l c_lc^m e_m.  Only nonzero constants are visited,
    so an empty table does no work whatever the dimension.
    """
    sparse, partners = g._sparse, g._partners
    zero = Fraction(0)
    sums: dict[tuple[int, int, int], list[Fraction]] = {}
    for a, b in g._table:
        for l, c_ab in sparse[(a, b)]:
            for c, inner in partners.get(l, ()):
                if c < a:
                    key, f = (c, a, b), c_ab
                elif c > b:
                    key, f = (a, b, c), c_ab
                elif a < c < b:
                    key, f = (a, c, b), -c_ab
                else:
                    continue
                acc = sums.get(key)
                if acc is None:
                    acc = sums[key] = [zero] * g.dim
                for m, c_lc in inner:
                    acc[m - 1] += f * c_lc
    return tuple((key, tuple(acc)) for key, acc in sorted(sums.items())
                 if not is_zero_vector(acc))


def jacobi_defect(g: LieAlgebra) -> list[tuple[tuple[int, int, int], Vector]]:
    """Nonzero values of Jac(e_i, e_j, e_k) over basis triples i < j < k.

    Trilinearity makes the basis check complete: the defect list is empty
    exactly when the Jacobi identity holds on all of g.  The triples come
    in lexicographic order; the evaluation is cached on g and every call
    returns a fresh list.
    """
    return list(g._jacobi)


def require_lie_algebra(g: LieAlgebra) -> None:
    if g._jacobi:
        raise NotALieAlgebra("structure constants violate the Jacobi identity")


def _next_term(g: LieAlgebra, prev: Subspace, j: Acs | None = None) -> Subspace:
    """Kernel of x -> [x, e_k] mod prev over all k; with j, also [Jx, e_k] mod prev.

    Row (k, r) holds, in column i, coordinate r of [e_i, e_k] mod prev.
    Each nonzero bracket is projected once through prev's projection and
    fills column i of rows (k, .) and, negated, column k of rows (i, .),
    so a zero bracket costs nothing.  As J x = sum_i x_i J e_i, the
    twisted row of [Jx, e_k] is the plain row (k, r) times J.
    """
    n = g.dim
    if not prev.nonpivots:
        return Subspace.full(n)
    proj, sparse = prev.projection, g._sparse
    plain: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, k in g._table:
        image: dict[int, Fraction] = {}
        for m, c in sparse[(i, k)]:
            for r, q in proj[m - 1]:
                image[r] = image.get(r, 0) + c * q
        for r, v in image.items():
            if v:
                plain.setdefault((k, r), {})[i] = v
                plain.setdefault((i, r), {})[k] = -v
    zero = Fraction(0)
    rows: list[Vector] = []
    for row in plain.values():
        rows.append(tuple(row.get(i, zero) for i in range(1, n + 1)))
        if j is not None:
            rows.append(tuple(sum((row[p] * jp for p, jp in col if p in row), zero)
                              for col in j._columns))
    return kernel_basis(Matrix(len(rows), n, tuple(rows)))


def ascending_central_series(g: LieAlgebra) -> SeriesReport:
    """Compute g_k = {x : [x, g] in g_{k-1}} until the series stabilizes."""
    require_lie_algebra(g)
    prev = Subspace.zero(g.dim)
    terms: list[Subspace] = []
    while True:
        nxt = _next_term(g, prev)
        if nxt == prev:
            break
        terms.append(nxt)
        prev = nxt
    nilpotent = prev == Subspace.full(g.dim)
    return SeriesReport(
        ambient_dim=g.dim,
        terms=tuple(terms),
        stabilized_at=len(terms),
        is_nilpotent=nilpotent,
        step=len(terms) if nilpotent else None,
        ascending_type=tuple(t.dim for t in terms) if nilpotent else None,
    )


def ascending_type(g: LieAlgebra) -> tuple[int, ...]:
    report = ascending_central_series(g)
    if not report.is_nilpotent:
        raise NotNilpotent("ascending type is defined for nilpotent algebras only")
    return report.ascending_type


def center(g: LieAlgebra) -> Subspace:
    """First term of the ascending central series."""
    require_lie_algebra(g)
    return _next_term(g, Subspace.zero(g.dim))


def is_ideal(g: LieAlgebra, s: Subspace) -> bool:
    if s.ambient_dim != g.dim:
        raise DimensionMismatch("subspace lives in the wrong ambient space")
    for row in s.basis.entries:
        for j in range(1, g.dim + 1):
            if not member(bracket(g, g.basis_vector(j), row), s):
                return False
    return True


def quotient(g: LieAlgebra, ideal: Subspace) -> tuple[LieAlgebra, Matrix]:
    """Quotient algebra g/ideal together with the projection matrix.

    Coset representatives are the standard basis vectors at the non-pivot
    coordinates of the ideal's canonical basis, which makes the quotient
    constants deterministic.
    """
    if not is_ideal(g, ideal):
        raise NotAnIdeal("the given subspace is not an ideal of g")
    comp = ideal.nonpivots
    q = len(comp)
    proj = Matrix.from_rows([ideal.coords_mod(unit_vector(g.dim, c))
                             for c in range(g.dim)]).transpose()
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(q):
        for b in range(a + 1, q):
            w = bracket(g, unit_vector(g.dim, comp[a]), unit_vector(g.dim, comp[b]))
            coeffs = ideal.coords_mod(w)
            row = {k + 1: coeffs[k] for k in range(q) if coeffs[k] != 0}
            if row:
                brackets[(a + 1, b + 1)] = row
    names = tuple(g.names[c] for c in comp)
    return LieAlgebra.from_brackets(q, brackets, names), proj


def direct_product(g1: LieAlgebra, g2: LieAlgebra) -> LieAlgebra:
    """Product algebra on the concatenated bases; cross brackets vanish."""
    n1 = g1.dim
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), coeffs in g1.table:
        brackets[(i, j)] = {k + 1: c for k, c in enumerate(coeffs) if c != 0}
    for (i, j), coeffs in g2.table:
        brackets[(i + n1, j + n1)] = {k + 1 + n1: c
                                      for k, c in enumerate(coeffs) if c != 0}
    return LieAlgebra.from_brackets(n1 + g2.dim, brackets, g1.names + g2.names)


def change_basis(g: LieAlgebra, p: Matrix) -> LieAlgebra:
    """Transport the constants to the basis given by the columns of p."""
    if not (p.is_square() and p.rows == g.dim):
        raise DimensionMismatch("change of basis must be square of matching size")
    try:
        pinv = p.inverse()
    except SingularMatrix:
        raise SingularMatrix("change of basis matrix is singular") from None
    n = g.dim
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(1, n + 1):
        fa = p.col(a - 1)
        for b in range(a + 1, n + 1):
            w = pinv.apply(bracket(g, fa, p.col(b - 1)))
            row = {k + 1: w[k] for k in range(n) if w[k] != 0}
            if row:
                brackets[(a, b)] = row
    return LieAlgebra.from_brackets(n, brackets, g.names)
