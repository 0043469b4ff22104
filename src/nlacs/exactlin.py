"""Exact linear algebra over the rationals and Gaussian rationals.

Everything in this module is immutable and every operation is a pure
function.  No floating point enters anywhere: scalars are
``fractions.Fraction`` values, so rank decisions and subspace equalities
are exact.  Subspaces are kept in reduced row echelon form, which makes
equality of subspaces plain field-by-field equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DimensionMismatch, SingularMatrix

# The scalar field is Q, realised by the stdlib Fraction type: always in
# lowest terms with positive denominator, so canonical-form equality is
# built in.
Scalar = Fraction

Vector = tuple[Fraction, ...]


def scalar(value) -> Fraction:
    """Coerce ints, strings like '-3/4' and Fractions to an exact scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot build an exact scalar from {value!r}")


def vector(values: Iterable) -> Vector:
    return tuple(scalar(v) for v in values)


def unit_vector(n: int, i: int) -> Vector:
    """Standard basis vector e_{i+1} of Q^n (0-based position i)."""
    return tuple(Fraction(1) if k == i else Fraction(0) for k in range(n))


def is_zero_vector(v: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in v)


def add_vectors(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def scale_vector(c: Fraction, v: Sequence[Fraction]) -> Vector:
    return tuple(c * x for x in v)


_GAUSS_RE = re.compile(
    r"""^\s*
        (?P<first>[+-]?\d+(?:/\d+)?)?          # real part (or lone coeff)
        (?:
            (?P<sign>[+-])?
            (?P<imag>\d+(?:/\d+)?)?
            (?P<i>i)
        )?
        \s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class GaussRational:
    """Element of Q(i), stored as an exact real/imaginary pair."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value) -> "GaussRational":
        if isinstance(value, GaussRational):
            return value
        return GaussRational(scalar(value))

    @classmethod
    def parse(cls, text: str) -> "GaussRational":
        """Parse literals such as '2', '-1/2', 'i', '-i', '1+2i', '1/2-1/2i'."""
        m = _GAUSS_RE.match(text)
        if not m or (m.group("first") is None and m.group("i") is None):
            raise ValueError(f"bad Gaussian rational literal: {text!r}")
        first, sign, imag, has_i = (m.group("first"), m.group("sign"),
                                    m.group("imag"), m.group("i"))
        if has_i is None:
            return cls(Fraction(first))
        if sign is None and imag is None:
            # the whole leading number is the imaginary coefficient: '2i', 'i'
            return cls(Fraction(0), Fraction(first) if first else Fraction(1))
        re_part = Fraction(first) if first else Fraction(0)
        im_part = Fraction(imag) if imag else Fraction(1)
        if sign == "-":
            im_part = -im_part
        return cls(re_part, im_part)

    def __add__(self, other) -> "GaussRational":
        o = GaussRational.of(other)
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def __sub__(self, other) -> "GaussRational":
        return self + (-GaussRational.of(other))

    def __rsub__(self, other) -> "GaussRational":
        return GaussRational.of(other) + (-self)

    def __mul__(self, other) -> "GaussRational":
        o = GaussRational.of(other)
        return GaussRational(self.re * o.re - self.im * o.im,
                             self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussRational":
        o = GaussRational.of(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * GaussRational(o.re / n, -o.im / n)

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}i"
        if self.re == 0:
            return imag
        return f"{self.re}{imag}" if imag.startswith("-") else f"{self.re}+{imag}"


GAUSS_ZERO = GaussRational()
GAUSS_ONE = GaussRational(Fraction(1))
GAUSS_I = GaussRational(Fraction(0), Fraction(1))


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over Q, stored as a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        data = tuple(vector(r) for r in rows)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise DimensionMismatch("ragged rows")
        return cls(len(data), ncols, data)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(unit_vector(n, i) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        z = tuple(Fraction(0) for _ in range(cols))
        return cls(rows, cols, tuple(z for _ in range(rows)))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.col(j) for j in range(self.cols)))

    def apply(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(
                f"matrix is {self.rows}x{self.cols}, vector has length {len(v)}")
        # zero entries are skipped: they would only build Fraction(0) products
        return tuple(sum((x * y for x, y in zip(r, v) if x and y), Fraction(0))
                     for r in self.entries)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        cols = [other.col(j) for j in range(other.cols)]
        data = tuple(
            tuple(sum((x * y for x, y in zip(r, c) if x and y), Fraction(0))
                  for c in cols)
            for r in self.entries)
        return Matrix(self.rows, other.cols, data)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch")
        return Matrix(self.rows, self.cols,
                      tuple(add_vectors(a, b)
                            for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols,
                      tuple(scale_vector(Fraction(-1), r) for r in self.entries))

    def scale(self, c) -> "Matrix":
        c = scalar(c)
        return Matrix(self.rows, self.cols,
                      tuple(scale_vector(c, r) for r in self.entries))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise SingularMatrix("only square matrices can be inverted")
        n = self.rows
        aug = [list(self.row(i)) + list(unit_vector(n, i)) for i in range(n)]
        reduced, rank, _ = _row_reduce(aug, n)  # pivots only in the left half
        if rank < n:
            raise SingularMatrix("matrix is singular")
        return Matrix(n, n, tuple(tuple(reduced[i][n:]) for i in range(n)))


def _row_reduce(rows: list[list[Fraction]], ncols: int):
    """In-place Gauss-Jordan elimination; returns (rows, rank, pivot cols)."""
    piv_r = 0
    pivots: list[int] = []
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for r in range(piv_r, nrows):
            if rows[r][c] != 0:
                pr = r
                break
        if pr is None:
            continue
        rows[piv_r], rows[pr] = rows[pr], rows[piv_r]
        inv = rows[piv_r][c]
        if inv != 1:
            rows[piv_r] = [x / inv for x in rows[piv_r]]
        for r in range(nrows):
            if r != piv_r and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[piv_r])]
        pivots.append(c)
        piv_r += 1
        if piv_r == nrows:
            break
    return rows, piv_r, pivots


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Unique reduced row echelon form of m, together with its rank."""
    rows = [list(r) for r in m.entries]
    reduced, rank, _ = _row_reduce(rows, m.cols)
    return Matrix(m.rows, m.cols, tuple(tuple(r) for r in reduced)), rank


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^n in canonical form.

    The basis matrix is in reduced row echelon form with no zero rows, so
    two Subspaces are equal exactly when they describe the same span.
    """

    ambient_dim: int
    basis: Matrix

    @classmethod
    def span(cls, vectors_: Sequence[Sequence], ambient_dim: int) -> "Subspace":
        vecs = [vector(v) for v in vectors_]
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}")
        if not vecs:
            return cls.zero(ambient_dim)
        reduced, rank = rref(Matrix.from_rows(vecs))
        return cls(ambient_dim, Matrix(rank, ambient_dim, reduced.entries[:rank]))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix(0, ambient_dim, ()))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    # the basis is frozen and canonical, so everything read off it is cached

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        out = []
        for r in self.basis.entries:
            for c, x in enumerate(r):
                if x != 0:
                    out.append(c)
                    break
        return tuple(out)

    @cached_property
    def nonpivots(self) -> tuple[int, ...]:
        piv = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in piv)

    @cached_property
    def projection(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """The map v -> coords_mod(v) as e_m -> ((position, coefficient), ...).

        Positions index the non-pivot coordinates.  A non-pivot e_m maps
        to its own position; the pivot of row r maps to minus that row's
        entries at the non-pivot positions, which is its remainder after
        ``reduce``.  Zero coefficients are left out.
        """
        comp = self.nonpivots
        position = {c: r for r, c in enumerate(comp)}
        images: list[tuple[tuple[int, Fraction], ...]] = [
            ((position[c], Fraction(1)),) if c in position else ()
            for c in range(self.ambient_dim)]
        for row, p in zip(self.basis.entries, self.pivots):
            images[p] = tuple((r, -row[c]) for r, c in enumerate(comp) if row[c])
        return tuple(images)

    def reduce(self, v: Sequence[Fraction]) -> Vector:
        """Remainder of v after eliminating the pivot coordinates."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector/subspace dimension mismatch")
        out = list(v)
        for row, p in zip(self.basis.entries, self.pivots):
            f = out[p]
            if f != 0:
                out = [a - f * b for a, b in zip(out, row)]
        return tuple(out)

    def coords_mod(self, v: Sequence[Fraction]) -> Vector:
        """Coordinates of v in the complement (non-pivot) positions, mod self."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector/subspace dimension mismatch")
        out = [Fraction(0)] * len(self.nonpivots)
        for x, image in zip(v, self.projection):
            if x:
                for r, q in image:
                    out[r] += x * q
        return tuple(out)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return is_zero_vector(self.reduce(v))


def kernel_basis(m: Matrix) -> Subspace:
    """Null space of m as a canonical subspace of Q^cols.

    Zero rows constrain nothing, so they are dropped before elimination.
    """
    rows = [list(r) for r in m.entries if not is_zero_vector(r)]
    reduced, _, pivots = _row_reduce(rows, m.cols)
    piv_set = set(pivots)
    vecs = []
    for f in range(m.cols):
        if f in piv_set:
            continue
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        vecs.append(tuple(v))
    return Subspace.span(vecs, m.cols)


def member(v: Sequence, s: Subspace) -> bool:
    """True iff v lies in the span of s."""
    return s.contains(vector(v))


def sum_span(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return Subspace.span(a.basis.entries + b.basis.entries, a.ambient_dim)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection a ∩ b via the kernel of the stacked coordinate systems.

    A combination x^T A = y^T B lies in both spans; the pairs (x, y) form
    the kernel of [A^T | -B^T], and mapping the x-part back through A
    yields the intersection.  Field-agnostic, no orthogonality needed.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    da, db = a.dim, b.dim
    if da == 0 or db == 0:
        return Subspace.zero(a.ambient_dim)
    n = a.ambient_dim
    stacked = Matrix(n, da + db, tuple(
        tuple(a.basis.entry(r, i) for r in range(da))
        + tuple(-b.basis.entry(r, i) for r in range(db))
        for i in range(n)))
    ker = kernel_basis(stacked)
    vecs = []
    for row in ker.basis.entries:
        x = row[:da]
        comb = [Fraction(0)] * n
        for coeff, basis_row in zip(x, a.basis.entries):
            if coeff != 0:
                comb = [u + coeff * w for u, w in zip(comb, basis_row)]
        vecs.append(tuple(comb))
    return Subspace.span(vecs, n)


def apply_map(m: Matrix, s: Subspace) -> Subspace:
    """Image { m.v : v in s } of a subspace under a linear map."""
    if m.cols != s.ambient_dim:
        raise DimensionMismatch("map/subspace dimension mismatch")
    return Subspace.span([m.apply(r) for r in s.basis.entries], m.rows)
