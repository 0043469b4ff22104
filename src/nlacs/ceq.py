"""Chevalley-Eilenberg structure equations, real and complex.

Sign convention, fixed throughout: de^i = -sum_{j<k} c_{jk}^i e^{jk},
i.e. de(X, Y) = -e([X, Y]).  The opposite sign is common elsewhere, so
all transcription happens in this one module.

Complex side: given a pairing (x_a, y_a) with J e_{x_a} = e_{y_a}, the
(1,0)-coframe is w^a = e^{x_a} - i e^{y_a}.  Two-forms decompose over the
bases w^{bc} = w^b ^ w^c (b < c), w^{b c~} = w^b ^ conj(w^c) (all b, c)
and w^{b~ c~} = conj(w^b) ^ conj(w^c) (b < c); a table is the mapping
from those keys to Gaussian rational coefficients.

Equation tables carry plain dicts for ergonomics; treat them as
immutable, like everything else in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cpx import Acs, require_integrable, standard_acs
from .errors import BadPairing, ConjugationInconsistent, NotIntegrable
from .exactlin import GAUSS_I, GAUSS_ONE, GAUSS_ZERO, GaussRational
from .liealg import LieAlgebra

# 2-form basis keys: (kind, b, c) with kind "20" | "11" | "02".
CKey = tuple[str, int, int]
Pairing = tuple[tuple[int, int], ...]


@dataclass(eq=True)
class RealEquations:
    """de^i = sum coeff(i; j, k) e^{jk}; only nonzero coefficients stored."""

    n: int
    coeffs: dict[tuple[int, int, int], Fraction]  # (i, j, k) with j < k

    def d_of(self, i: int) -> dict[tuple[int, int], Fraction]:
        return {(j, k): c for (ii, j, k), c in self.coeffs.items() if ii == i}


@dataclass(eq=True)
class ComplexEquations:
    """dw^a tables over the w^{bc} / w^{bc~} / w^{b~c~} bases."""

    n_half: int
    coeffs: dict[tuple[int, CKey], GaussRational]

    def __post_init__(self):
        m = self.n_half
        for (a, key), value in list(self.coeffs.items()):
            kind, b, c = key
            if not (1 <= a <= m and 1 <= b <= m and 1 <= c <= m):
                raise ConjugationInconsistent(f"index out of range in {key}")
            if kind not in ("20", "11", "02"):
                raise ConjugationInconsistent(f"unknown basis block {kind!r}")
            if kind in ("20", "02") and not b < c:
                raise ConjugationInconsistent(
                    f"{kind} basis keys need b < c, got {key}")
            if not isinstance(value, GaussRational):
                raise ConjugationInconsistent("non Gaussian-rational coefficient")
            if value.is_zero():
                del self.coeffs[(a, key)]

    def d_of(self, a: int) -> dict[CKey, GaussRational]:
        return {key: v for (aa, key), v in self.coeffs.items() if aa == a}


def real_equations(g: LieAlgebra) -> RealEquations:
    """Exact transcription of the brackets: coeff(i; j, k) = -c_{jk}^i."""
    coeffs: dict[tuple[int, int, int], Fraction] = {}
    for (j, k), targets in g.table:
        for idx, c in enumerate(targets):
            if c != 0:
                coeffs[(idx + 1, j, k)] = -c
    return RealEquations(g.dim, coeffs)


def algebra_from_real_equations(eqs: RealEquations,
                                names: Sequence[str] | None = None) -> LieAlgebra:
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j, k), c in eqs.coeffs.items():
        brackets.setdefault((j, k), {})[i] = -c
    return LieAlgebra.from_brackets(eqs.n, brackets, names)


def _sort3(a: int, b: int, c: int) -> tuple[tuple[int, int, int], int] | None:
    """Sorted index triple and permutation sign; None if indices repeat."""
    if a == b or a == c or b == c:
        return None
    perm = [a, b, c]
    sign = 1
    for i in range(2):
        for j in range(2 - i):
            if perm[j] > perm[j + 1]:
                perm[j], perm[j + 1] = perm[j + 1], perm[j]
                sign = -sign
    return (perm[0], perm[1], perm[2]), sign


def d_square_defect(eqs: RealEquations) -> list[tuple[int, tuple[int, int, int], Fraction]]:
    """Nonzero components of d(de^i), via Leibniz on the 2-form expansion.

    Empty exactly when the underlying structure constants satisfy the
    Jacobi identity (d^2 = 0 is the dual formulation).
    """
    out = []
    for i in range(1, eqs.n + 1):
        three: dict[tuple[int, int, int], Fraction] = {}
        for (j, k), c in eqs.d_of(i).items():
            # d(e^{jk}) = de^j ^ e^k - e^j ^ de^k
            for (p, q), w in eqs.d_of(j).items():
                s = _sort3(p, q, k)
                if s:
                    key, sign = s
                    three[key] = three.get(key, Fraction(0)) + c * w * sign
            for (p, q), w in eqs.d_of(k).items():
                s = _sort3(j, p, q)
                if s:
                    key, sign = s
                    three[key] = three.get(key, Fraction(0)) - c * w * sign
        for key, val in sorted(three.items()):
            if val != 0:
                out.append((i, key, val))
    return out


# --- complex expansion -------------------------------------------------

_CSym = tuple[str, int]  # ("h", a) = w^a, ("a", a) = conj(w^a)


def _wedge_syms(s1: _CSym, s2: _CSym) -> tuple[CKey, int] | None:
    """Wedge of two coframe symbols in the canonical 2-form basis."""
    k1, b = s1
    k2, c = s2
    if k1 == "h" and k2 == "h":
        if b == c:
            return None
        return (("20", b, c), 1) if b < c else (("20", c, b), -1)
    if k1 == "a" and k2 == "a":
        if b == c:
            return None
        return (("02", b, c), 1) if b < c else (("02", c, b), -1)
    if k1 == "h":  # w^b ^ conj(w^c)
        return ("11", b, c), 1
    return ("11", c, b), -1  # conj(w^b) ^ w^c = -w^c ^ conj(w^b)


def _check_pairing(dim: int, pairing: Pairing) -> None:
    flat = [idx for pair in pairing for idx in pair]
    if len(pairing) != dim // 2 or sorted(flat) != list(range(1, dim + 1)):
        raise BadPairing("pairing must split 1..n into n/2 disjoint pairs")


def complex_equations(g: LieAlgebra, j: Acs, pairing: Sequence[tuple[int, int]],
                      *, require_integrability: bool = True) -> ComplexEquations:
    """Express each dw^a over the complex 2-form bases, exactly.

    The pairing lists (x_a, y_a) with J e_{x_a} = e_{y_a}; use
    ``adapt_frame`` first when J is not in that shape.  With
    ``require_integrability=False`` the (0,2) block is computed instead
    of forbidden, which is how the Nijenhuis <-> (0,2) cross-check runs.
    """
    pairing = tuple((int(x), int(y)) for x, y in pairing)
    _check_pairing(g.dim, pairing)
    for x, y in pairing:
        if j.apply(g.basis_vector(x)) != g.basis_vector(y):
            raise BadPairing(f"J e_{x} != e_{y} in these coordinates")
    if require_integrability:
        require_integrable(g, j)

    half = Fraction(1, 2)
    ihalf = GAUSS_I * half
    to_form: dict[int, dict[_CSym, GaussRational]] = {}
    for a, (x, y) in enumerate(pairing, start=1):
        to_form[x] = {("h", a): GaussRational(half), ("a", a): GaussRational(half)}
        to_form[y] = {("h", a): ihalf, ("a", a): -ihalf}

    reqs = real_equations(g)
    coeffs: dict[tuple[int, CKey], GaussRational] = {}
    for a, (x, y) in enumerate(pairing, start=1):
        table: dict[CKey, GaussRational] = {}
        for source, factor in ((x, GAUSS_ONE), (y, -GAUSS_I)):
            for (p, q), c in reqs.d_of(source).items():
                for s1, c1 in to_form[p].items():
                    for s2, c2 in to_form[q].items():
                        w = _wedge_syms(s1, s2)
                        if w is None:
                            continue
                        key, sign = w
                        term = factor * c1 * c2 * (c * sign)
                        table[key] = table.get(key, GAUSS_ZERO) + term
        for key, v in table.items():
            if not v.is_zero():
                coeffs[(a, key)] = v
    eqs = ComplexEquations(g.dim // 2, coeffs)
    if require_integrability and any(key[0] == "02" for _, key in eqs.coeffs):
        raise NotIntegrable("integrable input produced a (0,2) component")
    return eqs


def bidegree_split(eqs: ComplexEquations, a: int):
    """((2,0), (1,1), (0,2)) parts of dw^a as separate coefficient maps."""
    parts = {"20": {}, "11": {}, "02": {}}
    for (kind, b, c), v in eqs.d_of(a).items():
        parts[kind][(b, c)] = v
    return parts["20"], parts["11"], parts["02"]


def realify(eqs: ComplexEquations,
            names: Sequence[str] | None = None) -> tuple[LieAlgebra, Acs, Pairing]:
    """Rebuild the real algebra and J from a complex equation table.

    Splits w^a = e^{2a-1} - i e^{2a} (so J e_{2a-1} = e_{2a}) and
    transcribes d into real structure constants; the returned pairing is
    ((1,2), (3,4), ...).  Feeding the result back through
    ``complex_equations`` reproduces the table exactly.
    """
    m = eqs.n_half
    n = 2 * m

    def expand_sym(sym: _CSym) -> dict[int, GaussRational]:
        # w^a = e^{2a-1} - i e^{2a}; the conjugate flips the sign on the i-part
        kind, a = sym
        itail = GAUSS_I if kind == "a" else -GAUSS_I
        return {2 * a - 1: GAUSS_ONE, 2 * a: itail}

    _FACTORS = {"20": ("h", "h"), "11": ("h", "a"), "02": ("a", "a")}
    real_coeffs: dict[tuple[int, int, int], Fraction] = {}
    for a in range(1, m + 1):
        expanded: dict[tuple[int, int], GaussRational] = {}
        for (kind, b, c), v in eqs.d_of(a).items():
            k1, k2 = _FACTORS[kind]
            e1, e2 = expand_sym((k1, b)), expand_sym((k2, c))
            for p, c1 in e1.items():
                for q, c2 in e2.items():
                    if p == q:
                        continue
                    key, sign = ((p, q), 1) if p < q else ((q, p), -1)
                    term = v * c1 * c2 * sign
                    expanded[key] = expanded.get(key, GAUSS_ZERO) + term
        for (p, q), v in expanded.items():
            if v.re != 0:
                real_coeffs[(2 * a - 1, p, q)] = v.re
            if v.im != 0:
                real_coeffs[(2 * a, p, q)] = -v.im
    reqs = RealEquations(n, real_coeffs)
    g = algebra_from_real_equations(reqs, names)
    pairing = tuple((2 * a - 1, 2 * a) for a in range(1, m + 1))
    return g, standard_acs(n), pairing
