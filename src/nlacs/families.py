"""The three parametrized families of 8-dimensional SnN pairs.

Each family fixes the shape of the complex structure equations for an
8-dimensional nilpotent algebra with 1-dimensional center and a strongly
non-nilpotent structure, indexed by dim g_2 in {3, 4, 5}.  Parameters
are Gaussian rationals (s, t real); Jacobi membership is checked on the
realified instance, never derived symbolically.

Case table (computed ascending type -> necessary parameter conditions):

  G2dim3: (1,3,8)       A = B = 0 and Re L = 0
          (1,3,6,8)     B = H = K = P = 0
          (1,3,5,8)     K = P = 0 and Re L = 0
          (1,3,5,6,8)   H = K = P = s = 0 and Re L != 0
  G2dim4: (1,4,8)       Re A = Re L = 0
          (1,4,6,8)     (Re A, Re L) != (0, 0)
  G2dim5: (1,5,8)       Re L = 0
          (1,5,6,8)     Re L != 0

K never shows up in the conditions for type (1,3,8); it is treated as
unconstrained there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .ceq import CKey, ComplexEquations, realify
from .cpx import Acs, JKind, j_compatible_series
from .errors import ForeignParameter, JacobiViolated
from .exactlin import GAUSS_I, GaussRational
from .liealg import (LieAlgebra, SeriesReport, ascending_central_series,
                     jacobi_defect)
from .obstruct import DIM8_SNN_TYPES

G2DIM3 = "G2dim3"
G2DIM4 = "G2dim4"
G2DIM5 = "G2dim5"

FAMILY_PARAMS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    # (complex symbols, real symbols)
    G2DIM3: (("A", "B", "C", "D", "E", "F", "G", "H", "K", "L", "M", "N", "P"),
             ("s",)),
    G2DIM4: (("A", "D", "E", "F", "L", "M", "N"), ("s",)),
    G2DIM5: (("A", "B", "E", "F", "L", "M", "N", "P"), ("s", "t")),
}

FAMILY_CASE_TYPES: dict[str, tuple[tuple[int, ...], ...]] = {
    G2DIM3: ((1, 3, 8), (1, 3, 6, 8), (1, 3, 5, 8), (1, 3, 5, 6, 8)),
    G2DIM4: ((1, 4, 8), (1, 4, 6, 8)),
    G2DIM5: ((1, 5, 8), (1, 5, 6, 8)),
}


@dataclass(frozen=True)
class FamilyParams:
    """Parameter point of one family; unset symbols default to zero."""

    family: str
    values: tuple[tuple[str, GaussRational], ...]

    @classmethod
    def make(cls, family: str, values: Mapping[str, object]) -> "FamilyParams":
        if family not in FAMILY_PARAMS:
            raise ForeignParameter(f"unknown family {family!r}")
        cpx_syms, real_syms = FAMILY_PARAMS[family]
        table: dict[str, GaussRational] = {}
        for sym, raw in values.items():
            value = (GaussRational.parse(raw) if isinstance(raw, str)
                     else GaussRational.of(raw))
            if sym in real_syms:
                if value.im != 0:
                    raise ForeignParameter(f"{sym} must be real in {family}")
            elif sym not in cpx_syms:
                raise ForeignParameter(f"{sym} is not a parameter of {family}")
            if not value.is_zero():
                table[sym] = value
        return cls(family, tuple(sorted(table.items())))

    def get(self, sym: str) -> GaussRational:
        return dict(self.values).get(sym, GaussRational())

    def as_dict(self) -> dict[str, GaussRational]:
        return dict(self.values)


def _put(coeffs: dict[tuple[int, CKey], GaussRational], a: int,
         kind: str, b: int, c: int, value: GaussRational) -> None:
    if value.is_zero():
        return
    key = (a, (kind, b, c))
    cur = coeffs.get(key, GaussRational())
    coeffs[key] = cur + value


def family_instantiate(p: FamilyParams) -> ComplexEquations:
    """Emit the family's structure equations at the given parameter point.

    Conjugate-tied coefficients (-conj(M), -conj(N), -conj(P)) are filled
    in automatically; only dw^1 = 0 is implicit.
    """
    v = p.get
    coeffs: dict[tuple[int, CKey], GaussRational] = {}
    A, B, E, F, L, M, N = (v("A"), v("B"), v("E"), v("F"), v("L"), v("M"), v("N"))
    s = v("s")
    if p.family == G2DIM3:
        C, D, G, H, K, P = (v("C"), v("D"), v("G"), v("H"), v("K"), v("P"))
        _put(coeffs, 2, "11", 1, 1, A)
        _put(coeffs, 2, "20", 1, 4, -B)
        _put(coeffs, 2, "11", 1, 4, B)
        _put(coeffs, 3, "20", 1, 2, C - D)
        _put(coeffs, 3, "20", 1, 4, -E)
        _put(coeffs, 3, "11", 1, 4, E)
        _put(coeffs, 3, "11", 1, 1, F)
        _put(coeffs, 3, "11", 1, 2, G + D)
        _put(coeffs, 3, "20", 2, 4, -H)
        _put(coeffs, 3, "11", 2, 4, H)
        _put(coeffs, 3, "11", 2, 1, C - G)
        _put(coeffs, 3, "11", 2, 2, K)
        _put(coeffs, 4, "11", 1, 1, L)
        _put(coeffs, 4, "11", 1, 2, M)
        _put(coeffs, 4, "11", 1, 3, N)
        _put(coeffs, 4, "11", 2, 1, -M.conjugate())
        _put(coeffs, 4, "11", 2, 2, GAUSS_I * s)
        _put(coeffs, 4, "11", 2, 3, P)
        _put(coeffs, 4, "11", 3, 1, -N.conjugate())
        _put(coeffs, 4, "11", 3, 2, -P.conjugate())
    elif p.family == G2DIM4:
        D = v("D")
        _put(coeffs, 2, "11", 1, 1, A)
        _put(coeffs, 3, "20", 1, 2, -D)
        _put(coeffs, 3, "11", 1, 2, D)
        _put(coeffs, 3, "20", 1, 4, -E)
        _put(coeffs, 3, "11", 1, 4, E)
        _put(coeffs, 3, "11", 1, 1, F)
        _put(coeffs, 4, "11", 1, 1, L)
        _put(coeffs, 4, "11", 1, 2, M)
        _put(coeffs, 4, "11", 1, 3, N)
        _put(coeffs, 4, "11", 2, 1, -M.conjugate())
        _put(coeffs, 4, "11", 2, 2, GAUSS_I * s)
        _put(coeffs, 4, "11", 3, 1, -N.conjugate())
    elif p.family == G2DIM5:
        P, t = v("P"), v("t")
        _put(coeffs, 2, "11", 1, 1, A)
        _put(coeffs, 2, "20", 1, 4, -B)
        _put(coeffs, 2, "11", 1, 4, B)
        _put(coeffs, 3, "11", 1, 1, F)
        _put(coeffs, 3, "20", 1, 4, -E)
        _put(coeffs, 3, "11", 1, 4, E)
        _put(coeffs, 4, "11", 1, 1, L)
        _put(coeffs, 4, "11", 1, 2, M)
        _put(coeffs, 4, "11", 1, 3, N)
        _put(coeffs, 4, "11", 2, 1, -M.conjugate())
        _put(coeffs, 4, "11", 2, 2, GAUSS_I * s)
        _put(coeffs, 4, "11", 2, 3, P)
        _put(coeffs, 4, "11", 3, 1, -N.conjugate())
        _put(coeffs, 4, "11", 3, 2, -P.conjugate())
        _put(coeffs, 4, "11", 3, 3, GAUSS_I * t)
    else:
        raise ForeignParameter(f"unknown family {p.family!r}")
    return ComplexEquations(4, coeffs)


def case_conditions(family: str, case_type: tuple[int, ...],
                    p: FamilyParams) -> bool:
    """Do the parameters satisfy the necessary conditions of this case?"""
    zero = lambda sym: p.get(sym).is_zero()
    re_zero = lambda sym: p.get(sym).re == 0
    if family == G2DIM3:
        if case_type == (1, 3, 8):
            return zero("A") and zero("B") and re_zero("L")
        if case_type == (1, 3, 6, 8):
            return zero("B") and zero("H") and zero("K") and zero("P")
        if case_type == (1, 3, 5, 8):
            return zero("K") and zero("P") and re_zero("L")
        if case_type == (1, 3, 5, 6, 8):
            return (zero("H") and zero("K") and zero("P") and zero("s")
                    and not re_zero("L"))
    elif family == G2DIM4:
        if case_type == (1, 4, 8):
            return re_zero("A") and re_zero("L")
        if case_type == (1, 4, 6, 8):
            return not (re_zero("A") and re_zero("L"))
    elif family == G2DIM5:
        if case_type == (1, 5, 8):
            return re_zero("L")
        if case_type == (1, 5, 6, 8):
            return not re_zero("L")
    return False


@dataclass(frozen=True)
class CaseReport:
    """Outcome of checking one instantiated parameter point."""

    family: str
    params: FamilyParams
    ascending_type: tuple[int, ...]
    kind: JKind
    center_dim: int
    type_in_family_cases: bool
    conditions_hold: bool
    type_in_dim8_list: bool

    @property
    def passed(self) -> bool:
        return (self.type_in_family_cases and self.conditions_hold
                and self.kind is JKind.STRONGLY_NON_NILPOTENT
                and self.center_dim == 1 and self.type_in_dim8_list)


def family_case_check(p: FamilyParams,
                      eqs: ComplexEquations | None = None) -> CaseReport:
    """Realify an instance and verify the family's case bookkeeping.

    The computed ascending type must be one of the family's cases, its
    parameter conditions must hold at p, the structure must be strongly
    non-nilpotent with a 1-dimensional center, and the type must sit in
    the admissible dimension-8 list.
    """
    if eqs is None:
        eqs = family_instantiate(p)
    g, j, _ = realify(eqs)
    if jacobi_defect(g):
        raise JacobiViolated(
            "parameter point violates the Jacobi identity; not a Lie algebra")
    return _case_report(p, g, j, ascending_central_series(g))


def _case_report(p: FamilyParams, g: LieAlgebra, j: Acs,
                 report: SeriesReport) -> CaseReport:
    """The case bookkeeping for a realified, Jacobi-valid instance of p."""
    typ = report.ascending_type if report.is_nilpotent else ()
    in_cases = typ in FAMILY_CASE_TYPES[p.family]
    return CaseReport(
        family=p.family,
        params=p,
        ascending_type=typ,
        kind=j_compatible_series(g, j).kind,
        center_dim=report.term(1).dim,
        type_in_family_cases=in_cases,
        conditions_hold=in_cases and case_conditions(p.family, typ, p),
        type_in_dim8_list=typ in DIM8_SNN_TYPES,
    )


def brute_force_case_search(family: str, case_type: tuple[int, ...],
                            candidates: Iterable[FamilyParams],
                            limit: int | None = 1) -> list[FamilyParams]:
    """Filter a candidate stream down to valid instances of one case.

    Deterministic: candidates are consumed in order and survivors are the
    Jacobi-valid points whose computed type equals ``case_type`` and whose
    case check passes.  ``limit=None`` keeps every survivor.  Each
    candidate is realified once, and its series runs once.
    """
    found: list[FamilyParams] = []
    for cand in candidates:
        g, j, _ = realify(family_instantiate(cand))
        if jacobi_defect(g):
            continue
        report = ascending_central_series(g)
        if not report.is_nilpotent or report.ascending_type != case_type:
            continue
        if _case_report(cand, g, j, report).passed:
            found.append(cand)
            if limit is not None and len(found) >= limit:
                break
    return found


# Search grids used by the acceptance suite: per case, a product of
# per-symbol value lists (numerators/denominators within -2..2).  Symbols
# absent from a grid stay zero.  Candidates enumerate in product order
# over the listed symbols, so "first survivor" is deterministic.
_V5 = ("0", "1/2", "-1/2", "1/2i", "-1/2i")
_V3M = ("0", "1/2", "1/2i")
_V3S = ("0", "1/2", "-1/2")
_VA7 = ("0", "1/2", "-1/2", "1/2i", "-1/2i", "i", "-i")

ACCEPTANCE_GRIDS: dict[tuple[str, tuple[int, ...]], dict[str, tuple[str, ...]]] = {
    (G2DIM3, (1, 3, 8)): {"C": _V5, "D": _V5, "G": _V5, "E": _V5, "N": _V5},
    (G2DIM3, (1, 3, 6, 8)): {"A": ("1/2",), "C": _V5, "D": _V5, "G": _V5,
                             "E": _V5, "N": _V5},
    (G2DIM3, (1, 3, 5, 8)): {"B": ("1/2i",), "C": _V5, "D": _V5, "G": _V5,
                             "N": _V5},
    (G2DIM3, (1, 3, 5, 6, 8)): {"B": ("1/2i",), "L": ("1/2",), "C": _V5,
                                "D": _V5, "G": _V5, "N": _V5},
    (G2DIM4, (1, 4, 8)): {"A": _VA7, "D": _V5, "E": _V5, "N": _V5, "s": _V3S},
    (G2DIM4, (1, 4, 6, 8)): {"A": _VA7, "L": ("1/2",), "D": _V5, "E": _V5,
                             "N": _V5, "s": _V3S},
    (G2DIM5, (1, 5, 8)): {"E": _V5, "N": _V5, "M": _V3M, "s": _V3S},
    (G2DIM5, (1, 5, 6, 8)): {"L": ("1/2",), "E": _V5, "N": _V5, "M": _V3M,
                             "s": _V3S},
}


def acceptance_candidates(family: str,
                          case_type: tuple[int, ...]) -> Iterable[FamilyParams]:
    """Deterministic candidate stream for one case's acceptance search."""
    from itertools import product

    grid = ACCEPTANCE_GRIDS[(family, case_type)]
    symbols = list(grid)
    for combo in product(*(grid[sym] for sym in symbols)):
        yield FamilyParams.make(family, dict(zip(symbols, combo)))


# Instances found by the grid search in the acceptance suite, one per
# case, frozen here so the corpus and the round-trip checks can rebuild
# them without re-running the search.
COMMITTED_INSTANCES: dict[tuple[str, tuple[int, ...]], FamilyParams] = {
    (G2DIM3, (1, 3, 8)): FamilyParams.make(G2DIM3, {
        "C": "1/2", "E": "1/2", "G": "-1/2", "N": "1/2i"}),
    (G2DIM3, (1, 3, 6, 8)): FamilyParams.make(G2DIM3, {
        "A": "1/2", "C": "1/2", "E": "1/2", "G": "-1/2", "N": "1/2i"}),
    (G2DIM3, (1, 3, 5, 8)): FamilyParams.make(G2DIM3, {
        "B": "1/2i", "C": "1/2", "D": "-1/2", "G": "-1/2", "N": "1/2i"}),
    (G2DIM3, (1, 3, 5, 6, 8)): FamilyParams.make(G2DIM3, {
        "B": "1/2i", "C": "1/2", "D": "-1/2", "G": "-1/2", "L": "1/2",
        "N": "1/2i"}),
    (G2DIM4, (1, 4, 8)): FamilyParams.make(G2DIM4, {
        "A": "i", "D": "1/2", "E": "1/2i", "N": "1/2", "s": "1/2"}),
    (G2DIM4, (1, 4, 6, 8)): FamilyParams.make(G2DIM4, {
        "A": "i", "D": "1/2", "E": "1/2i", "L": "1/2", "N": "1/2",
        "s": "1/2"}),
    (G2DIM5, (1, 5, 8)): FamilyParams.make(G2DIM5, {
        "E": "1/2", "N": "1/2i", "s": "1/2"}),
    (G2DIM5, (1, 5, 6, 8)): FamilyParams.make(G2DIM5, {
        "E": "1/2", "L": "1/2", "N": "1/2i", "s": "1/2"}),
}
