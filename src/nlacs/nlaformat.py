"""The .nla text format and the structure-equation serialization.

A document is line oriented; ``#`` starts a comment.  Statements:

    dim N
    name "free text"
    cite "free text"
    [i,j] = TERM ...         brackets, 1 <= i < j <= dim
    J k = TERM ...           row k of the default structure "J"
    J(nom) k = TERM ...      row k of the structure named "nom"

A TERM is ``[+|-][p[/q]*]k`` and denotes (p/q) e_k; a bare index means
coefficient +1, so ``[3,5] = -1`` reads [e3, e5] = -e1.  A J row whose
right side is a single bare index j is the pair shorthand: it sets
J e_k = e_j and J e_j = -e_k at once.  (An explicit unit row prints as
``1*j`` so that shorthand and explicit rows survive round trips.)
Unstated brackets are zero; duplicate bracket keys or doubly defined
J rows are rejected with a line/column diagnostic.

Complex structure equations print one line per dw^a::

    dw2 = (1+2i) w1^2 + (-1/2) w1^-3

with ``wb^c`` for w^{bc}, ``wb^-c`` for w^{b c~} and ``w-b^-c`` for
w^{b~ c~}; coefficients are parenthesized Gaussian rationals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .ceq import CKey, ComplexEquations
from .cpx import Acs
from .errors import NlacsError
from .exactlin import GaussRational, Matrix, Vector
from .liealg import LieAlgebra


# Largest dimension a document may declare.  The series start from dense
# n x n subspaces (the full space holds n^2 Fractions), so a bare
# ``dim 3000`` would take about a minute and more than 1 GB; at 256 every
# command on an empty table answers within a second.
MAX_DIM = 256


class NlaParseError(NlacsError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class NlaSyntaxError(NlaParseError):
    pass


class DuplicateBracket(NlaParseError):
    pass


class IndexOutOfRange(NlaParseError):
    pass


class JInconsistent(NlaParseError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message, line, col)


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    index: int
    bare: bool  # written as a lone unsigned index

    def render(self) -> str:
        if self.bare:
            return str(self.index)
        if self.coeff == 1:
            return f"1*{self.index}"  # lone bare index would read as shorthand
        if self.coeff == -1:
            return f"-{self.index}"
        return f"{self.coeff}*{self.index}"


@dataclass(frozen=True)
class BracketLine:
    i: int
    j: int
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class JLine:
    structure: str
    row: int
    terms: tuple[Term, ...]

    @property
    def shorthand(self) -> bool:
        return len(self.terms) == 1 and self.terms[0].bare


@dataclass(frozen=True)
class NlaDocument:
    dim: int
    name: str | None = None
    cite: str | None = None
    brackets: tuple[BracketLine, ...] = ()
    jlines: tuple[JLine, ...] = ()

    def algebra(self) -> LieAlgebra:
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for line in self.brackets:
            row: dict[int, Fraction] = {}
            for t in line.terms:
                row[t.index] = row.get(t.index, Fraction(0)) + t.coeff
            table[(line.i, line.j)] = row
        return LieAlgebra.from_brackets(self.dim, table)

    def structure_names(self) -> tuple[str, ...]:
        seen: list[str] = []
        for line in self.jlines:
            if line.structure not in seen:
                seen.append(line.structure)
        return tuple(seen)

    def structure(self, name: str = "J") -> Acs:
        """Assemble and validate the named almost complex structure."""
        cols: dict[int, list[Fraction]] = {}

        def set_col(k: int, vec: list[Fraction]) -> None:
            if k in cols:
                raise JInconsistent(
                    f"column {k} of structure {name!r} defined twice")
            cols[k] = vec

        found = False
        for line in self.jlines:
            if line.structure != name:
                continue
            found = True
            if line.shorthand:
                j = line.terms[0].index
                ek = [Fraction(0)] * self.dim
                ek[j - 1] = Fraction(1)
                set_col(line.row, ek)
                ei = [Fraction(0)] * self.dim
                ei[line.row - 1] = Fraction(-1)
                set_col(j, ei)
            else:
                vec = [Fraction(0)] * self.dim
                for t in line.terms:
                    vec[t.index - 1] += t.coeff
                set_col(line.row, vec)
        if not found:
            raise JInconsistent(f"document has no structure named {name!r}")
        missing = [k for k in range(1, self.dim + 1) if k not in cols]
        if missing:
            raise JInconsistent(
                f"structure {name!r} leaves rows {missing} undefined")
        rows = [[cols[k][r] for k in range(1, self.dim + 1)]
                for r in range(self.dim)]
        return Acs(self.dim, Matrix.from_rows(rows))


_TERM_RE = re.compile(r"^(?P<sign>[+-])?(?:(?P<num>\d+)(?:/(?P<den>\d+))?\*)?(?P<idx>\d+)$")
_BRACKET_RE = re.compile(r"^\[\s*(\d+)\s*,\s*(\d+)\s*\]$")
_J_RE = re.compile(r"^J(?:\((?P<name>[A-Za-z_][A-Za-z0-9_]*)\))?$")


def _parse_term(tok: str, lineno: int, col: int, dim: int) -> Term:
    m = _TERM_RE.match(tok)
    if not m:
        raise NlaSyntaxError(f"bad term {tok!r}", lineno, col)
    idx = int(m.group("idx"))
    if not (1 <= idx <= dim):
        raise IndexOutOfRange(f"index {idx} out of range 1..{dim}", lineno, col)
    coeff = Fraction(1)
    bare = m.group("sign") is None and m.group("num") is None
    if m.group("num") is not None:
        coeff = Fraction(int(m.group("num")), int(m.group("den") or 1))
    if m.group("sign") == "-":
        coeff = -coeff
    return Term(coeff, idx, bare)


def parse_nla(text: str) -> NlaDocument:
    """Parse a document; any malformed input raises a positioned error."""
    dim: int | None = None
    name: str | None = None
    cite: str | None = None
    brackets: list[BracketLine] = []
    jlines: list[JLine] = []
    seen_brackets: set[tuple[int, int]] = set()
    seen_rows: set[tuple[str, int]] = set()

    def fail(msg: str, lineno: int, col: int = 1):
        raise NlaSyntaxError(msg, lineno, col)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        col = len(line) - len(line.lstrip()) + 1
        tokens = line.split()
        head = tokens[0]

        if head == "dim":
            if dim is not None:
                fail("duplicate dim statement", lineno, col)
            # leading zeros stripped: "0" and "" (no N) both fail below
            digits = tokens[1].lstrip("0") if len(tokens) == 2 else ""
            if not digits.isdecimal():
                fail("expected: dim N with N >= 1", lineno, col)
            # the length test comes first: int() refuses very long strings
            if len(digits) > len(str(MAX_DIM)) or int(digits) > MAX_DIM:
                fail(f"dim exceeds the limit of {MAX_DIM}", lineno, col)
            dim = int(digits)
            continue

        if head in ("name", "cite"):
            m = re.match(rf'^\s*{head}\s+"(?P<val>[^"]*)"\s*$', line)
            if not m:
                fail(f'expected: {head} "text"', lineno, col)
            if head == "name":
                if name is not None:
                    fail("duplicate name statement", lineno, col)
                name = m.group("val")
            else:
                if cite is not None:
                    fail("duplicate cite statement", lineno, col)
                cite = m.group("val")
            continue

        if dim is None:
            fail("dim must be declared before brackets or J rows", lineno, col)

        if head.startswith("["):
            if "=" not in tokens:
                fail("expected: [i,j] = terms", lineno, col)
            eq = tokens.index("=")
            key = "".join(tokens[:eq])
            m = _BRACKET_RE.match(key)
            if not m:
                fail(f"bad bracket key {key!r}", lineno, col)
            i, j = int(m.group(1)), int(m.group(2))
            if i == j:
                fail(f"bracket [e{i}, e{i}] is zero by antisymmetry; "
                     "remove the line", lineno, col)
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise IndexOutOfRange(f"bracket key ({i},{j}) out of range",
                                      lineno, col)
            if i > j:
                fail(f"bracket keys need i < j; write [{j},{i}] with "
                     "negated terms", lineno, col)
            if (i, j) in seen_brackets:
                raise DuplicateBracket(f"bracket [{i},{j}] defined twice",
                                       lineno, col)
            seen_brackets.add((i, j))
            terms = tokens[eq + 1:]
            if not terms:
                fail("bracket line has no terms", lineno, col)
            brackets.append(BracketLine(i, j, tuple(
                _parse_term(t, lineno, col, dim) for t in terms)))
            continue

        jm = _J_RE.match(head)
        if jm:
            sname = jm.group("name") or "J"
            if len(tokens) < 4 or tokens[2] != "=" or not tokens[1].isdigit():
                fail("expected: J k = terms", lineno, col)
            row = int(tokens[1])
            if not (1 <= row <= dim):
                raise IndexOutOfRange(f"row {row} out of range 1..{dim}",
                                      lineno, col)
            terms = tuple(_parse_term(t, lineno, col, dim)
                          for t in tokens[3:])
            jl = JLine(sname, row, terms)
            rows_set = [row] + ([terms[0].index] if jl.shorthand else [])
            for r in rows_set:
                if (sname, r) in seen_rows:
                    raise JInconsistent(
                        f"row {r} of structure {sname!r} defined twice",
                        lineno, col)
                seen_rows.add((sname, r))
            if jl.shorthand and terms[0].index == row:
                raise JInconsistent(
                    f"shorthand J {row} = {row} is impossible (J^2 = -Id)",
                    lineno, col)
            jlines.append(jl)
            continue

        fail(f"unrecognized statement {head!r}", lineno, col)

    if dim is None:
        raise NlaSyntaxError("document has no dim statement", 1, 1)
    return NlaDocument(dim, name, cite, tuple(brackets), tuple(jlines))


def print_nla(doc: NlaDocument) -> str:
    out = [f"dim {doc.dim}"]
    if doc.name is not None:
        out.append(f'name "{doc.name}"')
    if doc.cite is not None:
        out.append(f'cite "{doc.cite}"')
    for b in doc.brackets:
        rhs = " ".join(t.render() for t in b.terms)
        out.append(f"[{b.i},{b.j}] = {rhs}")
    for jl in doc.jlines:
        head = "J" if jl.structure == "J" else f"J({jl.structure})"
        rhs = " ".join(t.render() for t in jl.terms)
        out.append(f"{head} {jl.row} = {rhs}")
    return "\n".join(out) + "\n"


def document_from_algebra(g: LieAlgebra, name: str | None = None,
                          structures: dict[str, Acs] | None = None,
                          cite: str | None = None) -> NlaDocument:
    """Render an algebra (and optional structures) back into a document.

    Structure columns of the form J e_i = e_j come out as the pair
    shorthand; everything else becomes explicit rows.
    """
    brackets = []
    for (i, j), coeffs in g.table:
        terms = tuple(Term(c, k + 1, c == 1)
                      for k, c in enumerate(coeffs) if c != 0)
        brackets.append(BracketLine(i, j, terms))
    jlines: list[JLine] = []
    for sname, acs in (structures or {}).items():
        done: set[int] = set()
        for i in range(1, g.dim + 1):
            if i in done:
                continue
            col = acs.matrix.col(i - 1)
            nz = [(k + 1, c) for k, c in enumerate(col) if c != 0]
            if len(nz) == 1 and nz[0][1] == 1:
                j = nz[0][0]
                jlines.append(JLine(sname, i, (Term(Fraction(1), j, True),)))
                done.update((i, j))
            else:
                terms = tuple(Term(c, k, len(nz) > 1 and c == 1)
                              for k, c in nz)
                jlines.append(JLine(sname, i, terms))
                done.add(i)
    return NlaDocument(g.dim, name, cite, tuple(brackets), tuple(jlines))


def parse_vector_list(text: str, dim: int) -> list[Vector]:
    """Semicolon-separated vectors, each a list of TERMs ('7; 1 -2*3')."""
    vectors = []
    for chunk in text.split(";"):
        toks = chunk.split()
        if not toks:
            raise NlaSyntaxError("empty vector in list", 1, 1)
        vec = [Fraction(0)] * dim
        for tok in toks:
            t = _parse_term(tok, 1, 1, dim)
            vec[t.index - 1] += t.coeff
        vectors.append(tuple(vec))
    return vectors


def parse_pairing(text: str, dim: int) -> tuple[tuple[int, int], ...]:
    """Pairing syntax: 'x1,y1;x2,y2;...' with 1-based indices."""
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise NlaSyntaxError(f"bad pair {chunk!r}", 1, 1)
        x, y = (p.strip() for p in parts)
        if not (x.isdigit() and y.isdigit()):
            raise NlaSyntaxError(f"bad pair {chunk!r}", 1, 1)
        pairs.append((int(x), int(y)))
    return tuple(pairs)


# --- structure equation serialization -----------------------------------

_KIND_ORDER = {"20": 0, "11": 1, "02": 2}


def _render_ckey(key: CKey) -> str:
    kind, b, c = key
    if kind == "20":
        return f"w{b}^{c}"
    if kind == "11":
        return f"w{b}^-{c}"
    return f"w-{b}^-{c}"


_CKEY_RE = re.compile(r"^w(?P<nb>-)?(?P<b>\d+)\^(?P<nc>-)?(?P<c>\d+)$")


def _parse_ckey(tok: str) -> CKey:
    m = _CKEY_RE.match(tok)
    if not m:
        raise ValueError(f"bad 2-form key {tok!r}")
    b, c = int(m.group("b")), int(m.group("c"))
    if m.group("nb"):
        if not m.group("nc"):
            raise ValueError(f"bad 2-form key {tok!r}")
        return ("02", b, c)
    return ("11", b, c) if m.group("nc") else ("20", b, c)


def print_complex_equations(eqs: ComplexEquations) -> str:
    lines = []
    for a in range(1, eqs.n_half + 1):
        table = eqs.d_of(a)
        if not table:
            lines.append(f"dw{a} = 0")
            continue
        keys = sorted(table, key=lambda k: (_KIND_ORDER[k[0]], k[1], k[2]))
        body = " + ".join(f"({table[k]}) {_render_ckey(k)}" for k in keys)
        lines.append(f"dw{a} = {body}")
    return "\n".join(lines) + "\n"


def parse_complex_equations(text: str) -> ComplexEquations:
    coeffs: dict[tuple[int, CKey], GaussRational] = {}
    n_half = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^dw(\d+)\s*=\s*(.*)$", line)
        if not m:
            raise ValueError(f"bad equation line {line!r}")
        a = int(m.group(1))
        n_half = max(n_half, a)
        rhs = m.group(2).strip()
        if rhs == "0":
            continue
        for part in rhs.split(" + "):
            pm = re.match(r"^\((?P<coeff>[^)]*)\)\s*(?P<key>\S+)$", part.strip())
            if not pm:
                raise ValueError(f"bad term {part!r}")
            key = _parse_ckey(pm.group("key"))
            n_half = max(n_half, key[1], key[2])
            coeffs[(a, key)] = GaussRational.parse(pm.group("coeff"))
    return ComplexEquations(n_half, coeffs)
