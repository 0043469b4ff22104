"""Command line interface.

Every subcommand reads .nla files (grammar in nlaformat) and emits either
a human report or, with --format json, one stable JSON object matching
report-schema.json.  Exit codes: 0 the computation ran and the verdict is
positive, 1 the verdict is negative (Jacobi fails, not integrable, an
obstruction triggered, ...), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import corpus
from .ceq import complex_equations, d_square_defect, real_equations
from .cpx import Acs, adapt_frame, integrability_defect, j_compatible_series
from .errors import (BadPairing, ConjugationInconsistent, ForeignParameter,
                     JacobiViolated, NlacsError, NotALieAlgebra, NotAnIdeal,
                     NotIntegrable, NotNilpotent)
from .exactlin import Subspace
from .families import (FAMILY_PARAMS, FamilyParams, family_case_check,
                       family_instantiate)
from .liealg import (LieAlgebra, ascending_central_series, direct_product,
                     is_ideal, jacobi_defect, quotient)
from .nlaformat import (NlaDocument, NlaParseError, document_from_algebra,
                        parse_nla, parse_pairing, parse_vector_list,
                        print_complex_equations, print_nla)
from .obstruct import audit_failures, obstruction_report, theorem_audit

OK, NEGATIVE, ERROR = "ok", "negative", "error"
_EXIT = {OK: 0, NEGATIVE: 1, ERROR: 2}


def vec_str(v: Sequence[Fraction]) -> str:
    parts = []
    for k, c in enumerate(v, start=1):
        if c == 0:
            continue
        if c == 1:
            term = f"e{k}"
        elif c == -1:
            term = f"-e{k}"
        else:
            term = f"{c}*e{k}"
        parts.append(term if not parts or term.startswith("-")
                     else f"+{term}")
    return "".join(parts) if parts else "0"


def span_str(s: Subspace) -> str:
    if s.dim == 0:
        return "{0}"
    if s.dim == s.ambient_dim:
        return "full space"
    return "span{" + ", ".join(vec_str(r) for r in s.basis.entries) + "}"


def _subspace_json(s: Subspace) -> dict:
    return {"dim": s.dim,
            "basis": [[str(x) for x in row] for row in s.basis.entries]}


def _load(path: str) -> NlaDocument:
    return parse_nla(_resolve_text(path))


def _structure(doc: NlaDocument, name: str) -> Acs:
    return doc.structure(name)


# --- subcommand handlers -------------------------------------------------
# each returns (status, payload, text lines)

def cmd_check(doc: NlaDocument, args) -> tuple[str, dict, list[str]]:
    g = doc.algebra()
    jd = jacobi_defect(g)
    dd = d_square_defect(real_equations(g))
    ok = not jd and not dd
    payload = {
        "dim": g.dim,
        "is_lie_algebra": ok,
        "jacobi_defects": [{"triple": list(t), "value": vec_str(v)}
                           for t, v in jd],
        "d_square_defects": [{"form": i, "triple": list(t), "value": str(c)}
                             for i, t, c in dd],
    }
    lines = [f"dim {g.dim}: "
             + ("Jacobi identity and d^2 = 0 both hold"
                if ok else f"{len(jd)} Jacobi defect(s), "
                           f"{len(dd)} d^2 component(s)")]
    for t, v in jd[:10]:
        lines.append(f"  Jac(e{t[0]}, e{t[1]}, e{t[2]}) = {vec_str(v)}")
    return (OK if ok else NEGATIVE), payload, lines


def cmd_series(doc: NlaDocument, args) -> tuple[str, dict, list[str]]:
    g = doc.algebra()
    if jacobi_defect(g):
        return NEGATIVE, {"is_lie_algebra": False}, \
            ["not a Lie algebra (Jacobi fails); run `check` for details"]
    rep = ascending_central_series(g)
    payload = {
        "dim": g.dim,
        "terms": [_subspace_json(t) for t in rep.terms],
        "stabilized_at": rep.stabilized_at,
        "is_nilpotent": rep.is_nilpotent,
        "step": rep.step,
        "ascending_type": list(rep.ascending_type) if rep.ascending_type else None,
    }
    lines = []
    if rep.is_nilpotent:
        lines.append(f"ascending type {tuple(rep.ascending_type)}, "
                     f"step {rep.step}")
    else:
        lines.append(f"not nilpotent: series stabilizes at "
                     f"dim {rep.term(rep.stabilized_at).dim} < {g.dim}")
    for k, t in enumerate(rep.terms, start=1):
        lines.append(f"  g_{k} = {span_str(t)}")
    return OK, payload, lines


def cmd_jseries(doc: NlaDocument, args) -> tuple[str, dict, list[str]]:
    g = doc.algebra()
    j = _structure(doc, args.j)
    try:
        cls = j_compatible_series(g, j)
    except NotIntegrable:
        return NEGATIVE, {"integrable": False}, \
            [f"structure {args.j!r} is not integrable; see `nijenhuis`"]
    payload = {
        "structure": args.j,
        "kind": cls.kind.value,
        "stabilization_index": cls.stabilization_index,
        "terms": [_subspace_json(t) for t in cls.j_series],
    }
    lines = [f"structure {args.j}: {cls.kind.value}"]
    for k, t in enumerate(cls.j_series):
        lines.append(f"  a_{k} = {span_str(t)}")
    lines.append(f"stabilizes at t = {cls.stabilization_index}")
    return OK, payload, lines


def cmd_nijenhuis(doc: NlaDocument, args) -> tuple[str, dict, list[str]]:
    g = doc.algebra()
    j = _structure(doc, args.j)
    defects = integrability_defect(g, j)
    payload = {"structure": args.j, "integrable": not defects,
               "defects": [{"pair": list(p), "value": vec_str(v)}
                           for p, v in defects]}
    lines = [f"structure {args.j}: "
             + ("integrable (Nijenhuis tensor vanishes)" if not defects
                else f"{len(defects)} nonzero Nijenhuis value(s)")]
    for p, v in defects[:10]:
        lines.append(f"  N(e{p[0]}, e{p[1]}) = {vec_str(v)}")
    return (OK if not defects else NEGATIVE), payload, lines


def cmd_quotient(doc: NlaDocument, args) -> tuple[str, dict, list[str]]:
    g = doc.algebra()
    vectors = parse_vector_list(args.ideal, g.dim)
    s = Subspace.span(vectors, g.dim)
    if not is_ideal(g, s):
        return NEGATIVE, {"is_ideal": False}, \
            [f"{span_str(s)} is not an ideal of the algebra"]
    q, proj = quotient(g, s)
    text = print_nla(document_from_algebra(q, name=None))
    payload = {"ideal": _subspace_json(s), "quotient_dim": q.dim,
               "quotient": text,
               "projection": [[str(x) for x in row] for row in proj.entries]}
    lines = [f"quotient by {span_str(s)} has dimension {q.dim}", "", text.rstrip()]
    return OK, payload, lines


def cmd_product(doc: NlaDocument, args) -> tuple[str, dict, list[str]]:
    g1 = doc.algebra()
    g2 = _load(args.file2).algebra()
    g = direct_product(g1, g2)
    text = print_nla(document_from_algebra(g))
    return OK, {"dim": g.dim, "product": text}, [text.rstrip()]


def cmd_obstruct(doc: NlaDocument, args) -> tuple[str, dict, list[str]]:
    g = doc.algebra()
    if jacobi_defect(g):
        return NEGATIVE, {"is_lie_algebra": False}, ["not a Lie algebra"]
    try:
        verdicts = obstruction_report(g)
    except NotNilpotent:
        return NEGATIVE, {"is_nilpotent": False}, \
            ["not nilpotent: obstruction rules do not apply"]
    payload = {"verdicts": [
        {"rule": v.rule, "triggered": v.triggered, "statement": v.statement,
         "witness": {k: (list(w) if isinstance(w, tuple) else w)
                     for k, w in v.witness.items()}}
        for v in verdicts]}
    lines = []
    for v in verdicts:
        mark = "x" if v.triggered else " "
        lines.append(f"[{mark}] {v.rule}: {v.statement}")
    hit = [v for v in verdicts if v.triggered]
    lines.append(f"{len(hit)} obstruction(s) triggered"
                 + ("; the algebra admits no complex structure" if hit else ""))
    return (NEGATIVE if hit else OK), payload, lines


def cmd_audit(doc: NlaDocument, args) -> tuple[str, dict, list[str]]:
    g = doc.algebra()
    names = [args.j] if args.j else list(doc.structure_names())
    if not names:
        raise NlaParseError("document has no J structure to audit", 1, 1)
    results, lines, failed = [], [], False
    for name in names:
        j = _structure(doc, name)
        try:
            checks = theorem_audit(g, j)
        except NotIntegrable:
            return NEGATIVE, {"structure": name, "integrable": False}, \
                [f"structure {name!r} is not integrable"]
        fails = audit_failures(checks)
        failed = failed or bool(fails)
        results.append({"structure": name, "failures": len(fails), "checks": [
            {"rule": c.rule, "applicable": c.applicable, "passed": c.passed,
             "statement": c.statement} for c in checks]})
        lines.append(f"structure {name}: "
                     f"{len(checks)} checks, {len(fails)} failure(s)")
        for c in checks:
            mark = "PASS" if c.passed else "FAIL"
            if not c.applicable:
                mark = "skip"
            lines.append(f"  [{mark}] {c.rule}")
    return (NEGATIVE if failed else OK), {"audits": results}, lines


_DEFAULT_DIM8_PAIRING = ((4, 8), (3, 7), (2, 6), (1, 5))


def _auto_pairing(g: LieAlgebra, j: Acs):
    """Default pairing: the dim-8 ordering if valid, else any basis pairing."""
    candidates = []
    if g.dim == 8:
        candidates.append(_DEFAULT_DIM8_PAIRING)
    used: set[int] = set()
    greedy = []
    for x in range(1, g.dim + 1):
        if x in used:
            continue
        img = j.apply(g.basis_vector(x))
        nz = [(k + 1, c) for k, c in enumerate(img) if c != 0]
        if len(nz) == 1 and nz[0][1] == 1 and nz[0][0] not in used:
            y = nz[0][0]
            greedy.append((x, y))
            used.update((x, y))
    if len(greedy) == g.dim // 2:
        candidates.append(tuple(greedy))
    for cand in candidates:
        if all(j.apply(g.basis_vector(x)) == g.basis_vector(y)
               for x, y in cand):
            return cand
    return None


def cmd_ceq(doc: NlaDocument, args) -> tuple[str, dict, list[str]]:
    g = doc.algebra()
    j = _structure(doc, args.j)
    adapted = False
    if args.pairing:
        pairing = parse_pairing(args.pairing, g.dim)
    else:
        pairing = _auto_pairing(g, j)
        if pairing is None:
            # no basis pairing in these coordinates: move to an adapted frame
            g, j, frame = adapt_frame(g, j)
            pairing = tuple((2 * a - 1, 2 * a) for a in range(g.dim // 2))
            adapted = True
    eqs = complex_equations(g, j, pairing, require_integrability=False)
    has02 = any(key[1][0] == "02" for key in eqs.coeffs)
    text = print_complex_equations(eqs)
    payload = {"structure": args.j, "pairing": [list(p) for p in pairing],
               "adapted_frame": adapted, "integrable": not has02,
               "equations": text}
    lines = []
    if adapted:
        lines.append("note: coordinates changed to a J-adapted frame")
    lines.extend(text.rstrip().splitlines())
    if has02:
        lines.append("nonzero (0,2) block: the structure is not integrable")
    return (NEGATIVE if has02 else OK), payload, lines


def cmd_roundtrip(doc: NlaDocument, args) -> tuple[str, dict, list[str]]:
    printed = print_nla(doc)
    reparsed = parse_nla(printed)
    stable = reparsed == doc and print_nla(reparsed) == printed
    payload = {"model_round_trip": reparsed == doc,
               "printer_idempotent": print_nla(reparsed) == printed,
               "printed": printed}
    lines = ["round trip " + ("stable" if stable else "UNSTABLE")]
    return (OK if stable else NEGATIVE), payload, lines


def cmd_family(args) -> tuple[str, dict, list[str]]:
    values = {}
    for item in args.set or []:
        if "=" not in item:
            raise ForeignParameter(f"bad --set {item!r}; expected SYM=VALUE")
        sym, _, val = item.partition("=")
        values[sym.strip()] = val.strip()
    params = FamilyParams.make(args.name, values)
    eqs = family_instantiate(params)
    text = print_complex_equations(eqs)
    payload = {"family": args.name,
               "parameters": {k: str(v) for k, v in params.values},
               "equations": text}
    lines = text.rstrip().splitlines()
    if args.no_check:
        return OK, payload, lines
    try:
        rep = family_case_check(params, eqs)
    except JacobiViolated:
        payload["jacobi_valid"] = False
        lines.append("parameter point violates the Jacobi identity")
        return NEGATIVE, payload, lines
    payload.update({
        "jacobi_valid": True,
        "ascending_type": list(rep.ascending_type),
        "kind": rep.kind.value,
        "center_dim": rep.center_dim,
        "case_check_passed": rep.passed,
    })
    lines.append(f"ascending type {rep.ascending_type}, {rep.kind.value}, "
                 f"center dim {rep.center_dim}")
    lines.append("case check " + ("passed" if rep.passed else "FAILED"))
    return (OK if rep.passed else NEGATIVE), payload, lines


# --- driver --------------------------------------------------------------

def _render(args, command: str, status: str, payload: dict,
            lines: list[str], file: str | None) -> None:
    if args.format == "json":
        obj = {"command": command, "status": status, "file": file}
        obj.update(payload)
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for ln in lines:
            print(ln)


_FILE_COMMANDS = {
    "check": cmd_check,
    "series": cmd_series,
    "jseries": cmd_jseries,
    "nijenhuis": cmd_nijenhuis,
    "quotient": cmd_quotient,
    "product": cmd_product,
    "obstruct": cmd_obstruct,
    "audit": cmd_audit,
    "ceq": cmd_ceq,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nlacs",
        description="Exact computations on nilpotent Lie algebras "
                    "with almost complex structures.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_, with_file=True, file_nargs=None):
        p = sub.add_parser(name, help=help_)
        if with_file:
            p.add_argument("file", nargs=file_nargs,
                           help=".nla input file (or corpus:NAME)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    add("check", "verify the Jacobi identity and d^2 = 0", file_nargs="?") \
        .add_argument("--all", metavar="DIR", dest="all_dir",
                      help="check every .nla file under DIR instead of FILE")
    add("series", "ascending central series, type and step")
    p = add("jseries", "J-compatible series and classification")
    p.add_argument("--j", default="J", help="structure name (default J)")
    p = add("nijenhuis", "list nonzero Nijenhuis tensor values")
    p.add_argument("--j", default="J")
    p = add("quotient", "quotient by an ideal")
    p.add_argument("--ideal", required=True,
                   help="semicolon-separated spanning vectors, e.g. '7;8'")
    p = add("product", "direct product of two algebras")
    p.add_argument("file2", help="second .nla file")
    add("obstruct", "evaluate complex-structure existence obstructions")
    p = add("audit", "re-check the structural theorems on a pair")
    p.add_argument("--j", default=None, help="structure name (default: all)")
    p = add("ceq", "complex structure equations of an integrable pair")
    p.add_argument("--j", default="J")
    p.add_argument("--pairing", default=None,
                   help="explicit (x,Jx) index pairs, e.g. '4,8;3,7;2,6;1,5'")
    p = add("family", "instantiate a dim-8 family and check its case",
            with_file=False)
    p.add_argument("name", choices=sorted(FAMILY_PARAMS))
    p.add_argument("--set", action="append", metavar="SYM=VALUE",
                   help="parameter assignment, e.g. --set A=1+2i --set s=1/2")
    p.add_argument("--no-check", action="store_true",
                   help="emit the equations without the case check")
    add("roundtrip", "parse/print stability check for a document")
    return ap


def _resolve_text(path: str) -> str:
    if path.startswith("corpus:"):
        return corpus.text(path.split(":", 1)[1])
    return Path(path).read_text(encoding="utf-8")


def _run_single(args) -> int:
    raw = _resolve_text(args.file)
    doc = parse_nla(raw)
    if args.command == "roundtrip":
        status, payload, lines = cmd_roundtrip(doc, args)
    else:
        status, payload, lines = _FILE_COMMANDS[args.command](doc, args)
    _render(args, args.command, status, payload, lines, args.file)
    return _EXIT[status]


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check" and args.file is None and not args.all_dir:
        parser.error("check needs FILE or --all DIR")
    try:
        if args.command == "family":
            status, payload, lines = cmd_family(args)
            _render(args, "family", status, payload, lines, None)
            return _EXIT[status]
        if args.command == "check" and getattr(args, "all_dir", None):
            results = []
            for path in sorted(Path(args.all_dir).glob("*.nla")):
                d = parse_nla(path.read_text(encoding="utf-8"))
                st, payload, _ = cmd_check(d, args)
                results.append((path.name, st, payload))
            worst = NEGATIVE if any(st == NEGATIVE for _, st, _ in results) else OK
            payload = {"results": [{"file": n, "status": st, **pl}
                                   for n, st, pl in results]}
            lines = [f"{n}: {st}" for n, st, _ in results]
            _render(args, "check", worst, payload, lines, args.all_dir)
            return _EXIT[worst]
        return _run_single(args)
    except NlaParseError as exc:
        _render(args, args.command, ERROR, {"error": str(exc)},
                [f"input error: {exc}"], getattr(args, "file", None))
        return 2
    except (FileNotFoundError, IsADirectoryError, UnicodeDecodeError) as exc:
        _render(args, args.command, ERROR, {"error": str(exc)},
                [f"input error: {exc}"], getattr(args, "file", None))
        return 2
    except (BadPairing, ForeignParameter, ConjugationInconsistent,
            NotAnIdeal) as exc:
        _render(args, args.command, ERROR, {"error": str(exc)},
                [f"input error: {exc}"], getattr(args, "file", None))
        return 2
    except (NotALieAlgebra, NotIntegrable, NotNilpotent) as exc:
        # well-formed input, negative verdict
        _render(args, args.command, NEGATIVE, {"error": str(exc)},
                [str(exc)], getattr(args, "file", None))
        return 1
    except NlacsError as exc:
        _render(args, args.command, ERROR, {"error": str(exc)},
                [f"input error: {exc}"], getattr(args, "file", None))
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
