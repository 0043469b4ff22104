"""The four benchmark workloads.

Each workload is built from the freshly imported package (``m``, a
namespace holding the nlacs modules), the parsed corpus and a seeded
``random.Random``.  It exposes:

- ``ops``: one pass, a fixed seeded list of operations;
- ``reference()``: expected results, computed before any timing;
- ``run(op)``: the timed operation, calling only public functions; a
  generator that yields None between timed segments and then the result;
- ``summarize(raw)``: a canonical, JSON-able form of an operation's result;
- ``check(i, out, ref)``: None when ``ops[i]`` gave ``out`` rightly, else why not.

Every call into the package goes through a module attribute at call
time (``m.liealg.jacobi_defect``), so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "cli_golden.json"
FAMILY_GOLDEN = BENCH_DIR / "family_golden.json"
CORPUS_DIR = "src/nlacs/corpus"

# Points per acceptance grid in a pass.  A Jacobi-valid point costs 2-5x
# a rejected one, so every seed takes the same number of each from a grid,
# in proportion to the grid's share of valid points.
FAMILY_POINTS_PER_GRID = 16
FILIFORM_DIM = 20
REBASED_DIM8_PAIRS = 3
# ex2_6's nilpotent structure "hat" costs about 20% more than J, which
# moved op_p95_ms with the seed's choice; the seed picks J's matrix only.
REBASED_DIM10_PAIR = ("ex2_6", "J")


def corpus_pairs(docs):
    """Every (file name, structure name) in the corpus, sorted."""
    return [(name, sname) for name, doc in sorted(docs.items())
            for sname in doc.structure_names()]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_cli(cli, argv):
    """One in-process ``cli.main(argv)``: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue()


def grid_key(family, case):
    return f"{family} {case}"


def _padded_sum(a, b):
    """Componentwise sum of two stabilizing sequences (last value repeats)."""
    n = max(len(a), len(b))
    a = list(a) + [a[-1]] * (n - len(a))
    b = list(b) + [b[-1]] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def _product_kind(k1: str, k2: str) -> str:
    """a_k(J1 x J2) = a_k(J1) + a_k(J2): the top is full iff both are, zero iff both are."""
    if k1 == k2 == "nilpotent":
        return "nilpotent"
    if k1 == k2 == "strongly non-nilpotent":
        return "strongly non-nilpotent"
    return "weakly non-nilpotent"


class FamilySearch:
    """One op: one candidate point through ``brute_force_case_search``."""

    def __init__(self, m, docs, rng):
        self.m = m
        fam = m.families
        golden = json.loads(FAMILY_GOLDEN.read_text(encoding="utf-8"))
        self.ops = []
        for (family, case), grid in fam.ACCEPTANCE_GRIDS.items():
            symbols = list(grid)
            size = 1
            for sym in symbols:
                size *= len(grid[sym])
            valid = golden[grid_key(family, case)]["jacobi_valid"]
            survivors = set(golden[grid_key(family, case)]["survivors"])
            invalid = sorted(set(range(size)) - set(valid))
            n_valid = round(FAMILY_POINTS_PER_GRID * len(valid) / size)
            for index in (rng.sample(valid, n_valid)
                          + rng.sample(invalid, FAMILY_POINTS_PER_GRID - n_valid)):
                survives = index in survivors
                combo = {}
                for sym in reversed(symbols):  # product order: last symbol fastest
                    index, r = divmod(index, len(grid[sym]))
                    combo[sym] = grid[sym][r]
                params = fam.FamilyParams.make(family, combo)
                self.ops.append((family, case, params, survives))
            self.ops.append((family, case, fam.COMMITTED_INSTANCES[(family, case)],
                             True))
        rng.shuffle(self.ops)

    def reference(self):
        """Per candidate: the d^2 oracle's Jacobi verdict, checked against jacobi_defect."""
        m = self.m
        refs = []
        for family, case, params, _ in self.ops:
            g = m.ceq.realify(m.families.family_instantiate(params))[0]
            oracle = not m.ceq.d_square_defect(m.ceq.real_equations(g))
            program = not m.liealg.jacobi_defect(g)
            error = None
            if oracle != program:
                error = (f"jacobi_defect says valid={program}, "
                         f"d^2 oracle says valid={oracle}")
            refs.append({"jacobi_valid": oracle, "error": error})
        return refs

    def run(self, op):
        family, case, params, _ = op
        yield self.m.families.brute_force_case_search(family, case, [params],
                                                      limit=None)

    def summarize(self, raw):
        return [[sym, str(v)] for p in raw for sym, v in p.values]

    def check(self, i, out, ref):
        family, case, params, survives = self.ops[i]
        if ref["error"]:
            return ref["error"]
        expected = [[sym, str(v)] for sym, v in params.values]
        if out and out != expected:
            return "survivor differs from the candidate"
        if out and not ref["jacobi_valid"]:
            return "survivor violates the Jacobi identity (d^2 oracle)"
        if bool(out) != survives:
            return (f"{family} {case} candidate {'rejected' if survives else 'kept'}"
                    f", golden {'keeps' if survives else 'rejects'} it")
        return None


def random_invertible(m, rng, n):
    """Seeded invertible matrix with entries p/q, |p| <= 2, 1 <= q <= 2."""
    while True:
        p = m.exactlin.Matrix.from_rows(
            [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(n)])
        try:
            p.inverse()
            return p
        except m.errors.SingularMatrix:
            continue


class RebasedPairs:
    """One op: one corpus pair transported by a seeded change of basis.

    A pass holds seeded dimension-8 pairs and the 10-dimensional pair
    REBASED_DIM10_PAIR, each with its own seeded matrix.
    """

    def __init__(self, m, docs, rng):
        self.m = m
        self.ops = []
        chosen = (rng.sample([p for p in corpus_pairs(docs) if docs[p[0]].dim == 8],
                             REBASED_DIM8_PAIRS)
                  + [REBASED_DIM10_PAIR])
        for name, sname in chosen:
            doc = docs[name]
            g, j = doc.algebra(), doc.structure(sname)
            self.ops.append((name, sname, g, j, random_invertible(m, rng, g.dim)))
        rng.shuffle(self.ops)

    def reference(self):
        """The untransported pairs' invariants."""
        m = self.m
        refs = []
        for _, _, g, j, _ in self.ops:
            cls = m.cpx.j_compatible_series(g, j)
            refs.append({"type": list(m.liealg.ascending_central_series(g).ascending_type),
                         "center_dim": m.liealg.center(g).dim,
                         "a_dims": [t.dim for t in cls.j_series],
                         "kind": cls.kind.value})
        return refs

    def run(self, op):
        m = self.m
        _, _, g, j, p = op
        g2 = m.liealg.change_basis(g, p)
        j2 = m.cpx.Acs(g.dim, p.inverse() @ j.matrix @ p)
        yield
        nij = m.cpx.integrability_defect(g2, j2)
        yield
        rep = m.liealg.ascending_central_series(g2)
        yield
        cls = m.cpx.j_compatible_series(g2, j2)
        yield
        z = m.liealg.center(g2)
        yield
        audit = m.obstruct.theorem_audit(g2, j2)
        yield
        ga, ja, _ = m.cpx.adapt_frame(g2, j2)
        pairing = tuple((2 * a - 1, 2 * a) for a in range(1, g.dim // 2 + 1))
        yield rep, cls, z, audit, nij, m.ceq.complex_equations(ga, ja, pairing)

    def summarize(self, raw):
        rep, cls, z, audit, nij, eqs = raw
        return {"type": list(rep.ascending_type) if rep.is_nilpotent else None,
                "center_dim": z.dim,
                "a_dims": [t.dim for t in cls.j_series],
                "kind": cls.kind.value,
                "audit_failures": sum(1 for c in audit
                                      if c.applicable and not c.passed),
                "nijenhuis_defects": len(nij),
                "has_02": any(key[0] == "02" for _, key in eqs.coeffs),
                "equations": digest(repr(sorted(
                    (a, key, str(v)) for (a, key), v in eqs.coeffs.items())))}

    def check(self, i, out, ref):
        for key in ("type", "center_dim", "a_dims", "kind"):
            if out[key] != ref[key]:
                return f"{key} {out[key]} != untransported {ref[key]}"
        if out["audit_failures"]:
            return f"{out['audit_failures']} theorem audit failure(s)"
        if out["nijenhuis_defects"]:
            return "transported structure is not integrable"
        if out["has_02"]:
            return "complex equations have a (0,2) part"
        return None


def block_diagonal(m, a, b):
    zero = Fraction(0)
    rows = ([list(r) + [zero] * b.rows for r in a.entries]
            + [[zero] * a.rows + list(r) for r in b.entries])
    return m.exactlin.Matrix.from_rows(rows)


class LargeDim:
    """One op: one algebra of dimension 16 or 20 through the series pipeline.

    The pass holds the filiform model L_20 and two seeded direct products
    of two 8-dimensional family instances (dimension 16) with
    block-diagonal J.  L_20 is the slowest op and the products cost about
    the same, so the median and the 95th percentile each stay on one kind.
    """

    def __init__(self, m, docs, rng):
        self.m = m
        n = FILIFORM_DIM
        g = m.liealg.LieAlgebra.from_brackets(
            n, {(1, i): {i + 1: 1} for i in range(2, n)})
        self.ops = [(f"L{n}", g, None, None)]
        family = [p for p in corpus_pairs(docs) if p[0].startswith("g2dim")]
        for factors in (rng.sample(family, 2), rng.sample(family, 2)):
            algs = [docs[name].algebra() for name, _ in factors]
            acs = [docs[name].structure(s) for name, s in factors]
            g = m.liealg.direct_product(*algs)
            j = m.cpx.Acs(g.dim, block_diagonal(m, acs[0].matrix, acs[1].matrix))
            label = "x".join(f"{name}:{s}" for name, s in factors)
            self.ops.append((label, g, j, list(zip(algs, acs))))
        rng.shuffle(self.ops)

    def reference(self):
        m = self.m
        refs = []
        for label, g, j, factors in self.ops:
            if factors is None:
                n = g.dim
                refs.append({"type": list(range(1, n - 1)) + [n], "center_dim": 1,
                             "a_dims": None, "kind": None})
                continue
            parts = []
            for fg, fj in factors:
                rep = m.liealg.ascending_central_series(fg)
                cls = m.cpx.j_compatible_series(fg, fj)
                parts.append((list(rep.ascending_type), rep.term(1).dim,
                              [t.dim for t in cls.j_series], cls.kind.value))
            (t1, z1, a1, k1), (t2, z2, a2, k2) = parts
            refs.append({"type": _padded_sum(t1, t2), "center_dim": z1 + z2,
                         "a_dims": _padded_sum(a1, a2),
                         "kind": _product_kind(k1, k2)})
        return refs

    def run(self, op):
        m = self.m
        _, g, j, _ = op
        jac = m.liealg.jacobi_defect(g)
        yield
        rep = m.liealg.ascending_central_series(g)
        yield
        z = m.liealg.center(g)
        q, _ = m.liealg.quotient(g, z)
        yield
        verdicts = m.obstruct.obstruction_report(g)
        nij = cls = None
        if j is not None:
            yield
            nij = m.cpx.integrability_defect(g, j)
            yield
            cls = m.cpx.j_compatible_series(g, j)
        yield jac, rep, z, q, verdicts, nij, cls

    def summarize(self, raw):
        jac, rep, z, q, verdicts, nij, cls = raw
        return {"jacobi_defects": len(jac),
                "type": list(rep.ascending_type) if rep.is_nilpotent else None,
                "center_dim": z.dim,
                "quotient_dim": q.dim,
                "triggered": sorted(v.rule for v in verdicts if v.triggered),
                "nijenhuis_defects": None if nij is None else len(nij),
                "a_dims": None if cls is None else [t.dim for t in cls.j_series],
                "kind": None if cls is None else cls.kind.value}

    def check(self, i, out, ref):
        label, g, _, _ = self.ops[i]
        if out["jacobi_defects"]:
            return "Jacobi identity fails"
        for key in ("type", "center_dim", "a_dims", "kind"):
            if out[key] != ref[key]:
                return f"{key} {out[key]} != expected {ref[key]}"
        if out["quotient_dim"] != g.dim - ref["center_dim"]:
            return f"quotient by the center has dim {out['quotient_dim']}"
        if out["nijenhuis_defects"]:
            return "product structure is not integrable"
        if label.startswith("L"):
            rule = "filiform" if g.dim % 2 == 0 else "odd-dimension"
            if rule not in out["triggered"]:
                return f"obstruction {rule!r} did not fire on {label}"
        return None


class CliCorpus:
    """One op: one in-process ``cli.main(argv)`` with stdout captured.

    The golden file holds every call in text and in JSON; a pass makes
    each call once, in a seeded one of the two formats.
    """

    def __init__(self, m, docs, rng):
        self.m = m
        groups = {}
        for call in json.loads(GOLDEN.read_text(encoding="utf-8"))["calls"]:
            argv = call["argv"]
            key = tuple(argv[:-2] if argv[-2:-1] == ["--format"] else argv)
            groups.setdefault(key, []).append(call)
        self.ops = [rng.choice(calls) for calls in groups.values()]
        rng.shuffle(self.ops)

    def reference(self):
        return [{"code": c["code"], "stdout": c["stdout"]} for c in self.ops]

    def run(self, op):
        yield run_cli(self.m.cli, op["argv"])

    def summarize(self, raw):
        code, stdout = raw
        return {"code": code, "stdout": digest(stdout)}

    def check(self, i, out, ref):
        if out != ref:
            return (f"{' '.join(self.ops[i]['argv'])}: exit {out['code']} "
                    f"stdout {out['stdout']}, golden exit {ref['code']} "
                    f"stdout {ref['stdout']}")
        return None


WORKLOADS = {
    "family_search": FamilySearch,
    "rebased_pairs": RebasedPairs,
    "large_dim": LargeDim,
    "cli_corpus": CliCorpus,
}


def cli_argv_list(m, docs):
    """The argv of every ``cli_corpus`` call: (well-formed, malformed).

    Every malformed call must exit 2.
    """
    fmt = (("--format", "text"), ("--format", "json"))
    names = sorted(docs)
    calls = []
    for f in fmt:
        for k, name in enumerate(names):
            src = f"corpus:{name}"
            g = docs[name].algebra()
            ideal = ";".join(
                " ".join(f"{c}*{idx}" for idx, c in enumerate(row, start=1) if c != 0)
                for row in m.liealg.center(g).basis.entries)
            other = f"{CORPUS_DIR}/{names[(k + 1) % len(names)]}.nla"
            calls += [["check", src, *f], ["series", src, *f],
                      ["obstruct", src, *f], ["roundtrip", src, *f],
                      ["quotient", src, "--ideal", ideal, *f],
                      ["product", src, other, *f]]
            for sname in docs[name].structure_names():
                for cmd in ("jseries", "nijenhuis", "audit", "ceq"):
                    calls.append([cmd, src, "--j", sname, *f])
        for (family, _), params in sorted(m.families.COMMITTED_INSTANCES.items()):
            sets = itertools.chain.from_iterable(
                ("--set", f"{sym}={v}") for sym, v in params.values)
            calls.append(["family", family, *sets, *f])
        calls.append(["check", "corpus:h3", "--all", CORPUS_DIR, *f])
        for name in names:
            if docs[name].structure_names():
                calls.append(["audit", f"corpus:{name}", *f])
    malformed = [[cmd, f"perfbench/malformed/{path.name}", *f]
                 for path in sorted((BENCH_DIR / "malformed").glob("*.nla"))
                 for cmd in ("check", "series", "roundtrip") for f in fmt]
    malformed += [
        ["series", "perfbench/malformed/missing.nla"],
        ["series", "perfbench/malformed"],
        ["jseries", "corpus:ex2_5", "--j", "nope"],
        ["quotient", "corpus:ex2_5", "--ideal", "9"],
        ["ceq", "corpus:ex2_5", "--pairing", "1,2;3,4"],
        ["family", "G2dim3", "--set", "Z=1"],
        ["family", "G2dim3", "--set", "s=i"],
        ["family", "G2dim4", "--set", "A"],
        ["series"],
    ]
    return calls, malformed
