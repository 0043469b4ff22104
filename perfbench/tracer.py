"""Per-layer tracing from outside the package.

The traced run wraps the public functions of each nlacs module in every
module namespace that bound them (``families`` imports ``jacobi_defect``
with ``from .liealg import``, so patching ``liealg`` alone would miss its
calls).  Each call becomes a span: id, parent span, operation id, name,
start and end.  Spans stay in memory and are written once at the end.
A few very hot functions are counted without a span.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# Spanned functions, per module; "Class.method" wraps a method.
SPANNED = {
    "exactlin": ("rref", "kernel_basis", "intersect", "Subspace.span",
                 "Matrix.inverse", "Subspace.coords_mod"),
    "liealg": ("jacobi_defect", "ascending_central_series", "center",
               "quotient", "change_basis"),
    "cpx": ("nijenhuis", "integrability_defect", "j_compatible_series",
            "adapt_frame"),
    "ceq": ("realify", "complex_equations"),
    "families": ("family_instantiate", "family_case_check",
                 "brute_force_case_search"),
    "obstruct": ("theorem_audit", "obstruction_report"),
    "nlaformat": ("parse_nla", "print_nla"),
    "cli": ("main",),
}
# Counted only: tens of thousands of calls per pass, each too short for a span.
COUNTED = {"liealg": ("bracket",)}

# Span metrics reported as per-layer metrics (``<name>.calls``/``.self_s``);
# brute_force_case_search is spanned only to count its candidates and survivors
# and the Jacobi verdicts under it.
REPORTED_SPANS = [f"{mod}.{fn}" for mod, fns in SPANNED.items() for fn in fns
                  if fn != "brute_force_case_search"]
EXTRA_METRICS = {
    "liealg.bracket.calls": "count",
    "liealg.jacobi_defect.calls_per_algebra": "ratio",
    "exactlin.kernel_basis.cells": "count",
    "families.jacobi_pass_ratio": "ratio",
    "families.survivor_ratio": "ratio",
    "cli.main.exit_0": "count",
    "cli.main.exit_1": "count",
    "cli.main.exit_2": "count",
}


class Tracer:
    """Span recorder; ``pass_no`` and ``op_id`` are set by the runner."""

    def __init__(self):
        self.spans = []  # (span id, parent id, op id, pass, name, start, end)
        self.counts = defaultdict(Counter)  # pass -> event counts
        self.tables = defaultdict(set)  # pass -> tables seen by jacobi_defect
        self.pass_no = 0
        self.op_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._restore = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # a worker thread's spans hang off the span its caller waits in
            stack = self._local.stack = list(self._main_stack[-1:])
        return stack

    def _span(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            pass_no, op_id = self.pass_no, self.op_id
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:
                if hook:
                    hook(pass_no, args, exc.code, parent)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, op_id, pass_no, name, start, end))
            if hook:
                hook(pass_no, args, result, parent)
            return result
        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[self.pass_no][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # result hooks: (pass, args, result, parent span id)
    def _jacobi(self, p, args, result, parent):
        self.tables[p].add(args[0].table)
        self.counts[p]["jacobi_parent", parent, not result] += 1

    def _kernel(self, p, args, result, parent):
        self.counts[p]["exactlin.kernel_basis.cells"] += args[0].rows * args[0].cols

    def _search(self, p, args, result, parent):
        self.counts[p]["search.candidates"] += len(args[2])
        self.counts[p]["search.survivors"] += len(result)

    def _exit(self, p, args, result, parent):
        self.counts[p][f"cli.main.exit_{result}"] += 1

    def install(self, m):
        """Wrap every listed function in every nlacs module that bound it."""
        hooks = {"liealg.jacobi_defect": self._jacobi,
                 "exactlin.kernel_basis": self._kernel,
                 "families.brute_force_case_search": self._search,
                 "cli.main": self._exit}
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "nlacs" or key.startswith("nlacs.")]
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for modname, fns in table.items():
                mod = getattr(m, modname)
                for fn in fns:
                    name = f"{modname}.{fn}"
                    owner, attr = mod, fn
                    if "." in fn:
                        cls_name, attr = fn.split(".")
                        owner = getattr(mod, cls_name)
                    raw = owner.__dict__[attr]
                    is_cm = isinstance(raw, classmethod)
                    orig = raw.__func__ if is_cm else raw
                    wrapped = (self._span(name, orig, hooks.get(name)) if spanned
                               else self._counter(name, orig))
                    if owner is not mod:
                        self._patch(owner, attr, raw,
                                    classmethod(wrapped) if is_cm else wrapped)
                        continue
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is orig:
                                self._patch(ns, key, orig, wrapped)

    def _patch(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._restore.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def layer_metrics(self, passes):
        """Per-pass work counts and self times, plus pass-to-pass agreement.

        Returns (metrics, mismatches): metrics maps name -> (value, unit),
        and mismatches lists the counts that differ between passes.
        """
        by_name = {}
        children = defaultdict(list)
        for sid, parent, _, p, name, start, end in self.spans:
            by_name[sid] = name
            if parent >= 0:
                children[parent].append((start, end))
        calls = defaultdict(Counter)
        self_s = Counter()
        for sid, parent, _, p, name, start, end in self.spans:
            calls[p][name] += 1
            covered, reach = 0.0, start
            for cs, ce in sorted(children.get(sid, ())):
                cs = max(cs, reach)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            self_s[name] += (end - start) - covered
        per_pass = []
        for p in range(passes):
            c = self.counts[p]
            row = {f"{n}.calls": calls[p][n] for n in REPORTED_SPANS}
            row["liealg.bracket.calls"] = c["liealg.bracket"]
            jac = calls[p]["liealg.jacobi_defect"]
            row["liealg.jacobi_defect.calls_per_algebra"] = (
                jac / len(self.tables[p]) if self.tables[p] else 0.0)
            row["exactlin.kernel_basis.cells"] = c["exactlin.kernel_basis.cells"]
            under_families = [(key[2], n) for key, n in c.items()
                              if isinstance(key, tuple) and key[0] == "jacobi_parent"
                              and by_name.get(key[1], "").startswith("families.")]
            tried = sum(n for _, n in under_families)
            row["families.jacobi_pass_ratio"] = (
                sum(n for ok, n in under_families if ok) / tried if tried else 0.0)
            cands = c["search.candidates"]
            row["families.survivor_ratio"] = (
                c["search.survivors"] / cands if cands else 0.0)
            for code in (0, 1, 2):
                row[f"cli.main.exit_{code}"] = c[f"cli.main.exit_{code}"]
            per_pass.append(row)
        first = per_pass[0]
        mismatches = sorted(k for row in per_pass[1:] for k in row
                            if row[k] != first[k])
        metrics = {}
        for n in REPORTED_SPANS:
            metrics[f"{n}.calls"] = (first[f"{n}.calls"], "count")
            metrics[f"{n}.self_s"] = (self_s[n] / passes, "s")
        for key, unit in EXTRA_METRICS.items():
            metrics[key] = (first[key], unit)
        return metrics, mismatches

    def write(self, path):
        """All spans as tab-separated text, times relative to the first span."""
        t0 = min((s[5] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tpass\tname\tstart_s\tdur_s\n")
            for sid, parent, op, p, name, start, end in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{op}\t{p}\t{name}\t"
                         f"{start - t0:.6f}\t{end - start:.6f}\n")
