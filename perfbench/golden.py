"""Record the data the benchmark reads, from the package at hand.

Run from anywhere, only when a change of CLI output or of the
acceptance grids is intended:

    python3 perfbench/golden.py

It rewrites perfbench/cli_golden.json, the exit code and stdout digest
of every cli_corpus call in both formats (every malformed input must
exit 2, and no call may raise), and perfbench/family_golden.json, which
holds per acceptance grid, by index in the grid's product order, the
points the d^2 oracle finds Jacobi-valid and the points that
``brute_force_case_search`` keeps.  The second part takes minutes.
"""

from __future__ import annotations

import json
import os
import sys

from run import ROOT, fresh_import
from workloads import (FAMILY_GOLDEN, GOLDEN, cli_argv_list, digest, grid_key,
                       run_cli)


def main():
    os.chdir(ROOT)  # the golden argv name files relative to the root
    sys.path.insert(0, str(ROOT / "src"))
    m = fresh_import()
    docs = {name: m.corpus.load(name) for name in m.corpus.names()}
    wellformed, malformed = cli_argv_list(m, docs)
    calls = []
    for argv in wellformed + malformed:
        code, out = run_cli(m.cli, argv)
        calls.append({"argv": argv, "code": code, "stdout": digest(out)})
    bad = [c for c in calls[len(wellformed):] if c["code"] != 2]
    if bad:
        raise SystemExit(f"malformed inputs not rejected with exit 2: {bad}")
    GOLDEN.write_text(json.dumps({"calls": calls}, indent=1) + "\n", encoding="utf-8")
    print(f"{len(calls)} calls recorded in {GOLDEN.relative_to(ROOT)}")

    fam, ceq = m.families, m.ceq
    grids = {}
    for family, case in fam.ACCEPTANCE_GRIDS:
        points = list(fam.acceptance_candidates(family, case))
        valid = [index for index, params in enumerate(points)
                 if not ceq.d_square_defect(ceq.real_equations(
                     ceq.realify(fam.family_instantiate(params))[0]))]
        survivors = [index for index in valid
                     if fam.brute_force_case_search(family, case, [points[index]],
                                                    limit=None)]
        grids[grid_key(family, case)] = {"jacobi_valid": valid,
                                         "survivors": survivors}
        print(f"{family} {case}: {len(points)} points, {len(valid)} Jacobi-valid, "
              f"{len(survivors)} survivors")
    FAMILY_GOLDEN.write_text(json.dumps(grids) + "\n", encoding="utf-8")
    print(f"grid verdicts recorded in {FAMILY_GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
