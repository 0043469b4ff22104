"""nlacs benchmark: seeded workloads, end-to-end metrics, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload family_search --seed 1 --seconds 20 --trace 0

One process, one thread of its own, stdlib only.  The run sets up the
workload SETUP_REPEATS times (fresh import of nlacs, corpus parse, input
construction) and reports the median set-up time.  It computes the
expected results before timing, then runs whole passes over the seeded
operations until the timed total reaches --seconds, checking every
result outside the timed region.  Each pass sets the workload up afresh,
untimed, so a cache left on the package or on an input object by one
pass cannot speed up the next.

Times are reported in reference seconds: the speed of the machine
running this was seen to drift by up to 2x within seconds, so every
timed interval is scaled by PROBE_REF over the mean time of a fixed
Fraction kernel (the speed probe) measured just before and just after
it and, from a SIGALRM timer, every PROBE_INTERVAL seconds within it;
the probes inside an interval are not counted in its time.  The stamp
also carries the raw wall-clock figures.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the package's
public functions (see tracer.py), prints per-layer metrics for one pass
and writes every span to .bench_out/.  The last line of stdout is the
result object; the line before it is a stamp describing the run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
PROBE_REF = 1e-3  # seconds the speed probe takes on the reference machine
PROBE_INTERVAL = 0.05  # seconds between speed probes inside a timed segment
MODULES = ("errors", "exactlin", "liealg", "cpx", "ceq", "families",
           "obstruct", "nlaformat", "corpus", "cli")


def speed_probe():
    """Best of three timings of a fixed Fraction kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(i % 7 + 1, i % 97 + 1)
        best = min(best, perf_counter() - start)
    return best


def to_reference(elapsed, probes):
    """Scale a wall time by the mean of the speed probes taken around and in it."""
    return elapsed * PROBE_REF * len(probes) / sum(probes)


def fresh_import():
    """Import nlacs and its modules from src/, discarding earlier imports."""
    for name in [k for k in sys.modules if k == "nlacs" or k.startswith("nlacs.")]:
        del sys.modules[name]
    importlib.import_module("nlacs")
    return types.SimpleNamespace(
        **{mod: importlib.import_module(f"nlacs.{mod}") for mod in MODULES})


def setup(workload_cls, seed):
    """Import, parse the corpus, build the seeded inputs: (workload, seconds)."""
    start = perf_counter()
    m = fresh_import()
    docs = {name: m.corpus.load(name) for name in m.corpus.names()}
    workload = workload_cls(m, docs, random.Random(seed))
    return workload, perf_counter() - start


class SpeedSampler:
    """Speed probes taken every PROBE_INTERVAL seconds inside a timed segment.

    A SIGALRM handler runs the probe in the main thread between bytecodes;
    the time spent in it is kept apart so it can be taken off the segment.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, signum, frame):
        start = perf_counter()
        self.samples.append(speed_probe())
        self.spent += perf_counter() - start

    def start(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples, self.spent


def timed(workload, op, probe, sampler):
    """Run one op segment by segment: (result, error, segments, probe).

    ``segments`` lists each segment's (wall, reference) seconds: its wall
    time, less the probes taken inside it, scaled by the mean of those
    probes and the ones on either side of it, so a long op is corrected
    for speed changes during it.
    """
    steps = workload.run(op)
    segments = []
    result = error = None
    while result is None and error is None:
        sampler.start()
        start = perf_counter()
        try:
            result = next(steps)
        except Exception as exc:  # an unexpected raise fails the op
            error = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = perf_counter() - start
            inside, spent = sampler.stop()
        elapsed -= spent
        after = speed_probe()
        segments.append((elapsed, to_reference(elapsed, [probe, after, *inside])))
        probe = after
    return result, error, segments, probe


def measure(build, refs, seconds, tracer):
    """Whole passes until the timed total reaches ``seconds``.

    Every pass runs on a workload from a fresh ``build()`` (new import,
    new input objects), made outside the timed region, so no state a
    pass leaves behind can shorten a later pass.

    Returns per pass, per op, the segments' (wall, reference) seconds;
    per-op failure messages; and the digest of the first pass's outputs.
    """
    sampler = SpeedSampler()
    passes, failures = [], []
    first_pass = hashlib.sha256()
    total = 0.0
    while total < seconds or not passes:
        workload = None  # let the last pass's package go before the next import
        gc.collect()
        workload = build()
        ops = workload.ops
        if tracer:
            tracer.install(workload.m)
        durations = []
        probe = speed_probe()
        try:
            for i, op in enumerate(ops):
                if tracer:
                    tracer.pass_no, tracer.op_id = len(passes), len(passes) * len(ops) + i
                raw, error, segments, probe = timed(workload, op, probe, sampler)
                durations.append(segments)
                out = None
                if error is None:
                    try:
                        out = workload.summarize(raw)
                        error = workload.check(i, out, refs[i])
                    except Exception as exc:  # a result of the wrong shape
                        error = f"unreadable result: {type(exc).__name__}: {exc}"
                if error:
                    failures.append(f"op {i}: {error}")
                if not passes:
                    first_pass.update(json.dumps([i, out], sort_keys=True).encode())
        finally:
            if tracer:
                tracer.uninstall()
        passes.append(durations)
        total += sum(wall for segments in durations for wall, _ in segments)
    return passes, failures, first_pass.hexdigest()[:16]


def latency_metrics(passes, clock):
    """ops_per_s, op_p50_ms, op_p95_ms from one clock (0 wall, 1 reference).

    A deterministic segment's best time over the passes is the closest to
    its cost without the machine's noise; an op's time is the sum of its
    segments' best times.
    """
    best = sorted(sum(min(seg[clock] for seg in runs) for runs in zip(*op))
                  for op in zip(*passes))
    cuts = statistics.quantiles(best, n=20, method="inclusive")
    return {"ops_per_s": (len(best) / sum(best), "1/s"),
            "op_p50_ms": (1000 * statistics.median(best), "ms"),
            "op_p95_ms": (1000 * cuts[18], "ms")}


def quartile_spread(values):
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def stamp(args, passes, failures, attempted, digest):
    git_sha = None
    try:  # the ceiling keeps git from reading repositories above the checkout
        sha = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10,
                             env={**os.environ,
                                  "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        lines = sha.stdout.split()
        if sha.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nlacs").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".nla", ".json"):
            source.update(path.relative_to(ROOT).as_posix().encode())
            source.update(path.read_bytes())
    pass_rates = [len(d) / sum(r for segments in d for _, r in segments)
                  for d in passes]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha,
        "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "passes": len(passes), "samples": len(passes[0]),
        "failed_frac": len(failures) / attempted,
        "pass_ops_per_s_spread": quartile_spread(pass_rates),
        "first_pass_digest": digest, "failures": failures[:10],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)  # the golden argv name files relative to the root
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "nlacs" / "__init__.py").is_file():
        print("perfbench: src/nlacs is missing; run from a full checkout",
              file=sys.stderr)
        return 2

    workload_cls = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = speed_probe()
        workload, elapsed = setup(workload_cls, args.seed)
        setup_times.append((elapsed, to_reference(elapsed, [before, speed_probe()])))
    refs = workload.reference()
    del workload  # its objects have been used; passes build their own

    tracer = Tracer() if args.trace else None
    passes, failures, digest = measure(lambda: setup(workload_cls, args.seed)[0],
                                       refs, args.seconds, tracer)

    attempted = sum(len(d) for d in passes)
    reference = latency_metrics(passes, 1)
    wall = latency_metrics(passes, 0)
    mismatches = []
    if tracer:
        layer, mismatches = tracer.layer_metrics(len(passes))
        layer["trace.ops_per_s"] = reference["ops_per_s"]
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.tsv")
    else:
        layer = dict(reference)
        layer["setup_s"] = (statistics.median(r for _, r in setup_times), "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        layer["peak_rss_mb"] = (peak_kb / 1024, "MB")
    info = stamp(args, passes, failures, attempted, digest)
    info["work_count_mismatches"] = mismatches
    info["wall_clock"] = {k: v for k, (v, _) in wall.items()}
    info["wall_clock"]["setup_s"] = statistics.median(w for w, _ in setup_times)
    print(json.dumps({"stamp": info}))
    print(json.dumps({"correct": not failures and not mismatches,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in layer.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
