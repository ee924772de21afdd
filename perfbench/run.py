"""qdouble benchmark: wall time of ``qdouble verify all`` and ``qdouble lattice
export`` on seeded CLI workloads, with a separate traced run split by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify-untwisted --seed 1 --seconds 30 --trace 0

The harness is one process, one thread, closed loop: it calls
``qdouble.cli.main(argv)`` in-process, one command at a time, with stdout
captured, and checks every command's output against pinned values.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import reference_block

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_PASSES = 3
PROBES_PER_PASS = 2
LABELINGS = 16

# Spans that run on every workload report self time as a per-layer metric.
# The others (S-matrix, fusion, closure oracle, Hasse build, ...) run on one or
# two workloads: a self time that is 0 by construction would read the same on
# every run, so their self time is printed and written with the spans, and
# their work counts are the per-layer metrics.
SELF_TIMED = ("groups.centralizing_pairs", "linmod.solve_mod", "subcats.bicharacters")
CALLS = ("characters.projective_table", "doubledata.centralize", "linmod.solve_mod",
         "subcats.bicharacters", "subcats.subcat_members", "subcats.contains")


def _load_qdouble() -> None:
    if not (SRC / "qdouble" / "__init__.py").is_file():
        sys.exit(f"error: no qdouble sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qdouble
    if Path(qdouble.__file__).resolve().parent != SRC / "qdouble":
        sys.exit(f"error: imported qdouble from {qdouble.__file__}, not from {SRC}")


def _parse_args(argv, workloads) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=35,
                    help="untraced passes run for about this long, "
                         f"at least {MIN_PASSES} of them")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import qdouble, write the inputs and exit (the setup_s probe)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


# -- running the commands -------------------------------------------------------------


def run_pass(jobs, tracer=None, refs: list[float] | None = None
             ) -> tuple[list[float], list[str]]:
    """Run every job once; return each command's wall time and the failures.

    With ``refs``, time a reference block before every command and once after
    the last, and append those len(jobs) + 1 times to ``refs``.
    """
    import qdouble.cli
    times = []
    failures = []
    for cid, job in enumerate(jobs):
        if refs is not None:
            refs.append(reference_block())
        if job.out is not None and os.path.exists(job.out):
            os.remove(job.out)
        if tracer is not None:
            tracer.command = cid
        out, err = io.StringIO(), io.StringIO()
        crash = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = qdouble.cli.main(job.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc, crash = None, traceback.format_exc(limit=3)
        times.append(time.perf_counter() - t0)
        if crash is not None:
            problem = f"raised {crash}"
        elif rc != 0:
            problem = f"exit code {rc}: {err.getvalue().strip()}"
        else:
            problem = job.check(out.getvalue())
        if problem is not None:
            failures.append(f"{job.label}: {problem}")
    if refs is not None:
        refs.append(reference_block())
    return times, failures


def _setup_probe(args: argparse.Namespace) -> float:
    """Wall time of a fresh interpreter that imports qdouble and writes the inputs.

    The probe runs with -S: the site hook's cost depends on the packages
    installed next to Python, not on qdouble, and varies by half from one
    start to the next.  No timeout: with one, the wait polls in sleeps of up
    to 50 ms, which shows in the time.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", str(Path(__file__).resolve()), "--setup-only",
                    "--workload", args.workload, "--seed", str(args.seed)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _report(attempted: int, failures: list[str], metrics: dict) -> None:
    for f in failures[:10]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def measure(args: argparse.Namespace, jobs) -> None:
    """Untraced passes for --seconds, at least MIN_PASSES of them.

    Pass p runs labeling p % LABELINGS of the inputs, written when the pass
    first needs it, so every pass sees the workload's groups under fresh
    relabelings: the work of one command moves with the labeling (by up to a
    factor of two for a lattice export), and a run samples that spread instead
    of drawing it once per seed.

    pass_ref is the pass in reference units: each command's wall time divided
    by the mean of the reference blocks timed just before and just after it,
    its median over the passes, summed over the commands.  Other tenants of
    the host slow the commands and the blocks alike, for seconds to minutes at
    a time, so the ratio holds where the wall time drifts.  The wall time is
    printed on the summary line.  setup_s is the median of PROBES_PER_PASS
    set-up probes before each pass, spread over the run for the same reason.
    """
    from workloads import make_jobs
    samples: list[list[float]] = []
    ratios: list[list[float]] = []
    probes: list[float] = []
    failures: list[str] = []
    passes = [jobs]
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        probes += [_setup_probe(args) for _ in range(PROBES_PER_PASS)]
        labeling = len(samples) % LABELINGS
        if labeling == len(passes):
            passes.append(make_jobs(args.workload, args.seed,
                                    str(WORK / args.workload / f"labeling{labeling}"),
                                    labeling))
        refs: list[float] = []
        times, failed = run_pass(passes[labeling], refs=refs)
        samples.append(times)
        ratios.append([t / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(times)])
        failures += failed
        # Stop before a pass that would end past --seconds.
        now = time.perf_counter()
        if len(samples) >= MIN_PASSES and now + (now - start) - t0 > args.seconds:
            break
    attempted = len(samples) * len(jobs)
    pass_ref = sum(statistics.median(per_command) for per_command in zip(*ratios))
    wall = [sum(p) for p in samples]
    setup_s = statistics.median(probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    command = "verify" if jobs[0].argv[0] == "verify" else "lattice export"
    print(f"{args.workload} seed {args.seed}: {len(jobs)} {command} commands x "
          f"{len(samples)} passes; pass_ref {pass_ref:.2f} ref; wall pass median "
          f"{statistics.median(wall):.3f} s, passes [{', '.join(f'{w:.3f}' for w in wall)}]; "
          f"setup_s {setup_s:.4f} s; peak_rss_mb {peak_rss_mb:.1f} MB; "
          f"failed_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    _report(attempted, failures, {"pass_ref": _metric(pass_ref, "ref"),
                                  "setup_s": _metric(setup_s, "s"),
                                  "peak_rss_mb": _metric(peak_rss_mb, "MB")})


def measure_traced(args: argparse.Namespace, jobs) -> None:
    from tracing import COUNTERS, SPAN_NAMES, Tracer
    plain, failures = run_pass(jobs)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_failures = run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    failures += traced_failures
    plain_s, traced_s = sum(plain), sum(traced)

    self_s, calls = tracer.layer_totals()
    counts = tracer.counts
    layers = {f"{name}.self_s": _metric(self_s[name], "s") for name in SELF_TIMED}
    for name in CALLS:
        layers[f"{name}.calls"] = _metric(calls.get(name, 0), "count")
    for name in COUNTERS:
        layers[name] = _metric(counts.get(name, 0), "count")
    closures = counts.get("oracle.fusion_closure.calls", 0)
    layers["oracle.closure_yield"] = _metric(
        counts.get("oracle.all_closed_sets.closed_sets", 0) / closures if closures else 0.0,
        "ratio")
    layers["trace.overhead_s"] = _metric(traced_s - plain_s, "s")

    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(str(path), [" ".join(j.argv) for j in jobs])
    print(f"{args.workload} seed {args.seed}: untraced pass {plain_s:.3f} s, "
          f"traced pass {traced_s:.3f} s; spans in {path.relative_to(ROOT)}")
    print("self time by span (all traced layers):")
    for name in sorted(SPAN_NAMES, key=lambda n: -self_s.get(n, 0.0)):
        print(f"  {name:40s} {self_s.get(name, 0.0):9.4f} s  {calls.get(name, 0):9d} calls")
    for name in COUNTERS:
        print(f"  {name:40s} {counts.get(name, 0):9d}")
    _report(2 * len(jobs), failures, layers)


def main(argv=None) -> int:
    _load_qdouble()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import qdouble.cli  # noqa: F401  (imported here so the setup probe pays for it)
    from workloads import WORKLOADS, make_jobs
    args = _parse_args(argv, WORKLOADS)
    if args.setup_only:
        make_jobs(args.workload, args.seed, str(WORK / "setup-probe" / args.workload))
        return 0
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    jobs = make_jobs(args.workload, args.seed, str(WORK / args.workload / "labeling0"))
    if args.trace:
        measure_traced(args, jobs)
    else:
        measure(args, jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
