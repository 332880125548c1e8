"""pathalg benchmark: seeded CLI jobs in one process, checked after timing.

Usage (from the repository root)::

    python3 perfbench/run.py --workload star-rewrite --seed 1 --seconds 25 --trace 0

The run writes the seed's problem files under ``.perfbench_work/`` and calls
``pathalg.cli.main(argv, out=buffer)`` for every job.  The loop is closed with
one client: the next job starts when the previous one returns, and nothing
runs in parallel.  A round is the seed's fixed job list; the untraced run
repeats whole rounds until ``--seconds`` have passed.

Timings are reported at a reference machine speed.  On a shared virtual
machine the speed of the same round moves in plateaus of 10-60 s by up to a
factor of two, which no run length within budget averages out.  So a fixed
exact-arithmetic loop (``reference_loop``, benchmark code that no change to
``pathalg`` can touch) is timed before every job, and each round's timings
are scaled by REFERENCE_S / (median reference time in that round).  On this
benchmark's own data that cut the spread between 25 s windows from 0.07-0.16
to 0.02-0.05.  The raw wall-clock figures are printed next to them.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs one round
with every layer function wrapped (see ``tracing.py``), then the same round
unwrapped to measure the tracing overhead, and prints the per-layer metrics
(raw wall-clock) and the self-time split by layer.  Either way every output
is checked by an independent oracle after timing (``oracles.py``), each
oracle is shown to reject a corrupted output, and the last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 11
SETUP_GRAPH_STRATA = 3  # stratum 4 takes ~17 s until the k! canonicalisation goes
# reference_time() between jobs on this benchmark's machine in a typical
# plateau; it only sets the scale of the reported times
REFERENCE_S = 0.0015

END_TO_END = [("jobs_per_s", "1/s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Tail percentiles, coarse on purpose: every round repeats the same jobs, so a
# percentile that moved with the sample count would jump from one job to
# another as the number of rounds in a run changes.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def reference_loop():
    """Fixed exact arithmetic shaped like pathalg's: Fraction-valued dicts."""
    a = {(i, j): Fraction(i - j, 1 + (i * j) % 5)
         for i in range(4) for j in range(4)}
    product = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in a.items():
            key = (i1 + i2, j1 + j2)
            product[key] = product.get(key, 0) + c1 * c2
    return product


def reference_time() -> float:
    """One timed pass after an untimed one, so that the cache state the last
    job left behind (which a change to pathalg can alter) does not count."""
    reference_loop()
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def fresh_import():
    """Import pathalg as a new process would, with empty caches."""
    for name in [n for n in sys.modules if n.split(".")[0] == "pathalg"]:
        del sys.modules[name]
    importlib.import_module("pathalg.cli")
    return importlib.import_module("pathalg.quantization")


def enumerate_strata(quantization):
    """The lazy set-up every quantize invocation pays once."""
    for k in range(1, SETUP_GRAPH_STRATA + 1):
        quantization.enumerate_graphs(k)


def measure_setup():
    """Median set-up time over SETUP_REPEATS fresh imports: (scaled, raw)."""
    setups, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs.append(reference_time())
        start = time.perf_counter()
        enumerate_strata(fresh_import())
        setups.append(time.perf_counter() - start)
    raw = statistics.median(setups)
    return raw * REFERENCE_S / statistics.median(refs), raw


def run_job(main, argv):
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        code = main(argv, out=buf)
    except Exception:  # a traceback is a failed job, not a failed benchmark
        code, error = None, traceback.format_exc()
    return time.perf_counter() - start, code, buf.getvalue(), error


def run_round(jobs, workdir, before_job):
    """Run every job once; returns [(latency, code, text, error)]."""
    cli = sys.modules["pathalg.cli"]
    out = []
    for idx, job in enumerate(jobs):
        before_job(idx)
        out.append(run_job(cli.main, job.argv(workdir)))
    return out


def tail(latencies):
    """The highest ladder percentile with at least ten jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)  # nearest-rank percentile
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def timed_run(rnd, workdir, seconds):
    """Whole rounds until ``seconds`` have passed.

    Returns the results and, per round, its jobs' summed latency and the
    median reference time measured before its jobs.
    """
    results, busy, speed = [], [], []
    start = time.perf_counter()
    while True:
        refs = []
        round_results = run_round(rnd.jobs, workdir,
                                  lambda _: refs.append(reference_time()))
        results += round_results
        busy.append(sum(r[0] for r in round_results))
        speed.append(statistics.median(refs))
        if time.perf_counter() - start >= seconds:
            break
    return results, busy, speed, time.perf_counter() - start


def traced_run(rnd, workdir, tracer):
    def set_job(idx):
        tracer.job = idx

    start = time.perf_counter()
    results = run_round(rnd.jobs, workdir, set_job)
    traced_s = time.perf_counter() - start
    tracer.job = None
    tracer.uninstall()
    start = time.perf_counter()
    replay = run_round(rnd.jobs, workdir, lambda _: None)
    untraced_s = time.perf_counter() - start
    return results + replay, traced_s, untraced_s


def check_outputs(oracle, jobs, results):
    """Check every output; returns ([(job, reason)], first output per kind)."""
    import oracles

    failures = []
    samples = {}
    for pos, (_, code, text, error) in enumerate(results):
        key = pos % len(jobs)
        job = jobs[key]
        reason = oracle.check(key, job, code, text, error)
        if reason is not None:
            failures.append((job, reason))
        elif job.kind not in samples:
            samples[job.kind] = (key, code, oracles.last_json(text), text)
    return failures, samples


def self_checks(oracle, jobs, samples, determinism_ok):
    """Every oracle must reject a corrupted output; returns the problems."""
    import oracles

    problems = [] if determinism_ok else [
        "the same seed did not give byte-identical inputs"]
    for kind, (key, code, doc, text) in sorted(samples.items()):
        bad_doc, bad_code = oracles.corrupt(kind, code, doc)
        if oracle.check(key, jobs[key], bad_code,
                        oracles.with_doc(text, bad_doc), None) is None:
            problems.append(f"the {kind} oracle accepted a corrupted output")
        if oracle.check(key, jobs[key], 3, text, None) is None:
            problems.append(f"the {kind} oracle accepted exit code 3")
    if not samples:
        problems.append("no output passed its check, so no oracle was tested")
    return problems


def report_line(name, value, unit, note):
    print(f"  {name:<14} {value:>12.6g} {unit:<5} {note}")


def print_split(split):
    layers = ("cli", "reduction_engine", "star_product", "cohomology",
              "variety", "quantization")
    print("layer split (share of self time; quiver_core time is inside its "
          "callers):")
    print(f"  {'jobs':<20}" + "".join(f"{l[:12]:>13}" for l in layers)
          + f"{'total_s':>10}")
    first = ("all jobs", "set-up")
    for label in sorted(split, key=lambda k: (k not in first, k)):
        row = split[label]
        total = sum(row.values()) or 1.0
        print(f"  {label:<20}" + "".join(f"{row.get(l, 0) / total:>13.1%}"
                                          for l in layers)
              + f"{sum(row.values()):>10.3f}")


def end_to_end(rnd, results, busy, speed, elapsed, setup, peak_rss_mb,
               failed):
    """The end-to-end metrics at reference speed, with the raw figures."""
    n_round = len(rnd.jobs)
    scale = [REFERENCE_S / s for s in speed]  # per round
    latencies = [r[0] * scale[pos // n_round] for pos, r in enumerate(results)]
    raw_latencies = [r[0] for r in results]
    tail_s, pct = tail(latencies)
    values = {"jobs_per_s": statistics.median(
                  n_round / (b * f) for b, f in zip(busy, scale)),
              "job_p50_s": statistics.median(latencies),
              "job_tail_s": tail_s,
              "setup_s": setup[0],
              "peak_rss_mb": peak_rss_mb}
    n = len(latencies)
    beyond = n - math.ceil(pct / 100 * n)
    print(f"end to end ({len(busy)} rounds, {n} jobs, {elapsed:.2f} s); times "
          f"at reference speed, the machine ran at "
          f"{REFERENCE_S / statistics.median(speed):.3f} of it:")
    report_line("jobs_per_s", values["jobs_per_s"], "1/s",
                f"median of {len(busy)} rounds (raw "
                f"{statistics.median(n_round / b for b in busy):.4g})")
    report_line("job_p50_s", values["job_p50_s"], "s",
                f"n={n} (raw {statistics.median(raw_latencies):.4g})")
    report_line("job_tail_s", tail_s, "s",
                f"p{pct:g}, {beyond} jobs beyond it, n={n} (raw "
                f"{tail(raw_latencies)[0]:.4g})")
    report_line("fail_ratio", failed / n, "ratio",
                f"{failed} of {n} jobs failed their check")
    report_line("setup_s", setup[0], "s",
                f"median of {SETUP_REPEATS} imports + graph strata "
                f"1..{SETUP_GRAPH_STRATA} (raw {setup[1]:.4g})")
    report_line("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss, n=1")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(tracer, rnd, traced_s, untraced_s):
    import tracing

    n = len(rnd.jobs)
    values = tracer.metrics()
    print(f"traced one round: {n} jobs in {traced_s:.3f} s "
          f"({n / traced_s:.4g} jobs/s); the same round untraced: "
          f"{untraced_s:.3f} s ({n / untraced_s:.4g} jobs/s); tracing "
          f"overhead {traced_s / untraced_s - 1:+.1%}")
    print("waits: none; the program is single-threaded with one client, "
          "so no layer waits on a queue or a lock")
    print_split(tracer.layer_split({i: j.label for i, j in enumerate(rnd.jobs)}))
    for name, unit in tracing.PER_LAYER:
        print(f"  {name:<44} {values[name]:>14.6g} {unit}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in tracing.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pathalg" / "cli.py").is_file():
        print(f"error: pathalg sources not found under {SRC}", file=sys.stderr)
        return 2

    # inputs: generated twice to show they are a function of the seed alone
    rnd = workloads.build(args.workload, args.seed)
    again = workloads.build(args.workload, args.seed)
    determinism_ok = rnd.files == again.files and \
        [j.args for j in rnd.jobs] == [j.args for j in again.jobs]
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in rnd.files.items():
        (workdir / name).write_text(text, encoding="utf-8")

    sys.path.insert(0, str(SRC))
    setup = measure_setup()
    print(f"workload {args.workload} seed {args.seed}: {len(rnd.jobs)} jobs "
          f"per round, {len(rnd.files)} problem files in {workdir.name}")
    print("  closed loop, 1 client, no threads: the next job starts when the "
          "previous one returns")

    if args.trace:
        import tracing

        fresh_import()  # empty caches, so the traced set-up does the work
        modules = {name: sys.modules[f"pathalg.{name}"]
                   for name in tracing.LAYERS}
        tracer = tracing.Tracer(modules)
        tracer.install()
        enumerate_strata(modules["quantization"])
        results, traced_s, untraced_s = traced_run(rnd, workdir, tracer)
    else:
        results, busy, speed, elapsed = timed_run(rnd, workdir, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import oracles

    oracle = oracles.Oracles(rnd.files)
    failures, samples = check_outputs(oracle, rnd.jobs, results)
    problems = self_checks(oracle, rnd.jobs, samples, determinism_ok)

    if args.trace:
        metrics = per_layer(tracer, rnd, traced_s, untraced_s)
        spans = workdir / "spans.json"
        tracer.write(spans, {"workload": args.workload, "seed": args.seed,
                             "jobs": [j.label for j in rnd.jobs]})
        print(f"  {len(tracer.spans)} spans written to "
              f"{spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(rnd, results, busy, speed, elapsed, setup,
                             peak_rss_mb, len(failures))

    for job, reason in failures[:20]:
        print(f"FAILED {job.label} {' '.join(job.args)}: {reason}")
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": len(results), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
