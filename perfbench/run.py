"""Run one workload of the regtri benchmark and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

The run is closed-loop with one caller in one process: each operation
starts when the previous one has returned.  Whole cycles of the
workload's operations run until --seconds have passed at reference
speed (SpeedProbe); outputs are checked after the timed window.
--trace 0 prints the end-to-end metrics, with times scaled to the
reference speed; --trace 1 runs a fixed batch twice from the same cache
state, untraced and then traced, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10
clock = time.perf_counter

# Times are scaled to a machine on which the reference kernel takes
# REF_S; the kernel is timed every PROBE_PERIOD seconds, and an interval
# is scaled by the kernel's mean time within PROBE_WINDOW of it.
REF_S = 0.002
PROBE_PERIOD = 0.1
PROBE_WINDOW = 0.5
REF_MATRIX = [[Fraction(1, i + j + 1) for j in range(10)] for i in range(7)]

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def tail(values):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it, by nearest rank; the maximum when
    there are too few samples for that."""
    xs = sorted(values)
    rank = len(xs) - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs)


def reference_kernel():
    """Exact Gauss-Jordan elimination of a fixed rational matrix whose
    leading block is a Hilbert matrix, so no pivot is zero: the same
    kind of work as the program's simplex pivots, and none of its code."""
    m = [row[:] for row in REF_MATRIX]
    for col in range(len(m)):
        pivot = m[col][col]
        m[col] = [x / pivot for x in m[col]]
        for r, row in enumerate(m):
            if r != col and row[col]:
                f = row[col]
                m[r] = [x - f * y for x, y in zip(row, m[col])]
    return m


class SpeedProbe:
    """Samples how fast the machine runs: a timer signal runs the
    reference kernel every PROBE_PERIOD seconds.  The speed of a shared
    machine drifts by tens of percent within a minute; scaling each
    interval by the speed measured around it keeps that drift out of
    the metrics."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def _sample(self, signum, frame):
        start = clock()
        reference_kernel()
        self.starts.append(start)
        self.durations.append(clock() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, begin, end):
        """Reference-speed length of [begin, end]: its wall time less the
        samples taken inside it, times REF_S over the mean sample time
        within PROBE_WINDOW of it."""
        lo = bisect_left(self.starts, begin - PROBE_WINDOW)
        hi = bisect_right(self.starts, end + PROBE_WINDOW)
        near = self.durations[lo:hi] or self.durations
        inside = sum(d for t, d in zip(self.starts[lo:hi], self.durations[lo:hi])
                     if begin <= t < end)
        return (end - begin - inside) * REF_S / statistics.fmean(near)


def import_program():
    """Import regtri from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import regtri

    if not Path(regtri.__file__).resolve().is_relative_to(src):
        raise ImportError(f"regtri imported from {regtri.__file__}, not {src}")
    return regtri


def git_sha():
    """Commit of the checkout, read from .git without running git;
    'unknown' outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reset_caches(regtri):
    regtri.geometry.facets.cache_clear()
    regtri.geometry.proper_faces.cache_clear()


def call(op, failure_cls):
    """Run one op; an exception becomes a Failure instead of ending the
    run."""
    start = clock()
    try:
        out, err = op.call(), None
    except Exception as exc:
        out, err = None, failure_cls(f"raised {exc!r}")
    return start, clock(), out, err


def pass_check(workload, results, failure_cls):
    """The workload's check over the whole pass, or the Failure it
    raised."""
    try:
        workload.finish_pass([r[3] for r in results])
    except Exception as exc:
        return failure_cls(f"pass check raised {exc!r}")
    return None


def verdicts(results, pass_failure, failure_cls):
    """Check every output; a check that raises counts as a failure."""
    out = []
    for op, _, _, value, err in results:
        err = err or pass_failure
        if err is None:
            try:
                err = op.check(value)
            except Exception as exc:
                err = failure_cls(f"check raised {exc!r}")
        out.append(err)
    return out


def timed_run(regtri, workloads, workload, seconds, probe, import_window):
    """Set up SETUP_REPEATS times, run whole cycles for the given
    reference-speed seconds, then check every output."""
    setup_windows = []
    for _ in range(SETUP_REPEATS):
        reset_caches(regtri)
        start = clock()
        workload.setup()
        workload.warm_up()
        setup_windows.append((start, clock()))
    workload.start_pass()
    results = []
    start = clock()
    cycle = 0
    # seconds at reference speed, so that a slow spell of the machine
    # does not change how many ops a run makes
    while cycle == 0 or probe.seconds(start, clock()) < seconds:
        for op in workload.cycle(cycle):
            results.append((op, *call(op, workloads.Failure)))
        cycle += 1
    end = clock()
    setups = [probe.seconds(*w) for w in setup_windows]
    failures = verdicts(results,
                        pass_check(workload, results, workloads.Failure),
                        workloads.Failure)
    latencies = [probe.seconds(begin, stop) * 1000
                 for _, begin, stop, _, _ in results]
    passed = failures.count(None)
    tail_ms, pct = tail(latencies)
    ref_ms = statistics.fmean(probe.durations) * 1000
    print(f"# {len(results)} ops in {cycle} cycles over {end - start:.3f} s "
          f"wall; reference kernel mean {ref_ms:.3f} ms over "
          f"{len(probe.durations)} samples; op_tail_ms is p{pct:.1f} of "
          f"{len(latencies)} ops; setup repeats {[round(s, 3) for s in setups]}")
    metrics = {
        "ops_per_s": passed / probe.seconds(start, end),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "ok_ratio": passed / len(results),
        "setup_s": probe.seconds(*import_window) + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, failures


def traced_run(regtri, workloads, spans, workload):
    """The fixed batch of the first trace_cycles cycles, run untraced and
    then traced, each pass from emptied caches after the warm-up, so
    call counts repeat exactly for a seed."""
    workload.setup()
    batch = [op for i in range(workload.trace_cycles)
             for op in workload.cycle(i)]
    lru = regtri.geometry.facets

    def one_pass(tracer):
        reset_caches(regtri)
        workload.warm_up()
        workload.start_pass()
        before = lru.cache_info()
        results = []
        with spans.installed(tracer) if tracer else nullcontext():
            start = clock()
            for k, op in enumerate(batch):
                if tracer:
                    tracer.op = k
                results.append((op, *call(op, workloads.Failure)))
            wall = clock() - start
            if tracer:
                tracer.op = "check"
            pass_failure = pass_check(workload, results, workloads.Failure)
        after = lru.cache_info()
        return (results, wall, pass_failure,
                after.hits - before.hits, after.misses - before.misses)

    untraced_wall = one_pass(None)[1]
    tracer = spans.Tracer()
    results, traced_wall, pass_failure, hits, misses = one_pass(tracer)
    failures = verdicts(results, pass_failure, workloads.Failure)
    windows = {k: (r[1], r[2]) for k, r in enumerate(results)}
    values = spans.layer_metrics(tracer.spans, hits, misses, windows,
                                 traced_wall / untraced_wall)
    print(f"# traced {len(batch)} ops: {len(tracer.spans)} spans, "
          f"{traced_wall:.3f} s traced, {untraced_wall:.3f} s untraced")
    return {name: (values[name], unit)
            for name, unit, _, _ in spans.METRICS}, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("census", "enumerate", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with nullcontext() if args.trace else SpeedProbe() as probe:
        start = clock()
        try:
            regtri = import_program()
        except ImportError as exc:
            print(f"cannot import the program: {exc}", file=sys.stderr)
            return 2
        imported = clock()
        import spans
        import workloads

        print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
              f"nproc={len(os.sched_getaffinity(0))} "
              f"python={platform.python_version()} git={git_sha()}")
        workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            if args.trace:
                metrics, failures = traced_run(regtri, workloads, spans,
                                               workload)
            else:
                metrics, failures = timed_run(regtri, workloads, workload,
                                              args.seconds, probe,
                                              (start, imported))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    for f in failures:
        if f is not None:
            tag = f" (known defect, {f.known})" if f.known else ""
            print(f"# failed op: {f.reason}{tag}")
    failed = sum(f is not None for f in failures)
    result = {
        # known defects count as failed ops but do not make the run wrong
        "correct": all(f is None or f.known for f in failures),
        "attempted": len(failures),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
