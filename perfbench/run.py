"""Benchmark of the b1algebra library: one workload, one process, one thread.

    python3 perfbench/run.py --workload census --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`. The workload repeats while the next repetition is expected to
end within `--seconds` (it runs at least once), every response is
checked, and the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. `failed / attempted` is
the failed ratio; it is printed with its base.

--trace 0  end-to-end metrics, measured with tracing off:
           setup_s         median over fresh interpreters (11 or more)
                           of the time from launch to imported library
                           and built inputs
           run_s           time of one repetition: the sum of its
                           request latencies, checks excluded, averaged
                           over the run's repetitions
           ops_per_s       requests per second of request time
           latency_p50_ms, latency_p99_ms
                           median and 99th percentile (nearest rank) of
                           all request latencies of the run; census and
                           sweep are batch jobs, one request per
                           repetition
           peak_rss_mb     peak resident memory of this process
           Times are pooled over the whole run rather than taken as a
           median of repetitions: the host's speed changes within
           seconds, and a median of repetitions jumps with whichever
           speed held most of the run. A census repetition takes 15-24 s
           and a sweep one 15-20 s on one core of a 2-vCPU Xeon VM, so
           a run of them holds one or two.
--trace 1  per-layer metrics from spans around the library's public
           functions, per repetition; spans go to .perfbench-out/.

Without `src/b1algebra` in the working directory the benchmark exits
with a non-zero code and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
# Set-up is probed at least SETUP_PROBES times and for SETUP_MIN_S in
# all, so a cheap set-up (census imports the library and nothing more)
# gets more probes.
SETUP_PROBES = 11
SETUP_MIN_S = 4.0
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("census", "sweep", "queries")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def seed_environment(seed):
    """The library reads B1_SEED for sampled batteries; pin it to the
    workload seed so the caller's environment cannot change the work."""
    os.environ["B1_SEED"] = str(seed)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "b1algebra", "__init__.py")):
        raise SystemExit(f"error: no src/b1algebra under {ROOT}; run from a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import b1algebra

    if os.path.dirname(os.path.abspath(b1algebra.__file__)) != os.path.join(SRC, "b1algebra"):
        raise SystemExit(f"error: imported b1algebra from {b1algebra.__file__}")
    import workloads

    return workloads


def work_dir():
    path = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


def probe_setup(args):
    """Child side: import, build the inputs, say ready, exit."""
    workloads = import_library()
    workdir = work_dir()
    try:
        workloads.build(args.workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(os.path.dirname(workdir))


def measure_setup(args):
    """Median wall time from interpreter launch to a ready workload."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    while len(times) < SETUP_PROBES or sum(times) < SETUP_MIN_S:
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = perf_counter() - start
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed with code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times), times


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def run_workload(workloads, wl, seconds, tracer):
    """Repeat the workload while the next repetition is expected to end
    within `seconds`, at least once.

    Returns the recorder, the request latencies of each repetition and
    the digest of the outputs. A batch job's repetition is one request.
    """
    rec = workloads.Recorder(tracer)
    reps, digests = [], []
    started = perf_counter()
    while not reps or (perf_counter() - started) * (len(reps) + 1) / len(reps) <= seconds:
        if wl.batch:
            if reps:
                workloads.clear_caches()
            workloads.assert_cold()
        gc.collect()
        first = len(rec.latencies)
        rec.summaries = []
        wl.repetition(rec)
        latencies = rec.latencies[first:]
        reps.append([sum(latencies)] if wl.batch else latencies)
        digests.append(rec.digest())
        if tracer is not None:
            tracer.keep_spans = False
    if len(set(digests)) != 1:
        rec.failed += 1
        rec.failures.append(f"repetitions disagree: {digests}")
    return rec, reps, digests[0]


def write_spans(tracer, name):
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{name}.json")
    t0 = tracer.spans[0][4] if tracer.spans else 0.0
    spans = [(*span[:4], round((span[4] - t0) * 1e9), round((span[5] - t0) * 1e9))
             for span in tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "request", "name", "start_ns", "end_ns"],
                   "spans": spans}, fh, separators=(",", ":"))
    return path


def main(argv):
    args = parse_args(argv)
    seed_environment(args.seed)
    if args.setup_probe:
        probe_setup(args)
        return 0
    workloads = import_library()
    import tracing

    if not args.trace:
        setup_s, probes = measure_setup(args)
    workdir = work_dir()
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        tracer = tracing.Tracer().install() if args.trace else None
        if tracer is not None:
            missing = tracer.uncovered()
            if missing:
                raise workloads.BenchError(f"unwrapped aliases: {missing}")
        rec, reps, digest = run_workload(workloads, wl, args.seconds, tracer)
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(os.path.dirname(workdir))

    latencies = sorted(x for lat in reps for x in lat)
    total_s = sum(latencies)
    run_s = total_s / len(reps)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} digest={digest}")
    print(f"failed_ratio={rec.failed / rec.attempted} ({rec.failed}/{rec.attempted})")
    for msg in rec.failures:
        print(f"failure: {msg}", file=sys.stderr)
    if args.trace:
        print(f"traced run_s={run_s} per repetition; spans of repetition 1 in "
              f"{write_spans(tracer, args.workload)}")
        _print_breakdown(tracer, total_s, len(reps))
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in tracer.metrics(len(reps)).items()}
    else:
        p50, p99 = statistics.median(latencies), percentile(latencies, 99)
        beyond = sum(1 for x in latencies if x > p99)
        print(f"latency: {len(latencies)} samples, {beyond} beyond p99; "
              f"p50={p50 * 1e3:.3f}ms p99={p99 * 1e3:.3f}ms")
        print(f"setup probes (s): {' '.join(f'{t:.4f}' for t in probes)}")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "ops_per_s": {"value": len(latencies) / total_s, "unit": "1/s"},
            "latency_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
            "latency_p99_ms": {"value": p99 * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


def _remove_if_empty(path):
    try:
        os.rmdir(path)
    except OSError:
        pass


def _print_breakdown(tracer, total_s, reps):
    """Self time per module and per function, per repetition."""
    traced = tracer.traced_self_s()
    print(f"per repetition: timed {total_s / reps:.4f}s, in traced functions "
          f"{traced / reps:.4f}s, elsewhere {(total_s - traced) / reps:.4f}s")
    for mod, self_s in sorted(tracer.module_self_s().items(), key=lambda kv: -kv[1]):
        print(f"  {mod:16s} self {self_s / reps:10.4f}s {100 * self_s / total_s:6.2f}%")
    for name, (calls, self_s, failed, _) in sorted(
        tracer.stats.items(), key=lambda kv: -kv[1][1]
    ):
        if calls:
            print(f"    {name:42s} calls {calls / reps:9.0f} failed {failed / reps:7.0f} "
                  f"self {self_s / reps:9.4f}s")


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:  # no result line, so the failure shows
        traceback.print_exc()
        sys.exit(2)
