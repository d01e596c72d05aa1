"""gwvir benchmark: one workload per run, in one process and one thread.

Run from the repository root:

    python3 bench/run.py --workload registry --seed 1 --seconds 20 --trace 0

Workloads: ``registry``, ``constraints_warm`` and ``invariants`` (see
``bench/README.md`` for why each exists).  The timed phase runs whole passes of
the workload until ``--seconds`` have passed, at least one.  Every pass goes
through the workload's correctness gate, outside the timed phase.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` and
``cpu_s`` (the timed phase's seconds per pass), ``setup_s`` and
``peak_rss_mb``.  Times are rescaled to a fixed reference speed of the host
by ``speed.SpeedProbe``, which samples it all through the run; the raw wall
times are printed too.  With ``--trace 1`` it adds one traced pass after the
untraced ones, reports the per-layer metrics and writes the spans to
``.bench_work/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it give the same metrics as text, the failed
share of jobs, and the run's stamp: CPU count, Python version, gwvir commit
and load average at start.

Every run uses a fresh private ``GW_CACHE_DIR`` under ``.bench_work/`` and
deletes it at exit, so no run reads ``./gw-cache`` or a file another run or
commit wrote.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def _import_gwvir() -> None:
    """Import gwvir from this checkout's sources and nowhere else."""
    package = os.path.join(SRC, "gwvir")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"bench: no gwvir sources at {package}")
    sys.path.insert(0, SRC)
    import gwvir
    if os.path.dirname(os.path.abspath(gwvir.__file__)) != package:
        raise SystemExit(f"bench: imported gwvir from {gwvir.__file__}, not {package}")


_import_gwvir()

import spans  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

# Set-up runs at least SETUP_REPEATS times, and until SETUP_SECONDS have
# passed, and ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0

# Run by a fresh interpreter, with the bench and src directories as argv.
_IMPORT_CHILD = "import sys; sys.path[:0] = sys.argv[1:]; import workloads"

# (name, unit); BENCHMARK.json lists the same metrics.
END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]

PER_LAYER = [
    ("engine.invariant.calls", "count"),
    ("engine.invariant.misses", "count"),
    ("engine.invariant.self_s", "s"),
    ("engine.admissible_keys.self_s", "s"),
    ("engine.correlation_series.calls", "count"),
    ("engine.correlation_series.self_s", "s"),
    ("engine.correlation_series.terms", "count"),
    ("engine.cache.save_s", "s"),
    ("engine.cache.load_s", "s"),
    ("engine.cache.bytes", "bytes"),
    ("virasoro.corr.calls", "count"),
    ("virasoro.corr.builds", "count"),
    ("virasoro.field_series.calls", "count"),
    ("virasoro.field_series.distinct", "count"),
    ("virasoro.field_series.self_s", "s"),
    ("virasoro.field2_series.self_s", "s"),
    ("virasoro.psi.self_s", "s"),
    ("virasoro.psi_tilde.self_s", "s"),
    ("virasoro.apply_operator.self_s", "s"),
    ("series.mul.calls", "count"),
    ("series.mul.pairs", "count"),
    ("series.mul.terms_out", "count"),
    ("series.mul.self_s", "s"),
    ("series.add.calls", "count"),
    ("series.add.terms_copied", "count"),
    ("series.add.self_s", "s"),
    ("series.scale.self_s", "s"),
    ("series.times_var.calls", "count"),
    ("series.times_var.terms_in", "count"),
    ("series.times_var.terms_out", "count"),
    ("series.times_var.self_s", "s"),
    ("series.derive.self_s", "s"),
    ("identities.verify_identity.calls", "count"),
    ("identities.tuples", "count"),
    ("identities.verify_identity.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# Span names whose self time is reported under another metric name.
_SPAN_METRIC = {"engine.cache.save": "engine.cache.save_s",
                "engine.cache.load": "engine.cache.load_s"}


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 of gwvir's sources, which names the code when there is no git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "gwvir")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def stamp() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "gwvir_commit": _git_commit(),
            "gwvir_source_sha256": _source_digest(),
            "loadavg_start": list(os.getloadavg())}


def _setup(workload, seed: int, probe: SpeedProbe):
    """One set-up: a fresh interpreter's start and import of gwvir and the
    workloads, then the workload's own set-up.  Returns (state, elapsed)."""
    mark = probe.mark()
    subprocess.run([sys.executable, "-c", _IMPORT_CHILD, BENCH, SRC],
                   capture_output=True, check=True, timeout=120)
    state = workload.prepare(seed)
    return state, probe.since(mark)


def _timed_passes(workload, state, seconds: float, probe: SpeedProbe):
    """Untraced passes until ``seconds`` of timed work, at least one.

    Returns the passes' elapsed times, their reference-speed CPU seconds, and
    the jobs attempted and failed.
    """
    elapsed, cpus, attempted, failed = [], [], 0, 0
    while not elapsed or sum(e.raw_s for e in elapsed) < seconds:
        c0, mark = _cpu_seconds(), probe.mark()
        outcome = workload.run_pass(state)
        e, c1 = probe.since(mark), _cpu_seconds()
        elapsed.append(e)
        # The probes ran in this process: take their CPU time out, and
        # rescale the rest by the same speed as the wall time.
        cpus.append((c1 - c0 - e.probe_s) * e.ref_s / e.raw_s)
        n, bad, _ = workload.check(state, outcome)
        attempted += n
        failed += bad
        del outcome  # so one pass's engines are not alive during the next
    return elapsed, cpus, attempted, failed


def _traced_pass(workload, state, probe: SpeedProbe):
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        mark = probe.mark()
        with tracer.span("bench.pass", job=workload.name):
            outcome = workload.run_pass(state)
        elapsed = probe.since(mark)
    attempted, failed, _ = workload.check(state, outcome)
    return tracer, elapsed.ref_s, attempted, failed


def per_layer_metrics(tracer: spans.Tracer, traced_wall: float, untraced_wall: float) -> dict:
    values = {name: 0 for name, unit in PER_LAYER if unit != "s"}
    values.update({name: 0.0 for name, unit in PER_LAYER if unit == "s"})
    for name, count in tracer.counts.items():
        if name in values:
            values[name] = count
    for name, seconds in tracer.self_seconds().items():
        metric = _SPAN_METRIC.get(name, name + ".self_s")
        if metric in values:
            values[metric] = seconds
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    return values


def _write_trace(path: str, run_stamp: dict, args, metrics: dict, tracer) -> None:
    doc = {"stamp": run_stamp, "workload": args.workload, "seed": args.seed,
           "metrics": metrics, "spans": tracer.to_json()}
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump(doc, fh)


def run(args) -> dict:
    run_stamp = stamp()
    print("stamp " + json.dumps(run_stamp, sort_keys=True), flush=True)
    workload = workloads.WORKLOADS[args.workload]()
    with SpeedProbe() as probe:
        setups = []
        started = time.perf_counter()
        while len(setups) < SETUP_REPEATS or time.perf_counter() - started < SETUP_SECONDS:
            state, elapsed = _setup(workload, args.seed, probe)
            setups.append(elapsed.ref_s)
        setup_s = statistics.median(setups)

        passes, cpus, attempted, failed = _timed_passes(workload, state, args.seconds, probe)
        wall_s = statistics.mean(e.ref_s for e in passes)
        if args.trace:
            tracer, traced_wall, n, bad = _traced_pass(workload, state, probe)
    if args.trace:
        attempted += n
        failed += bad
        values = per_layer_metrics(tracer, traced_wall, wall_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json.gz")
        _write_trace(trace_path, run_stamp, args, metrics, tracer)
        print(f"trace {os.path.relpath(trace_path, ROOT)}")
    else:
        values = {"wall_s": wall_s, "cpu_s": statistics.mean(cpus), "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print("pass_s " + " ".join(f"{e.ref_s:.3f}" for e in passes)
          + "  setup_s " + " ".join(f"{p:.3f}" for p in setups))
    print("pass_raw_s " + " ".join(f"{e.raw_s:.3f}" for e in passes))
    print(f"probe {len(probe.samples)} samples, median {statistics.median(probe.samples) * 1e3:.4f} ms")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']} {entry['unit']}")
    print(f"fail_frac {failed / attempted} ({failed} of {attempted} jobs)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.makedirs(WORK, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    os.environ["GW_CACHE_DIR"] = cache_dir
    try:
        result = run(args)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
