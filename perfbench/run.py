"""rhalylab benchmark: one seeded workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0

Run from the repository root. The workload process pins BLAS and OpenMP to
one thread, measures set-up in fresh processes (median of several), warms
up one request of each kind, then runs a single-client closed loop: the next
request starts only after the previous one returned and its oracle ran.
Only the request itself is timed. With ``--trace 0`` the last stdout line
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a traced pass over a fixed number of rounds,
measured against an untraced pass over the same requests. A result file
with the environment, the failing oracles and the output digest is written
under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 3
#: traced runs cover this many whole rounds, so their counts repeat exactly
TRACE_ROUNDS = {"verdicts": 3, "operator": 4, "extremal": 4}
#: a run stops starting requests after this many wall seconds past its budget
WALL_SLACK_S = 60.0


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import rhalylab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import rhalylab
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import rhalylab from {SRC}: {exc}")
    if not Path(rhalylab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: rhalylab imported from {rhalylab.__file__}, not {SRC}")


class Stats:
    """Outcome of a pass: latencies, failures by oracle, unresolved, digest."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.unresolved = 0
        self.failures: Counter = Counter()
        self.first_failure: dict[str, str] = {}
        self.digest: dict[str, str] = {}

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def record(self, req, seconds: float, out, error: str | None) -> None:
        from workloads import fingerprint

        self.latencies.append(seconds)
        if error is not None:
            failure = ("raised", error)
        else:
            try:
                failure = req.check(out)
            except Exception as exc:  # output the oracle cannot read is a wrong answer
                failure = ("unreadable_output", f"{type(exc).__name__}: {exc}")
        if failure is not None:
            self.failed += 1
            self.failures[failure[0]] += 1
            self.first_failure.setdefault(failure[0], f"{req.rid}: {failure[1]}")
            return
        self.unresolved += int(req.unresolved(out))
        self.digest[req.rid] = fingerprint(req.output(out))


def _round_of(req) -> int:
    return int(req.rid.split(".", 1)[0])


def run_pass(requests, seconds: float | None, rounds: int | None = None, tracer=None) -> Stats:
    """Closed loop over the first `rounds` rounds, or until the timed request
    spans add up to `seconds`."""
    stats = Stats()
    busy = 0.0
    wall_stop = time.perf_counter() + (seconds or 0.0) + WALL_SLACK_S
    span = tracer.span if tracer is not None else contextlib.nullcontext
    while rounds is not None or busy < seconds:
        if rounds is None and time.perf_counter() > wall_stop:
            break
        with span("bench.generate"):
            req = next(requests)
        if rounds is not None and _round_of(req) >= rounds:
            break
        if tracer is not None:
            tracer.rid = req.rid
        error, out = None, None
        with span("bench.request"):
            t0 = time.perf_counter()
            try:
                out = req.call()
            except Exception as exc:  # a failed request is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        busy += dt
        with span("bench.oracle"):
            stats.record(req, dt, out, error)
            if tracer is not None and error is None:
                tracer.counters.update(req.counts(out))
            # hold one request's data at a time, so the bench adds little to peak RSS
            req = out = None
        if tracer is not None:
            tracer.rid = None
    return stats


def run_traced(make, seed: int, workdir: Path, rounds: int):
    """Traced pass over the first `rounds` rounds, between two untraced
    passes over the same requests. The first untraced pass also fills the
    caches that the larger sizes need, so the faster of the two is the
    reference for the tracing overhead."""
    from spans import Tracer, per_layer_units

    before = run_pass(make(seed, workdir), None, rounds)
    tracer = Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        with tracer.span("bench.loop"):
            stats = run_pass(make(seed, workdir), None, rounds, tracer)
        wall = time.perf_counter() - t0
    after = run_pass(make(seed, workdir), None, rounds)
    # the passes ran the same requests, so busy time compares throughput
    plain_busy = min(sum(before.latencies), sum(after.latencies))
    overhead = 1.0 - plain_busy / sum(stats.latencies)
    units = per_layer_units()
    metrics = {k: {"value": v, "unit": units[k]}
               for k, v in tracer.layer_metrics(wall, stats.attempted, overhead).items()}
    attempted = stats.attempted + before.attempted + after.attempted
    for plain in (before, after):
        stats.failed += plain.failed
        stats.failures.update(plain.failures)
        for name, first in plain.first_failure.items():
            stats.first_failure.setdefault(name, first)
    return stats, attempted, metrics, tracer


def measure_setup(workload: str) -> list[float]:
    """Set-up seconds of fresh processes: import plus one warm-up per kind."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(stats: Stats, setup: list[float]) -> dict:
    lat = sorted(stats.latencies)
    busy = sum(lat)
    n = len(lat)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_rps": (n / busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "passed_frac": (1.0 - stats.failed / n, "frac"),
        "resolved_frac": (1.0 - stats.unresolved / n, "frac"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verdicts", "operator", "extremal"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    import envinfo
    import workloads

    env = envinfo.record()
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else measure_setup(args.workload)
        for req in workloads.warmup_requests(args.workload, workdir):
            req.call()
        make = workloads.WORKLOADS[args.workload]
        if args.trace:
            stats, attempted, result_metrics, tracer = run_traced(
                make, args.seed, workdir, TRACE_ROUNDS[args.workload])
            _write_spans(args, tracer)
        else:
            stats = run_pass(make(args.seed, workdir), args.seconds, None)
            e2e = end_to_end(stats, setup)
            result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
            attempted = stats.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _print_summary(args, stats, attempted, result_metrics, setup)
    _write_result(args, env, stats, attempted, result_metrics, setup)
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": attempted,
        "failed": stats.failed,
        "metrics": result_metrics,
    }))
    return 0


def _print_summary(args, stats, attempted, metrics, setup) -> None:
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"requests={attempted} latency_samples={len(stats.latencies)}")
    if not args.trace:
        n = len(stats.latencies)
        if n < 100:
            print(f"note: {n} samples leave fewer than ten beyond p90")
        print(f"  failed_frac = {stats.failed / n:.6g} frac (lower is better)")
        print(f"  unresolved_frac = {stats.unresolved / n:.6g} frac (lower is better)")
        print(f"  setup samples = {[round(s, 4) for s in setup]} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, count in sorted(stats.failures.items()):
        print(f"  FAILED oracle {name}: {count} request(s); first: {stats.first_failure[name]}")


def _stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def _write_result(args, env, stats, attempted, metrics, setup) -> None:
    from workloads import fingerprint

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": attempted,
        "failed": stats.failed,
        "unresolved": stats.unresolved,
        "latency_samples": len(stats.latencies),
        "setup_samples_s": setup,
        "failures": {k: {"count": v, "first": stats.first_failure[k]}
                     for k, v in stats.failures.items()},
        "metrics": metrics,
        "digest": {"all": fingerprint(sorted(stats.digest.items())),
                   "requests": stats.digest},
    }
    (RESULTS / f"{_stem(args)}.json").write_text(json.dumps(record, indent=1) + "\n")


def _write_spans(args, tracer) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / f"{_stem(args)}.spans.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.sid, s.parent, s.name, s.layer, s.rid, s.start, s.end]) + "\n")


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
