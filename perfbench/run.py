"""crslab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {suites,classify,membership} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; crslab is imported from ./src.
The timed work runs in this process on one thread, with jobs=1; set-up is
sampled in fresh interpreters.  Every time is normalised to a reference
host speed sampled while the work runs (speed.py).  Human-readable lines go
to stdout first; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics from spans recorded around the calls into
crslab.  README.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import gen
import spans
import speed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suites", "classify", "membership")

# Requests per second of --seconds, per request workload.  Chosen so that
# the requests of a run take about --seconds on a 2-core x86-64 VM with
# CPython 3.11; the count is fixed by --seconds alone, in whole cycles of
# the class schedule, so every commit serves the same requests.
REQUEST_RATE = {"classify": 500, "membership": 450}

# Set-up is measured this many times, each in a fresh interpreter, and the
# median reported.
SETUP_SAMPLES = 5

# latency_tail_ms is the highest of these with at least ten samples beyond it.
# Whole nines: at the run lengths used, p99 keeps 60-80 samples beyond it.
# With p99.5 (about 35 beyond) the classify tail fell where few requests
# lie, and ten runs spread by 0.17 of its median against 0.03 for p99.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="time one import plus warm-up and exit (used by set-up sampling)")
    return p.parse_args(argv)


def import_crslab(root: Path) -> None:
    """Import crslab from <root>/src.  Exits non-zero when the sources are
    not there, before any result is printed."""
    src = root / "src"
    if not (src / "crslab" / "__init__.py").is_file():
        sys.exit(f"error: no crslab sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import crslab
    if Path(crslab.__file__).resolve().parent != (src / "crslab").resolve():
        sys.exit(f"error: imported crslab from {crslab.__file__}, not from {src}")


# -- set-up ------------------------------------------------------------------


def warm_up(workload: str, seed: int) -> None:
    """Serve one request of every class, outside the timed phase.  Suites
    have none: CLI users fill its caches every run."""
    if workload == "suites":
        return
    import work

    api = work.layer_api()
    for req in gen.warmup(seed, workload):
        work.PIPELINES[req.kind][0](api, req.text)


def probe_setup(root: Path, workload: str, seed: int) -> dict:
    """Import plus warm-up in this fresh interpreter, raw and normalised."""
    with speed.Speedometer() as meter:
        start = time.perf_counter()
        import_crslab(root)
        warm_up(workload, seed)
        end = time.perf_counter()
    raw, norm = meter.work(start, end)
    return {"raw_s": raw, "norm_s": norm}


def setup_samples(args) -> list[dict]:
    """Import plus warm-up, each sample in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# -- timed phases ---------------------------------------------------------------


def run_suites(tracer, meter) -> dict:
    """Every suite in SUITE_ORDER, in this interpreter, with jobs=1."""
    import work
    from crslab import sweeps

    captured = work.capture_sweeps()
    run_suite = sweeps.run_suite
    if tracer is not None:
        work.trace_sweeps(tracer)
        run_suite = tracer.wrap("sweeps", run_suite)
    results, marks, raised = [], [], {}
    clock = time.perf_counter
    with meter:
        for index, name in enumerate(sweeps.SUITE_ORDER):
            if tracer is not None:
                tracer.request = index
            start = clock()
            try:
                results.extend(run_suite(name, jobs=1))
            except Exception:  # a crashing suite is a failed operation; keep going
                raised[name] = traceback.format_exc()
            marks.append((start, clock()))
    problems = work.check_suites(results, captured)
    for name, tb in raised.items():
        problems[name] = [f"raised:\n{tb}"]
    record = work.suites_record(results, captured)
    phase_start = marks[0][0]
    return {
        "attempted": len(sweeps.SUITE_ORDER),
        "problems": {k: v for k, v in problems.items() if v},
        # A suite's result line is ready this long after the command began.
        "latencies": [meter.work(phase_start, end) for _start, end in marks],
        "wall": meter.work(phase_start, marks[-1][1]),
        "digest": hashlib.sha256(json.dumps(record).encode()).hexdigest(),
        "classes": {name: [meter.work(*mark)] for name, mark in zip(sweeps.SUITE_ORDER, marks)},
    }


def run_requests(kind: str, seed: int, count: int, tracer, meter) -> dict:
    """A closed loop with one caller: each request is sent once the previous
    answer is back.  Only the crslab calls are timed; generating the next
    input and checking the answer happen between requests."""
    import work

    pipeline, check, record = work.PIPELINES[kind]
    api = work.layer_api(tracer)
    call = pipeline if tracer is None else tracer.wrap("request", pipeline)
    digest = hashlib.sha256()
    marks = []
    problems: dict[str, list[str]] = {}
    clock = time.perf_counter
    with meter:
        for req in gen.stream(seed, kind, count):
            if tracer is not None:
                tracer.request = req.index
            start = clock()
            try:
                out = call(api, req.text)
            except Exception:  # an exception is that request's failure
                marks.append((req.cls, start, clock()))
                found = [f"raised:\n{traceback.format_exc()}"]
                digest.update(b"raised\n")
            else:
                marks.append((req.cls, start, clock()))
                found = check(req, out)
                digest.update(json.dumps(record(out), separators=(",", ":")).encode() + b"\n")
            if found:
                problems[f"request {req.index} ({req.cls}) {req.text}"] = found
    latencies = [meter.work(start, end) for _cls, start, end in marks]
    classes: dict[str, list] = defaultdict(list)
    for (cls, _start, _end), latency in zip(marks, latencies):
        classes[cls].append(latency)
    return {
        "attempted": count,
        "problems": problems,
        "latencies": latencies,
        "wall": tuple(map(sum, zip(*latencies))),
        "digest": digest.hexdigest(),
        "classes": dict(classes),
    }


# -- reporting --------------------------------------------------------------------


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail(sorted_values: list[float]) -> tuple[float, str]:
    """(value, description) of the highest listed percentile with at least
    ten samples beyond it; the maximum when there are too few samples."""
    n = len(sorted_values)
    for pct in TAIL_PERCENTILES:
        beyond = n - math.ceil(pct / 100 * n)
        if beyond >= 10:
            return nearest_rank(sorted_values, pct), f"p{pct:g} of {n} samples, {beyond} beyond"
    return sorted_values[-1], f"maximum of {n} samples (too few for a percentile with ten beyond)"


def pinned_digest(workload: str, seed: int, attempted: int) -> str | None:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        pinned = json.load(fh)
    key = "any" if workload == "suites" else f"seed={seed},requests={attempted}"
    return pinned.get(workload, {}).get(key)


def layer_metrics(tracer, meter) -> dict:
    import work

    def seconds(start, end):
        return meter.work(start, end)[1]

    times = tracer.layer_times(seconds)
    metrics = {}
    for name in work.SPANS:
        calls, self_s = times.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for ratio, counted in work.RATIOS.items():
        calls = sum(times.get(name, (0, 0.0))[0] for name in counted)
        hits = sum(tracer.truthy.get(name, 0) for name in counted)
        metrics[ratio] = (hits / calls if calls else 0.0, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.wall_s"] = (tracer.root_seconds(seconds), "s")
    metrics["trace.overhead_s"] = (len(tracer.spans) * spans.span_cost_seconds(), "s")
    return metrics


def report(args, result, setup, meter) -> None:
    """The human-readable lines: raw and normalised figures side by side."""
    attempted = result["attempted"]
    failed = len(result["problems"])
    raw_wall, norm_wall = result["wall"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} operations, closed loop, one caller, jobs=1")
    print(f"  host speed: {meter.samples()} kernel samples, median "
          f"{meter.median_kernel_s() * 1e6:.2f} us (reference {speed.REFERENCE_S * 1e6:g} us)")
    print(f"  wall: raw {raw_wall:.4f} s, normalised {norm_wall:.4f} s")
    if setup:
        print(f"  setup_s samples, raw {[round(x['raw_s'], 4) for x in setup]}, normalised "
              f"{[round(x['norm_s'], 4) for x in setup]} (import + warm-up; median reported)")
    print(f"  failed_ratio {failed / attempted:.6f} ({failed} failed / {attempted} attempted)")
    pinned = pinned_digest(args.workload, args.seed, attempted)
    if pinned is None:
        verdict = "none pinned"
    else:
        verdict = "matches pinned" if pinned == result["digest"] else "DIFFERS from pinned"
    print(f"  output sha256 {result['digest']} ({verdict})")
    for label, index in (("raw", 0), ("normalised", 1)):
        ordered = sorted(lat[index] for lat in result["latencies"])
        tail_value, tail_note = tail(ordered)
        print(f"  latency {label}: p50 {nearest_rank(ordered, 50) * 1000:.4f} ms, "
              f"tail {tail_value * 1000:.4f} ms ({tail_note})")
    print(f"  {'class (normalised)':<22} {'ops':>6} {'ops share':>9} {'seconds':>9} "
          f"{'time share':>10} {'p50 ms':>9} {'tail ms':>9}")
    for cls, lats in sorted(result["classes"].items()):
        norms = sorted(norm for _raw, norm in lats)
        secs = sum(norms)
        print(f"  {cls:<22} {len(norms):>6} {len(norms) / attempted:>9.3f} {secs:>9.4f} "
              f"{secs / norm_wall:>10.3f} {nearest_rank(norms, 50) * 1000:>9.3f} "
              f"{tail(norms)[0] * 1000:>9.3f}")
    for key, found in list(result["problems"].items())[:5]:
        print(f"  FAILED {key}: {'; '.join(found)}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if args.probe_setup:
        print(json.dumps(probe_setup(root, args.workload, args.seed)))
        return 0
    import_crslab(root)

    setup = setup_samples(args) if not args.trace else []
    warm_up(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    meter = speed.Speedometer()
    if args.workload == "suites":
        result = run_suites(tracer, meter)
    else:
        cycle = gen.CYCLE[args.workload]
        count = max(1, round(args.seconds * REQUEST_RATE[args.workload] / cycle)) * cycle
        result = run_requests(args.workload, args.seed, count, tracer, meter)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report(args, result, setup, meter)

    attempted = result["attempted"]
    failed = len(result["problems"])
    wall = result["wall"][1]
    if tracer is None:
        ordered = sorted(norm for _raw, norm in result["latencies"])
        metrics = {
            "setup_s": (statistics.median(x["norm_s"] for x in setup), "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (attempted / wall, "1/s"),
            "latency_p50_ms": (nearest_rank(ordered, 50) * 1000, "ms"),
            "latency_tail_ms": (tail(ordered)[0] * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, meter)
        self_total = sum(v for k, (v, _u) in metrics.items() if k.endswith(".self_s"))
        print(f"  self times sum to {self_total:.6f} s; traced wall {metrics['trace.wall_s'][0]:.6f} s")
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_csv(trace_path)
        print(f"  spans written to {trace_path.relative_to(root)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
