"""trajmark benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload watermark-serve --seed 7 --seconds 12 --trace 0

Runs from the repository root against the sources in ``src/``. Prints
every metric with its unit, writes a result record under
``bench/results/``, and prints the result as one JSON object on the last
line of standard output. ``--trace 1`` adds a traced measurement and
reports per-layer metrics; ``--profile FILE`` also writes the top
functions by self time of the measured part. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
RESULTS = os.path.join(BENCH, "results")
SETUP_PROBES = 5  # host-speed probes on each side of a set-up


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "trajmark", "__init__.py")):
        sys.exit(f"bench: no trajmark sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH)


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def tail(sorted_values: list[float]) -> dict:
    """Highest percentile with at least 10 samples beyond it (or the max)."""
    n = len(sorted_values)
    if n > 10:
        return {"value": sorted_values[n - 11], "percentile": 100.0 * (n - 10) / n,
                "samples_beyond": 10, "samples": n}
    return {"value": sorted_values[-1], "percentile": 100.0, "samples_beyond": 0, "samples": n}


def measure(workload, state, stream, seconds: float, tracer=None, profiler=None) -> dict:
    """Closed loop, one client: serve operations until ``seconds`` of busy time.

    Only ``serve`` is timed; the host-speed probes, batch generation and
    output checks run between batches, outside the clock, the tracer and
    the profiler. Untraced and unprofiled, a workload with ``PROBE_EVERY_S``
    is also probed during its operations, and the probes' time is taken
    out of theirs. At least one operation runs. Returns the raw samples
    for ``summarize``: the latencies of each batch, the last one possibly
    cut short, and each batch's host-speed scale.
    """
    batches: list[list[float]] = []
    scales: list[float] = []
    failures: list[str] = []
    failed_ops = 0
    busy = 0.0
    served = 0
    sampled = workload.PROBE_EVERY_S and tracer is None and profiler is None
    probe = hostspeed.probe_s(workload.PROBES)
    for batch in stream:
        outputs = []
        latencies: list[float] = []
        sampler = hostspeed.Sampler(workload.PROBE_EVERY_S) if sampled else None
        with tracer or profiler or sampler or contextlib.nullcontext():
            for request in batch:
                span = tracer.open(workload.op, f"{workload.op}-{served}") if tracer else None
                probed_s = sampler.spent_s if sampler else 0.0
                start = time.perf_counter()
                try:
                    result = workload.serve(state, request)
                except Exception as exc:  # a failing operation is counted, not fatal
                    result = exc
                elapsed = time.perf_counter() - start
                if sampler is not None:
                    elapsed -= sampler.spent_s - probed_s
                if tracer is not None:
                    tracer.close(span)
                served += 1
                latencies.append(elapsed)
                outputs.append(result)
                busy += elapsed
                if busy >= seconds:
                    break
        before, probe = probe, hostspeed.probe_s(workload.PROBES)
        inside = sampler.times if sampler else []
        scales.append(hostspeed.REF_S / statistics.median([before, probe] + inside))
        batches.append(latencies)
        problems = workload.check(state, batch[: len(outputs)], outputs, served - len(outputs))
        failed_ops += len(problems)
        failures.extend(problems)
        if busy >= seconds:
            break
    return {"batches": batches, "scales": scales, "failed": failed_ops,
            "failures": failures, "busy_s": busy}


def summarize(parts: list[dict]) -> dict:
    """Merge measured slices.

    ``ops_per_s`` is operations per second of timed work and ``p50_ms``
    the median latency, both scaled to the reference host
    (``bench/hostspeed.py``); ``p90_ms`` and ``tail`` are scaled too.
    ``wall_ops_per_s`` and ``wall_p50_ms`` are the same, unscaled.
    """
    wall = [x for p in parts for b in p["batches"] for x in b]
    scaled = [x * s for p in parts for b, s in zip(p["batches"], p["scales"]) for x in b]
    scales = [s for p in parts for s in p["scales"]]
    ordered = sorted(scaled)
    slow = tail(ordered)
    return {
        "attempted": len(ordered),
        "failed": sum(p["failed"] for p in parts),
        "failures": [f for p in parts for f in p["failures"]][:20],
        "busy_s": sum(p["busy_s"] for p in parts),
        "batches": len(scales),
        "host_scale": {"median": statistics.median(scales), "min": min(scales), "max": max(scales)},
        "ops_per_s": len(scaled) / sum(scaled),
        "p50_ms": 1000.0 * statistics.median(scaled),
        "wall_ops_per_s": len(wall) / sum(wall),
        "wall_p50_ms": 1000.0 * statistics.median(wall),
        "p90_ms": 1000.0 * (statistics.quantiles(ordered, n=10)[-1] if len(ordered) > 1 else ordered[0]),
        "tail": {**slow, "value": 1000.0 * slow["value"]},
    }


def timed_setup(workload, tracer=None):
    """One set-up: (state, seconds scaled to the reference host, wall seconds).

    The set-up is probed like a long operation: before, after, and
    (untraced) every second inside, with the probes' time taken out.
    """
    before = hostspeed.probe_s(SETUP_PROBES)
    sampler = None if tracer else hostspeed.Sampler(1.0)
    with tracer or sampler:
        span = tracer.open("setup", "setup") if tracer else None
        start = time.perf_counter()
        state = workload.setup()
        wall = time.perf_counter() - start - (sampler.spent_s if sampler else 0.0)
        if tracer is not None:
            tracer.close(span)
    probes = [before, hostspeed.probe_s(SETUP_PROBES)] + (sampler.times if sampler else [])
    return state, wall * hostspeed.REF_S / statistics.median(probes), wall


def make_workload(name: str, seed: int, tiny: bool, work_dir: str):
    import workloads

    if name == "watermark-serve":
        return workloads.WatermarkServe(seed, tiny)
    if name == "verify-audit":
        return workloads.VerifyAudit(seed, tiny)
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)["reproduce_report_digests"]
    return workloads.Reproduce(tiny, work_dir, reference)


# the end-to-end numbers under the names of what one operation is
ALIASES = {
    "watermark-serve": ("wm_traj_per_s", "request_p50_ms", "request_tail_ms"),
    "verify-audit": ("verdicts_per_s", "verdict_p50_ms", "verdict_tail_ms"),
    "reproduce": ("reproductions_per_s", "reproduce_ms", "reproduce_tail_ms"),
}


def end_to_end(run: dict, setup_s: float) -> dict:
    return {
        "ops_per_s": {"value": run["ops_per_s"], "unit": "1/s"},
        "op_p50_ms": {"value": run["p50_ms"], "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("watermark-serve", "verify-audit", "reproduce"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", metavar="FILE",
                        help="run the measurement under cProfile and write the top functions by self time")
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke check")
    args = parser.parse_args(argv)

    _import_program()
    os.makedirs(RESULTS, exist_ok=True)
    work_dir = os.path.join(RESULTS, f"tmp-{os.getpid()}")
    try:
        return run_workload(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_workload(args, work_dir: str) -> int:
    import spans
    import workloads
    workload = make_workload(args.workload, args.seed, args.tiny, work_dir)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}{'-tiny' if args.tiny else ''}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }

    tracer = profiler = None
    setup_times, setup_wall = [], []
    if args.trace:
        # one traced set-up; its spans belong to request "setup"
        tracer = spans.Tracer(callers=(workloads,))
        state, scaled, wall = timed_setup(workload, tracer)
        setup_times.append(scaled)
        setup_wall.append(wall)
        stream = workload.batches(state)
        run = summarize([measure(workload, state, stream, args.seconds)])
    else:
        if args.profile:
            import cProfile

            profiler = cProfile.Profile()
        # Set-ups and measured slices alternate, so that the measured time
        # spreads over the whole run and a slow spell of the host weighs less.
        repeats = 1 if args.tiny else workload.SETUP_REPEATS
        parts, busy = [], 0.0
        for rep in range(repeats):
            state = stream = None  # drop the previous set-up before building the next
            if rep:
                time.sleep(workload.SETUP_GAP_S)
            state, scaled, wall = timed_setup(workload)
            setup_times.append(scaled)
            setup_wall.append(wall)
            target = args.seconds * (rep + 1) / repeats
            if busy < target:
                stream = workload.batches(state)
                parts.append(measure(workload, state, stream, target - busy, profiler=profiler))
                busy += parts[-1]["busy_s"]
        run = summarize(parts)
    setup_s = statistics.median(setup_times)
    record["setup_samples_s"] = setup_times
    record["setup_wall_s"] = setup_wall

    if profiler is not None:
        import pstats

        with open(args.profile, "w", encoding="utf-8") as handle:
            pstats.Stats(profiler, stream=handle).strip_dirs().sort_stats("tottime").print_stats(40)
        print(f"profile: top functions by self time written to {args.profile}")
        record["profile_file"] = args.profile

    record["untraced"] = run
    record["end_to_end"] = end_to_end(run, setup_s)
    rate, median, slow = ALIASES[args.workload]
    record["aliases"] = {
        rate: {"value": run["ops_per_s"], "unit": "1/s"},
        median: {"value": run["p50_ms"], "unit": "ms"},
        slow: {**run["tail"], "unit": "ms"},
    }
    attempted, failed = run["attempted"], run["failed"]

    if tracer is not None:
        traced = summarize([measure(workload, state, stream, args.seconds, tracer)])
        record["traced"] = traced
        record["trace_overhead"] = {
            "ops_per_s_share": 1.0 - traced["ops_per_s"] / run["ops_per_s"],
            "op_p50_ms_share": traced["p50_ms"] / run["p50_ms"] - 1.0,
            "wall_ops_per_s_share": 1.0 - traced["wall_ops_per_s"] / run["wall_ops_per_s"],
        }
        totals = tracer.totals()
        record["layers"] = totals
        per_layer = {k: {"value": v, "unit": u} for k, (v, u) in spans.layer_metrics(totals).items()}
        spans_path = os.path.join(RESULTS, f"spans-{tag}.jsonl.gz")
        tracer.write(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        record["spans"] = len(tracer.spans)
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics = per_layer
    else:
        metrics = record["end_to_end"]

    if isinstance(workload, workloads.Reproduce):
        record["report_digests"] = workload.digests
    record["attempted"] = attempted
    record["failed"] = failed
    record["failed_share"] = failed / attempted
    record["metrics"] = metrics
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")

    for problem in run["failures"] + record.get("traced", {}).get("failures", []):
        print(f"FAILED {problem}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations, {failed} failed")
    print(f"failed_share {record['failed_share']:.6g} ratio")
    for name, m in record["aliases"].items():
        beyond = f" (p{m['percentile']:.2f}, {m['samples_beyond']} of {m['samples']} samples beyond)" if "percentile" in m else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{beyond}")
    print(f"host scale {run['host_scale']['median']:.4g} (wall clock: {run['wall_ops_per_s']:.6g} 1/s, "
          f"median {run['wall_p50_ms']:.6g} ms, set-up {statistics.median(setup_wall):.6g} s)")
    if tracer is not None:
        over = record["trace_overhead"]
        print(f"tracing overhead: {100 * over['ops_per_s_share']:.1f}% of throughput, "
              f"{100 * over['op_p50_ms_share']:.1f}% on the median; {record['spans']} spans")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
