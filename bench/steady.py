"""Run-to-run spread of the end-to-end metrics, and the BENCH summary.

    python3 bench/steady.py --runs 10 --first-seed 1 --out bench/BENCH_0.json

Runs ``bench/run.py`` untraced once per seed on every workload in
BENCHMARK.json (or those given with ``--workload``), one run at a time.
For each end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a
share of the median, and flags a spread wider than a third of the
metric's bound (``setup_s`` is exempt). ``--out`` writes the summary with
the host facts of the first run; later perf changes quote their deltas
against such a file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "bench", "results", f"{workload}-s{seed}-t0.json"),
              encoding="utf-8") as handle:
        record = json.load(handle)
    return {"result": result, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {"runs": args.runs, "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
               "seconds": spec["run_seconds"], "workloads": {}}
    wide = []
    for name in names:
        runs = []
        for seed in summary["seeds"]:
            runs.append(run_once(name, seed, spec["run_seconds"]))
            r = runs[-1]["result"]
            print(f"{name} seed {seed}: correct {r['correct']} failed {r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()), flush=True)
        first = runs[0]["record"]
        summary.setdefault("host", {k: first[k] for k in ("git_sha", "python", "cpu_count")})
        table = {"failed": sum(r["result"]["failed"] for r in runs),
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "loadavg_1m": [r["record"]["loadavg_1m"] for r in runs],
                 "metrics": {}}
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            table["metrics"][metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"], "values": values,
            }
            flag = ""
            if metric["name"] != "setup_s" and spread > metric["bound"] / 3:
                flag = "  WIDER THAN A THIRD OF THE BOUND"
                wide.append(f"{name}/{metric['name']}")
            print(f"  {name} {metric['name']}: median {med:.6g} {metric['unit']}, "
                  f"spread {100 * spread:.2f}% (bound {100 * metric['bound']:.0f}%){flag}")
        summary["workloads"][name] = table
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    if wide:
        print("wide spreads: " + ", ".join(wide))
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
