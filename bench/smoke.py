"""Smoke check of the benchmark itself, outside the tier-1 tests.

    python3 bench/smoke.py

Runs every workload at tiny sizes, untraced and traced, and asserts that
the last output line is a result object that carries every metric named
in BENCHMARK.json with its unit. Correctness of the tiny runs is printed
but not asserted: 200-trajectory suspects are too small to classify, and
the reproduction's acceptance bounds do not hold at tiny sizes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [sys.executable, "bench/run.py", "--workload", workload["name"],
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{workload['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{where}: metric {metric['name']} missing or not in {metric['unit']}")
            print(f"{where}: {len(result['metrics'])} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
    for problem in problems:
        print(f"SMOKE FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
