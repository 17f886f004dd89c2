"""Alternating A/B pairs of ``bench/run.py`` runs from two checkouts.

    python3 scripts/ab_pairs.py --parent ../base --change . \\
        --workload verify-audit --seeds 30201-30210 [--seconds 12] [--out BENCH.json]

For each seed it runs ``bench/run.py --workload <w> --seed <s> --seconds
<t> --trace 0`` once in each checkout, each run in its own process with
that checkout as its working directory. The parent runs first on even
pair indices and the change first on odd ones, so a slow or fast spell of
the host falls on both sides alike. A run's numbers are read from the
record it writes, ``bench/results/<w>-s<s>-t0.json`` in its checkout.

Per metric it reports each side's median, quartiles and values, the pairs
in which the change is better in the metric's direction, the median
change in percent, and the gap between the medians against the parent's
quartile spread: a gain is resolved when the gap is larger than that
spread. The metrics are the end-to-end ones that the change's
``BENCHMARK.json`` lists, plus the unscaled ``wall_p50_ms`` and the host
scale that ``op_p50_ms`` is multiplied by. Quartiles come from
``statistics.quantiles(n=4)`` (exclusive method).

A table goes to stderr, and the result is one ``alternating_pairs``
block keyed by workload: on stdout, or with ``--out`` merged into that
JSON file (a workload already there is replaced). Stdlib only, outside
the test suite and the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``30201-30205`` or ``1,2,7``, or a mix of both."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its record, as the run wrote it."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        sys.exit(f"ab_pairs: {' '.join(argv[1:])} in {tree} exited {done.returncode}:\n"
                 f"{done.stderr[-2000:]}")
    path = os.path.join(tree, "bench", "results", f"{workload}-s{seed}-t0.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def values_of(record: dict, metrics: list[dict]) -> dict[str, float]:
    """The run's value of each metric, by name."""
    out = {m["name"]: record["end_to_end"][m["name"]]["value"] for m in metrics}
    out["wall_p50_ms"] = record["untraced"]["wall_p50_ms"]
    out["host_scale"] = record["untraced"]["host_scale"]["median"]
    return out


def side_summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Pairs won, median change and the median gap against the parent's spread."""
    p, c = side_summary(parent), side_summary(change)
    out = {"parent": p, "change": c}
    if better not in ("higher", "lower"):
        return out
    sign = 1 if better == "higher" else -1
    gap = abs(c["median"] - p["median"])
    spread = p["q3"] - p["q1"]
    out.update(
        change_better_pairs=sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        pairs=len(parent),
        median_change_pct=round(100.0 * (c["median"] / p["median"] - 1.0), 1),
        median_gap=gap,
        parent_iqr=spread,
        resolved=gap > spread,
    )
    return out


def measure(parent: str, change: str, workload: str, seeds: list[int], seconds: float) -> dict:
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            record = run_once(parent if side == "parent" else change, workload, seed, seconds)
            runs[side].append(record)
            print(f"ab_pairs: {workload} seed {seed} {side}: "
                  f"op_p50_ms {record['end_to_end']['op_p50_ms']['value']:.4g}, "
                  f"failed {record['failed']}", file=sys.stderr)
    table = {side: [values_of(r, metrics) for r in runs[side]] for side in SIDES}
    kinds = [(m["name"], m["unit"], m["better"]) for m in metrics]
    kinds += [("wall_p50_ms", "ms", "lower"), ("host_scale", "ratio", "n/a")]
    block = {
        "seeds": seeds,
        "seconds": seconds,
        "all_correct": all(r["failed"] == 0 for side in SIDES for r in runs[side]),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "git_sha": {side: runs[side][0].get("git_sha") for side in SIDES},
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "metrics": {},
    }
    for name, unit, better in kinds:
        parent, change = ([v[name] for v in table[side]] for side in SIDES)
        block["metrics"][name] = {"unit": unit, "better": better,
                                  **compare(parent, change, better)}
    return block


def report(workload: str, block: dict) -> None:
    print(f"{workload}: {len(block['seeds'])} pairs, all correct: {block['all_correct']}",
          file=sys.stderr)
    for name, m in block["metrics"].items():
        line = f"  {name:12} parent {m['parent']['median']:.5g}  change {m['change']['median']:.5g}"
        if "pairs" in m:
            line += (f"  {m['median_change_pct']:+.1f}%  better in {m['change_better_pairs']}"
                     f" of {m['pairs']}  gap {m['median_gap']:.4g} vs spread {m['parent_iqr']:.4g}")
        print(line, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="seed list: 30201-30210 or 1,2,7")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--out", help="JSON file to merge the alternating_pairs block into")
    args = parser.parse_args(argv)

    block = measure(os.path.abspath(args.parent), os.path.abspath(args.change),
                    args.workload, args.seeds, args.seconds)
    report(args.workload, block)
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as handle:
                doc = json.load(handle)
        doc.setdefault("alternating_pairs", {})[args.workload] = block
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
    else:
        json.dump({"alternating_pairs": {args.workload: block}}, sys.stdout, indent=1)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
