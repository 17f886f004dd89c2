"""Where a served request's time goes: the six steps of the operator's path, unprofiled.

    python3 scripts/layer_split.py --parent ../base --change . \\
        [--requests 30000] [--rounds 6] [--seed 3] [--out BENCH.json]

A served request is parse, ``passes_for_uid``, the seeded RNG,
``watermark_trajectory``, serialize, and the edit-log lines, as in
``bench/workloads.py``'s ``WatermarkServe.serve``. This script times each
step alone, without a profiler, on a fixed generated input: each domain's
pool at the harness's pool seed, ``CORPUS`` generated trajectories per
domain, serialized, and ``USERS`` registered users per domain. ``--seed``
draws the requests (a domain, a body and a registered user each, with
every user known in advance). The requests run in chunks of ``CHUNK``;
within a chunk every step runs over all of them before the next step
starts, and each step's time is read once per chunk, so the clock adds
nothing per request.

Each measurement is one child process run against one checkout's
``src``. A round measures every checkout once; the parent goes first on
even rounds and the change first on odd ones, so a slow spell of the
host falls on both sides alike. Per step it reports each side's median
over the rounds, in microseconds per request, with quartiles and values,
and the share of the request. ``--parent`` may be left out to measure
one checkout.

A table goes to stderr, and the result is one ``layer_split`` block: on
stdout, or with ``--out`` merged into that JSON file. Stdlib only,
outside the test suite and the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

STEPS = ("parse", "passes_for_uid", "rng", "inject", "serialize", "edit_lines")
DOMAINS = ("data", "business", "social")
CORPUS = 500
USERS = 300
CHUNK = 1000


def child(tree: str, requests: int, seed: int) -> dict[str, float]:
    """Microseconds per request of each step, for the sources in ``tree``."""
    sys.path.insert(0, os.path.join(tree, "src"))
    import random

    from trajmark.experiment import ExperimentConfig
    from trajmark.injector import edit_to_json, watermark_trajectory
    from trajmark.pool import build_pool
    from trajmark.registry import Registry, passes_for_uid, register_user
    from trajmark.seeds import derive_rng, derive_seed
    from trajmark.simkit.domains import load_domain
    from trajmark.simkit.generator import generate_greybox_corpus
    from trajmark.trajectory import parse_trajectory_line, serialize_trajectory

    served = []
    for name in DOMAINS:
        domain = load_domain(name)
        pool, _ = build_pool(domain, seed=ExperimentConfig.pool_seed)
        corpus = generate_greybox_corpus(domain, CORPUS, derive_seed(seed, "layer", name),
                                         id_prefix=f"{name[0]}q")
        registry = Registry(name, len(pool))
        uids = [register_user(registry, derive_seed(seed, "layer", name, k), "t").uid_hex
                for k in range(USERS)]
        served.append((pool, [serialize_trajectory(t) for t in corpus], uids))
    inject_seed = derive_seed(seed, "layer", "inject")
    arrivals = random.Random(derive_seed(seed, "layer", "arrivals"))
    spent = dict.fromkeys(STEPS, 0.0)
    clock = time.perf_counter
    for first in range(0, requests, CHUNK):
        lines, uids, pools = [], [], []
        for _ in range(min(CHUNK, requests - first)):
            pool, bodies, users = served[arrivals.randrange(len(served))]
            lines.append(bodies[arrivals.randrange(len(bodies))])
            uids.append(users[arrivals.randrange(len(users))])
            pools.append(pool)
        t0 = clock()
        trajs = [parse_trajectory_line(line) for line in lines]
        t1 = clock()
        actives = [passes_for_uid(uid, pool) for uid, pool in zip(uids, pools)]
        t2 = clock()
        rngs = [derive_rng(inject_seed, "inject", uid, t.query_id) for uid, t in zip(uids, trajs)]
        t3 = clock()
        marked = [watermark_trajectory(t, active, rng)
                  for t, active, rng in zip(trajs, actives, rngs)]
        t4 = clock()
        outs = [serialize_trajectory(wm) for wm, _ in marked]
        t5 = clock()
        edit_lines = [
            [json.dumps(edit_to_json(0, t.query_id, e), ensure_ascii=False,
                        separators=(",", ":")) for e in edits]
            for t, (_, edits) in zip(trajs, marked)
        ]
        t6 = clock()
        for step, start, end in zip(STEPS, (t0, t1, t2, t3, t4, t5), (t1, t2, t3, t4, t5, t6)):
            spent[step] += end - start
        del trajs, actives, rngs, marked, outs, edit_lines
    return {step: 1e6 * s / requests for step, s in spent.items()}


def run_child(tree: str, requests: int, seed: int) -> dict[str, float]:
    argv = [sys.executable, os.path.abspath(__file__), "--child", tree,
            "--requests", str(requests), "--seed", str(seed)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"layer_split: the child for {tree} exited {done.returncode}:\n"
                 f"{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def measure(trees: dict[str, str], requests: int, rounds: int, seed: int) -> dict:
    runs: dict[str, list[dict[str, float]]] = {side: [] for side in trees}
    sides = list(trees)
    for r in range(rounds):
        for side in (sides if r % 2 == 0 else sides[::-1]):
            runs[side].append(run_child(trees[side], requests, seed))
            print(f"layer_split: round {r} {side}: "
                  f"{sum(runs[side][-1].values()):.1f} us per request", file=sys.stderr)
    block = {"requests": requests, "rounds": rounds, "seed": seed, "unit": "us/request",
             "python": platform.python_version(), "cpu_count": os.cpu_count(), "steps": {}}
    for side in sides:
        totals = [sum(run.values()) for run in runs[side]]
        block.setdefault("total", {})[side] = summary(totals)
        for step in STEPS:
            s = summary([run[step] for run in runs[side]])
            s["share"] = round(s["median"] / statistics.median(totals), 3)
            block["steps"].setdefault(step, {})[side] = s
    return block


def report(block: dict) -> None:
    sides = list(block["total"])
    print(f"{block['requests']} requests x {block['rounds']} rounds, seed {block['seed']}"
          f" (us per request, median; share of the request)", file=sys.stderr)
    for step in (*STEPS, "total"):
        row = block["total"] if step == "total" else block["steps"][step]
        cells = "  ".join(f"{side} {row[side]['median']:7.2f}"
                          + (f" ({row[side]['share']:.0%})" if "share" in row[side] else "")
                          for side in sides)
        print(f"  {step:15} {cells}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", default=".", help="checkout with the change")
    parser.add_argument("--requests", type=int, default=30000)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out", help="JSON file to merge the layer_split block into")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.requests < 1 or args.rounds < 1:
        parser.error("--requests and --rounds must be >= 1")
    if args.child:
        json.dump(child(args.child, args.requests, args.seed), sys.stdout)
        return 0

    trees = {"change": os.path.abspath(args.change)}
    if args.parent:
        trees = {"parent": os.path.abspath(args.parent), **trees}
    block = measure(trees, args.requests, args.rounds, args.seed)
    report(block)
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as handle:
                doc = json.load(handle)
        doc["layer_split"] = block
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
    else:
        json.dump({"layer_split": block}, sys.stdout, indent=1)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
