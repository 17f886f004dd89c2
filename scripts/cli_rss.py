"""Peak resident memory of the CLI's commands, each in its own child process.

    python3 scripts/cli_rss.py --sizes 2000,50000 [--src src] > rss.json
    python3 scripts/cli_rss.py --experiment [--stages all] [--out-dir DIR] > rss.json

For each corpus size it builds a data-domain pool, registers one user,
then runs ``simulate victim``, ``inject``, ``verify``, ``validate
--corpus``, ``simulate surrogate --harvest`` and ``attack --strategy
all`` on files of that many trajectories, one command per child process.
Each reads its input as a stream, ``attack`` included, so none should
grow with the corpus. With
``--experiment`` it runs ``experiment <stage> --seed 7`` at the default
config instead, for each of ``--stages`` (every stage and ``all`` unless
given), writing the reports to ``<out-dir>/<stage>``. A child's peak RSS
is read from the resource usage ``os.wait4`` returns for that child
alone, so nothing else on the host is measured. ``import`` is the
baseline: a child that only imports the CLI.

``--max-rss-mib`` turns the measurement into a check: the script exits 1
when any command peaked above it. A command that exits non-zero stops the
script.

Stdlib only, outside the test suite. ``--src`` points at the sources to
run, so one script measures two checkouts. A table goes to stderr when the
commands have finished; the results, as one JSON record, to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(src: str, argv: list[str], cwd: str) -> dict:
    """One child: its exit status, wall time and peak RSS in MiB."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        sys.exit(f"cli_rss: {' '.join(argv)} exited {child.returncode}")
    # ru_maxrss is in KiB on Linux
    return {"rss_mib": round(usage.ru_maxrss / 1024, 1),
            "wall_s": round(time.perf_counter() - start, 2), "stdout": out.decode()}


def measure_experiment(src: str, stages: list[str] | None, out_dir: str) -> dict:
    """Peak RSS of ``experiment <stage> --seed 7``, one child per stage."""
    baseline = run(src, ["-c", "import trajmark.cli as c; print(*c.STAGES)"], out_dir)
    rows = {"import": baseline}
    for stage in stages or [*baseline["stdout"].split(), "all"]:
        rows[stage] = run(src, ["-m", "trajmark.cli", "experiment", stage, "--seed", "7",
                                "--out-dir", os.path.join(out_dir, stage), "--quiet"], out_dir)
    for row in rows.values():
        del row["stdout"]
    return rows


def measure(src: str, n: int, cwd: str) -> dict:
    cli = ["-m", "trajmark.cli"]
    rows = {"import": run(src, ["-c", "import trajmark.cli"], cwd)}
    run(src, cli + ["genpool", "--domain", "data", "--out", "pool.json", "--seed", "42",
                    "--quiet"], cwd)
    if os.path.exists(os.path.join(cwd, "reg.json")):
        os.remove(os.path.join(cwd, "reg.json"))
    uid = run(src, cli + ["register", "--pool", "pool.json", "--registry", "reg.json",
                          "--seed", "5", "--quiet"], cwd)["stdout"].strip()
    commands = {
        "simulate victim": ["simulate", "victim", "--domain", "data", "--n", str(n),
                            "--seed", "3", "--out", "victim.jsonl"],
        "inject": ["inject", "--pool", "pool.json", "--registry", "reg.json", "--uid", uid,
                   "--in", "victim.jsonl", "--out", "wm.jsonl", "--edits", "edits.jsonl",
                   "--seed", "9"],
        "verify": ["verify", "--pool", "pool.json", "--suspect", "wm.jsonl",
                   "--report", "verdict.json"],
        "validate --corpus": ["validate", "--corpus", "wm.jsonl"],
        "simulate surrogate --harvest": ["simulate", "surrogate", "--domain", "data",
                                         "--harvest", "wm.jsonl", "--n", str(n),
                                         "--seed", "13", "--out", "surrogate.jsonl"],
        "attack --strategy all": ["attack", "--strategy", "all", "--in", "wm.jsonl",
                                  "--edits", "edits.jsonl", "--pool-candidates", "data",
                                  "--out", "attacked.jsonl", "--metrics", "attack.csv",
                                  "--seed", "11"],
    }
    for name, argv in commands.items():
        rows[name] = run(src, cli + argv + ["--quiet"], cwd)
    for row in rows.values():
        del row["stdout"]
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="2000,50000", help="comma-separated corpus sizes")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="sources to run")
    parser.add_argument("--experiment", action="store_true",
                        help="measure the harness's stages instead of the corpus commands")
    parser.add_argument("--stages", default=None,
                        help="comma-separated stages for --experiment (default: each and all)")
    parser.add_argument("--out-dir", default=None,
                        help="where --experiment writes its reports (default: a temporary dir)")
    parser.add_argument("--max-rss-mib", type=float, default=None,
                        help="exit 1 if any command peaks above this many MiB")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    results = {}
    if args.experiment:
        stages = args.stages.split(",") if args.stages else None
        with (contextlib.nullcontext(args.out_dir) if args.out_dir
              else tempfile.TemporaryDirectory(prefix="cli-rss-")) as out_dir:
            os.makedirs(out_dir, exist_ok=True)
            results["experiment"] = measure_experiment(src, stages, os.path.abspath(out_dir))
    else:
        for n in (int(size) for size in args.sizes.split(",")):
            with tempfile.TemporaryDirectory(prefix="cli-rss-") as cwd:
                results[str(n)] = measure(src, n, cwd)
    over = []
    for label, rows in results.items():
        for name, row in rows.items():
            print(f"{label:>10} {name:30s} {row['rss_mib']:7.1f} MiB {row['wall_s']:7.2f} s",
                  file=sys.stderr)
            if args.max_rss_mib is not None and row["rss_mib"] > args.max_rss_mib:
                over.append(f"{label} {name}: {row['rss_mib']} MiB")
    record = {"src": src, "python": sys.version.split()[0], "peak_rss": results}
    print(json.dumps(record))
    if over:
        print(f"cli_rss: above {args.max_rss_mib} MiB: {'; '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
