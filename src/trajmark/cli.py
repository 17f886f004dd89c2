"""Unified command-line entry point.

Exit codes: 0 success, 1 usage error or a defect's traceback, 2 data
error naming the file and JSON path, 3 acceptance-threshold failure
inside ``experiment``. Every command is deterministic given ``--seed``;
all randomness is derived from that one root integer.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
from contextlib import ExitStack

from . import __version__
from .attacks import DELETION_P, STRATEGIES, AttackTally, Knowledge, check_edit_log
from .errors import InvalidRange, LengthMismatch, TrajmarkError
from .experiment import (
    STAGES,
    ExperimentConfig,
    all_pass,
    bad_domain,
    pool_accessor,
    run_all,
    run_stage,
)
from .injector import iter_watermarked, read_edit_positions, write_edit_lines
from .pool import POOL_FORMAT_VERSION, build_pool, load_pool, pool_from_json, save_pool
from .registry import Registry, passes_for_uid, register_user, uid_to_hex
from .seeds import derive_seed
from .simkit.domains import POOL_SHAPES, DomainSpec, load_domain
from .simkit.generator import iter_greybox_corpus
from .simkit.surrogate import fit_surrogate
from .trajectory import (
    iter_jsonl, output_file, read_json, serialize_trajectory, write_json, write_jsonl,
)
from .verifier import (
    DEFAULT_M_MIN, DEFAULT_THETA_J, DEFAULT_THETA_N, detected_vector_from_json, localize_user,
    verify_corpus,
)

USAGE_ERROR = 1
DATA_ERROR = 2
ACCEPTANCE_FAILURE = 3


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


def _seed(args) -> int:
    return 0 if args.seed is None else args.seed


def _candidate_sets(ref: str):
    """Resolve a candidate-pool reference: builtin/domain file or pool file.

    Returns (equivalence sets, tool names, sandbox or None).
    """
    if ref in POOL_SHAPES:
        domain = load_domain(ref)
        return domain.eqsets, list(domain.sandbox.tools), domain.sandbox
    obj = read_json(ref)
    if isinstance(obj, dict) and "passes" in obj:
        sets = [p.eqset for p in pool_from_json(obj, f"pool: {ref}: $")]
        tools = sorted({t for s in sets for t in s.tools()})
        return sets, tools, None
    domain = DomainSpec.from_json(obj, f"domain: {ref}: $")
    return domain.eqsets, list(domain.sandbox.tools), domain.sandbox


def _check_registry(registry: Registry, pool) -> None:
    """Refuse a registry whose UIDs are not as long as the pool."""
    if registry.n_bits != len(pool):
        raise LengthMismatch(f"registry N={registry.n_bits} does not match pool size {len(pool)}")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_genpool(args) -> int:
    domain = load_domain(args.domain)
    passes, report = build_pool(
        domain, seed=_seed(args), delta=args.delta, n_validation_cases=args.cases
    )
    save_pool(args.out, passes, domain.name)
    for line in report.summary_lines():
        _say(args, line)
    _say(args, f"wrote {len(passes)} passes to {args.out}")
    return 0


def _cmd_register(args) -> int:
    pool = load_pool(args.pool)
    try:
        registry = Registry.load(args.registry)
    except FileNotFoundError:
        registry = Registry(domain=args.domain_name or "default", n_bits=len(pool))
    _check_registry(registry, pool)
    record = register_user(registry, rng_seed=_seed(args))
    registry.save(args.registry)
    print(record.uid_hex)
    _say(args, f"activated passes: {list(record.active_pass_ids)}")
    return 0


def _cmd_simulate(args) -> int:
    domain = load_domain(args.domain)
    n = domain.corpus_sizes["fit"] if args.n is None else args.n
    # every corpus is drawn by the one generator, from the domain that
    # models its source, and written as it is drawn
    if args.mode == "victim":
        source, prefix = domain, "q"
    elif args.mode == "benign":
        source, prefix = domain, "b"  # a model that never saw watermarked data
    else:  # surrogate
        if not args.harvest:
            raise TrajmarkError("simulate surrogate requires --harvest")
        model = fit_surrogate(iter_jsonl(args.harvest), domain, eta=args.eta)
        if model.missing_sets:
            _say(args, f"harvest missing sets (natural fallback): {list(model.missing_sets)}")
        source, prefix = model.domain, "s"
    count = write_jsonl(args.out, iter_greybox_corpus(source, n, _seed(args), id_prefix=prefix))
    _say(args, f"wrote {count} trajectories to {args.out}")
    return 0


def _cmd_inject(args) -> int:
    pool = load_pool(args.pool)
    registry = Registry.load(args.registry)
    _check_registry(registry, pool)
    # looked up by value: "0003" and "3" name one user, who is served as
    # the registry spells the UID
    uid = int(args.uid, 16) if re.fullmatch("[0-9a-f]+", args.uid) else None
    if uid not in registry.uid_set():
        raise TrajmarkError(f"uid {args.uid} is not registered")
    uid_hex = uid_to_hex(uid, registry.n_bits)
    active = passes_for_uid(uid_hex, pool)
    served = iter_watermarked(
        iter_jsonl(args.infile), active, seed=_seed(args), uid_hex=uid_hex, stamp_uid=True
    )
    n_edits = changed = 0

    def logged(log):
        nonlocal n_edits, changed
        for idx, (wm, edits) in enumerate(served):
            n_edits += write_edit_lines(log, idx, wm.query_id, edits)
            changed += sum(1 for e in edits if e.changed)
            yield wm

    # one trajectory at a time; both files appear only once the input has
    # been read to its end
    with output_file(args.edits) as log:
        count = write_jsonl(args.out, logged(log))
    _say(
        args,
        f"watermarked {count} trajectories with {len(active)} passes: "
        f"{n_edits} draws, {changed} rewrites",
    )
    return 0


def _cmd_verify(args) -> int:
    pool = load_pool(args.pool)
    verdict = verify_corpus(
        iter_jsonl(args.suspect), pool, args.theta_j, args.theta_n, args.m_min
    )
    if args.report:
        verdict.save(args.report)
    _say(args, f"passes detected: {verdict.n_det} (theta_n={args.theta_n})")
    print("imitation" if verdict.classified_as_imitation else "benign")
    return 0


def _cmd_localize(args) -> int:
    if args.top < 1:
        raise InvalidRange(f"--top must be >= 1, got {args.top}")
    verdict_obj = read_json(args.verdict)
    vector = detected_vector_from_json(verdict_obj, f"verdict: {args.verdict}: $")
    registry = Registry.load(args.registry)
    ranking = localize_user(vector, registry)
    for uid, sim in ranking[: args.top]:
        print(f"{uid}\t{sim:.6f}")
    if args.report:
        verdict_obj["localization"] = [
            {"uid_hex": uid, "similarity": sim} for uid, sim in ranking[: args.top]
        ]
        write_json(args.report, verdict_obj)
    return 0


def _cmd_attack(args) -> int:
    truth = read_edit_positions(args.edits) if args.edits else {}
    sets, tools, sandbox = ([], [], None)
    if args.pool_candidates:
        sets, tools, sandbox = _candidate_sets(args.pool_candidates)
    names = list(STRATEGIES) if args.strategy == "all" else [args.strategy]
    # every input is checked before the first strategy writes its corpus
    for name in names:
        if STRATEGIES[name].needs_candidate_sets and not sets:
            raise TrajmarkError(f"{name} requires --pool-candidates")
    knowledge = Knowledge(
        p=args.p,
        # without a library, pk-replace guesses among the input's tools: a first read
        tool_library=tools or sorted({a.tool for t in iter_jsonl(args.infile) for a in t.actions}),
        candidate_sets=sets,
    )
    runs = [STRATEGIES[name].start(derive_seed(_seed(args), "attack", name), knowledge)
            for name in names]
    tallies = [AttackTally(sandbox) for _ in names]
    # with several strategies, split the file name only, not a dot in a directory name
    root, ext = os.path.splitext(args.out)
    out_paths = [f"{root}.{name}{ext}" if len(names) > 1 else args.out for name in names]
    rows = [["strategy", "precision", "recall", "f1", "modification_rate",
             "true_edit_rate", "breakage_rate"]]
    # every output is opened before the input is read, so the command's
    # files appear together or not at all
    with ExitStack() as outputs:
        handles = [outputs.enter_context(output_file(path)) for path in out_paths]
        table = outputs.enter_context(output_file(args.metrics)) if args.metrics else None
        # the strategies take turns on each input trajectory, as it is read
        n_trajs = 0
        for idx, traj in enumerate(iter_jsonl(args.infile)):
            n_trajs += 1
            marked = truth.get(idx, frozenset())
            for run, tally, handle in zip(runs, tallies, handles):
                step = run.step(idx, traj)
                if step.trajectory is not None:
                    handle.write(serialize_trajectory(step.trajectory) + "\n")
                tally.add(traj, marked, step)
        check_edit_log(truth, n_trajs)
        for name, out_path, run, tally in zip(names, out_paths, runs, tallies):
            metrics = tally.metrics(run.flag_keys())
            breakage = "" if sandbox is None else round(tally.breakage_rate(), 6)
            rows.append(
                [name, round(metrics.precision, 6), round(metrics.recall, 6),
                 round(metrics.f1, 6), round(metrics.modification_rate, 6),
                 round(metrics.true_edit_rate, 6), breakage]
            )
            _say(args, f"{name}: P={metrics.precision:.4f} R={metrics.recall:.4f} "
                       f"F1={metrics.f1:.4f} -> {out_path}")
        if table is not None:
            csv.writer(table).writerows(rows)
    return 0


def _cmd_experiment(args) -> int:
    domains = None if args.domains is None else tuple(args.domains.split(","))
    if domains is not None and (i := bad_domain(domains)) is not None:
        raise InvalidRange(f"--domains must list domain names, got {args.domains!r}"
                           if not domains[i] else f"--domains lists domain {domains[i]!r} twice")
    if args.out_dir == "":
        raise InvalidRange("--out-dir must name a directory, got ''")
    config = ExperimentConfig.from_file(args.config, seed=args.seed, out_dir=args.out_dir,
                                        domains=domains)
    if args.stage == "all":
        acceptance = run_all(config)["acceptance"]
    else:
        _, acceptance = run_stage(args.stage, config, pool_accessor(config))
    for key, value in acceptance.items():
        _say(args, f"{key}: {value}")
    _say(args, f"reports in {config.out_dir}")
    return 0 if all_pass(acceptance) else ACCEPTANCE_FAILURE


def _cmd_validate(args) -> int:
    checked = 0
    pool = None
    if args.domain:
        domain = load_domain(args.domain)
        _say(args, f"domain {domain.name}: {len(domain.eqsets)} candidate sets, "
                   f"{len(domain.templates)} templates")
        checked += 1
    if args.pool:
        pool = load_pool(args.pool)
        _say(args, f"pool {args.pool}: {len(pool)} passes")
        checked += 1
    if args.registry:
        registry = Registry.load(args.registry)
        if pool is not None:
            _check_registry(registry, pool)
        _say(args, f"registry {args.registry}: {len(registry.users)} users, N={registry.n_bits}")
        checked += 1
    if args.corpus:
        count = sum(1 for _ in iter_jsonl(args.corpus))
        _say(args, f"corpus {args.corpus}: {count} trajectories")
        checked += 1
    if args.config:
        ExperimentConfig.from_file(args.config)
        _say(args, f"config {args.config}: ok")
        checked += 1
    if checked == 0:
        raise TrajmarkError("nothing to validate; pass --domain/--pool/--registry/--corpus/--config")
    _say(args, "all inputs valid")
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="trajmark", description=__doc__)
    parser.add_argument(
        "--version", action="version",
        version=f"trajmark {__version__} (pool format v{POOL_FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=0):
        p.add_argument("--seed", type=int, default=None, help=f"root RNG seed (default {seed})")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p = sub.add_parser("genpool", help="validate candidates and build a pass pool")
    p.add_argument("--domain", required=True, help="builtin domain name or domain JSON path")
    p.add_argument("--out", required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--cases", type=int, default=100, help="sandbox validation cases per set")
    common(p)
    p.set_defaults(fn=_cmd_genpool)

    p = sub.add_parser("register", help="assign a fresh UID and pass subset")
    p.add_argument("--pool", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--domain-name", default=None)
    common(p)
    p.set_defaults(fn=_cmd_register)

    p = sub.add_parser("simulate", help="generate victim/surrogate/benign corpora")
    p.add_argument("mode", choices=("victim", "surrogate", "benign"))
    p.add_argument("--domain", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--harvest", default=None, help="harvested corpus for surrogate fitting")
    common(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("inject", help="watermark a corpus with a user's passes")
    p.add_argument("--pool", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--uid", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--edits", required=True)
    common(p)
    p.set_defaults(fn=_cmd_inject)

    p = sub.add_parser("verify", help="test a suspect dump against the full pool")
    p.add_argument("--pool", required=True)
    p.add_argument("--suspect", required=True)
    p.add_argument("--theta-j", type=float, default=DEFAULT_THETA_J)
    p.add_argument("--theta-n", type=int, default=DEFAULT_THETA_N)
    p.add_argument("--m-min", type=int, default=DEFAULT_M_MIN)
    p.add_argument("--report", default=None)
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("localize", help="rank registered users against a verdict")
    p.add_argument("--verdict", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--report", default=None, help="rewrite verdict with localization")
    common(p)
    p.set_defaults(fn=_cmd_localize)

    p = sub.add_parser("attack", help="run removal attacks and score identification")
    p.add_argument("--strategy", required=True, choices=(*STRATEGIES, "all"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--edits", default=None, help="ground-truth edit log")
    p.add_argument("--pool-candidates", default=None,
                   help="candidate sets: builtin name, domain JSON, or pool JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    p.add_argument("--p", type=float, default=DELETION_P, help="deletion probability")
    common(p)
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("experiment", help="run the reproduction harness")
    p.add_argument("stage", nargs="?", default="all", choices=("all", *STAGES))
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--domains", default=None, help="comma-separated domain list")
    common(p, seed=ExperimentConfig.seed)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("validate", help="dry-run parse inputs and cross-references")
    p.add_argument("--domain", default=None)
    p.add_argument("--pool", default=None)
    p.add_argument("--registry", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--config", default=None)
    common(p)
    p.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TrajmarkError as exc:
        print(f"trajmark: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
        print(f"trajmark: {type(exc).__name__}: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
