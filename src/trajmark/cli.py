"""Unified command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data/schema error, 3
acceptance-threshold failure inside ``experiment``. Every command is
deterministic given ``--seed``; all randomness is derived from that one
root integer.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .attacks import (
    attack_fk_replacement,
    attack_metrics,
    attack_pk_replacement,
    attack_random_deletion,
    attack_rephrase_stub,
    semantic_breakage_rate,
)
from .errors import TrajmarkError
from .experiment import (
    STAGES,
    ExperimentConfig,
    all_pass,
    pool_accessor,
    run_all,
    run_stage,
    _write_csv,
)
from .injector import read_edit_positions, watermark_corpus, write_edits
from .pool import POOL_FORMAT_VERSION, build_pool, load_pool, pool_from_json, save_pool
from .registry import Registry, passes_for_uid, register_user
from .seeds import derive_seed
from .simkit.domains import POOL_SHAPES, DomainSpec, load_domain
from .simkit.generator import generate_greybox_corpus
from .simkit.surrogate import benign_surrogate, fit_surrogate, sample_surrogate
from .trajectory import read_json, read_jsonl, write_json, write_jsonl
from .verifier import DEFAULT_M_MIN, DEFAULT_THETA_J, DEFAULT_THETA_N, localize_user, verify_corpus

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
    if "passes" in obj:
        sets = [p.eqset for p in pool_from_json(obj)]
        tools = sorted({t for s in sets for t in s.tools()})
        return sets, tools, None
    domain = DomainSpec.from_json(obj)
    return domain.eqsets, list(domain.sandbox.tools), domain.sandbox


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
    if registry.n_bits != len(pool):
        raise TrajmarkError(
            f"registry N={registry.n_bits} does not match pool size {len(pool)}"
        )
    record = register_user(registry, rng_seed=_seed(args))
    registry.save(args.registry)
    print(record.uid_hex)
    _say(args, f"activated passes: {list(record.active_pass_ids)}")
    return 0


def _cmd_simulate(args) -> int:
    domain = load_domain(args.domain)
    n = args.n or domain.corpus_sizes["fit"]
    if args.mode == "victim":
        corpus = generate_greybox_corpus(domain, n, _seed(args), id_prefix="q")
    elif args.mode == "benign":
        corpus = sample_surrogate(
            benign_surrogate(domain), domain, n, _seed(args), id_prefix="b"
        )
    else:  # surrogate
        if not args.harvest:
            raise TrajmarkError("simulate surrogate requires --harvest")
        harvested = read_jsonl(args.harvest)
        model = fit_surrogate(harvested, domain, eta=args.eta)
        if model.missing_sets:
            _say(args, f"harvest missing sets (natural fallback): {list(model.missing_sets)}")
        corpus = sample_surrogate(model, domain, n, _seed(args), id_prefix="s")
    count = write_jsonl(args.out, corpus)
    _say(args, f"wrote {count} trajectories to {args.out}")
    return 0


def _cmd_inject(args) -> int:
    pool = load_pool(args.pool)
    registry = Registry.load(args.registry)
    known = {u.uid_hex for u in registry.users}
    if args.uid not in known:
        raise TrajmarkError(f"uid {args.uid} is not registered")
    active = passes_for_uid(args.uid, pool)
    corpus = read_jsonl(args.infile)
    wm, edits = watermark_corpus(
        corpus, active, seed=_seed(args), uid_hex=args.uid, stamp_uid=True
    )
    write_jsonl(args.out, wm)
    n_edits = write_edits(args.edits, wm, edits)
    changed = sum(1 for es in edits for e in es if e.changed)
    _say(
        args,
        f"watermarked {len(wm)} trajectories with {len(active)} passes: "
        f"{n_edits} draws, {changed} rewrites",
    )
    return 0


def _cmd_verify(args) -> int:
    pool = load_pool(args.pool)
    suspect = read_jsonl(args.suspect)
    verdict = verify_corpus(suspect, pool, args.theta_j, args.theta_n, args.m_min)
    if args.report:
        verdict.save(args.report)
    _say(args, f"passes detected: {verdict.n_det} (theta_n={args.theta_n})")
    print("imitation" if verdict.classified_as_imitation else "benign")
    return 0


def _cmd_localize(args) -> int:
    verdict_obj = read_json(args.verdict)
    registry = Registry.load(args.registry)
    vector = verdict_obj["detected_vector"]
    ranking = localize_user(vector, registry)
    for uid, sim in ranking[: args.top]:
        print(f"{uid}\t{sim:.6f}")
    if args.report:
        verdict_obj["localization"] = [
            {"uid_hex": uid, "similarity": sim} for uid, sim in ranking[: args.top]
        ]
        write_json(args.report, verdict_obj)
    return 0


_STRATEGIES = ("random-deletion", "rephrase-stub", "pk-replace", "fk-replace")


def _cmd_attack(args) -> int:
    corpus = read_jsonl(args.infile)
    truth = read_edit_positions(args.edits) if args.edits else {}
    sets, tools, sandbox = ([], [], None)
    if args.pool_candidates:
        sets, tools, sandbox = _candidate_sets(args.pool_candidates)
    strategies = _STRATEGIES if args.strategy == "all" else (args.strategy,)
    rows = []
    for strategy in strategies:
        if strategy == "random-deletion":
            outcome = attack_random_deletion(
                corpus, args.p, derive_seed(_seed(args), "attack", strategy)
            )
        elif strategy == "rephrase-stub":
            outcome = attack_rephrase_stub(
                corpus, derive_seed(_seed(args), "attack", strategy)
            )
        elif strategy == "pk-replace":
            library = tools or sorted({a.tool for t in corpus for a in t.actions})
            outcome = attack_pk_replacement(
                corpus, library, derive_seed(_seed(args), "attack", strategy)
            )
        else:
            if not sets:
                raise TrajmarkError("fk-replace requires --pool-candidates")
            outcome = attack_fk_replacement(
                corpus, sets, derive_seed(_seed(args), "attack", strategy)
            )
        out_path = args.out
        if len(strategies) > 1:
            stem, dot, ext = args.out.rpartition(".")
            out_path = f"{stem}.{strategy}.{ext}" if dot else f"{args.out}.{strategy}"
        write_jsonl(out_path, outcome.attacked)
        metrics = attack_metrics(outcome, truth, corpus)
        breakage = ""
        if sandbox is not None:
            breakage = round(
                semantic_breakage_rate(corpus, outcome, sandbox, limit=500), 6
            )
        rows.append(
            [strategy, round(metrics.precision, 6), round(metrics.recall, 6),
             round(metrics.f1, 6), round(metrics.modification_rate, 6),
             round(metrics.true_edit_rate, 6), breakage]
        )
        _say(
            args,
            f"{strategy}: P={metrics.precision:.4f} R={metrics.recall:.4f} "
            f"F1={metrics.f1:.4f} -> {out_path}",
        )
    if args.metrics:
        _write_csv(
            args.metrics,
            ["strategy", "precision", "recall", "f1", "modification_rate",
             "true_edit_rate", "breakage_rate"],
            rows,
        )
    return 0


def _cmd_experiment(args) -> int:
    if args.config:
        config = ExperimentConfig.from_file(
            args.config, seed=args.seed, out_dir=args.out_dir
        )
    else:
        config = ExperimentConfig(seed=_seed(args), out_dir=args.out_dir or "reports")
    if args.domains:
        config.domains = tuple(args.domains.split(","))
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
        if pool is not None and registry.n_bits != len(pool):
            raise TrajmarkError(
                f"registry N={registry.n_bits} does not match pool size {len(pool)}"
            )
        _say(args, f"registry {args.registry}: {len(registry.users)} users, N={registry.n_bits}")
        checked += 1
    if args.corpus:
        corpus = read_jsonl(args.corpus)
        _say(args, f"corpus {args.corpus}: {len(corpus)} trajectories")
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

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="root RNG seed (default 0)")
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
    p.add_argument("--strategy", required=True, choices=_STRATEGIES + ("all",))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--edits", default=None, help="ground-truth edit log")
    p.add_argument("--pool-candidates", default=None,
                   help="candidate sets: builtin name, domain JSON, or pool JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    p.add_argument("--p", type=float, default=0.1, help="deletion probability")
    common(p)
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("experiment", help="run the reproduction harness")
    p.add_argument("stage", nargs="?", default="all", choices=("all", *STAGES))
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--domains", default=None, help="comma-separated domain list")
    common(p)
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
    except (
        OSError, json.JSONDecodeError, KeyError, ValueError, TypeError, IndexError
    ) as exc:
        print(f"trajmark: {type(exc).__name__}: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
