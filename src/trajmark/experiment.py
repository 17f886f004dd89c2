"""Experiment harness: the full desk-scale reproduction loop.

Stages mirror the evaluation artifacts the verification story rests on:

* ``f1-grid``      detection F1 over the (theta_j, theta_n) threshold grid,
                   12 imitation surrogates vs. 12 benign models per domain
* ``localization`` top-1 attacker attribution across user-pool sizes with
                   up to two dropped detections per attacker
* ``delta-kld``    watermark strength vs. distribution shift trade-off
* ``attack-bench`` identification P/R/F1 for the four removal strategies
* ``stealth``      per-trajectory divergence vs. exact benign sampling noise
* ``closed-loop``  injection/re-estimation consistency at corpus scale
* ``eta-sweep``    detection of one attacker at several imitation fidelities

Every stage is deterministic given the config seed; all randomness flows
through named derivations of that one integer. ``STAGES`` is the one
table of stages: ``run_all`` runs it in order, writes the CSV reports plus
a summary JSON with pass/fail against the acceptance thresholds, and
``trajmark experiment <stage>`` runs one entry of it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Sequence

from .attacks import STRATEGIES, AttackTally, Knowledge
from .equivalence import (
    Distribution,
    MemberCounter,
    WatermarkPass,
    count_members,
    count_vectors,
    js_divergence,
    kl_divergence,
)
from .errors import NoObservations, SchemaViolation
from .injector import changed_in, iter_watermarked, watermarker
from .pool import build_pool, rebias_pool
from .registry import Registry, register_user, passes_for_uid, uid_bits
from .seeds import derive_rng, derive_seed
from .simkit.domains import DomainSpec, load_domain
from .simkit.generator import iter_greybox_corpus
from .simkit.surrogate import SurrogateFit
from .trajectory import _gc_paused, json_value, read_json, write_csv, write_json
from .verifier import (
    DEFAULT_THETA_J,
    DEFAULT_THETA_N,
    classify_evidence,
    evaluate_passes,
    f1_grid,
    localize_user,
    verify_corpus,
)

DEFAULT_THETA_J_GRID = (0.005, 0.010, 0.015, 0.050, 0.100)
DEFAULT_THETA_N_GRID = (1, 2, 3, 4, 5)
LOCALIZATION_MAX_DROPS = 2
DELTA_SWEEP = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
STEALTH_DELTAS = (1.0, 2.0, 3.0)
STEALTH_CORPUS_SIZE = 4000
ATTACK_USER_SEED = 31  # registers the calibrated bench adversary

# the least value of each count; a tuple's minimum holds for every item
_MINIMUMS = {
    "n_attackers": 1,
    "n_benign": 1,
    "localization_extra_users": 0,
    "localization_seeds": 1,
    "closed_loop_corpus": 1,
}


@dataclass
class ExperimentConfig:
    """What a run may vary; ``from_file`` builds it from defaults, a file and flags.

    The thresholds, sweeps and seeds that the acceptance gates are defined
    at are module constants; the default seed is the one they are pinned at.
    """

    domains: tuple[str, ...] = ("data", "business", "social")
    seed: int = 7
    out_dir: str = "reports"
    n_attackers: int = 12
    n_benign: int = 12
    localization_extra_users: tuple[int, ...] = (0, 1000, 2000, 5000)
    localization_seeds: int = 10
    closed_loop_corpus: int = 30000
    pool_seed: ClassVar[int] = 42

    @classmethod
    def from_file(cls, path: str | None, **flags) -> "ExperimentConfig":
        """The defaults, then the JSON object at ``path`` if given, then each flag not None.

        The file's keys name fields and match their defaults' types. A
        tuple field takes a non-empty array; a count below ``_MINIMUMS``, an
        empty domain name, a domain listed twice and an empty ``out_dir``
        are refused.
        """
        where = f"config: {path}: $"
        defaults = {f.name: f.default for f in fields(cls)}
        raw = {} if path is None else json_value(read_json(path), dict, where)
        values = {}
        for key in raw:
            if key not in defaults:
                raise SchemaViolation(f"{where}: unknown key {key!r}")
            many = isinstance(defaults[key], tuple)
            kind = [type(defaults[key][0])] if many else type(defaults[key])
            value = json_value(raw, kind, where, key, minimum=_MINIMUMS.get(key))
            if many and not value:
                raise SchemaViolation(f"{where}.{key}: expected a non-empty array")
            if key == "domains" and (i := bad_domain(value)) is not None:
                raise SchemaViolation(
                    f"{where}.domains[{i}]: expected a domain name, got ''" if not value[i]
                    else f"{where}.domains: domain {value[i]!r} is listed twice"
                )
            if key == "out_dir" and not value:
                raise SchemaViolation(f"{where}.out_dir: expected a directory name, got ''")
            values[key] = tuple(value) if many else value
        values.update({k: v for k, v in flags.items() if v is not None})
        return cls(**values)


def bad_domain(names: Sequence[str]) -> int | None:
    """The index of the first empty name or repeated name in ``names``, or None.

    A run keys its reports by domain name, so a domain listed twice
    would run twice and write each of its rows twice.
    """
    seen: set[str] = set()
    for i, name in enumerate(names):
        if not name or name in seen:
            return i
        seen.add(name)
    return None


PoolAccessor = Callable[[str], tuple[DomainSpec, list[WatermarkPass]]]


def pool_accessor(config: ExperimentConfig) -> PoolAccessor:
    """``pools(name) -> (domain, passes)`` for one run.

    Each domain's pool is built at ``config.pool_seed`` on first use and
    kept only as long as the returned function: a domain may be a file
    whose content changes between runs, so nothing outlives the run.
    """
    built: dict[str, tuple[DomainSpec, list[WatermarkPass]]] = {}

    def pools(name: str):
        if name not in built:
            domain = load_domain(name)
            built[name] = (domain, build_pool(domain, seed=config.pool_seed)[0])
        return built[name]

    return pools


def _watermarked_victim(config, domain, passes, tag, size, id_prefix, user_seed=None):
    """``(active passes, stream)`` of one fresh user's watermarked victim corpus.

    The stream draws each victim trajectory and yields it watermarked,
    with its edit records, so the caller holds only what it keeps. Every
    seed derives from ``config.seed`` and ``tag``; ``user_seed``, when
    given, registers the user in place of the derived one.
    """
    if user_seed is None:
        user_seed = derive_seed(config.seed, tag, "user")
    user = register_user(Registry(domain.name, len(passes)), user_seed)
    active = passes_for_uid(user.uid_hex, passes)
    victim = iter_greybox_corpus(
        domain, size, derive_seed(config.seed, tag, "victim"), id_prefix=id_prefix
    )
    return active, iter_watermarked(
        victim, active, seed=derive_seed(config.seed, tag, "inject"), uid_hex=user.uid_hex
    )


# ---------------------------------------------------------------------------
# detection grid
# ---------------------------------------------------------------------------

def _grid_evidence(config: ExperimentConfig, domain: DomainSpec, passes):
    """Evidence of the positive (eta-imitation) and negative (benign) suspects.

    Returns ``(positives, positives_low, negatives)``, each a list of
    per-suspect ``evaluate_passes`` results. The victim corpus is drawn
    once: each trajectory is watermarked for every attacker and added to
    that attacker's harvest fit as it is drawn. Each suspect dump is
    counted as it is drawn.
    """
    sizes = domain.corpus_sizes
    registry = Registry(domain.name, len(passes))
    harvests = []
    for i in range(config.n_attackers):
        attacker = register_user(registry, derive_seed(config.seed, "grid", domain.name, "user", i))
        mark = watermarker(
            passes_for_uid(attacker.uid_hex, passes),
            seed=derive_seed(config.seed, "grid", domain.name, "inject", i),
            uid_hex=attacker.uid_hex,
        )
        harvests.append((mark, SurrogateFit(domain)))
    for traj in iter_greybox_corpus(
        domain, sizes["fit"], derive_seed(config.seed, "grid", domain.name, "victim"),
        id_prefix="v",
    ):
        for mark, fit in harvests:
            fit.add(mark(traj)[0])
    positives, positives_low = [], []
    for i, (_, fit) in enumerate(harvests):
        surrogate = fit.model(1.0).domain
        positives.append(evaluate_passes(iter_greybox_corpus(
            surrogate, sizes["verify"],
            derive_seed(config.seed, "grid", domain.name, "sample", i), "s",
        ), passes))
        positives_low.append(evaluate_passes(iter_greybox_corpus(
            surrogate, sizes["verify_low"],
            derive_seed(config.seed, "grid", domain.name, "sample-low", i), "s",
        ), passes))
    negatives = [
        evaluate_passes(iter_greybox_corpus(
            domain, sizes["verify"],
            derive_seed(config.seed, "grid", domain.name, "benign", j), "s",
        ), passes)
        for j in range(config.n_benign)
    ]
    return positives, positives_low, negatives


def run_f1_grid(config: ExperimentConfig, pools: PoolAccessor) -> dict:
    """Detection performance across threshold configurations, per domain."""
    rows = []
    checks = {}
    for name in config.domains:
        domain, passes = pools(name)
        positives, positives_low, negatives = _grid_evidence(config, domain, passes)
        cells = f1_grid(positives, negatives, DEFAULT_THETA_J_GRID, DEFAULT_THETA_N_GRID)
        for cell in cells:
            rows.append(
                [name, cell.theta_j, cell.theta_n,
                 round(cell.precision, 6), round(cell.recall, 6), round(cell.f1, 6)]
            )
        by_key = {(c.theta_j, c.theta_n): c for c in cells}
        default_cell = by_key[(DEFAULT_THETA_J, DEFAULT_THETA_N)]
        loose_j = max(DEFAULT_THETA_J_GRID)
        # low-volume suspects at the strictest pass-count threshold
        high_n = max(DEFAULT_THETA_N_GRID)
        missed = sum(not classify_evidence(evs, theta_n=high_n).classified_as_imitation
                     for evs in positives_low)
        recall_low = 1.0 - missed / len(positives_low)
        checks[name] = {
            "f1_at_default": default_cell.f1,
            "precision_at_loose_theta_n1": by_key[(loose_j, 1)].precision,
            "recall_low_volume_theta_n_max": recall_low,
        }
    return {"rows": rows, "checks": checks}


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def run_localization(config: ExperimentConfig, pools: PoolAccessor) -> dict:
    """Top-1 attribution accuracy across user-pool sizes.

    Attackers register first; each seed then adds a fresh benign pool.
    Per attacker, up to ``LOCALIZATION_MAX_DROPS`` detected bits are
    dropped (uniformly chosen count) to model imitation signal loss, and
    the damaged vector is ranked once; a pool of the first ``n`` users
    accuses the first entry of that ranking registered among them.
    """
    rows = []
    accuracy: dict[str, dict[int, float]] = {}
    max_extra = max(config.localization_extra_users)
    for name in config.domains:
        domain, passes = pools(name)
        n_bits = len(passes)
        tallies = {extra: [0, 0] for extra in config.localization_extra_users}
        for seed_idx in range(config.localization_seeds):
            registry = Registry(domain.name, n_bits)
            attackers = [
                register_user(
                    registry, derive_seed(config.seed, "loc", name, seed_idx, "att", i)
                )
                for i in range(config.n_attackers)
            ]
            for j in range(max_extra):
                register_user(
                    registry, derive_seed(config.seed, "loc", name, seed_idx, "ben", j)
                )
            drop_rng = derive_rng(config.seed, "loc", name, seed_idx, "drops")
            damaged = []
            for attacker in attackers:
                bits = list(uid_bits(attacker.uid_int(), n_bits))
                set_positions = [i for i, b in enumerate(bits) if b]
                n_drop = drop_rng.randint(0, LOCALIZATION_MAX_DROPS)
                for pos in drop_rng.sample(set_positions, min(n_drop, len(set_positions))):
                    bits[pos] = 0
                damaged.append(bits)
            index = {user.uid_hex: i for i, user in enumerate(registry.users)}
            for attacker, bits in zip(attackers, damaged):
                ranking = localize_user(bits, registry)
                for extra in config.localization_extra_users:
                    top = next(uid for uid, _ in ranking if index[uid] < config.n_attackers + extra)
                    tallies[extra][1] += 1
                    if top == attacker.uid_hex:
                        tallies[extra][0] += 1
        accuracy[name] = {}
        for extra in config.localization_extra_users:
            hits, trials = tallies[extra]
            acc = hits / trials
            accuracy[name][12 + extra] = acc
            rows.append([name, 12 + extra, round(acc, 6)])
    return {"rows": rows, "accuracy": accuracy}


# ---------------------------------------------------------------------------
# delta / KLD trade-off
# ---------------------------------------------------------------------------

def run_delta_kld(config: ExperimentConfig, pools: PoolAccessor) -> dict:
    """KLD between the biased and natural distribution, swept over delta."""
    name = config.domains[0]
    domain, passes = pools(name)
    rows = []
    per_pass_series = {p.pass_id: [] for p in passes}
    for delta in DELTA_SWEEP:
        shifted = rebias_pool(passes, delta)
        klds = [kl_divergence(p.biased, p.natural) for p in shifted]
        for p, v in zip(shifted, klds):
            per_pass_series[p.pass_id].append(v)
        rows.append(
            [delta, round(sum(klds) / len(klds), 6), round(min(klds), 6), round(max(klds), 6)]
        )
    strictly_increasing = all(
        all(a < b for a, b in zip(series, series[1:]))
        for series in per_pass_series.values()
    )
    # DELTA_SWEEP starts at 0.0
    zero_at_zero = all(series[0] == 0.0 for series in per_pass_series.values())
    return {
        "rows": rows,
        "strictly_increasing": strictly_increasing,
        "zero_at_zero": zero_at_zero,
    }


# ---------------------------------------------------------------------------
# attack bench
# ---------------------------------------------------------------------------

def run_attack_bench(config: ExperimentConfig, pools: PoolAccessor) -> dict:
    """Table-shaped identification metrics for all four strategies.

    The victim is drawn and watermarked once. Each watermarked trajectory
    goes to the baseline fit and to every strategy; each strategy's
    attacked trajectory goes to its own fit and its ``AttackTally`` as it
    is made. No corpus is held, and every suspect is counted as it is
    drawn.
    """
    name = config.domains[0]
    domain, passes = pools(name)
    sizes = domain.corpus_sizes
    _, stream = _watermarked_victim(
        config, domain, passes, "attack", sizes["attack"], "a", ATTACK_USER_SEED
    )
    knowledge = Knowledge(tool_library=list(domain.sandbox.tools), candidate_sets=domain.eqsets)
    baseline_fit = SurrogateFit(domain)
    attackers = [
        (name, strategy.start(derive_seed(config.seed, "attack", strategy.label), knowledge),
         SurrogateFit(domain), AttackTally(domain.sandbox))
        for name, strategy in STRATEGIES.items()
    ]
    for idx, (traj, edits) in enumerate(stream):
        baseline_fit.add(traj)
        truth = changed_in(edits)
        for _, run, fit, tally in attackers:
            step = run.step(idx, traj)
            if step.trajectory is not None:
                fit.add(step.trajectory)
            tally.add(traj, truth, step)

    def imitation(fit, seed):
        """The verdict on the surrogate ``fit`` gives."""
        surrogate = fit.model(1.0).domain
        return verify_corpus(iter_greybox_corpus(surrogate, sizes["verify"], seed, "s"), passes)

    baseline = imitation(baseline_fit, derive_seed(config.seed, "attack", "baseline"))
    rows = []
    metrics = {}
    for name, run, fit, tally in attackers:
        m = tally.metrics(run.flag_keys())
        breakage = tally.breakage_rate()
        post = imitation(fit, derive_seed(config.seed, "attack", "post", name))
        metrics[name] = {
            "precision": m.precision,
            "recall": m.recall,
            "f1": m.f1,
            "modification_rate": m.modification_rate,
            "true_edit_rate": m.true_edit_rate,
            "breakage_rate": breakage,
            "post_attack_n_det": post.n_det,
            "baseline_n_det": baseline.n_det,
        }
        rows.append(
            [name, round(m.precision, 6), round(m.recall, 6),
             round(m.f1, 6), round(m.modification_rate, 6), round(breakage, 6),
             post.n_det, baseline.n_det]
        )
    return {"rows": rows, "metrics": metrics}


# ---------------------------------------------------------------------------
# stealth: per-trajectory divergence vs. exact benign noise
# ---------------------------------------------------------------------------

def noise_q99(natural: Distribution, m: int) -> float:
    """The exact 99th percentile of JSD(empirical of m natural draws, natural).

    Each count vector of m draws is one atom, its JSD to ``natural`` with
    its multinomial probability. The percentile is the smallest atom whose
    running probability, summed in ascending-JSD order, exceeds 0.99 by
    more than 1e-12, so a CDF that is 0.99 in real arithmetic but lands
    on either side of it in floats (natural (0.9, 0.1) at m = 2) does not
    exceed it, and the next atom up is taken.
    """
    atoms = sorted(
        (js_divergence(Distribution(tuple(c / m for c in counts)), natural), prob)
        for counts, prob in count_vectors(natural, m)
    )
    cdf = 0.0
    for jsd, prob in atoms:
        cdf += prob
        if cdf > 0.99 + 1e-12:
            break
    return jsd


def run_stealth(config: ExperimentConfig, pools: PoolAccessor) -> dict:
    """Check watermarked trajectories hide inside natural sampling noise.

    The attacker's filtering decision is per trajectory, so the comparison
    unit is one trajectory's per-set empirical distribution at its own
    occurrence count m: its JSD to natural must not exceed the exact 99th
    percentile of benign same-m noise (``noise_q99``) more often than
    slack allows. The victim is drawn once; each trajectory is watermarked
    and counted at every delta as it is drawn, and only a tally per delta
    and pass is kept.
    """
    name = config.domains[0]
    domain, base_passes = pools(name)
    registry = Registry(domain.name, len(base_passes))
    user = register_user(registry, derive_seed(config.seed, "stealth", "user"))
    pools_by_delta = [rebias_pool(base_passes, delta) for delta in STEALTH_DELTAS]
    marks = [
        watermarker(
            passes_for_uid(user.uid_hex, passes),
            seed=derive_seed(config.seed, "stealth", "inject", delta), uid_hex=user.uid_hex,
        )
        for delta, passes in zip(STEALTH_DELTAS, pools_by_delta)
    ]
    # rebiasing keeps every pass's set, so one counter serves every delta
    members = MemberCounter([p.eqset for p in base_passes])
    q99: dict[tuple, float] = {}
    # whether a count vector's JSD to natural exceeds q99, decided once per
    # (natural, counts): the trajectories that matched a pass share few vectors
    exceeds: dict[tuple, bool] = {}
    # per delta and pass: [trajectories whose vector exceeds q99, trajectories that matched]
    tallies = [[[0, 0] for _ in base_passes] for _ in STEALTH_DELTAS]
    for traj in iter_greybox_corpus(
        domain, STEALTH_CORPUS_SIZE, derive_seed(config.seed, "stealth", "victim"),
        id_prefix="st",
    ):
        for mark, passes, by_pass in zip(marks, pools_by_delta, tallies):
            for wm_pass, tally, counts in zip(passes, by_pass, members.of(mark(traj)[0])):
                if not any(counts):
                    continue
                natural = wm_pass.natural
                key = (natural.weights, tuple(counts))
                if key not in exceeds:
                    m = sum(counts)
                    if (natural.weights, m) not in q99:
                        q99[natural.weights, m] = noise_q99(natural, m)
                    emp = Distribution(tuple(c / m for c in counts))
                    exceeds[key] = js_divergence(emp, natural) > q99[natural.weights, m] + 1e-9
                tally[0] += exceeds[key]
                tally[1] += 1
    rows = []
    worst = {}
    for delta, by_pass in zip(STEALTH_DELTAS, tallies):
        max_exceed = 0.0
        for exceed, matched in by_pass:
            rate = exceed / matched if matched else 0.0
            max_exceed = max(max_exceed, rate)
        worst[delta] = max_exceed
        rows.append([delta, round(max_exceed, 6)])
    return {"rows": rows, "worst_exceedance": worst}


# ---------------------------------------------------------------------------
# closed-loop distribution recovery
# ---------------------------------------------------------------------------

def run_closed_loop(config: ExperimentConfig, pools: PoolAccessor) -> dict:
    """Inject at corpus scale, re-estimate, and measure recovery error."""
    name = config.domains[0]
    domain, passes = pools(name)
    active, stream = _watermarked_victim(
        config, domain, passes, "loop", config.closed_loop_corpus, "cl"
    )
    per_set = {}
    counts = count_members((t for t, _ in stream), [p.eqset for p in active])
    for wm_pass, row in zip(active, counts):
        count = sum(row)
        if count == 0:
            raise NoObservations(f"no matches for set {wm_pass.eqset.id} in corpus")
        per_set[wm_pass.eqset.id] = {
            "l1": Distribution.from_counts(row).l1_distance(wm_pass.biased),
            "count": count,
        }
    max_l1 = max(v["l1"] for v in per_set.values())
    return {"per_set": per_set, "max_l1": max_l1, "n_active": len(active)}


def run_eta_sweep(config: ExperimentConfig, pools: PoolAccessor) -> dict:
    """Detection under imperfect imitation: one attacker at several etas.

    Models the dropped-pass phenomenon: a learner that only partially
    absorbs the harvested biases still reproduces enough of them to trip
    the holistic threshold. The harvest is fitted once, as it is drawn,
    and that one fit is mixed at each eta.
    """
    name = config.domains[0]
    domain, passes = pools(name)
    sizes = domain.corpus_sizes
    active, stream = _watermarked_victim(config, domain, passes, "eta", sizes["fit"], "e")
    fit = SurrogateFit(domain)
    for traj, _ in stream:
        fit.add(traj)
    rows = []
    for eta in (0.7, 0.85, 1.0):
        verdict = verify_corpus(
            iter_greybox_corpus(
                fit.model(eta).domain, sizes["verify"],
                derive_seed(config.seed, "eta", "sample", eta), "s",
            ),
            passes,
        )
        rows.append(
            [eta, len(active), verdict.n_det, verdict.classified_as_imitation]
        )
    return {"rows": rows}


# ---------------------------------------------------------------------------
# the stage table and orchestration
# ---------------------------------------------------------------------------

def _grid_acceptance(config: ExperimentConfig, grid: dict) -> dict:
    checks = grid["checks"].values()
    return {
        "grid_f1_is_1": all(c["f1_at_default"] == 1.0 for c in checks),
        "theta_n1_precision_below_1": all(
            c["precision_at_loose_theta_n1"] < 1.0 for c in checks
        ),
        "theta_n_max_low_volume_recall_below_1": all(
            c["recall_low_volume_theta_n_max"] < 1.0 for c in checks
        ),
    }


def _localization_acceptance(config: ExperimentConfig, loc: dict) -> dict:
    # the largest pool; the key names keep the 5k of the default config
    top1 = loc["accuracy"][config.domains[0]][12 + max(config.localization_extra_users)]
    return {
        "localization_top1_at_5k_ge_0.9": top1 >= 0.9,
        "localization_top1_at_5k": top1,
    }


def _kld_acceptance(config: ExperimentConfig, kld: dict) -> dict:
    return {
        "kld_strictly_increasing": kld["strictly_increasing"],
        "kld_zero_at_delta_zero": kld["zero_at_zero"],
    }


def _attack_acceptance(config: ExperimentConfig, bench: dict) -> dict:
    f1 = {strategy: m["f1"] for strategy, m in bench["metrics"].items()}
    return {
        "deletion_f1_below_0.05": f1["random-deletion"] < 0.05,
        "pk_f1_below_0.05": f1["pk-replace"] < 0.05,
        "fk_f1_in_band": 0.1 < f1["fk-replace"] < 0.5,
        "fk_beats_pk_strategies": f1["fk-replace"] > max(
            f1["random-deletion"], f1["pk-replace"]
        ),
    }


def _stealth_acceptance(config: ExperimentConfig, stealth: dict) -> dict:
    return {
        "stealth_within_noise": all(v <= 0.05 for v in stealth["worst_exceedance"].values())
    }


def _closed_loop_acceptance(config: ExperimentConfig, loop: dict) -> dict:
    return {
        "closed_loop_max_l1_below_0.05": loop["max_l1"] < 0.05,
        "closed_loop_max_l1": loop["max_l1"],
    }


@dataclass(frozen=True)
class Stage:
    """One harness stage, keyed in ``STAGES`` by its CLI name.

    ``report`` is the CSV file in ``out_dir`` that the stage's rows go to,
    or None; ``acceptance(config, result)`` returns the stage's entries of
    ``summary.json``'s acceptance block.
    """

    report: str | None
    header: tuple[str, ...]
    acceptance: Callable[[ExperimentConfig, dict], dict]


# run order; the acceptance block of summary.json follows it
STAGES: dict[str, Stage] = {
    "f1-grid": Stage(
        "f1_grid.csv",
        ("domain", "theta_j", "theta_n", "precision", "recall", "f1"),
        _grid_acceptance,
    ),
    "localization": Stage(
        "localization.csv", ("domain", "pool_size", "top1_accuracy"),
        _localization_acceptance,
    ),
    "delta-kld": Stage(
        "delta_kld.csv", ("delta", "kld_mean", "kld_min", "kld_max"), _kld_acceptance
    ),
    "attack-bench": Stage(
        "attack_bench.csv",
        ("strategy", "precision", "recall", "f1", "modification_rate",
         "breakage_rate", "post_attack_n_det", "baseline_n_det"),
        _attack_acceptance,
    ),
    "stealth": Stage("stealth.csv", ("delta", "max_exceedance"), _stealth_acceptance),
    "closed-loop": Stage(None, (), _closed_loop_acceptance),
    "eta-sweep": Stage(
        "fidelity_eta.csv",
        ("eta", "active_passes", "n_det", "classified_as_imitation"),
        lambda config, result: {},
    ),
}


def all_pass(acceptance: dict) -> bool:
    """True when every boolean entry of an acceptance block holds."""
    return all(v for v in acceptance.values() if isinstance(v, bool))


@_gc_paused
def run_stage(name: str, config: ExperimentConfig, pools: PoolAccessor) -> tuple[dict, dict]:
    """Run one stage, write its report, and return (result, acceptance entries).

    It makes ``config.out_dir`` if missing. The stage function is looked up
    by its module-global name ``run_<stage>`` at call time, so a wrapper set
    on that name sees the call.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    stage = STAGES[name]
    result = globals()["run_" + name.replace("-", "_")](config, pools)
    if stage.report is not None:
        write_csv(os.path.join(config.out_dir, stage.report), stage.header, result["rows"])
    return result, stage.acceptance(config, result)


@_gc_paused
def run_all(config: ExperimentConfig) -> dict:
    """Run every stage, write reports, and score acceptance thresholds.

    Each domain's pool is built once for the whole run. If a stage fails,
    the stages completed so far are recorded in the summary manifest
    before the error propagates.
    """
    pools = pool_accessor(config)
    summary_path = os.path.join(config.out_dir, "summary.json")
    completed: list[str] = []
    results: dict[str, dict] = {}
    acceptance: dict = {}
    try:
        for name in STAGES:
            results[name], entries = run_stage(name, config, pools)
            acceptance.update(entries)
            completed.append(name)
    except Exception as exc:
        write_json(summary_path, {
            "completed_stages": completed,
            "failed": f"{type(exc).__name__}: {exc}",
        })
        raise
    summary = {
        "seed": config.seed,
        "completed_stages": completed,
        "f1_at_default_thresholds": {
            name: c["f1_at_default"] for name, c in results["f1-grid"]["checks"].items()
        },
        "acceptance": acceptance,
        "all_pass": all_pass(acceptance),
    }
    write_json(summary_path, summary)
    return summary
