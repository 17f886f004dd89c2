"""Experiment harness: the full desk-scale reproduction loop.

Stages mirror the evaluation artifacts the verification story rests on:

* ``f1-grid``      detection F1 over the (theta_j, theta_n) threshold grid,
                   12 imitation surrogates vs. 12 benign models per domain
* ``localization`` top-1 attacker attribution across user-pool sizes with
                   up to two dropped detections per attacker
* ``delta-kld``    watermark strength vs. distribution shift trade-off
* ``attack-bench`` identification P/R/F1 for the four removal strategies
* ``stealth``      per-trajectory divergence vs. bootstrap sampling noise
* ``closed-loop``  injection/re-estimation consistency at corpus scale
* ``eta-sweep``    detection of one attacker at several imitation fidelities

Every stage is deterministic given the config seed; all randomness flows
through named derivations of that one integer. ``STAGES`` is the one
table of stages: ``run_all`` runs it in order, writes the CSV reports plus
a summary JSON with pass/fail against the acceptance thresholds, and
``trajmark experiment <stage>`` runs one entry of it.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable, Sequence

from .attacks import (
    attack_fk_replacement,
    attack_metrics,
    attack_pk_replacement,
    attack_random_deletion,
    attack_rephrase_stub,
    semantic_breakage_rate,
)
from .equivalence import (
    Distribution,
    WatermarkPass,
    count_members,
    count_members_by_trajectory,
    js_divergence,
    kl_divergence,
)
from .errors import NoObservations
from .injector import changed_positions, watermark_corpus
from .pool import build_pool, rebias_pool
from .registry import Registry, register_user, passes_for_uid, uid_bits
from .seeds import derive_rng, derive_seed
from .simkit.domains import DomainSpec, load_domain
from .simkit.generator import generate_greybox_corpus
from .simkit.surrogate import benign_surrogate, fit_surrogate, sample_surrogate
from .verifier import f1_grid, localize_user, verify_corpus

DEFAULT_THETA_J_GRID = (0.005, 0.010, 0.015, 0.050, 0.100)
DEFAULT_THETA_N_GRID = (1, 2, 3, 4, 5)
STEALTH_CORPUS_SIZE = 4000


@dataclass
class ExperimentConfig:
    """Knobs for the harness; flags override file values, file overrides defaults."""

    domains: tuple[str, ...] = ("data", "business", "social")
    seed: int = 7
    out_dir: str = "reports"
    theta_j_list: tuple[float, ...] = DEFAULT_THETA_J_GRID
    theta_n_list: tuple[int, ...] = DEFAULT_THETA_N_GRID
    theta_j_default: float = 0.015
    theta_n_default: int = 3
    m_min: int = 30
    n_attackers: int = 12
    n_benign: int = 12
    eta: float = 1.0
    localization_extra_users: tuple[int, ...] = (0, 1000, 2000, 5000)
    localization_seeds: int = 10
    localization_max_drops: int = 2
    delta_list: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    stealth_deltas: tuple[float, ...] = (1.0, 2.0, 3.0)
    closed_loop_corpus: int = 30000
    attack_user_seed: int = 31  # registers the calibrated bench adversary
    pool_seed: int = 42

    @classmethod
    def from_file(cls, path: str, **overrides) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        raw.update({k: v for k, v in overrides.items() if v is not None})
        cfg = cls()
        for key, value in raw.items():
            if not hasattr(cfg, key):
                raise KeyError(f"unknown config key {key!r}")
            current = getattr(cfg, key)
            if isinstance(current, tuple) and not isinstance(value, tuple):
                value = tuple(value)
            setattr(cfg, key, value)
        return cfg


def _write_csv(path: str, header: Sequence[str], rows: list[list]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


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


# ---------------------------------------------------------------------------
# detection grid
# ---------------------------------------------------------------------------

def _grid_suspects(config: ExperimentConfig, domain: DomainSpec, passes):
    """Positive (eta-imitation) and negative (benign) suspect corpora."""
    sizes = domain.corpus_sizes
    victim = generate_greybox_corpus(
        domain, sizes["fit"], derive_seed(config.seed, "grid", domain.name, "victim"),
        id_prefix="v",
    )
    registry = Registry(domain.name, len(passes))
    attackers = [
        register_user(registry, derive_seed(config.seed, "grid", domain.name, "user", i))
        for i in range(config.n_attackers)
    ]
    positives, positives_low = [], []
    for i, attacker in enumerate(attackers):
        active = passes_for_uid(attacker.uid_hex, passes)
        harvested, _ = watermark_corpus(
            victim, active,
            seed=derive_seed(config.seed, "grid", domain.name, "inject", i),
            uid_hex=attacker.uid_hex,
        )
        surrogate = fit_surrogate(harvested, domain, eta=config.eta)
        positives.append(
            sample_surrogate(
                surrogate, domain, sizes["verify"],
                derive_seed(config.seed, "grid", domain.name, "sample", i),
            )
        )
        positives_low.append(
            sample_surrogate(
                surrogate, domain, sizes["verify_low"],
                derive_seed(config.seed, "grid", domain.name, "sample-low", i),
            )
        )
    negatives = [
        sample_surrogate(
            benign_surrogate(domain), domain, sizes["verify"],
            derive_seed(config.seed, "grid", domain.name, "benign", j),
        )
        for j in range(config.n_benign)
    ]
    return positives, positives_low, negatives, attackers


def run_f1_grid(config: ExperimentConfig, pools: PoolAccessor) -> dict:
    """Detection performance across threshold configurations, per domain."""
    rows = []
    checks = {}
    for name in config.domains:
        domain, passes = pools(name)
        positives, positives_low, negatives, _ = _grid_suspects(config, domain, passes)
        cells = f1_grid(
            positives, negatives, passes,
            config.theta_j_list, config.theta_n_list, config.m_min,
        )
        for cell in cells:
            rows.append(
                [name, cell.theta_j, cell.theta_n,
                 round(cell.precision, 6), round(cell.recall, 6), round(cell.f1, 6)]
            )
        by_key = {(c.theta_j, c.theta_n): c for c in cells}
        default_cell = by_key[(config.theta_j_default, config.theta_n_default)]
        loose_j = max(config.theta_j_list)
        # low-volume suspects at the strictest pass-count threshold
        high_n = max(config.theta_n_list)
        missed = 0
        for corpus in positives_low:
            verdict = verify_corpus(
                corpus, passes, config.theta_j_default, high_n, config.m_min
            )
            if not verdict.classified_as_imitation:
                missed += 1
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
    Per attacker, up to ``localization_max_drops`` detected bits are
    dropped (uniformly chosen count) to model imitation signal loss, and
    the damaged vector is matched against the registry.
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
                n_drop = drop_rng.randint(0, config.localization_max_drops)
                for pos in drop_rng.sample(set_positions, min(n_drop, len(set_positions))):
                    bits[pos] = 0
                damaged.append(bits)
            for extra in config.localization_extra_users:
                view = Registry(
                    domain.name, n_bits, registry.w_min, registry.w_max,
                    users=registry.users[: config.n_attackers + extra],
                )
                for attacker, bits in zip(attackers, damaged):
                    ranking = localize_user(bits, view)
                    tallies[extra][1] += 1
                    if ranking[0][0] == attacker.uid_hex:
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
    for delta in config.delta_list:
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
    zero_at_zero = all(
        series[i] == 0.0
        for series in per_pass_series.values()
        for i, d in enumerate(config.delta_list)
        if d == 0.0
    )
    return {
        "rows": rows,
        "strictly_increasing": strictly_increasing,
        "zero_at_zero": zero_at_zero,
    }


# ---------------------------------------------------------------------------
# attack bench
# ---------------------------------------------------------------------------

def run_attack_bench(config: ExperimentConfig, pools: PoolAccessor) -> dict:
    """Table-shaped identification metrics for all four strategies."""
    name = config.domains[0]
    domain, passes = pools(name)
    sizes = domain.corpus_sizes
    registry = Registry(domain.name, len(passes))
    attacker = register_user(registry, config.attack_user_seed)
    active = passes_for_uid(attacker.uid_hex, passes)
    victim = generate_greybox_corpus(
        domain, sizes["attack"], derive_seed(config.seed, "attack", "victim"),
        id_prefix="a",
    )
    wm, edits = watermark_corpus(
        victim, active, seed=derive_seed(config.seed, "attack", "inject"),
        uid_hex=attacker.uid_hex,
    )
    truth = changed_positions(edits)

    baseline = verify_corpus(
        sample_surrogate(
            fit_surrogate(wm, domain, eta=1.0), domain, sizes["verify"],
            derive_seed(config.seed, "attack", "baseline"),
        ),
        passes, config.theta_j_default, config.theta_n_default, config.m_min,
    )

    outcomes = [
        attack_random_deletion(wm, 0.1, derive_seed(config.seed, "attack", "del")),
        attack_rephrase_stub(wm, derive_seed(config.seed, "attack", "rephrase")),
        attack_pk_replacement(
            wm, list(domain.sandbox.tools), derive_seed(config.seed, "attack", "pk")
        ),
        attack_fk_replacement(
            wm, domain.eqsets, derive_seed(config.seed, "attack", "fk")
        ),
    ]
    rows = []
    metrics = {}
    for outcome in outcomes:
        m = attack_metrics(outcome, truth, wm)
        breakage = semantic_breakage_rate(wm, outcome, domain.sandbox, limit=500)
        post = verify_corpus(
            sample_surrogate(
                fit_surrogate(outcome.attacked, domain, eta=1.0),
                domain, sizes["verify"],
                derive_seed(config.seed, "attack", "post", outcome.strategy),
            ),
            passes, config.theta_j_default, config.theta_n_default, config.m_min,
        )
        metrics[outcome.strategy] = {
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
            [outcome.strategy, round(m.precision, 6), round(m.recall, 6),
             round(m.f1, 6), round(m.modification_rate, 6), round(breakage, 6),
             post.n_det, baseline.n_det]
        )
    return {"rows": rows, "metrics": metrics}


# ---------------------------------------------------------------------------
# stealth: per-trajectory divergence vs. bootstrap noise
# ---------------------------------------------------------------------------

def _bootstrap_q99(natural, m: int, rng, draws: int = 10000) -> float:
    """99th percentile of JSD(empirical of m natural draws, natural).

    Only C(m+k-1, k-1) count vectors exist for m draws over k members, so
    the JSD is computed once per distinct vector; every draw is still taken.
    """
    values = []
    jsd_of: dict[tuple[int, ...], float] = {}
    k = len(natural)
    for _ in range(draws):
        counts = [0] * k
        for _ in range(m):
            counts[natural.sample(rng)] += 1
        key = tuple(counts)
        jsd = jsd_of.get(key)
        if jsd is None:
            emp = Distribution(tuple(c / m for c in counts))
            jsd = jsd_of[key] = js_divergence(emp, natural)
        values.append(jsd)
    values.sort()
    return values[min(draws - 1, int(0.99 * draws))]


def run_stealth(config: ExperimentConfig, pools: PoolAccessor) -> dict:
    """Check watermarked trajectories hide inside natural sampling noise.

    The attacker's filtering decision is per trajectory, so the comparison
    unit is one trajectory's per-set empirical distribution at its own
    occurrence count m: its JSD to natural must not exceed the bootstrap
    99th percentile of benign same-m noise more often than slack allows.
    """
    name = config.domains[0]
    domain, base_passes = pools(name)
    victim = generate_greybox_corpus(
        domain, STEALTH_CORPUS_SIZE, derive_seed(config.seed, "stealth", "victim"),
        id_prefix="st",
    )
    registry = Registry(domain.name, len(base_passes))
    user = register_user(registry, derive_seed(config.seed, "stealth", "user"))
    rows = []
    worst = {}
    boot_cache: dict[tuple, float] = {}
    boot_rng = derive_rng(config.seed, "stealth", "bootstrap")
    for delta in config.stealth_deltas:
        passes = rebias_pool(base_passes, delta)
        active = passes_for_uid(user.uid_hex, passes)
        wm, _ = watermark_corpus(
            victim, active, seed=derive_seed(config.seed, "stealth", "inject", delta),
            uid_hex=user.uid_hex,
        )
        eqsets = [p.eqset for p in passes]
        rows_by_traj = count_members_by_trajectory(wm, eqsets)
        max_exceed = 0.0
        for p_idx, wm_pass in enumerate(passes):
            natural = wm_pass.natural
            exceed = 0
            total = 0
            for traj_rows in rows_by_traj:
                counts = traj_rows[p_idx]
                m = sum(counts)
                if m == 0:
                    continue
                key = (natural.weights, m)
                if key not in boot_cache:
                    boot_cache[key] = _bootstrap_q99(natural, m, boot_rng)
                emp = Distribution(tuple(c / m for c in counts))
                total += 1
                if js_divergence(emp, natural) > boot_cache[key] + 1e-9:
                    exceed += 1
            rate = exceed / total if total else 0.0
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
    registry = Registry(domain.name, len(passes))
    user = register_user(registry, derive_seed(config.seed, "loop", "user"))
    active = passes_for_uid(user.uid_hex, passes)
    victim = generate_greybox_corpus(
        domain, config.closed_loop_corpus,
        derive_seed(config.seed, "loop", "victim"), id_prefix="cl",
    )
    wm, _ = watermark_corpus(
        victim, active, seed=derive_seed(config.seed, "loop", "inject"),
        uid_hex=user.uid_hex,
    )
    per_set = {}
    counts = count_members(wm, [p.eqset for p in active])
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
    the holistic threshold.
    """
    name = config.domains[0]
    domain, passes = pools(name)
    sizes = domain.corpus_sizes
    registry = Registry(domain.name, len(passes))
    attacker = register_user(registry, derive_seed(config.seed, "eta", "user"))
    active = passes_for_uid(attacker.uid_hex, passes)
    victim = generate_greybox_corpus(
        domain, sizes["fit"], derive_seed(config.seed, "eta", "victim"), id_prefix="e"
    )
    harvested, _ = watermark_corpus(
        victim, active, seed=derive_seed(config.seed, "eta", "inject"),
        uid_hex=attacker.uid_hex,
    )
    rows = []
    for eta in (0.7, 0.85, 1.0):
        surrogate = fit_surrogate(harvested, domain, eta=eta)
        suspect = sample_surrogate(
            surrogate, domain, sizes["verify"],
            derive_seed(config.seed, "eta", "sample", eta),
        )
        verdict = verify_corpus(
            suspect, passes, config.theta_j_default, config.theta_n_default,
            config.m_min,
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


def run_stage(name: str, config: ExperimentConfig, pools: PoolAccessor) -> tuple[dict, dict]:
    """Run one stage, write its report, and return (result, acceptance entries).

    The stage function is looked up by its module-global name
    ``run_<stage>`` at call time, so a wrapper set on that name sees the call.
    """
    stage = STAGES[name]
    result = globals()["run_" + name.replace("-", "_")](config, pools)
    if stage.report is not None:
        _write_csv(os.path.join(config.out_dir, stage.report), stage.header, result["rows"])
    return result, stage.acceptance(config, result)


def _write_summary(config: ExperimentConfig, summary: dict) -> None:
    with open(os.path.join(config.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")


def run_all(config: ExperimentConfig) -> dict:
    """Run every stage, write reports, and score acceptance thresholds.

    Each domain's pool is built once for the whole run. If a stage fails,
    the stages completed so far are recorded in the summary manifest
    before the error propagates.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    pools = pool_accessor(config)
    completed: list[str] = []
    results: dict[str, dict] = {}
    acceptance: dict = {}
    try:
        for name in STAGES:
            results[name], entries = run_stage(name, config, pools)
            acceptance.update(entries)
            completed.append(name)
    except Exception as exc:
        _write_summary(config, {
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
        "all_pass": all(v for v in acceptance.values() if isinstance(v, bool)),
    }
    _write_summary(config, summary)
    return summary
