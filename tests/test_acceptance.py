"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with ``-s`` to see them
live) and asserts both the criterion and its runtime budget. The heavy
stages reuse the experiment harness, so the numbers here are the same ones
``trajmark experiment`` reports. They share one pool accessor, so each
domain's pool is built once for the whole session, as in one run.
"""

import math
import random
import time

import pytest

from trajmark.attacks import attack_pk_replacement, semantic_breakage_rate
from trajmark.equivalence import Distribution, derive_target_distribution
from trajmark.experiment import (
    ExperimentConfig,
    pool_accessor,
    run_attack_bench,
    run_closed_loop,
    run_delta_kld,
    run_f1_grid,
    run_localization,
    run_stealth,
)
from trajmark.injector import watermark_corpus
from trajmark.registry import Registry, capacity, passes_for_uid, register_user
from trajmark.simkit.generator import generate_greybox_corpus
from trajmark.simkit.sandbox import segments_equivalent


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def config():
    return ExperimentConfig(seed=7, out_dir="/tmp/trajmark-acceptance")


@pytest.fixture(scope="session")
def pools(config):
    return pool_accessor(config)


def test_eq1_correctness_against_scalar_oracle():
    """Fuzzed biasing matches a direct per-component evaluation to 1e-12."""
    start = time.perf_counter()
    rng = random.Random(20260809)
    worst = 0.0
    for trial in range(10000):
        k = rng.randint(2, 6)
        raw = [rng.random() + 1e-6 for _ in range(k)]
        if trial % 7 == 0 and k > 2:
            raw[rng.randrange(k)] = 0.0
        total = math.fsum(raw)
        weights = tuple(w / total for w in raw)
        natural = Distribution(weights)
        t = rng.randrange(k)
        delta = 0.0 if trial % 11 == 0 else rng.random() * 20.0
        got = derive_target_distribution(natural, t, delta).weights
        # brute-force scalar oracle: plain formula, reversed-order summation
        scaled = [w * math.exp(delta) if j == t else w for j, w in enumerate(weights)]
        z = 0.0
        for s in reversed(scaled):
            z += s
        expected = [s / z for s in scaled]
        if delta == 0.0:
            assert got == weights  # exact identity, not just approximate
        for g, e in zip(got, expected):
            worst = max(worst, abs(g - e))
        assert abs(math.fsum(got) - 1.0) <= 1e-12
    elapsed = time.perf_counter() - start
    report(
        "eq1-correctness",
        worst <= 1e-12 and elapsed < 5.0,
        f"worst |diff|={worst:.2e} over 10000 triples in {elapsed:.2f}s",
    )


def test_uid_capacity_exact():
    """The weight-banded UID space matches the big-integer oracle exactly."""
    start = time.perf_counter()
    # independent oracle: Pascal's triangle, no math.comb
    row = [1]
    for _ in range(39):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    oracle = sum(row[5:21])
    value = capacity(39, 5, 20)
    elapsed = time.perf_counter() - start
    report(
        "uid-capacity",
        value == oracle == 343801079183 and abs(value / 1e11 - 3.43) < 0.01
        and elapsed < 1.0,
        f"capacity(39,5,20)={value} (~{value / 1e9:.1f} billion) in {elapsed:.2f}s",
    )


def test_closed_loop_distribution_recovery(config, pools):
    """30k watermarked trajectories re-estimate every biased target to L1<0.05."""
    start = time.perf_counter()
    result = run_closed_loop(config, pools)
    elapsed = time.perf_counter() - start
    counts = [v["count"] for v in result["per_set"].values()]
    report(
        "closed-loop-recovery",
        result["max_l1"] < 0.05 and elapsed < 120.0,
        f"max L1={result['max_l1']:.4f} over {result['n_active']} active sets "
        f"(min count {min(counts)}) in {elapsed:.1f}s",
    )


def test_detection_grid(config, pools):
    """F1=1.0 at the default cell; threshold extremes degrade as expected."""
    start = time.perf_counter()
    result = run_f1_grid(config, pools)
    elapsed = time.perf_counter() - start
    checks = result["checks"]
    f1_ok = all(c["f1_at_default"] == 1.0 for c in checks.values())
    precision_ok = all(c["precision_at_loose_theta_n1"] < 1.0 for c in checks.values())
    recall_ok = all(
        c["recall_low_volume_theta_n_max"] < 1.0 for c in checks.values()
    )
    detail = ", ".join(
        f"{name}: f1={c['f1_at_default']:.2f} "
        f"p@(0.1,1)={c['precision_at_loose_theta_n1']:.2f} "
        f"rlow@5={c['recall_low_volume_theta_n_max']:.2f}"
        for name, c in checks.items()
    )
    report(
        "detection-grid",
        f1_ok and precision_ok and recall_ok and elapsed < 900.0,
        f"{detail} in {elapsed:.0f}s",
    )


def test_localization_accuracy(config, pools):
    """Top-1 attribution >= 0.9 at 12+5000 users with up to 2 dropped bits."""
    start = time.perf_counter()
    loc_config = ExperimentConfig(
        seed=config.seed, out_dir=config.out_dir, domains=("data",)
    )
    result = run_localization(loc_config, pools)
    elapsed = time.perf_counter() - start
    accuracy = result["accuracy"]["data"][12 + 5000]
    report(
        "localization",
        accuracy >= 0.9 and elapsed < 600.0,
        f"top-1 at 12+5000 users = {accuracy:.3f} over "
        f"{loc_config.localization_seeds} seeds in {elapsed:.0f}s",
    )


def test_attack_bench(config, pools):
    """Identification bands: deletion/PK under 0.05, FK in (0.1, 0.5) above both."""
    start = time.perf_counter()
    result = run_attack_bench(config, pools)
    elapsed = time.perf_counter() - start
    m = result["metrics"]
    deletion, pk, fk = m["random-deletion"]["f1"], m["pk-replace"]["f1"], m["fk-replace"]["f1"]
    ok = (
        deletion < 0.05
        and pk < 0.05
        and 0.1 < fk < 0.5
        and fk > deletion
        and fk > pk
        and elapsed < 600.0
    )
    report(
        "attack-bench",
        ok,
        f"del={deletion:.4f} pk={pk:.4f} fk={fk:.4f} "
        f"(fk P={m['fk-replace']['precision']:.3f} R={m['fk-replace']['recall']:.3f}) "
        f"in {elapsed:.0f}s",
    )


def test_semantic_preservation(pools):
    """1,000 sampled rewrites all execute identically; blind swaps do not."""
    start = time.perf_counter()
    domain, passes = pools("data")
    registry = Registry("data", len(passes))
    # a heavy user maximizes rewrite yield per trajectory
    user = register_user(registry, rng_seed=14)
    active = passes_for_uid(user.uid_hex, passes)
    corpus = generate_greybox_corpus(domain, 3000, seed=81, id_prefix="sp")
    _, edits_by_traj = watermark_corpus(corpus, active, seed=82, uid_hex=user.uid_hex)
    schemes = {p.pass_id: p.eqset.scheme for p in passes}
    checked = 0
    broken = 0
    for edits in edits_by_traj:
        for edit in edits:
            if not edit.changed or checked >= 1000:
                continue
            env = {}
            for action in edit.original_actions + edit.rewritten_actions:
                for _, value in action.args:
                    if isinstance(value, str):
                        env[value] = f"data:{value}"
            if not segments_equivalent(
                edit.original_actions, edit.rewritten_actions, domain.sandbox,
                env, erase_ancillary=schemes[edit.pass_id] == "AE",
            ):
                broken += 1
            checked += 1
    # contrast: blind name-similarity swaps must break a nonzero fraction
    wm_sample = corpus[:400]
    pk = attack_pk_replacement(wm_sample, list(domain.sandbox.tools), rng_seed=83)
    pk_breakage = semantic_breakage_rate(wm_sample, pk, domain.sandbox, limit=400)
    elapsed = time.perf_counter() - start
    report(
        "semantic-preservation",
        checked >= 1000 and broken == 0 and pk_breakage > 0.0 and elapsed < 300.0,
        f"{checked} edits, {broken} broken; PK breakage {pk_breakage:.2f} "
        f"in {elapsed:.0f}s",
    )


def test_delta_kld_tradeoff(config, pools):
    """KLD(biased, natural) rises strictly with delta for every pool set."""
    start = time.perf_counter()
    result = run_delta_kld(config, pools)
    elapsed = time.perf_counter() - start
    report(
        "delta-kld-tradeoff",
        result["strictly_increasing"] and result["zero_at_zero"] and elapsed < 60.0,
        f"strictly increasing over deltas 0..5 for all 39 sets, "
        f"KLD(0)=0, in {elapsed:.1f}s",
    )


def test_stealth_within_sampling_noise(config, pools):
    """Per-trajectory divergences stay inside bootstrap noise for delta<=3."""
    start = time.perf_counter()
    result = run_stealth(config, pools)
    elapsed = time.perf_counter() - start
    worst = max(result["worst_exceedance"].values())
    report(
        "stealth-substitute",
        worst <= 0.05 and elapsed < 300.0,
        f"worst per-set exceedance over benign q99 = {worst:.4f} "
        f"across deltas {sorted(result['worst_exceedance'])} in {elapsed:.0f}s",
    )
