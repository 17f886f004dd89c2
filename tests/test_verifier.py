"""Detection thresholds, classification, and localization."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pass, move_eqset
from trajmark.equivalence import Distribution, count_members, js_divergence
from trajmark.errors import EmptyRegistry
from trajmark.registry import (
    Registry,
    UserRecord,
    bits_to_uid,
    register_user,
    uid_bits,
    uid_to_hex,
)
from trajmark.verifier import (
    PassEvaluation,
    classify_model,
    localize_user,
    precision_recall_f1,
    threshold_evaluations,
    verify_corpus,
    evaluate_passes,
)
from trajmark.trajectory import Action, GreyBoxTrajectory


def traj(actions, qid="q"):
    return GreyBoxTrajectory(qid, tuple(actions), "r")


def move(src="a", dst="b"):
    return Action.make("Files.Move", {"src": src, "dst": dst})


def copy_delete(src="a", dst="b"):
    return [
        Action.make("Files.Copy", {"src": src, "dst": dst}),
        Action.make("Files.Delete", {"path": src}),
    ]


def evidence(p, empirical, count):
    """One pass's cached evidence, as ``evaluate_passes`` would record it."""
    jsd = js_divergence(empirical, p.biased) if empirical is not None else None
    return PassEvaluation(p.pass_id, empirical, count, jsd)


def detect(p, empirical, count, theta_j=0.015, m_min=30):
    return threshold_evaluations([evidence(p, empirical, count)], theta_j, m_min)[0]


def test_count_members_counts(ce_set):
    p = make_pass(ce_set, (0.6, 0.4))
    corpus = [traj([move()], "q1"), traj([move("c", "d")], "q2"),
              traj(copy_delete("e", "f"), "q3")]
    assert count_members(corpus, [ce_set]) == [[2, 1]]
    (ev,) = evaluate_passes(corpus, [p])
    assert ev.observation_count == 3
    assert ev.empirical.weights == pytest.approx((2 / 3, 1 / 3))
    assert ev.jsd_to_target == js_divergence(ev.empirical, p.biased)


def test_evaluate_passes_without_matches(ce_set):
    p = make_pass(ce_set, (0.6, 0.4))
    corpus = [traj([Action.make("X.Y", {})])]
    assert count_members(corpus, [ce_set]) == [[0, 0]]
    assert evaluate_passes(corpus, [p]) == [PassEvaluation(1, None, 0, None)]


def test_detect_exact_match_detected(ce_set):
    p = make_pass(ce_set, (0.6, 0.4), delta=3.0)
    result = detect(p, p.biased, 100)
    assert result.conclusive and result.detected
    assert result.jsd_to_target == 0.0


def test_detect_below_m_min_inconclusive(ce_set):
    p = make_pass(ce_set, (0.6, 0.4), delta=3.0)
    result = detect(p, p.biased, 29)
    assert not result.conclusive and not result.detected
    result = detect(p, None, 0)
    assert not result.conclusive and not result.detected
    assert result.jsd_to_target is None


def test_unwatermarked_suspect_not_detected(ce_set):
    # a clean model emits the natural distribution; at delta 3 that sits
    # far above the strict threshold
    p = make_pass(ce_set, (0.6, 0.4), target_index=0, delta=3.0)
    gap = js_divergence(p.natural, p.biased)
    assert gap > 0.015
    result = detect(p, p.natural, 1000)
    assert result.conclusive and not result.detected


def test_detect_theta_validation(ce_set):
    p = make_pass(ce_set, (0.6, 0.4))
    with pytest.raises(ValueError):
        detect(p, p.biased, 100, theta_j=0.0)
    with pytest.raises(ValueError):
        detect(p, p.biased, 100, theta_j=1.5)


def _results(detected_ids, n=10, counts=None):
    out = []
    for pid in range(1, n + 1):
        detected = pid in detected_ids
        out.append(
            detect_pass_result(pid, detected, (counts or {}).get(pid, 100))
        )
    return out


def detect_pass_result(pid, detected, count):
    from trajmark.verifier import DetectionResult

    return DetectionResult(
        pass_id=pid,
        empirical=Distribution((1.0,)) if count else None,
        observation_count=count,
        jsd_to_target=0.0 if detected else 0.5,
        conclusive=count >= 30,
        detected=detected,
    )


def test_classification_boundaries():
    benign = classify_model(_results(set()), theta_n=3)
    assert not benign.classified_as_imitation and benign.n_det == 0
    exactly = classify_model(_results({1, 4, 9}), theta_n=3)
    assert exactly.classified_as_imitation and exactly.n_det == 3
    assert exactly.detected_vector == (1, 0, 0, 1, 0, 0, 0, 0, 1, 0)
    below = classify_model(_results({1, 4}), theta_n=3)
    assert not below.classified_as_imitation


def test_monotonicity_in_thresholds(data_domain, data_pool):
    from trajmark.simkit.surrogate import benign_surrogate, sample_surrogate

    corpus = sample_surrogate(benign_surrogate(data_domain), data_domain, 300, seed=1)
    evals = evaluate_passes(corpus, data_pool)
    detected_sets = []
    for theta_j in (0.005, 0.015, 0.05, 0.1, 0.5):
        results = threshold_evaluations(evals, theta_j)
        detected_sets.append({r.pass_id for r in results if r.detected})
    for smaller, larger in zip(detected_sets, detected_sets[1:]):
        assert smaller <= larger
    results = threshold_evaluations(evals, 0.5)
    verdicts = [
        classify_model(results, theta_n).classified_as_imitation
        for theta_n in range(1, 8)
    ]
    # once a verdict flips to benign it stays benign as theta_n grows
    assert all(a or not b for a, b in zip(verdicts, verdicts[1:]))


def _brute_force_ranking(vector, registry):
    """Reference ranking: per-bit cosine similarity, then the tie-breaks."""
    scored = []
    for user in registry.users:
        bits = uid_bits(user.uid_int(), registry.n_bits)
        dot = sum(1 for a, b in zip(vector, bits) if a and b)
        nv = sum(1 for a in vector if a)
        np_ = sum(1 for b in bits if b)
        sim = 0.0 if nv == 0 or np_ == 0 else dot / math.sqrt(nv * np_)
        scored.append((sim, user.created_at, user.uid_hex))
    scored.sort(key=lambda row: (-row[0], row[1], row[2]))
    return [(uid, sim) for sim, _, uid in scored]


def _registry_of(n_bits, uids, stamps):
    reg = Registry("probe", n_bits, w_min=0, w_max=n_bits)
    for uid, stamp in zip(uids, stamps):
        reg.append(UserRecord(
            uid_to_hex(uid, n_bits),
            tuple(i + 1 for i in range(n_bits) if (uid >> i) & 1),
            stamp,
        ))
    return reg


def test_cosine_similarity_against_brute_force():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(4, 20)
        v = [rng.randint(0, 1) for _ in range(n)]
        p = [rng.randint(0, 1) for _ in range(n)]
        reg = _registry_of(n, [bits_to_uid(p)], ["2026-01-01T00:00:00"])
        (got,) = localize_user(v, reg)
        dot = sum(a * b for a, b in zip(v, p))
        norm = math.sqrt(sum(v)) * math.sqrt(sum(p))
        expected = dot / norm if norm else 0.0
        assert got[1] == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= got[1] <= 1.0
        assert [got] == _brute_force_ranking(v, reg)


@st.composite
def _localization_case(draw):
    n_bits = draw(st.integers(4, 39))
    w_min = draw(st.integers(0, 3))
    w_max = draw(st.integers(w_min, min(w_min + 2, n_bits)))
    weights = st.integers(w_min, w_max)
    positions = st.permutations(range(n_bits))
    uids = draw(st.lists(
        st.builds(lambda w, order: sum(1 << i for i in order[:w]), weights, positions),
        min_size=1, max_size=40, unique=True,
    ))
    # few distinct stamps, so equal scores fall through to the UID tie-break
    stamps = draw(st.lists(
        st.sampled_from(["2026-01-01T00:00:00", "2026-01-02T00:00:00"]),
        min_size=len(uids), max_size=len(uids),
    ))
    vector = draw(st.one_of(
        st.just([0] * n_bits),
        st.lists(st.integers(0, 1), min_size=n_bits, max_size=n_bits),
    ))
    return vector, _registry_of(n_bits, uids, stamps)


@settings(max_examples=300, deadline=None)
@given(_localization_case())
def test_localize_user_matches_brute_force(case):
    vector, reg = case
    assert localize_user(vector, reg) == _brute_force_ranking(vector, reg)


def test_localization_follows_registry_changes():
    # every user has weight 2, so the all-ones probe ties them all and
    # ranks purely by registration; each ranking below runs on a registry
    # whose scoring table an earlier ranking already built
    reg = Registry("tiny", 6, w_min=2, w_max=2)
    for s in range(6):
        register_user(reg, rng_seed=s, created_at=f"2026-01-0{s + 2}T00:00:00")
    probes = ([1] * 6, [1, 1, 0, 1, 0, 0])

    def check(registry):
        for probe in probes:
            assert localize_user(probe, registry) == _brute_force_ranking(probe, registry)

    check(reg)
    early = register_user(reg, rng_seed=99, created_at="2026-01-01T00:00:00")
    check(reg)
    assert localize_user(probes[0], reg)[0][0] == early.uid_hex

    uid = next(u for u in range(64) if u.bit_count() == 2 and u not in reg.uid_set())
    direct = UserRecord(uid_to_hex(uid, 6), tuple(i + 1 for i in range(6) if (uid >> i) & 1),
                        "2025-12-31T00:00:00")
    reg.users.append(direct)
    check(reg)
    assert localize_user(probes[0], reg)[0][0] == direct.uid_hex

    # a direct removal followed by an append leaves the length as it was
    removed = reg.users.pop(0)
    reg.append(UserRecord(removed.uid_hex, removed.active_pass_ids, "2025-12-30T00:00:00"))
    check(reg)
    assert localize_user(probes[0], reg)[0][0] == removed.uid_hex

    loaded = Registry.from_json(reg.to_json())
    check(loaded)
    for probe in probes:
        assert localize_user(probe, loaded) == localize_user(probe, reg)


def test_localization_exact_and_orthogonal():
    reg = Registry("data", 39)
    users = [register_user(reg, rng_seed=s) for s in range(5)]
    target = users[2]
    vector = list(uid_bits(target.uid_int(), 39))
    ranking = localize_user(vector, reg)
    assert ranking[0][0] == target.uid_hex
    assert ranking[0][1] == pytest.approx(1.0)
    # orthogonal vector scores zero for that user
    complement = [1 - b for b in vector]
    scores = dict(localize_user(complement, reg))
    assert scores[target.uid_hex] == 0.0


def test_localization_tie_breaks_by_registration_order():
    reg = Registry("tiny", 6, w_min=2, w_max=2)
    first = register_user(reg, rng_seed=1, created_at="2026-01-01T00:00:00")
    second = register_user(reg, rng_seed=2, created_at="2026-01-02T00:00:00")
    probe = [1] * 6  # equally similar to both weight-2 users
    ranking = localize_user(probe, reg)
    assert ranking[0][0] == first.uid_hex
    assert ranking[0][1] == pytest.approx(ranking[1][1])


def test_localization_empty_registry():
    with pytest.raises(EmptyRegistry):
        localize_user([0] * 39, Registry("data", 39))


def test_localization_self_consistency_zero_drops():
    reg = Registry("data", 39)
    users = [register_user(reg, rng_seed=s) for s in range(200)]
    for user in users[:20]:
        vector = uid_bits(user.uid_int(), 39)
        assert localize_user(list(vector), reg)[0][0] == user.uid_hex


def test_precision_recall_f1_against_confusion_oracle():
    for tp, fp, fn in itertools.product(range(4), repeat=3):
        p, r, f1 = precision_recall_f1(tp, fp, fn)
        exp_p = tp / (tp + fp) if tp + fp else 0.0
        exp_r = tp / (tp + fn) if tp + fn else 0.0
        exp_f = 2 * exp_p * exp_r / (exp_p + exp_r) if exp_p + exp_r else 0.0
        assert (p, r, f1) == (exp_p, exp_r, exp_f)
        if min(p, r) > 0:
            bound = 2 * min(p, r) / (1 + min(p, r))
            assert f1 <= bound + 1e-12


def test_surrogate_sampling_noise_is_small(data_domain, data_pool):
    """~1,000 matches drawn exactly from the target stay within JSD 0.005."""
    rng = random.Random(99)
    for p in data_pool[:10]:
        counts = [0] * len(p.biased)
        for _ in range(1000):
            counts[p.biased.sample(rng)] += 1
        emp = Distribution(tuple(c / 1000 for c in counts))
        assert js_divergence(emp, p.biased) < 0.005


def test_verify_corpus_verdict_round_trip(tmp_path, data_domain, data_pool):
    from trajmark.simkit.surrogate import benign_surrogate, sample_surrogate

    corpus = sample_surrogate(benign_surrogate(data_domain), data_domain, 200, seed=5)
    verdict = verify_corpus(corpus, data_pool)
    assert not verdict.classified_as_imitation
    assert verdict.n_det == sum(verdict.detected_vector)
    path = tmp_path / "verdict.json"
    verdict.save(str(path))
    import json

    obj = json.loads(path.read_text())
    assert obj["n_det"] == verdict.n_det
    assert len(obj["passes"]) == len(data_pool)
