"""Detection thresholds, classification, and localization."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pass, move_eqset
from trajmark.equivalence import Distribution, count_members, js_divergence
from trajmark.errors import EmptyRegistry, InvalidRange, LengthMismatch
from trajmark.registry import (
    Registry,
    UserRecord,
    bits_to_uid,
    register_user,
    uid_bits,
    uid_to_hex,
)
from trajmark.verifier import (
    DetectionResult,
    PassEvaluation,
    classify_evidence,
    f1_grid,
    localize_user,
    precision_recall_f1,
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


def detect(p, empirical, count, theta_j=0.015, m_min=30, theta_n=3):
    verdict = classify_evidence([evidence(p, empirical, count)], theta_j, theta_n, m_min)
    return verdict.results[0]


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
    with pytest.raises(InvalidRange):
        detect(p, p.biased, 100, theta_j=0.0)
    with pytest.raises(InvalidRange):
        detect(p, p.biased, 100, theta_j=1.5)
    for m_min in (0, -5):
        with pytest.raises(InvalidRange, match=f"m_min must be >= 1, got {m_min}"):
            detect(p, p.biased, 100, m_min=m_min)
    for theta_n in (0, -5):
        with pytest.raises(InvalidRange, match=f"theta_n must be >= 1, got {theta_n}"):
            detect(p, p.biased, 100, theta_n=theta_n)


def _results(detected_ids, n=10):
    """Conclusive evidence for passes 1..n: JSD 0 on ``detected_ids``, 0.5 elsewhere."""
    return [
        PassEvaluation(pid, Distribution((1.0,)), 100, 0.0 if pid in detected_ids else 0.5)
        for pid in range(1, n + 1)
    ]


def test_classification_boundaries():
    benign = classify_evidence(_results(set()), theta_n=3)
    assert not benign.classified_as_imitation and benign.n_det == 0
    exactly = classify_evidence(_results({1, 4, 9}), theta_n=3)
    assert exactly.classified_as_imitation and exactly.n_det == 3
    assert exactly.detected_vector == (1, 0, 0, 1, 0, 0, 0, 0, 1, 0)
    below = classify_evidence(_results({1, 4}), theta_n=3)
    assert not below.classified_as_imitation


def test_detection_result_is_evidence_plus_the_rule():
    # positional construction keeps the evidence fields first
    built = DetectionResult(4, Distribution((1.0,)), 100, 0.0, True, True)
    assert isinstance(built, PassEvaluation)
    own = [f.name for f in dataclasses.fields(DetectionResult)]
    assert own[:4] == [f.name for f in dataclasses.fields(PassEvaluation)]
    assert own[4:] == ["conclusive", "detected"]
    verdict = classify_evidence(_results({4}, n=4), theta_n=1)
    assert verdict.results[3] == built
    assert [r.detected for r in verdict.results] == [False, False, False, True]


def _rule_oracle(evaluations, theta_j, theta_n, m_min):
    """The paper's rule written out per pass: conclusive, detected, vector, n_det, class."""
    conclusive = [ev.observation_count >= m_min and ev.empirical is not None
                  for ev in evaluations]
    detected = [c and ev.jsd_to_target < theta_j for c, ev in zip(conclusive, evaluations)]
    vector = [0] * max((ev.pass_id for ev in evaluations), default=0)
    for ev, hit in zip(evaluations, detected):
        if hit:
            vector[ev.pass_id - 1] = 1
    n_det = sum(detected)
    return conclusive, detected, tuple(vector), n_det, n_det >= theta_n


@st.composite
def _evidence_case(draw):
    theta_j = draw(st.floats(0.0, 1.0, exclude_min=True))
    theta_n = draw(st.integers(1, 6))
    m_min = draw(st.integers(1, 300))
    # unique ids in drawn order: shuffled and possibly with gaps
    pass_ids = draw(st.lists(st.integers(1, 40), max_size=12, unique=True))
    evaluations = []
    for pid in pass_ids:
        count = draw(st.one_of(st.just(0), st.just(m_min), st.integers(1, 400)))
        if count == 0:
            evaluations.append(PassEvaluation(pid, None, 0, None))
            continue
        jsd = draw(st.one_of(st.just(theta_j), st.floats(0.0, 1.0)))
        evaluations.append(PassEvaluation(pid, Distribution((0.5, 0.5)), count, jsd))
    return evaluations, theta_j, theta_n, m_min


@settings(max_examples=400, deadline=None)
@given(_evidence_case())
def test_classify_evidence_matches_the_rule_oracle(case):
    evaluations, theta_j, theta_n, m_min = case
    verdict = classify_evidence(evaluations, theta_j, theta_n, m_min)
    conclusive, detected, vector, n_det, imitation = _rule_oracle(*case)
    assert [type(r) for r in verdict.results] == [DetectionResult] * len(evaluations)
    for result, ev in zip(verdict.results, evaluations):
        assert (result.pass_id, result.empirical, result.observation_count,
                result.jsd_to_target) == (ev.pass_id, ev.empirical, ev.observation_count,
                                          ev.jsd_to_target)
    assert [r.conclusive for r in verdict.results] == conclusive
    assert [r.detected for r in verdict.results] == detected
    assert verdict.detected_vector == vector
    assert verdict.n_det == n_det
    assert verdict.classified_as_imitation is imitation
    assert (verdict.theta_j, verdict.theta_n, verdict.m_min) == (theta_j, theta_n, m_min)


def test_monotonicity_in_thresholds(data_domain, data_pool):
    from trajmark.simkit.surrogate import benign_surrogate, sample_surrogate

    corpus = sample_surrogate(benign_surrogate(data_domain), data_domain, 300, seed=1)
    evals = evaluate_passes(corpus, data_pool)
    detected_sets = []
    for theta_j in (0.005, 0.015, 0.05, 0.1, 0.5):
        results = classify_evidence(evals, theta_j).results
        detected_sets.append({r.pass_id for r in results if r.detected})
    for smaller, larger in zip(detected_sets, detected_sets[1:]):
        assert smaller <= larger
    verdicts = [
        classify_evidence(evals, 0.5, theta_n).classified_as_imitation
        for theta_n in range(1, 8)
    ]
    # once a verdict flips to benign it stays benign as theta_n grows
    assert all(a or not b for a, b in zip(verdicts, verdicts[1:]))


def _grid_corpora(domain):
    """Watermarked and clean dense-domain dumps of a few sizes around ``m_min``."""
    from trajmark.injector import watermark_corpus
    from trajmark.pool import build_pool
    from trajmark.simkit.generator import generate_greybox_corpus

    passes, _ = build_pool(domain, seed=4, calibration_size=1000)
    positives = []
    for i, (n, active) in enumerate([(8, passes), (30, passes), (60, passes[:2]),
                                     (120, passes[1:]), (200, passes)]):
        corpus = generate_greybox_corpus(domain, n, seed=100 + i, id_prefix=f"p{i}")
        positives.append(watermark_corpus(corpus, active, seed=200 + i, uid_hex="7")[0])
    negatives = [
        generate_greybox_corpus(domain, n, seed=300 + j, id_prefix=f"n{j}")
        for j, n in enumerate((8, 40, 120, 200))
    ]
    return passes, positives, negatives


def test_f1_grid_cells_score_verify_corpus_verdicts(mini_domain):
    passes, positives, negatives = _grid_corpora(mini_domain)
    theta_js, theta_ns, m_min = (0.001, 0.015, 0.05, 0.2, 1.0), (1, 2, 3), 30
    cells = f1_grid(
        [evaluate_passes(c, passes) for c in positives],
        [evaluate_passes(c, passes) for c in negatives],
        theta_js, theta_ns, m_min,
    )
    assert [(c.theta_j, c.theta_n) for c in cells] == list(itertools.product(theta_js, theta_ns))
    for cell in cells:
        def imitations(corpora):
            return sum(verify_corpus(c, passes, cell.theta_j, cell.theta_n, m_min)
                       .classified_as_imitation for c in corpora)
        tp, fp = imitations(positives), imitations(negatives)
        assert (cell.precision, cell.recall, cell.f1) == precision_recall_f1(
            tp, fp, len(positives) - tp
        ), cell
    # the thresholds matter on these corpora
    assert len({(c.precision, c.recall) for c in cells}) > 2


def test_f1_grid_needs_a_positive_and_a_negative(data_pool):
    evidence = evaluate_passes([traj([move()])], data_pool)
    for positives, negatives in (([], [evidence]), ([evidence], []), ([], [])):
        with pytest.raises(InvalidRange, match="at least one positive and one negative"):
            f1_grid(positives, negatives, (0.015,), (3,))


def _brute_force_ranking(vector, registry):
    """Reference ranking: per-bit cosine similarity, ties to the earlier registration."""
    scored = []
    for index, user in enumerate(registry.users):
        bits = uid_bits(user.uid_int(), registry.n_bits)
        dot = sum(1 for a, b in zip(vector, bits) if a and b)
        nv = sum(1 for a in vector if a)
        np_ = sum(1 for b in bits if b)
        sim = 0.0 if nv == 0 or np_ == 0 else dot / math.sqrt(nv * np_)
        scored.append((sim, index, user.uid_hex))
    scored.sort(key=lambda row: (-row[0], row[1]))
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
    # stamps out of registration order, which the ranking must ignore
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


@settings(max_examples=100, deadline=None)
@given(_localization_case())
def test_ranking_of_the_first_users_is_the_full_ranking_filtered(case):
    # run_localization ranks each attacker once and reads every pool size
    # off that ranking: the ranking of the first n users is the full one
    # without the later users, so its top-1 is the first entry among them
    vector, reg = case
    index = {user.uid_hex: i for i, user in enumerate(reg.users)}
    full = localize_user(vector, reg)
    prefix = Registry(reg.domain, reg.n_bits, reg.w_min, reg.w_max)
    for n, record in enumerate(reg.users, start=1):
        prefix.append(record)
        assert localize_user(vector, prefix) == [e for e in full if index[e[0]] < n]


def test_localization_follows_registry_changes():
    # every user has weight 2, so the all-ones probe ties them all and
    # ranks purely by registration, whatever the stamps say; each ranking
    # below runs on a registry whose scoring table was read before
    reg = Registry("tiny", 6, w_min=2, w_max=2)
    for s in range(6):
        register_user(reg, rng_seed=s, created_at=f"2026-01-0{s + 2}T00:00:00")
    probes = ([1] * 6, [1, 1, 0, 1, 0, 0])

    def check(registry):
        for probe in probes:
            assert localize_user(probe, registry) == _brute_force_ranking(probe, registry)
        tied = [uid for uid, _ in localize_user(probes[0], registry)]
        assert tied == [u.uid_hex for u in registry.users]

    check(reg)
    late = register_user(reg, rng_seed=99, created_at="2026-01-01T00:00:00")
    check(reg)
    assert localize_user(probes[0], reg)[-1][0] == late.uid_hex

    uid = next(u for u in range(64) if u.bit_count() == 2 and u not in reg.uid_set())
    direct = UserRecord(uid_to_hex(uid, 6), tuple(i + 1 for i in range(6) if (uid >> i) & 1),
                        "2025-12-31T00:00:00")
    reg.append(direct)
    check(reg)
    assert localize_user(probes[0], reg)[-1][0] == direct.uid_hex

    # users can be read but not written, so no edit can bypass the index
    # and the table; a registry without a user is built by appending the rest
    with pytest.raises(TypeError):
        reg.users[0] = direct
    with pytest.raises(TypeError):
        del reg.users[0]
    with pytest.raises(AttributeError):
        reg.users.append(direct)
    with pytest.raises(AttributeError):
        reg.users = []
    removed, *rest = reg.users
    reg = Registry(reg.domain, reg.n_bits, reg.w_min, reg.w_max)
    for record in rest:
        reg.append(record)
    assert int(removed.uid_hex, 16) not in reg.uid_set()
    check(reg)
    reg.append(UserRecord(removed.uid_hex, removed.active_pass_ids, "2025-12-30T00:00:00"))
    check(reg)
    assert localize_user(probes[0], reg)[-1][0] == removed.uid_hex

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


def test_localization_tie_ignores_an_earlier_stamp():
    reg = Registry("tiny", 6, w_min=2, w_max=2)
    first = register_user(reg, rng_seed=1, created_at="2026-01-02T00:00:00")
    register_user(reg, rng_seed=2, created_at="2026-01-01T00:00:00")
    ranking = localize_user([1] * 6, reg)
    assert ranking[0][0] == first.uid_hex
    assert ranking[0][1] == ranking[1][1]


def test_localization_tie_with_equal_stamps_ignores_the_uid():
    reg = _registry_of(6, [0b110000, 0b000011], ["2026-01-01T00:00:00"] * 2)
    first, second = reg.users
    assert first.uid_hex > second.uid_hex
    ranking = localize_user([1] * 6, reg)
    assert ranking[0][0] == first.uid_hex
    assert ranking[0][1] == ranking[1][1]


def test_localization_vector_length_must_be_registry_n():
    reg = Registry("data", 39)
    register_user(reg, rng_seed=1)
    with pytest.raises(LengthMismatch, match="vector length 2 != registry N 39"):
        localize_user([1, 0], reg)


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


def test_verify_corpus_reads_a_one_shot_stream_as_it_reads_the_list(data_domain, data_pool):
    from trajmark.injector import watermark_corpus
    from trajmark.simkit.generator import generate_greybox_corpus, iter_greybox_corpus

    reg = Registry("data", len(data_pool))
    uid = register_user(reg, rng_seed=3).uid_hex
    victim = generate_greybox_corpus(data_domain, 400, seed=21)
    wm, _ = watermark_corpus(victim, [p for p in data_pool if p.pass_id % 2], seed=5,
                             uid_hex=uid)
    for corpus in (victim, wm):
        for theta_j, theta_n, m_min in ((0.015, 3, 30), (0.05, 1, 5)):
            expected = verify_corpus(corpus, data_pool, theta_j, theta_n, m_min)
            assert verify_corpus(iter(corpus), data_pool, theta_j, theta_n, m_min) == expected
    assert verify_corpus(iter_greybox_corpus(data_domain, 400, seed=21), data_pool) == \
        verify_corpus(victim, data_pool)
