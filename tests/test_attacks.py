"""attack strategies: conventions, determinism, and metric identities."""

import pytest
from hypothesis import example, given, settings

from test_equivalence import FILE_ACTION_LISTS, file_sets, reference_scan
from trajmark.attacks import (
    FK_MIN_COUNT,
    FK_SUSPICION_SHARE,
    attack_fk_replacement,
    attack_metrics,
    attack_pk_replacement,
    attack_random_deletion,
    attack_rephrase_stub,
    near_duplicate_map,
    AttackOutcome,
)
from trajmark.errors import CorpusMismatch
from trajmark.seeds import derive_rng
from trajmark.trajectory import Action, GreyBoxTrajectory


def traj(tools, qid="q"):
    return GreyBoxTrajectory(
        qid, tuple(Action.make(t, {"k": f"v{i}"}) for i, t in enumerate(tools)), "resp"
    )


CORPUS = [traj(["A.One", "B.Two", "C.Three"], "q1"), traj(["A.One", "A.One"], "q2")]


def test_deletion_p_zero_is_identity():
    out = attack_random_deletion(CORPUS, 0.0, rng_seed=1)
    assert out.attacked == list(CORPUS)
    assert out.flagged == {} and out.dropped == 0


def test_deletion_p_one_drops_everything():
    out = attack_random_deletion(CORPUS, 1.0, rng_seed=1)
    assert out.attacked == [] and out.dropped == 2
    assert out.flagged == {0: {0, 1, 2}, 1: {0, 1}}


def test_deletion_rejects_bad_probability():
    with pytest.raises(ValueError):
        attack_random_deletion(CORPUS, 1.5, rng_seed=1)


def test_attacks_never_touch_response(data_domain, data_pool):
    from trajmark.simkit.generator import generate_greybox_corpus

    corpus = generate_greybox_corpus(data_domain, 30, seed=14)
    for outcome in (
        attack_random_deletion(corpus, 0.3, 5),
        attack_rephrase_stub(corpus, 5),
        attack_pk_replacement(corpus, list(data_domain.sandbox.tools), 5),
        attack_fk_replacement(corpus, data_domain.eqsets, 5),
    ):
        for out_idx, in_idx in enumerate(outcome.kept_input_indices):
            assert outcome.attacked[out_idx].response == corpus[in_idx].response
            assert outcome.attacked[out_idx].query_id == corpus[in_idx].query_id


def test_attack_determinism(data_domain):
    from trajmark.simkit.generator import generate_greybox_corpus

    corpus = generate_greybox_corpus(data_domain, 30, seed=15)
    for attack in (
        lambda: attack_random_deletion(corpus, 0.2, 9),
        lambda: attack_rephrase_stub(corpus, 9),
        lambda: attack_pk_replacement(corpus, list(data_domain.sandbox.tools), 9),
        lambda: attack_fk_replacement(corpus, data_domain.eqsets, 9),
    ):
        a, b = attack(), attack()
        assert a.attacked == b.attacked
        assert a.flagged == b.flagged
        assert a.modified == b.modified


def test_pk_zero_flags_without_near_duplicates():
    out = attack_pk_replacement(CORPUS, ["A.One", "B.Two", "C.Three"], rng_seed=2)
    assert out.flagged == {}
    assert out.attacked == list(CORPUS)


def test_near_duplicate_map_thresholds():
    nd = near_duplicate_map(["Audit_d1.Log", "Audit_d1.LogAll", "Plainly.Other"])
    assert nd["Audit_d1.Log"] == ["Audit_d1.LogAll"]
    assert nd["Plainly.Other"] == []


def test_fk_zero_matches_flags_nothing(ce_set):
    corpus = [traj(["A.One"], "q1")]
    out = attack_fk_replacement(corpus, [ce_set], rng_seed=3)
    assert out.flagged == {} and out.modified == {}
    assert out.attacked == corpus


def test_metrics_exact_ground_truth_is_perfect():
    truth = {0: {1, 2}, 1: {0}}
    outcome = AttackOutcome(
        "x", list(CORPUS), [0, 1], flagged={0: {1, 2}, 1: {0}},
        modified={0: {1, 2}, 1: {0}},
    )
    m = attack_metrics(outcome, truth, CORPUS)
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
    assert m.n_true == 3


def test_metrics_zero_flagged_convention():
    truth = {0: {1}}
    outcome = AttackOutcome("x", list(CORPUS), [0, 1])
    m = attack_metrics(outcome, truth, CORPUS)
    assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)


def test_metrics_against_confusion_oracle():
    truth = {0: {0, 2}, 1: {1}}
    outcome = AttackOutcome(
        "x", list(CORPUS), [0, 1], flagged={0: {0, 1}, 1: {0, 1}}
    )
    m = attack_metrics(outcome, truth, CORPUS)
    tp = len({0, 1} & {0, 2}) + len({0, 1} & {1})  # 1 + 1
    fp = len({0, 1} - {0, 2}) + len({0, 1} - {1})  # 1 + 1
    fn = 3 - tp
    assert m.precision == tp / (tp + fp)
    assert m.recall == tp / (tp + fn)
    assert m.f1 == 2 * m.precision * m.recall / (m.precision + m.recall)
    assert m.f1 <= 2 * min(m.precision, m.recall) / (1 + min(m.precision, m.recall)) + 1e-12


def test_metrics_corpus_mismatch():
    outcome = AttackOutcome("x", list(CORPUS), [0, 1], flagged={5: {0}})
    with pytest.raises(CorpusMismatch):
        attack_metrics(outcome, {}, CORPUS)
    outcome = AttackOutcome("x", list(CORPUS), [0, 1])
    with pytest.raises(CorpusMismatch):
        attack_metrics(outcome, {9: {0}}, CORPUS)


def test_fk_rewrites_stay_in_member_space(data_domain):
    from trajmark.simkit.generator import generate_greybox_corpus

    corpus = generate_greybox_corpus(data_domain, 40, seed=44)
    out = attack_fk_replacement(corpus, data_domain.eqsets, rng_seed=45)
    # every candidate occurrence still matches its set after the attack
    for eqset in data_domain.eqsets:
        before = sum(len(reference_scan(t.actions, eqset)) for t in corpus)
        after = sum(len(reference_scan(t.actions, eqset)) for t in out.attacked)
        assert after == before


def _reference_fk(corpus, eqsets, rng_seed, suspicion_share, min_count):
    """The FK attack as one ``reference_scan`` per set and trajectory.

    Returns the attacked actions, flagged and modified positions. Spans of
    all sets are taken in ``(start, length, set)`` order; a span that
    overlaps one already taken is skipped.
    """
    matches = [[] for _ in corpus]
    suspicious = []
    for s_idx, eqset in enumerate(eqsets):
        counts = [0] * len(eqset.members)
        for idx, t in enumerate(corpus):
            for m_idx, start, length, bindings in reference_scan(t.actions, eqset):
                counts[m_idx] += 1
                matches[idx].append((start, length, s_idx, m_idx, bindings))
        total = sum(counts)
        suspicious.append(total >= min_count and max(counts) / total > suspicion_share)
    attacked, flagged, modified = [], {}, {}
    for idx, t in enumerate(corpus):
        rng = derive_rng(rng_seed, "attack", "fk", idx)
        out, flags, mods, cursor = [], set(), set(), 0
        for start, length, s_idx, m_idx, bindings in sorted(matches[idx], key=lambda m: m[:3]):
            if start < cursor:
                continue
            eqset = eqsets[s_idx]
            out.extend(t.actions[cursor:start])
            draw = rng.randrange(len(eqset.members))
            if suspicious[s_idx]:
                flags.update(range(start, start + length))
            if draw == m_idx:
                out.extend(t.actions[start : start + length])
            else:
                mods.update(range(start, start + length))
                out.extend(eqset.rewrite(m_idx, draw, bindings))
            cursor = start + length
        out.extend(t.actions[cursor:])
        attacked.append(tuple(out))
        if flags:
            flagged[idx] = flags
        if mods:
            modified[idx] = mods
    return attacked, flagged, modified


@pytest.mark.parametrize("name", ["data", "business", "social"])
@pytest.mark.parametrize("thresholds", [(FK_SUSPICION_SHARE, FK_MIN_COUNT), (0.5, 1)])
def test_fk_equals_per_set_reference(name, thresholds):
    from trajmark.simkit.domains import builtin_domain
    from trajmark.simkit.generator import generate_greybox_corpus

    domain = builtin_domain(name)
    corpus = generate_greybox_corpus(domain, 150, seed=46)
    # reversed, the sets break ties between equal spans the other way round
    for eqsets in (list(domain.eqsets), list(reversed(domain.eqsets))):
        out = attack_fk_replacement(corpus, eqsets, 47, *thresholds)
        attacked, flagged, modified = _reference_fk(corpus, eqsets, 47, *thresholds)
        assert [t.actions for t in out.attacked] == attacked
        assert out.flagged == flagged
        assert out.modified == modified


@settings(max_examples=100, deadline=None)
@given(FILE_ACTION_LISTS)
@example([
    # at 0 a 1-action span (copy onto itself) ties with two 2-action spans
    [Action.make("Files.Copy", {"src": "a", "dst": "a"}),
     Action.make("Files.Delete", {"path": "a"}),
     Action.make("Files.Move", {"src": "a", "dst": "b"})],
    [Action.make("Files.Stat", {"path": "a"}),
     Action.make("Files.Move", {"src": "a", "dst": "b"})],
])
def test_fk_equals_per_set_reference_on_overlapping_sets(action_lists):
    # the Files.* sets share tools, so spans of different sets overlap and
    # tie at one start, which generated domain corpora never show
    corpus = [GreyBoxTrajectory(f"q{i}", tuple(a), "r") for i, a in enumerate(action_lists)]
    eqsets = file_sets()
    for eqsets in (eqsets, eqsets[::-1]):
        out = attack_fk_replacement(corpus, eqsets, 48, 0.5, 1)
        attacked, flagged, modified = _reference_fk(corpus, eqsets, 48, 0.5, 1)
        assert [t.actions for t in out.attacked] == attacked
        assert out.flagged == flagged
        assert out.modified == modified
