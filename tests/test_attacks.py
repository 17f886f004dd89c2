"""attack strategies: conventions, determinism, and metric identities."""

import difflib
import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_equivalence import FILE_ACTION_LISTS, file_sets, reference_scan
import trajmark.attacks as attacks
from trajmark.attacks import (
    FK_MIN_COUNT,
    FK_SUSPICION_SHARE,
    PK_NAME_SIMILARITY,
    STRATEGIES,
    attack_fk_replacement,
    attack_metrics,
    attack_pk_replacement,
    attack_random_deletion,
    near_duplicate_map,
    semantic_breakage_rate,
    AttackOutcome,
    AttackTally,
    Knowledge,
)
from trajmark.errors import CorpusMismatch, InvalidRange
from trajmark.injector import changed_in, iter_watermarked
from trajmark.registry import Registry, passes_for_uid, register_user
from trajmark.seeds import derive_rng
from trajmark.simkit.generator import iter_greybox_corpus
from trajmark.trajectory import Action, GreyBoxTrajectory, serialize_trajectory


def traj(tools, qid="q"):
    return GreyBoxTrajectory(
        qid, tuple(Action.make(t, {"k": f"v{i}"}) for i, t in enumerate(tools)), "resp"
    )


CORPUS = [traj(["A.One", "B.Two", "C.Three"], "q1"), traj(["A.One", "A.One"], "q2")]


def _domain_knowledge(domain, p):
    return Knowledge(p=p, tool_library=list(domain.sandbox.tools), candidate_sets=domain.eqsets)


def test_deletion_p_zero_is_identity():
    out = attack_random_deletion(CORPUS, 1, Knowledge(p=0.0))
    assert out.attacked == list(CORPUS)
    assert out.flagged == {} and out.dropped == 0


def test_deletion_p_one_drops_everything():
    out = attack_random_deletion(CORPUS, 1, Knowledge(p=1.0))
    assert out.attacked == [] and out.dropped == 2
    assert out.flagged == {0: {0, 1, 2}, 1: {0, 1}}


def test_deletion_rejects_bad_probability():
    # the knowledge refuses it, before any strategy runs
    for p in (1.5, -0.1, 7.0):
        with pytest.raises(InvalidRange):
            Knowledge(p=p)


def test_attacks_never_touch_response(data_domain, data_pool):
    from trajmark.simkit.generator import generate_greybox_corpus

    corpus = generate_greybox_corpus(data_domain, 30, seed=14)
    knowledge = _domain_knowledge(data_domain, p=0.3)
    for strategy in STRATEGIES.values():
        outcome = strategy.attack(corpus, 5, knowledge)
        for out_idx, in_idx in enumerate(outcome.kept_input_indices):
            assert outcome.attacked[out_idx].response == corpus[in_idx].response
            assert outcome.attacked[out_idx].query_id == corpus[in_idx].query_id


def test_attack_determinism(data_domain):
    from trajmark.simkit.generator import generate_greybox_corpus

    corpus = generate_greybox_corpus(data_domain, 30, seed=15)
    knowledge = _domain_knowledge(data_domain, p=0.2)
    for strategy in STRATEGIES.values():
        a, b = strategy.attack(corpus, 9, knowledge), strategy.attack(corpus, 9, knowledge)
        assert a.attacked == b.attacked
        assert a.flagged == b.flagged
        assert a.modified == b.modified


LOOP_TOOLS = ["Audit_d1.Log", "Audit_d1.LogAll", "Plainly.Other", "A.One"]
LOOP_ACTIONS = st.builds(
    Action.make,
    st.sampled_from(LOOP_TOOLS),
    st.dictionaries(st.sampled_from(["k", "n"]), st.sampled_from(["std", "hit", "x", 3]),
                    max_size=2),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(LOOP_ACTIONS, min_size=1, max_size=6), max_size=5),
    st.sampled_from(["random-deletion", "rephrase-stub", "pk-replace"]),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(0, 2**32),
)
def test_per_action_loop_properties(action_lists, name, p, seed):
    corpus = [GreyBoxTrajectory(f"q{i}", tuple(a), "r") for i, a in enumerate(action_lists)]
    out = STRATEGIES[name].attack(corpus, seed, Knowledge(p=p, tool_library=LOOP_TOOLS))
    assert out.flagged == out.modified
    assert all(a < b for a, b in zip(out.kept_input_indices, out.kept_input_indices[1:]))
    assert out.dropped + len(out.attacked) == len(corpus)
    for out_idx, in_idx in enumerate(out.kept_input_indices):
        before, after = corpus[in_idx].actions, out.attacked[out_idx].actions
        flags = out.flagged.get(in_idx, set())
        assert flags <= set(range(len(before)))
        kept = [a for pos, a in enumerate(before) if pos not in flags]
        if name == "random-deletion":
            assert list(after) == kept
        else:
            # a one-for-one replacement: every flagged action changed, the rest did not
            assert len(after) == len(before)
            assert [a for pos, a in enumerate(after) if pos not in flags] == kept
            assert all(after[pos] != before[pos] for pos in flags)
    for in_idx in set(range(len(corpus))) - set(out.kept_input_indices):
        assert out.flagged[in_idx] == set(range(len(corpus[in_idx].actions)))


def test_pk_zero_flags_without_near_duplicates():
    out = attack_pk_replacement(
        CORPUS, 2, Knowledge(tool_library=["A.One", "B.Two", "C.Three"])
    )
    assert out.flagged == {}
    assert out.attacked == list(CORPUS)


def test_near_duplicate_map_thresholds():
    nd = near_duplicate_map(["Audit_d1.Log", "Audit_d1.LogAll", "Plainly.Other"])
    assert nd["Audit_d1.Log"] == ["Audit_d1.LogAll"]
    assert nd["Plainly.Other"] == []


@pytest.mark.parametrize("name", ["data", "business", "social"])
def test_near_duplicate_map_equals_a_full_ratio_reference(name):
    # the quick bounds skip pairs unscored, so the map must be the one that
    # scores every pair in full
    from trajmark.simkit.domains import builtin_domain

    names = sorted(builtin_domain(name).sandbox.tools)
    reference = {n: [] for n in names}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if difflib.SequenceMatcher(None, a, b).ratio() >= PK_NAME_SIMILARITY:
                reference[a].append(b)
                reference[b].append(a)
    assert any(reference.values())
    assert near_duplicate_map(list(reversed(names))) == reference


def test_fk_zero_matches_flags_nothing(ce_set):
    corpus = [traj(["A.One"], "q1")]
    out = attack_fk_replacement(corpus, 3, Knowledge(candidate_sets=[ce_set]))
    assert out.flagged == {} and out.modified == {}
    assert out.attacked == corpus


def test_metrics_exact_ground_truth_is_perfect():
    truth = {0: {1, 2}, 1: {0}}
    outcome = AttackOutcome(
        list(CORPUS), [0, 1], flagged={0: {1, 2}, 1: {0}}, modified={0: {1, 2}, 1: {0}},
    )
    m = attack_metrics(outcome, truth, CORPUS)
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
    assert m.n_true == 3


def test_metrics_zero_flagged_convention():
    truth = {0: {1}}
    outcome = AttackOutcome(list(CORPUS), [0, 1])
    m = attack_metrics(outcome, truth, CORPUS)
    assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)


def test_metrics_against_confusion_oracle():
    truth = {0: {0, 2}, 1: {1}}
    outcome = AttackOutcome(list(CORPUS), [0, 1], flagged={0: {0, 1}, 1: {0, 1}})
    m = attack_metrics(outcome, truth, CORPUS)
    tp = len({0, 1} & {0, 2}) + len({0, 1} & {1})  # 1 + 1
    fp = len({0, 1} - {0, 2}) + len({0, 1} - {1})  # 1 + 1
    fn = 3 - tp
    assert m.precision == tp / (tp + fp)
    assert m.recall == tp / (tp + fn)
    assert m.f1 == 2 * m.precision * m.recall / (m.precision + m.recall)
    assert m.f1 <= 2 * min(m.precision, m.recall) / (1 + min(m.precision, m.recall)) + 1e-12


def test_metrics_corpus_mismatch():
    outcome = AttackOutcome(list(CORPUS), [0, 1], flagged={5: {0}})
    with pytest.raises(CorpusMismatch):
        attack_metrics(outcome, {}, CORPUS)
    outcome = AttackOutcome(list(CORPUS), [0, 1])
    with pytest.raises(CorpusMismatch):
        attack_metrics(outcome, {9: {0}}, CORPUS)


def test_fk_rewrites_stay_in_member_space(data_domain):
    from trajmark.simkit.generator import generate_greybox_corpus

    corpus = generate_greybox_corpus(data_domain, 40, seed=44)
    out = attack_fk_replacement(corpus, 45, Knowledge(candidate_sets=data_domain.eqsets))
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
                # reference_scan gives the values in sorted slot order, as rewrite takes them
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
def test_fk_equals_per_set_reference(monkeypatch, name, thresholds):
    from trajmark.simkit.domains import builtin_domain
    from trajmark.simkit.generator import generate_greybox_corpus

    domain = builtin_domain(name)
    corpus = generate_greybox_corpus(domain, 150, seed=46)
    monkeypatch.setattr(attacks, "FK_SUSPICION_SHARE", thresholds[0])
    monkeypatch.setattr(attacks, "FK_MIN_COUNT", thresholds[1])
    # reversed, the sets break ties between equal spans the other way round
    for eqsets in (list(domain.eqsets), list(reversed(domain.eqsets))):
        out = attack_fk_replacement(corpus, 47, Knowledge(candidate_sets=eqsets))
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
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(attacks, "FK_SUSPICION_SHARE", 0.5)
            patch.setattr(attacks, "FK_MIN_COUNT", 1)
            out = attack_fk_replacement(corpus, 48, Knowledge(candidate_sets=eqsets))
        attacked, flagged, modified = _reference_fk(corpus, eqsets, 48, 0.5, 1)
        assert [t.actions for t in out.attacked] == attacked
        assert out.flagged == flagged
        assert out.modified == modified


@pytest.fixture(scope="module")
def watermarked(data_domain, data_pool):
    """300 watermarked data trajectories with their true positions, by index."""
    user = register_user(Registry("data", len(data_pool)), rng_seed=31)
    victim = iter_greybox_corpus(data_domain, 300, seed=61, id_prefix="fx")
    pairs = list(iter_watermarked(
        victim, passes_for_uid(user.uid_hex, data_pool), seed=62, uid_hex=user.uid_hex
    ))
    return [t for t, _ in pairs], [changed_in(edits) for _, edits in pairs]


def _outcome_digest(flagged, modified, kept, dropped, attacked) -> str:
    doc = json.dumps({
        "flagged": sorted((i, sorted(p)) for i, p in flagged.items()),
        "modified": sorted((i, sorted(p)) for i, p in modified.items()),
        "kept": kept, "dropped": dropped,
        "attacked": [serialize_trajectory(t) for t in attacked],
    })
    return hashlib.sha256(doc.encode()).hexdigest()


# what the whole-corpus strategies returned on the fixture before they were
# rewritten as one step per trajectory: the digest, then the flagged and
# modified position counts, the kept trajectories and the dropped ones
PARENT_OUTCOMES = {
    ("random-deletion", 0.3): (
        "4724b7e66cee3e29e57ac696b4cc7fd23d2c4c6612f60b599116922b4fece841", 1278, 1278, 300, 0),
    ("random-deletion", 0.95): (
        "70ac43f9bf2358ad4a478bfe0b6b8b9e3bca91a1781f0f1beb1d89daa784f461", 4211, 4211, 159, 141),
    ("rephrase-stub", 0.3): (
        "9e6bebbd142870d6cf02817a82aec061501f5e020b96605960b456bc3d779ff5", 418, 418, 300, 0),
    ("pk-replace", 0.3): (
        "bebc8a0a903358d8d46e89a5e50eb4cc8a2f4d13e446134067519b3ee8c9f61a", 1803, 1803, 300, 0),
    # fk-replace flags 61 positions, resolved from its set tallies at the end
    ("fk-replace", 0.3): (
        "fe0e856f22d2bde9d011e8feeab78ebb3b18992d3494c9b9c147ff40e7b2f894", 61, 751, 300, 0),
}


@pytest.mark.parametrize("name, p", list(PARENT_OUTCOMES))
def test_collecting_the_per_trajectory_form_gives_the_parent_outcome(
    data_domain, watermarked, name, p
):
    corpus, _ = watermarked
    knowledge = Knowledge(
        p=p, tool_library=list(data_domain.sandbox.tools), candidate_sets=data_domain.eqsets
    )
    run = STRATEGIES[name].start(63, knowledge)
    steps = [run.step(idx, traj) for idx, traj in enumerate(corpus)]
    keys = run.flag_keys()  # known once every trajectory has been stepped
    flagged = {}
    for idx, step in enumerate(steps):
        flags = set().union(*(pos for key, pos in step.marks.items() if key in keys))
        if flags:
            flagged[idx] = flags
    modified = {idx: step.modified for idx, step in enumerate(steps) if step.modified}
    kept = [idx for idx, step in enumerate(steps) if step.trajectory is not None]
    attacked = [steps[idx].trajectory for idx in kept]
    dropped = len(corpus) - len(kept)
    assert (
        _outcome_digest(flagged, modified, kept, dropped, attacked),
        sum(map(len, flagged.values())), sum(map(len, modified.values())), len(kept), dropped,
    ) == PARENT_OUTCOMES[name, p]
    # the whole-corpus form is the same collection
    outcome = STRATEGIES[name].attack(corpus, 63, knowledge)
    assert (outcome.flagged, outcome.modified, outcome.kept_input_indices, outcome.dropped,
            outcome.attacked) == (flagged, modified, kept, dropped, attacked)


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_a_tally_of_the_steps_scores_as_the_collected_outcome(data_domain, watermarked, name):
    corpus, truths = watermarked
    knowledge = _domain_knowledge(data_domain, p=0.3)
    run, tally = STRATEGIES[name].start(64, knowledge), AttackTally(data_domain.sandbox)
    for idx, (traj, truth) in enumerate(zip(corpus, truths)):
        tally.add(traj, truth, run.step(idx, traj))
    outcome = STRATEGIES[name].attack(corpus, 64, knowledge)
    truth_by_idx = {idx: truth for idx, truth in enumerate(truths) if truth}
    assert tally.metrics(run.flag_keys()) == attack_metrics(outcome, truth_by_idx, corpus)
    assert tally.breakage_rate() == semantic_breakage_rate(corpus, outcome, data_domain.sandbox)
