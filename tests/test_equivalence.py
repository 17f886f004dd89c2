"""Segment matching, scanning discipline, and set estimation."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pass, move_eqset
from trajmark.cli import main
from trajmark.equivalence import (
    ActionPattern,
    Distribution,
    EquivalenceSet,
    Lit,
    Segment,
    SlotRef,
    WatermarkPass,
    count_members,
    count_members_by_trajectory,
    eqset_from_json,
    eqset_to_json,
    instantiate_mapping,
    match_segment,
    scan_equivalence,
)
from trajmark.errors import InvalidDistribution, MappingGap, NoObservations, TrajmarkError
from trajmark.injector import watermark_corpus
from trajmark.pool import build_pool, pool_from_json, pool_to_json
from trajmark.simkit.domains import builtin_domain
from trajmark.simkit.generator import generate_greybox_corpus, instantiate_member
from trajmark.trajectory import Action, GreyBoxTrajectory
from trajmark.verifier import evaluate_passes


def traj(actions, qid="q"):
    return GreyBoxTrajectory(qid, tuple(actions), "r")


def test_match_binds_slots():
    seg = Segment((ActionPattern("T.Op", ("x", "y")),))
    actions = [Action.make("T.Op", {"x": "a", "y": 2})]
    assert match_segment(seg, actions, 0) == {"x": "a", "y": 2}
    assert match_segment(seg, [Action.make("T.Op", {"x": "a"})], 0) is None
    assert match_segment(seg, [Action.make("U.Op", {"x": "a", "y": 2})], 0) is None


def test_match_requires_consistent_repeated_slots(ce_set):
    pair = ce_set.members[1]
    good = [
        Action.make("Files.Copy", {"src": "a", "dst": "b"}),
        Action.make("Files.Delete", {"path": "a"}),
    ]
    bad = [
        Action.make("Files.Copy", {"src": "a", "dst": "b"}),
        Action.make("Files.Delete", {"path": "c"}),
    ]
    assert match_segment(pair, good, 0) == {"src": "a", "dst": "b"}
    assert match_segment(pair, bad, 0) is None


def test_scan_finds_compositional_span(ce_set):
    actions = [
        Action.make("Files.Copy", {"src": "a", "dst": "b"}),
        Action.make("Files.Delete", {"path": "a"}),
    ]
    spans = scan_equivalence(actions, ce_set)
    assert len(spans) == 1
    m_idx, start, length, bindings = spans[0]
    assert (m_idx, start, length) == (1, 0, 2)
    assert bindings["src"] == "a" and bindings["dst"] == "b"


def test_scan_empty_when_no_tools_match(ce_set):
    spans = scan_equivalence([Action.make("Other.Tool", {"k": 1})], ce_set)
    assert spans == []


def test_scan_two_disjoint_spans_vs_brute_force(ce_set):
    actions = [
        Action.make("Files.Move", {"src": "a", "dst": "b"}),
        Action.make("Files.Move", {"src": "c", "dst": "d"}),
    ]
    spans = scan_equivalence(actions, ce_set)
    assert [(s[0], s[1], s[2]) for s in spans] == [(0, 0, 1), (0, 1, 1)]
    # brute force: check every (member, start) pair independently
    brute = []
    for start in range(len(actions)):
        for m_idx, member in enumerate(ce_set.members):
            if match_segment(member, actions, start) is not None:
                brute.append((m_idx, start, len(member)))
    assert brute == [(0, 0, 1), (0, 1, 1)]


def test_scan_prefers_longest_member_at_same_position():
    base = ActionPattern("A.Do", ("k",))
    extra = ActionPattern("A.Check", ("k",))
    short = Segment((base,))
    long = Segment((base, extra))
    eqset = EquivalenceSet("test.ae", "AE", (short, long))
    actions = [Action.make("A.Do", {"k": "x"}), Action.make("A.Check", {"k": "x"})]
    spans = scan_equivalence(actions, eqset)
    assert [(s[0], s[1], s[2]) for s in spans] == [(1, 0, 2)]
    # without the trailing check, only the short form matches
    spans = scan_equivalence(actions[:1], eqset)
    assert [(s[0], s[1], s[2]) for s in spans] == [(0, 0, 1)]


def test_scan_consumes_matched_regions():
    seg_a = Segment((ActionPattern("A.Do", ("k",)), ActionPattern("B.Do", ("k",))))
    seg_b = Segment((ActionPattern("B.Do", ("k",)),))
    eqset = EquivalenceSet("test.overlap", "CE", (seg_a, seg_b))
    actions = [
        Action.make("A.Do", {"k": "x"}),
        Action.make("B.Do", {"k": "x"}),
        Action.make("B.Do", {"k": "y"}),
    ]
    spans = scan_equivalence(actions, eqset)
    # the 2-action member consumes positions 0-1; position 2 matches alone
    assert [(s[0], s[1], s[2]) for s in spans] == [(0, 0, 2), (1, 2, 1)]


def test_rewrite_through_cross_map(ce_set):
    bindings = {"src": "a", "dst": "b"}
    atomic = ce_set.rewrite(1, 0, bindings)
    assert [a.tool for a in atomic] == ["Files.Move"]
    assert atomic[0].arg_map() == {"src": "a", "dst": "b"}
    decomposed = ce_set.rewrite(0, 1, {"src": "a", "dst": "b"})
    assert [a.tool for a in decomposed] == ["Files.Copy", "Files.Delete"]
    assert decomposed[1].arg_map() == {"path": "a"}


def test_rewrite_with_literal_fill():
    coarse = Segment((ActionPattern("P.Quick", ("dest",)),))
    fine = Segment((ActionPattern("P.Exact", ("dest", "mode")),))
    eqset = EquivalenceSet(
        "test.pgr", "PGR", (coarse, fine),
        cross_overrides={
            (0, 1): ((("dest", SlotRef("dest")), ("mode", Lit("std"))),),
            (1, 0): ((("dest", SlotRef("dest")),),),
        },
    )
    fine_actions = eqset.rewrite(0, 1, {"dest": "d1"})
    assert fine_actions[0].arg_map() == {"dest": "d1", "mode": "std"}
    coarse_actions = eqset.rewrite(1, 0, {"dest": "d1", "mode": "std"})
    assert coarse_actions[0].arg_map() == {"dest": "d1"}


def test_unresolvable_cross_map_rejected_at_build():
    a = Segment((ActionPattern("A.Op", ("x",)),))
    b = Segment((ActionPattern("B.Op", ("y",)),))
    # default mapping needs slot y from a match of member a, which lacks it
    with pytest.raises(MappingGap):
        EquivalenceSet("test.gap", "VR", (a, b))


def test_eqset_requires_two_members():
    seg = Segment((ActionPattern("A.Op", ("x",)),))
    with pytest.raises(ValueError):
        EquivalenceSet("test.single", "VR", (seg,))
    with pytest.raises(ValueError):
        EquivalenceSet("test.scheme", "XX", (seg, seg))


def test_eqset_json_round_trip(ce_set):
    obj = eqset_to_json(ce_set)
    clone = eqset_from_json(obj)
    assert eqset_to_json(clone) == obj
    actions = [
        Action.make("Files.Copy", {"src": "a", "dst": "b"}),
        Action.make("Files.Delete", {"path": "a"}),
    ]
    assert scan_equivalence(actions, clone) == scan_equivalence(actions, ce_set)


def test_estimate_natural_distribution(ce_set):
    corpus = [
        traj([Action.make("Files.Move", {"src": "a", "dst": "b"})], "q1"),
        traj([Action.make("Files.Move", {"src": "c", "dst": "d"}),
              Action.make("Files.Move", {"src": "e", "dst": "f"})], "q2"),
        traj([Action.make("Files.Copy", {"src": "g", "dst": "h"}),
              Action.make("Files.Delete", {"path": "g"})], "q3"),
    ]
    (counts,) = count_members(corpus, [ce_set])
    assert sum(counts) == 4
    assert Distribution.from_counts(counts).weights == (0.75, 0.25)


def test_estimate_raises_without_observations(ce_set):
    (counts,) = count_members([traj([Action.make("X.Y", {})])], [ce_set])
    with pytest.raises(NoObservations):
        Distribution.from_counts(counts)


def _stat_move_set() -> EquivalenceSet:
    """Bare move vs. stat-then-move: shares Files.Move with the move set."""
    return EquivalenceSet("test.ae.stat", "AE", (
        Segment((ActionPattern("Files.Move", ("src", "dst")),)),
        Segment((ActionPattern("Files.Stat", (("path", "src"),)),
                 ActionPattern("Files.Move", ("src", "dst")))),
    ))


def _ghost_set() -> EquivalenceSet:
    """A set whose tools never occur in the Files.* corpora."""
    return EquivalenceSet("test.vr.ghost", "VR", (
        Segment((ActionPattern("Ghost.Put", ("k",)),)),
        Segment((ActionPattern("Ghost.Store", ("k",)),)),
    ))


def _self_copy_set() -> EquivalenceSet:
    """Members whose one pattern binds both arguments to one slot."""
    return EquivalenceSet("test.ia.self", "IA", (
        Segment((ActionPattern("Files.Move", ("src", ("dst", "src"))),)),
        Segment((ActionPattern("Files.Copy", ("src", ("dst", "src"))),)),
    ))


def _three_step_set() -> EquivalenceSet:
    """Move vs. stat, copy, delete: three patterns sharing the ``src`` slot."""
    return EquivalenceSet("test.ce.three", "CE", (
        Segment((ActionPattern("Files.Move", ("src", "dst")),)),
        Segment((ActionPattern("Files.Stat", (("path", "src"),)),
                 ActionPattern("Files.Copy", ("src", "dst")),
                 ActionPattern("Files.Delete", (("path", "src"),)))),
    ))


# 1, True and "1" make ``!=`` between bound values matter: 1 == True != "1"
_VALUES = st.sampled_from(["a", "b", 1, True, "1"])

_FILE_ACTIONS = st.one_of(
    st.builds(lambda s, d: Action.make("Files.Move", {"src": s, "dst": d}), _VALUES, _VALUES),
    st.builds(lambda s, d: Action.make("Files.Copy", {"src": s, "dst": d}), _VALUES, _VALUES),
    st.builds(lambda p: Action.make("Files.Delete", {"path": p}), _VALUES),
    st.builds(lambda p: Action.make("Files.Stat", {"path": p}), _VALUES),
    # a missing argument, and an extra one
    st.builds(lambda s: Action.make("Files.Move", {"src": s}), _VALUES),
    st.builds(lambda d: Action.make("Files.Copy", {"dst": d}), _VALUES),
    st.builds(lambda s, d, m: Action.make("Files.Move", {"src": s, "dst": d, "mode": m}),
              _VALUES, _VALUES, _VALUES),
    st.builds(lambda p, m: Action.make("Files.Delete", {"path": p, "mode": m}),
              _VALUES, _VALUES),
)

# a tail that stops partway through a multi-action member
_PARTIAL_TAILS = st.sampled_from([
    (),
    (Action.make("Files.Copy", {"src": "a", "dst": "b"}),),
    (Action.make("Files.Stat", {"path": "a"}),),
    (Action.make("Files.Stat", {"path": "a"}), Action.make("Files.Copy", {"src": "a", "dst": "b"})),
])


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.lists(_FILE_ACTIONS, min_size=1, max_size=8), _PARTIAL_TAILS)
    .map(lambda parts: parts[0] + list(parts[1])),
    max_size=6,
))
def test_count_members_equals_per_set_scans(action_lists):
    corpus = [traj(actions, f"q{i}") for i, actions in enumerate(action_lists)]
    eqsets = [move_eqset(), _stat_move_set(), _ghost_set(), _self_copy_set(), _three_step_set()]
    expected = []
    for eqset in eqsets:
        row = [0] * len(eqset.members)
        for t in corpus:
            for m_idx, _, _, _ in scan_equivalence(t.actions, eqset):
                row[m_idx] += 1
        expected.append(row)
    counts = count_members(corpus, eqsets)
    assert counts == expected
    assert count_members_by_trajectory(corpus, eqsets) == [
        count_members([t], eqsets) for t in corpus
    ]
    pool = [make_pass(e, (0.5, 0.5), pass_id=i) for i, e in enumerate(eqsets, start=1)]
    evaluations = evaluate_passes(corpus, pool)
    assert [ev.observation_count for ev in evaluations] == [sum(row) for row in counts]
    assert evaluations[2].empirical is None


@pytest.mark.parametrize("name", ["data", "business", "social"])
def test_count_members_equals_per_set_scans_on_builtin_domains(name):
    # in real sets several members often start with the same tool (a base
    # call vs. the base call plus more), which the Files.* sets never do
    domain = builtin_domain(name)
    passes, _ = build_pool(domain, seed=42, n_validation_cases=1, calibration_size=300)
    corpus = generate_greybox_corpus(domain, 300, seed=5, id_prefix="d")
    watermarked, _ = watermark_corpus(corpus, passes, seed=6, uid_hex="1")
    for dump in (corpus, watermarked):
        expected = []
        for eqset in domain.eqsets:
            row = [0] * len(eqset.members)
            for t in dump:
                for m_idx, _, _, _ in scan_equivalence(t.actions, eqset):
                    row[m_idx] += 1
            expected.append(row)
        assert count_members(dump, domain.eqsets) == expected
        by_trajectory = count_members_by_trajectory(dump, domain.eqsets)
        assert [[sum(col) for col in zip(*rows)] for rows in zip(*by_trajectory)] == expected


def test_watermark_pass_verifies_biased(ce_set):
    natural = Distribution((0.6, 0.4))
    ok = WatermarkPass(1, ce_set, natural, 0, 2.0, 1)
    assert abs(sum(ok.biased.weights) - 1.0) <= 1e-12
    with pytest.raises(InvalidDistribution):
        WatermarkPass(1, ce_set, natural, 0, 2.0, 1, biased=Distribution((0.5, 0.5)))


# --- build-time checks and trusted construction ------------------------------

def _pgr_set(set_id, mode_source, fine_tool="P.Exact", mode_name="mode"):
    coarse = Segment((ActionPattern("P.Quick", ("dest",)),))
    fine = Segment((ActionPattern(fine_tool, ("dest", "mode")),))
    return EquivalenceSet(
        set_id, "PGR", (coarse, fine),
        cross_overrides={
            (0, 1): ((("dest", SlotRef("dest")), (mode_name, mode_source)),),
            (1, 0): ((("dest", SlotRef("dest")),),),
        },
    )


BAD_SETS = {
    "lit_list": lambda: _pgr_set("test.bad.set", Lit([1])),
    "lit_none": lambda: _pgr_set("test.bad.set", Lit(None)),
    "lit_nan": lambda: _pgr_set("test.bad.set", Lit(float("nan"))),
    "pattern_tool": lambda: _pgr_set("test.bad.set", Lit("std"), fine_tool="bad tool!"),
    "duplicate_cross_arg": lambda: _pgr_set("test.bad.set", Lit("std"), mode_name="dest"),
    "non_string_cross_arg": lambda: _pgr_set("test.bad.set", Lit("std"), mode_name=7),
}


@pytest.mark.parametrize("build", BAD_SETS.values(), ids=BAD_SETS.keys())
def test_bad_set_rejected_at_build(build):
    # each of these used to build, and failed only at the first rewrite
    with pytest.raises(TrajmarkError, match=r"set test\.bad\.set: mapping 0->1: "):
        build()


def test_built_set_and_domain_are_frozen(data_domain):
    # the build-time checks and the scan tables hold only while nothing
    # built can change under them
    eqset = _pgr_set("test.frozen", Lit("std"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        eqset.members = eqset.members[:1]
    with pytest.raises(TypeError):
        eqset.cross_overrides[(0, 1)] = ((("dest", Lit([1])),),)
    assert isinstance(data_domain.eqsets, tuple)
    assert isinstance(data_domain.templates, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        data_domain.templates = ()


def test_bad_set_in_pool_file_rejected_at_load(tmp_path, capsys):
    obj = pool_to_json([make_pass(_pgr_set("test.bad.pool", Lit("std")), (0.5, 0.5))])
    # the 0->1 cross map's literal for "mode" becomes null
    obj["passes"][0]["set"]["cross_maps"]["0->1"][0][1][1] = ["lit", None]
    with pytest.raises(TrajmarkError, match=r"set test\.bad\.pool: "):
        pool_from_json(obj)
    path = tmp_path / "pool.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", "--pool", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "set test.bad.pool" in err and "Traceback" not in err


_SCALARS = st.one_of(
    st.text(max_size=4),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
)
_TOOLS = st.sampled_from(["A.Op", "B.Op", "C_2.run", "d.e.f"])
_SLOTS = ("s", "t", "u")


@st.composite
def _small_sets(draw):
    """A random 2- or 3-member set over slots s, t, u and four tools.

    A member's patterns bind slots under their own argument names or
    renamed ones. Every ordered pair whose target needs a slot its source
    does not bind gets an explicit mapping of slot refs and literals.
    """
    members = []
    for _ in range(draw(st.integers(2, 3))):
        patterns = []
        for _ in range(draw(st.integers(1, 2))):
            slots = draw(st.lists(st.sampled_from(_SLOTS), unique=True, max_size=3))
            renamed = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
            patterns.append(ActionPattern(draw(_TOOLS), tuple(
                (f"arg_{slot}", slot) if rename else slot
                for slot, rename in zip(slots, renamed)
            )))
        members.append(Segment(tuple(patterns)))
    overrides = {}
    for src, source in enumerate(members):
        for dst, target in enumerate(members):
            if target.slots() <= source.slots() and not draw(st.booleans()):
                continue
            refs = sorted(source.slots())
            arg_sources = st.one_of(st.builds(Lit, _SCALARS), *(
                [st.sampled_from([SlotRef(s) for s in refs])] if refs else []
            ))
            overrides[(src, dst)] = tuple(
                tuple((arg, draw(arg_sources)) for arg, _ in pat.arg_slots)
                for pat in target.patterns
            )
    return EquivalenceSet("test.small", "VR", tuple(members), overrides)


def _assert_validated(actions):
    for a in actions:
        checked = Action(a.tool, a.args)
        assert type(a.args) is tuple
        assert a == checked and hash(a) == hash(checked)


@settings(max_examples=200, deadline=None)
@given(eqset=_small_sets(), values=st.lists(_SCALARS, min_size=3, max_size=3),
       seed=st.integers(0, 2**16))
def test_trusted_actions_equal_validated_ones(eqset, values, seed):
    bindings = dict(zip(_SLOTS, values))
    for src in range(len(eqset.members)):
        for dst in range(len(eqset.members)):
            mapping = eqset.cross_map(src, dst)
            _assert_validated(instantiate_mapping(mapping, eqset.members[dst], bindings))
            _assert_validated(eqset.rewrite(src, dst, bindings))
        _assert_validated(instantiate_member(eqset, src, random.Random(seed)))
