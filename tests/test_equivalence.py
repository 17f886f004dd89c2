"""Segment matching, scanning discipline, and set estimation."""

import dataclasses
import json

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
    MemberCounter,
    Segment,
    SlotRef,
    WatermarkPass,
    count_members,
    eqset_from_json,
    eqset_to_json,
    scan_equivalence,
)
from trajmark.errors import (
    InvalidDistribution, ManifestError, MappingGap, NoObservations, TrajmarkError,
)
from trajmark.injector import watermark_corpus
from trajmark.pool import build_pool, pool_from_json, pool_to_json
from trajmark.simkit.domains import DomainSpec, Template, TemplateItem, builtin_domain
from trajmark.simkit.generator import generate_greybox_corpus
from trajmark.simkit.sandbox import SandboxSpec
from trajmark.trajectory import (
    Action, GreyBoxTrajectory, parse_trajectory_line, serialize_trajectory,
)
from trajmark.verifier import evaluate_passes


def traj(actions, qid="q"):
    return GreyBoxTrajectory(qid, tuple(actions), "r")


_MISSING = object()


def reference_match(segment, actions, start):
    """Match ``segment`` at ``actions[start:]`` and bind its slots in one pass.

    The package decides a match from a compiled shape and binds it
    afterwards; this oracle does both at once, from the patterns alone.
    Tools must match in order, every slot must bind, and repeated slot
    names must bind equal values; the first occurrence of a slot gives its
    value. Returns the bindings as the package gives them, the values in
    the order of the sorted slot names, or None on any failure.
    """
    if start + len(segment) > len(actions):
        return None
    bindings = {}
    for offset, pattern in enumerate(segment.patterns):
        action = actions[start + offset]
        if action.tool != pattern.tool:
            return None
        arg_map = action.arg_map()
        for arg_name, slot in pattern.arg_slots:
            value = arg_map.get(arg_name, _MISSING)
            if value is _MISSING:
                return None
            bound = bindings.get(slot, _MISSING)
            if bound is _MISSING:
                bindings[slot] = value
            elif bound != value:
                return None
    return tuple(bindings[slot] for slot in sorted(bindings))


def reference_rewrite(mapping, target, bindings):
    """Build ``target``'s actions by reading ``mapping`` against ``bindings``.

    The package compiles each effective mapping into a plan when its set
    is built and ``rewrite`` reads the plan; this oracle interprets the
    mapping on every call, through the checked ``Action`` constructor,
    and refuses a mapping of the wrong arity or a slot with no binding.
    """
    if len(mapping) != len(target.patterns):
        raise MappingGap("mapping arity does not match target segment")
    actions = []
    for pattern, entry in zip(target.patterns, mapping):
        args = []
        for arg_name, source in entry:
            if isinstance(source, Lit):
                args.append((arg_name, source.value))
            else:
                if source.slot not in bindings:
                    raise MappingGap(
                        f"no binding for slot {source.slot!r} needed by "
                        f"{pattern.tool}.{arg_name}"
                    )
                args.append((arg_name, bindings[source.slot]))
        actions.append(Action(pattern.tool, tuple(args)))
    return tuple(actions)


def typed(values):
    """Values with each one's type: ``(1,) == (True,)``, these differ."""
    return [(type(v), v) for v in values]


def typed_spans(spans):
    return [(m_idx, start, length, typed(b)) for m_idx, start, length, b in spans]


def typed_actions(actions):
    return [(a.tool, [(k, type(v), v) for k, v in a.args]) for a in actions]


def reference_scan(actions, eqset):
    """The greedy scan, kept apart from the package's walk as its oracle.

    At each position, ``reference_match`` tries the members sorted by
    ``(-len, index)``; the first hit is reported with its bindings and its
    span is consumed.
    """
    members = eqset.members
    order = sorted(range(len(members)), key=lambda i: (-len(members[i]), i))
    out = []
    pos = 0
    while pos < len(actions):
        for m_idx in order:
            bindings = reference_match(members[m_idx], actions, pos)
            if bindings is not None:
                out.append((m_idx, pos, len(members[m_idx]), bindings))
                pos += len(members[m_idx])
                break
        else:
            pos += 1
    return out


def reference_counts(corpus, eqsets):
    """Per-set member counts summed from ``reference_scan``."""
    counts = []
    for eqset in eqsets:
        row = [0] * len(eqset.members)
        for t in corpus:
            for m_idx, _, _, _ in reference_scan(t.actions, eqset):
                row[m_idx] += 1
        counts.append(row)
    return counts


def test_match_binds_slots():
    eqset = EquivalenceSet("test.vr.op", "VR", (
        Segment((ActionPattern("T.Op", ("x", "y")),)),
        Segment((ActionPattern("U.Op", ("x", "y")),)),
    ))
    actions = [Action.make("T.Op", {"x": "a", "y": 2})]
    assert eqset.match_at(actions, 0) == (0, ("a", 2))
    assert scan_equivalence(actions, eqset) == [(0, 0, 1, ("a", 2))]
    # the values are in the member's sorted slot order, not argument order
    swapped = [Action.make("U.Op", {"y": 2, "x": "a"})]
    assert eqset.match_at(swapped, 0) == (1, ("a", 2))
    assert eqset.match_at([Action.make("T.Op", {"x": "a"})], 0) is None
    assert eqset.match_at([Action.make("V.Op", {"x": "a", "y": 2})], 0) is None


def test_match_requires_consistent_repeated_slots(ce_set):
    good = [
        Action.make("Files.Copy", {"src": "a", "dst": "b"}),
        Action.make("Files.Delete", {"path": "a"}),
    ]
    bad = [
        Action.make("Files.Copy", {"src": "a", "dst": "b"}),
        Action.make("Files.Delete", {"path": "c"}),
    ]
    # member 1 binds slots dst and src, in that order
    assert ce_set.members[1].slot_order == ("dst", "src")
    assert ce_set.match_at(good, 0) == (1, ("b", "a"))
    assert scan_equivalence(good, ce_set) == [(1, 0, 2, ("b", "a"))]
    assert ce_set.match_at(bad, 0) is None
    assert scan_equivalence(bad, ce_set) == []
    # 1 == True, so the pair matches; the slot keeps its first value, the int
    mixed = [
        Action.make("Files.Copy", {"src": 1, "dst": "b"}),
        Action.make("Files.Delete", {"path": True}),
    ]
    m_idx, bindings = ce_set.match_at(mixed, 0)
    assert (m_idx, typed(bindings)) == (1, [(str, "b"), (int, 1)])


def test_scan_finds_compositional_span(ce_set):
    actions = [
        Action.make("Files.Copy", {"src": "a", "dst": "b"}),
        Action.make("Files.Delete", {"path": "a"}),
    ]
    spans = scan_equivalence(actions, ce_set)
    assert len(spans) == 1
    m_idx, start, length, bindings = spans[0]
    assert (m_idx, start, length) == (1, 0, 2)
    assert dict(zip(ce_set.members[1].slot_order, bindings)) == {"src": "a", "dst": "b"}


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
            if reference_match(member, actions, start) is not None:
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
    # both members bind the slots (dst, src), and values come in that order
    assert [m.slot_order for m in ce_set.members] == [("dst", "src")] * 2
    atomic = ce_set.rewrite(1, 0, ("b", "a"))
    assert [a.tool for a in atomic] == ["Files.Move"]
    assert atomic[0].arg_map() == {"src": "a", "dst": "b"}
    decomposed = ce_set.rewrite(0, 1, ("b", "a"))
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
    assert eqset.base_slots == ("dest",)
    fine_actions = eqset.rewrite(0, 1, ("d1",))
    assert fine_actions[0].arg_map() == {"dest": "d1", "mode": "std"}
    # member 1's values are (dest, mode); the knob is dropped
    coarse_actions = eqset.rewrite(1, 0, ("d1", "std"))
    assert coarse_actions[0].arg_map() == {"dest": "d1"}


def test_unresolvable_cross_map_rejected_at_build():
    a = Segment((ActionPattern("A.Op", ("x",)),))
    b = Segment((ActionPattern("B.Op", ("y",)),))
    # default mapping needs slot y from a match of member a, which lacks it
    with pytest.raises(MappingGap):
        EquivalenceSet("test.gap", "VR", (a, b))


@pytest.mark.parametrize("param_map", [
    # one entry for a two-action member
    ((("x", SlotRef("x")),),),
    # a slot no pattern of the member binds
    ((("x", SlotRef("x")),), (("y", SlotRef("z")),)),
])
def test_member_param_map_is_checked_by_its_set(param_map):
    # a segment's own param_map is checked when a set is built from it
    plain = Segment((ActionPattern("A.Op", ("x",)), ActionPattern("A.Aux", ("y",))))
    mapped = Segment(plain.patterns, param_map)
    with pytest.raises(MappingGap):
        EquivalenceSet("test.own", "VR", (plain, mapped))


def test_eqset_requires_two_members():
    seg = Segment((ActionPattern("A.Op", ("x",)),))
    with pytest.raises(ManifestError):
        EquivalenceSet("test.single", "VR", (seg,))
    with pytest.raises(ManifestError):
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


def _copy_delete_set() -> EquivalenceSet:
    """Copy vs. copy then delete the source: two members start with Files.Copy."""
    return EquivalenceSet("test.ce.copy", "CE", (
        Segment((ActionPattern("Files.Copy", ("src", "dst")),)),
        Segment((ActionPattern("Files.Copy", ("src", "dst")),
                 ActionPattern("Files.Delete", (("path", "src"),)))),
    ))


def _move_copy_set() -> EquivalenceSet:
    """Move vs. copy, one action each: a set a walk keeps no cursor for."""
    return EquivalenceSet("test.vr.move", "VR", (
        Segment((ActionPattern("Files.Move", ("src", "dst")),)),
        Segment((ActionPattern("Files.Copy", ("src", "dst")),)),
    ))


def _move_stat_set() -> EquivalenceSet:
    """Move by source alone vs. stat: a second cursorless set starting with Files.Move."""
    return EquivalenceSet("test.pgr.move", "PGR", (
        Segment((ActionPattern("Files.Move", ("src",)),)),
        Segment((ActionPattern("Files.Stat", (("path", "src"),)),)),
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


FILE_ACTION_LISTS = st.lists(
    st.tuples(st.lists(_FILE_ACTIONS, min_size=1, max_size=8), _PARTIAL_TAILS)
    .map(lambda parts: parts[0] + list(parts[1])),
    max_size=6,
)


def file_sets():
    """Sets over the Files.* tools; several share tools and overlap in a corpus.

    Files.Move starts members of sets that keep a cursor and of two that
    do not, so one argument-name list resolves for several sets of both
    kinds.
    """
    return [move_eqset(), _stat_move_set(), _ghost_set(), _self_copy_set(), _three_step_set(),
            _copy_delete_set(), _move_copy_set(), _move_stat_set()]


@settings(max_examples=200, deadline=None)
@given(FILE_ACTION_LISTS)
def test_count_members_equals_per_set_scans(action_lists):
    corpus = [traj(actions, f"q{i}") for i, actions in enumerate(action_lists)]
    eqsets = file_sets()
    for t in corpus:
        for eqset in eqsets:
            assert typed_spans(scan_equivalence(t.actions, eqset)) == typed_spans(
                reference_scan(t.actions, eqset)
            )
    expected = reference_counts(corpus, eqsets)
    counts = count_members(corpus, eqsets)
    assert counts == expected
    # one counter serves the whole corpus; ``of`` leaves its counts alone
    counter = MemberCounter(eqsets)
    by_trajectory = [counter.of(t) for t in corpus]
    assert by_trajectory == [count_members([t], eqsets) for t in corpus]
    assert counter.counts == [[0] * len(eqset.members) for eqset in eqsets]
    # a one-shot stream is counted as it is read, to the same vectors
    assert count_members((t for t in corpus), eqsets) == counts
    # the spans ``add`` reports are, set by set, the reference scan's; the
    # sets share first tools, so one signature resolves for several sets
    for t in corpus:
        spans = []
        counter.add(t, spans)
        for s_idx, eqset in enumerate(eqsets):
            assert [span[1:] for span in spans if span[0] == s_idx] == [
                span[:3] for span in reference_scan(t.actions, eqset)
            ]
    assert counter.counts == expected
    # a parsed copy holds equal but unshared argument names: the counter's
    # signature table takes them for the names it has seen
    for t in corpus:
        counter.add(parse_trajectory_line(serialize_trajectory(t)))
    assert counter.counts == [[2 * c for c in row] for row in expected]
    pool = [make_pass(e, (0.5, 0.5), pass_id=i) for i, e in enumerate(eqsets, start=1)]
    evaluations = evaluate_passes(corpus, pool)
    assert [ev.observation_count for ev in evaluations] == [sum(row) for row in counts]
    assert evaluations[2].empirical is None


@settings(max_examples=200, deadline=None)
@given(FILE_ACTION_LISTS)
def test_match_at_is_first_member_in_scan_order(action_lists):
    for actions in action_lists:
        for eqset in file_sets():
            members = eqset.members
            order = sorted(range(len(members)), key=lambda i: (-len(members[i]), i))
            for pos in range(len(actions)):
                expected = None
                for m_idx in order:
                    bindings = reference_match(members[m_idx], actions, pos)
                    if bindings is not None:
                        expected = (m_idx, typed(bindings))
                        break
                hit = eqset.match_at(actions, pos)
                assert (None if hit is None else (hit[0], typed(hit[1]))) == expected
            assert eqset.match_at(actions, len(actions)) is None
            assert eqset.match_at(actions, len(actions) + 1) is None


@pytest.mark.parametrize("name", ["data", "business", "social"])
def test_count_members_equals_per_set_scans_on_builtin_domains(name):
    # in real sets several members often start with the same tool (a base
    # call vs. the base call plus more), which the Files.* sets never do
    domain = builtin_domain(name)
    passes, _ = build_pool(domain, seed=42, n_validation_cases=1, calibration_size=300)
    corpus = generate_greybox_corpus(domain, 300, seed=5, id_prefix="d")
    watermarked, _ = watermark_corpus(corpus, passes, seed=6, uid_hex="1")
    for dump in (corpus, watermarked):
        for t in dump:
            for eqset in domain.eqsets:
                assert typed_spans(scan_equivalence(t.actions, eqset)) == typed_spans(
                    reference_scan(t.actions, eqset)
                )
        expected = reference_counts(dump, domain.eqsets)
        assert count_members(dump, domain.eqsets) == expected
        of = MemberCounter(domain.eqsets).of
        by_trajectory = [of(t) for t in dump]
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
            if set(target.slot_order) <= set(source.slot_order) and not draw(st.booleans()):
                continue
            refs = source.slot_order
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
    k = len(eqset.members)
    for src in range(k):
        # member src's values, in the order of its sorted slot names
        slots = {slot for pat in eqset.members[src].patterns for _, slot in pat.arg_slots}
        src_values = tuple(bindings[slot] for slot in sorted(slots))
        for dst in range(k):
            actions = eqset.rewrite(src, dst, src_values)
            _assert_validated(actions)
            # the effective mapping: the pair's override, else the target's own
            mapping = eqset.cross_overrides.get((src, dst), eqset.members[dst].param_map)
            expected = reference_rewrite(mapping, eqset.members[dst], bindings)
            assert typed_actions(actions) == typed_actions(expected)
    # the generator draws tokens for member 0's slots and rewrites them onto
    # the member it drew; one trajectory per member, each forced by its draw
    domain = DomainSpec(
        "small", SandboxSpec(), (eqset,), {eqset.id: Distribution((1.0 / k,) * k)},
        {eqset.id: 0}, (Template("t", (TemplateItem("slot", set_id=eqset.id),)),),
    )
    for member in range(k):
        only = Distribution(tuple(float(m == member) for m in range(k)))
        forced = dataclasses.replace(domain, natural={eqset.id: only})
        (generated,) = generate_greybox_corpus(forced, 1, seed)
        _assert_validated(generated.actions)
        assert [a.tool for a in generated.actions] == [
            p.tool for p in eqset.members[member].patterns
        ]
