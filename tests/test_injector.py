"""Watermark insertion: spans, draws, ordering, and ground truth."""

import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import make_pass, move_eqset
from trajmark.cli import main
from trajmark.equivalence import (
    ActionPattern,
    Distribution,
    EquivalenceSet,
    Segment,
    count_members,
)
from trajmark.errors import EmptyActions, TrajmarkError
from trajmark.injector import (
    _carry_positions,
    apply_pass,
    changed_positions,
    read_edit_positions,
    watermark_corpus,
    watermark_trajectory,
    write_edits,
)
from trajmark.pool import build_pool
from trajmark.registry import Registry, passes_for_uid, register_user
from trajmark.simkit.domains import builtin_domain
from trajmark.simkit.generator import generate_greybox_corpus
from trajmark.simkit.sandbox import segments_equivalent
from trajmark.trajectory import Action, GreyBoxTrajectory, write_jsonl


def traj(actions, qid="q"):
    return GreyBoxTrajectory(qid, tuple(actions), "r")


def test_degenerate_draw_keeps_original(ce_set):
    # delta 50 pushes essentially all mass onto the target member
    p = make_pass(ce_set, (0.6, 0.4), target_index=0, delta=50.0)
    actions = (Action.make("Files.Move", {"src": "a", "dst": "b"}),)
    out, edits = apply_pass(actions, p, random.Random(0))
    assert out == actions
    assert len(edits) == 1
    assert edits[0].replacement_index == 0
    assert not edits[0].changed


def test_forced_swap_rewrites_span(ce_set):
    p = make_pass(ce_set, (0.6, 0.4), target_index=0, delta=50.0)
    actions = (
        Action.make("Files.Copy", {"src": "a", "dst": "b"}),
        Action.make("Files.Delete", {"path": "a"}),
    )
    out, edits = apply_pass(actions, p, random.Random(0))
    assert [a.tool for a in out] == ["Files.Move"]
    assert out[0].arg_map() == {"src": "a", "dst": "b"}
    assert edits[0].changed and edits[0].replacement_index == 0


def test_monte_carlo_replacement_frequency(ce_set):
    # natural (0.5, 0.5) at delta ln3 biases member 0 to exactly 0.75
    p = make_pass(ce_set, (0.5, 0.5), target_index=0, delta=math.log(3))
    assert p.biased.weights == pytest.approx((0.75, 0.25), abs=1e-12)
    rng = random.Random(7)
    actions = (Action.make("Files.Move", {"src": "a", "dst": "b"}),)
    hits = 0
    for _ in range(10000):
        _, edits = apply_pass(actions, p, rng)
        hits += edits[0].replacement_index == 0
    freq = hits / 10000
    assert 0.74 <= freq <= 0.76
    # the same draws must survive a two-sided binomial test at alpha 0.01
    assert stats.binomtest(hits, 10000, 0.75).pvalue > 0.01


def test_empty_pass_list_is_identity(ce_set):
    t = traj([Action.make("Files.Move", {"src": "a", "dst": "b"})])
    out, edits = watermark_trajectory(t, [], random.Random(0))
    assert out == t and edits == []


def test_injector_rejects_empty_trajectory():
    with pytest.raises(EmptyActions):
        watermark_trajectory(
            GreyBoxTrajectory("q", (), "r"), [], random.Random(0)
        )


def _order_fixture():
    """Pass A rewrites X.Do to Y.Do; pass B folds [Y.Do, Z.Fin] into W.All."""
    set_a = EquivalenceSet(
        "fix.vr", "VR",
        (Segment((ActionPattern("X.Do", ("k",)),)),
         Segment((ActionPattern("Y.Do", ("k",)),))),
    )
    set_b = EquivalenceSet(
        "fix.ce", "CE",
        (Segment((ActionPattern("Y.Do", ("k",)), ActionPattern("Z.Fin", ("k",)))),
         Segment((ActionPattern("W.All", ("k",)),))),
    )
    pass_a = make_pass(set_a, (0.5, 0.5), target_index=1, delta=50.0, pass_id=1)
    pass_b = make_pass(set_b, (0.5, 0.5), target_index=1, delta=50.0, pass_id=2)
    return pass_a, pass_b


def test_pass_order_changes_outcome():
    pass_a, pass_b = _order_fixture()
    t = traj([Action.make("X.Do", {"k": "v"}), Action.make("Z.Fin", {"k": "v"})])

    pass_a.order_rank, pass_b.order_rank = 1, 2
    out_ab, _ = watermark_trajectory(t, [pass_a, pass_b], random.Random(0))
    assert [a.tool for a in out_ab.actions] == ["W.All"]

    pass_a.order_rank, pass_b.order_rank = 2, 1
    out_ba, _ = watermark_trajectory(t, [pass_a, pass_b], random.Random(0))
    assert [a.tool for a in out_ba.actions] == ["Y.Do", "Z.Fin"]


def test_determinism_and_locality(data_domain, data_pool):
    corpus = generate_greybox_corpus(data_domain, 50, seed=321, id_prefix="d")
    reg = Registry("data", len(data_pool))
    user = register_user(reg, rng_seed=4)
    active = passes_for_uid(user.uid_hex, data_pool)
    wm1, edits1 = watermark_corpus(corpus, active, seed=99, uid_hex=user.uid_hex)
    wm2, edits2 = watermark_corpus(corpus, active, seed=99, uid_hex=user.uid_hex)
    assert wm1 == wm2
    assert [
        [(e.pass_id, e.start, e.replacement_index) for e in es] for es in edits1
    ] == [[(e.pass_id, e.start, e.replacement_index) for e in es] for es in edits2]
    original_ids = {id(a) for t in corpus for a in t.actions}
    for before, after, edits in zip(corpus, wm1, edits1):
        assert after.response == before.response
        assert after.query_id == before.query_id
        # actions outside every matched span are the original objects
        touched = {p for e in edits for p in e.final_positions}
        for i, action in enumerate(after.actions):
            if i not in touched:
                assert id(action) in original_ids
        if not edits:
            assert after.actions == before.actions


def test_final_positions_track_rewrites(ce_set):
    p = make_pass(ce_set, (0.6, 0.4), target_index=1, delta=50.0)
    t = traj(
        [Action.make("Other.Tool", {"k": 1}),
         Action.make("Files.Move", {"src": "a", "dst": "b"}),
         Action.make("Other.Tool", {"k": 2})]
    )
    out, edits = watermark_trajectory(t, [p], random.Random(1))
    assert [a.tool for a in out.actions] == [
        "Other.Tool", "Files.Copy", "Files.Delete", "Other.Tool"
    ]
    assert edits[0].changed
    assert edits[0].final_positions == (1, 2)
    assert changed_positions([edits]) == {0: {1, 2}}


def test_final_positions_with_aliased_actions():
    # one Move object sits at indices 0 and 2; both draws keep it
    a = Action.make("Files.Move", {"src": "a", "dst": "b"})
    f = Action.make("Other.Tool", {"k": 1})
    p = make_pass(move_eqset(), (0.6, 0.4), target_index=0, delta=0.0)
    out, edits = watermark_trajectory(traj([a, f, a]), [p], random.Random(3))
    assert out.actions == (a, f, a)
    assert [e.changed for e in edits] == [False, False]
    assert [e.final_positions for e in edits] == [(0,), (2,)]


_POSITION_ACTIONS = st.sampled_from([
    ("X.Do", {"k": "u"}), ("X.Do", {"k": "v"}), ("Y.Do", {"k": "u"}),
    ("Z.Fin", {"k": "u"}), ("Z.Fin", {"k": "v"}), ("W.All", {"k": "u"}),
    ("Files.Move", {"src": "a", "dst": "b"}),
    ("Files.Copy", {"src": "a", "dst": "b"}), ("Files.Delete", {"path": "a"}),
    ("Other.Tool", {"k": 1}),
])


@settings(max_examples=200, deadline=None)
@given(
    items=st.lists(_POSITION_ACTIONS, min_size=1, max_size=12),
    ranks=st.permutations([1, 2, 3]),
    seed=st.integers(0, 2**16),
)
def test_final_positions_match_object_identity(items, ranks, seed):
    """Without aliasing, position arithmetic agrees with tracking objects."""
    pass_a, pass_b = _order_fixture()
    passes = [
        make_pass(pass_a.eqset, (0.5, 0.5), delta=0.0, pass_id=1, order_rank=ranks[0]),
        make_pass(pass_b.eqset, (0.5, 0.5), delta=0.0, pass_id=2, order_rank=ranks[1]),
        make_pass(move_eqset(), (0.5, 0.5), delta=0.0, pass_id=3, order_rank=ranks[2]),
    ]
    t = traj([Action.make(tool, args) for tool, args in items])
    out, edits = watermark_trajectory(t, passes, random.Random(seed))
    position_of = {id(a): i for i, a in enumerate(out.actions)}
    assert len(position_of) == len(out.actions)
    for edit in edits:
        expected = tuple(
            position_of[id(a)] for a in edit.rewritten_actions if id(a) in position_of
        )
        assert edit.final_positions == expected


def _unskipped_watermark(t, passes, rng):
    """Reference injector: every pass scans, in ``order_rank`` order."""
    actions = t.actions
    edits, positions = [], []
    for wm_pass in sorted(passes, key=lambda p: p.order_rank):
        actions, new_edits = apply_pass(actions, wm_pass, rng)
        positions = [_carry_positions(pos, new_edits) for pos in positions]
        shift = 0
        for edit in new_edits:
            start = edit.start + shift
            positions.append(list(range(start, start + len(edit.rewritten_actions))))
            shift += len(edit.rewritten_actions) - edit.length
        edits.extend(new_edits)
    for edit, pos in zip(edits, positions):
        edit.final_positions = tuple(pos)
    return replace(t, actions=actions), edits


def _late_set(set_id, first, second):
    return EquivalenceSet(set_id, "VR", (
        Segment((ActionPattern(first, ("k",)),)), Segment((ActionPattern(second, ("k",)),)),
    ))


@settings(max_examples=300, deadline=None)
@given(
    items=st.lists(_POSITION_ACTIONS, min_size=1, max_size=12),
    ranks=st.permutations([1, 2, 3, 4, 5]),
    deltas=st.lists(st.sampled_from([0.0, 1.0, 50.0]), min_size=5, max_size=5),
    targets=st.lists(st.integers(0, 1), min_size=5, max_size=5),
    seed=st.integers(0, 2**16),
)
def test_skipping_idle_passes_changes_nothing(items, ranks, deltas, targets, seed):
    """Skipping passes with no first tool present equals running every pass.

    Y.Do occurs in no generated trajectory, and W.All in few: the fold and
    alias passes often match only what an earlier pass wrote.
    """
    pass_a, pass_b = _order_fixture()
    eqsets = [pass_a.eqset, pass_b.eqset, move_eqset(),
              _late_set("fix.late", "W.All", "V.One"), _late_set("fix.ghost", "G.Put", "G.Set")]
    passes = [
        make_pass(eqset, (0.5, 0.5), target_index=target, delta=delta,
                  pass_id=i, order_rank=rank)
        for i, (eqset, rank, delta, target) in enumerate(
            zip(eqsets, ranks, deltas, targets), start=1)
    ]
    t = traj([Action.make(tool, args) for tool, args in items if tool != "Y.Do"])
    if not t.actions:
        return
    rng, reference_rng = random.Random(seed), random.Random(seed)
    out, edits = watermark_trajectory(t, passes, rng)
    expected, expected_edits = _unskipped_watermark(t, passes, reference_rng)
    assert out == expected
    assert edits == expected_edits
    assert [e.final_positions for e in edits] == [e.final_positions for e in expected_edits]
    assert rng.random() == reference_rng.random()


def test_closed_loop_recovery_small_dense_corpus(mini_domain):
    """1,000 trajectories of the dense domain recover every biased target."""
    passes, _ = build_pool(mini_domain, seed=11, calibration_size=3000)
    corpus = generate_greybox_corpus(mini_domain, 1000, seed=22, id_prefix="m")
    wm, _ = watermark_corpus(corpus, passes, seed=33, uid_hex="ff")
    for p, counts in zip(passes, count_members(wm, [p.eqset for p in passes])):
        assert sum(counts) >= 2000
        estimated = Distribution.from_counts(counts)
        assert estimated.l1_distance(p.biased) < 0.05, p.eqset.id


def _check_edits_equivalent(domain, pool, corpus_seed, user_seed, inject_seed) -> int:
    """Assert every changed edit is sandbox-equivalent to its original.

    Watermarks a small generated corpus for one registered user and returns
    the number of changed edits checked.
    """
    corpus = generate_greybox_corpus(domain, 120, seed=corpus_seed, id_prefix="sp")
    reg = Registry(domain.name, len(pool))
    user = register_user(reg, rng_seed=user_seed)
    active = passes_for_uid(user.uid_hex, pool)
    _, edits_by_traj = watermark_corpus(corpus, active, seed=inject_seed, uid_hex=user.uid_hex)
    schemes = {p.pass_id: p.eqset.scheme for p in pool}
    checked = 0
    for edits in edits_by_traj:
        for edit in edits:
            if not edit.changed:
                continue
            env = {}
            for action in edit.original_actions + edit.rewritten_actions:
                for _, value in action.args:
                    if isinstance(value, str):
                        env[value] = f"data:{value}"
            assert segments_equivalent(
                edit.original_actions,
                edit.rewritten_actions,
                domain.sandbox,
                env,
                erase_ancillary=schemes[edit.pass_id] == "AE",
            ), (edit.pass_id, edit.original_actions, edit.rewritten_actions)
            checked += 1
    return checked


def test_semantic_preservation_of_edits(data_domain, data_pool):
    assert _check_edits_equivalent(data_domain, data_pool, 55, 8, 66) > 30


@pytest.fixture(scope="module")
def domain_pools(data_domain, data_pool):
    pools = {"data": (data_domain, data_pool)}
    for name in ("business", "social"):
        domain = builtin_domain(name)
        passes, report = build_pool(domain, seed=42)
        assert not report.rejected
        pools[name] = (domain, passes)
    return pools


@settings(max_examples=20, deadline=None)
@given(seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 2**32)))
def test_changed_edits_are_sandbox_equivalent(domain_pools, seeds):
    for name, (domain, pool) in domain_pools.items():
        assert _check_edits_equivalent(domain, pool, *seeds) > 0, name


def test_edit_log_round_trip(tmp_path, data_domain, data_pool):
    corpus = generate_greybox_corpus(data_domain, 60, seed=56, id_prefix="el")
    reg = Registry("data", len(data_pool))
    user = register_user(reg, rng_seed=9)
    active = passes_for_uid(user.uid_hex, data_pool)
    _, edits_by_traj = watermark_corpus(corpus, active, seed=67, uid_hex=user.uid_hex)
    path = tmp_path / "edits.jsonl"
    write_edits(str(path), corpus, edits_by_traj)
    truth = changed_positions(edits_by_traj)
    assert truth
    assert read_edit_positions(str(path)) == truth


_GOOD_EDIT = b'{"traj_index":0,"changed":true,"final_positions":[0]}'
MALFORMED_EDIT_LINES = {
    "not_an_object": b"[1]",
    "final_positions_not_array": b'{"traj_index":0,"changed":true,"final_positions":5}',
    "final_position_not_int": b'{"traj_index":0,"changed":true,"final_positions":["0"]}',
    "bad_json": b'{"traj_index":0,',
    "missing_traj_index": b'{"changed":true,"final_positions":[0]}',
    "negative_traj_index": b'{"traj_index":-1,"changed":true,"final_positions":[0]}',
    "changed_not_bool": b'{"traj_index":0,"changed":"yes","final_positions":[0]}',
    "invalid_utf8": b'{"traj_index":0,"changed":true,"final_positions":[0],"q":"\xff"}',
}


@pytest.mark.parametrize(
    "line", MALFORMED_EDIT_LINES.values(), ids=MALFORMED_EDIT_LINES.keys()
)
def test_malformed_edit_line_names_path_and_line(tmp_path, capsys, line):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(str(corpus), [traj([Action.make("T.Op", {"k": "v"})])])
    edits = tmp_path / "edits.jsonl"
    # the bad line is line 3, after a good line and a blank one
    edits.write_bytes(_GOOD_EDIT + b"\n\n" + line + b"\n")
    where = f"{edits}:3: "
    with pytest.raises(TrajmarkError, match=re.escape(where)):
        read_edit_positions(str(edits))
    code = main(["attack", "--strategy", "rephrase-stub", "--in", str(corpus),
                 "--edits", str(edits), "--out", str(tmp_path / "out.jsonl"),
                 "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err
