"""Trajectory model: parsing, serialization, and grey-box projection."""

import json
import random
import re

import pytest

from trajmark.cli import main
from trajmark.errors import EmptyActions, MalformedLine, SchemaViolation, TrajmarkError
from trajmark.trajectory import (
    Action,
    FullTrajectory,
    GreyBoxTrajectory,
    grey_box_view,
    parse_trajectory_line,
    read_jsonl,
    serialize_trajectory,
)


def random_trajectory(rng: random.Random, idx: int) -> GreyBoxTrajectory:
    actions = []
    for j in range(rng.randint(1, 6)):
        args = {}
        for a in range(rng.randint(0, 3)):
            name = f"arg{a}"
            args[name] = rng.choice(
                [f"v{rng.randrange(1000)}", rng.randrange(100), rng.random(), True]
            )
        actions.append(Action.make(f"Tool{rng.randrange(20)}.Op", args))
    uid = f"{rng.randrange(16**8):08x}" if rng.random() < 0.3 else None
    return GreyBoxTrajectory(
        query_id=f"q{idx:05d}",
        actions=tuple(actions),
        response=f"resp {rng.randrange(10**6)}",
        user_uid=uid,
    )


def test_minimal_valid_record():
    line = ('{"query_id":"q1","actions":[{"tool":"Gmail.SendEmail",'
            '"args":{"to":"bob"}}],"response":"sent"}')
    t = parse_trajectory_line(line)
    assert t.query_id == "q1"
    assert len(t.actions) == 1
    assert t.actions[0].tool == "Gmail.SendEmail"
    assert t.actions[0].args == (("to", "bob"),)
    assert t.response == "sent"
    assert t.user_uid is None


def test_empty_actions_rejected():
    with pytest.raises(EmptyActions):
        parse_trajectory_line('{"query_id":"q2","actions":[],"response":"x"}')


def test_malformed_and_schema_errors():
    with pytest.raises(MalformedLine):
        parse_trajectory_line("{not json")
    with pytest.raises(SchemaViolation):
        parse_trajectory_line('{"query_id":"q","response":"x"}')
    with pytest.raises(SchemaViolation):
        parse_trajectory_line('{"query_id":1,"actions":[],"response":"x"}')
    with pytest.raises(SchemaViolation):
        parse_trajectory_line(
            '{"query_id":"q","actions":[{"tool":"T","args":{"a":{"nested":1}}}],"response":"x"}'
        )
    with pytest.raises(SchemaViolation):
        parse_trajectory_line(
            '{"query_id":"q","actions":[{"tool":"T"}],"response":"x","extra":1}'
        )


_GOOD_LINE = b'{"query_id":"q","actions":[{"tool":"T.Op","args":{}}],"response":"r"}'

MALFORMED_LINES = {
    "deep_nesting": b'{"query_id":"q","actions":' + b"[" * 100_000 + b"]" * 100_000
    + b',"response":"r"}',
    "invalid_utf8": b'{"query_id":"q\xff","actions":[],"response":"r"}',
    "bad_json": b'{"query_id":"q",',
    "int_over_digit_limit": _GOOD_LINE.replace(b"{}", b'{"a":' + b"1" * 5000 + b"}"),
    "not_an_object": b'["q", [], "r"]',
    "unknown_key": _GOOD_LINE[:-1] + b',"extra":1}',
    "empty_actions": b'{"query_id":"q","actions":[],"response":"r"}',
    "non_scalar_arg": b'{"query_id":"q","actions":[{"tool":"T.Op","args":{"a":[1]}}],'
    b'"response":"r"}',
    "uppercase_uid": b'{"query_id":"q","user_uid":"ABC","actions":[{"tool":"T.Op"}],'
    b'"response":"r"}',
    "nan_arg": _GOOD_LINE.replace(b"{}", b'{"a":NaN}'),
    "infinity_arg": _GOOD_LINE.replace(b"{}", b'{"a":Infinity}'),
    "negative_infinity_arg": _GOOD_LINE.replace(b"{}", b'{"a":-Infinity}'),
    "overflow_float_arg": _GOOD_LINE.replace(b"{}", b'{"a":1e999}'),
}


@pytest.mark.parametrize("line", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys())
def test_malformed_line_names_path_and_line(tmp_path, line):
    path = tmp_path / "corpus.jsonl"
    # the bad line is line 3, after a good line and a blank one
    path.write_bytes(_GOOD_LINE + b"\n\n" + line + b"\n")
    with pytest.raises(TrajmarkError, match=re.escape(f"{path}:3: ")):
        read_jsonl(str(path))
    assert main(["validate", "--corpus", str(path), "--quiet"]) == 2


def test_serialize_shape():
    t = GreyBoxTrajectory("q1", (Action.make("Gmail.SendEmail", {"to": "bob"}),), "sent")
    line = serialize_trajectory(t)
    assert "\n" not in line and not line.endswith(" ")
    assert line.endswith('"response":"sent"}')
    assert list(json.loads(line)) == ["query_id", "actions", "response"]


def test_round_trip_identity_on_generated_corpus():
    rng = random.Random(1234)
    for idx in range(1000):
        t = random_trajectory(rng, idx)
        assert parse_trajectory_line(serialize_trajectory(t)) == t


def test_serialize_injective_on_corpus():
    rng = random.Random(99)
    corpus = [random_trajectory(rng, i) for i in range(1000)]
    lines = [serialize_trajectory(t) for t in corpus]
    # distinct trajectories must map to distinct lines
    by_line: dict[str, GreyBoxTrajectory] = {}
    for t, line in zip(corpus, lines):
        if line in by_line:
            assert by_line[line] == t
        by_line[line] = t
    distinct = {serialize_trajectory(t) for t in corpus}
    assert len(distinct) == len({serialize_trajectory(t) for t in corpus})


def test_arg_order_preserved_as_read():
    line = '{"query_id":"q","actions":[{"tool":"T","args":{"b":1,"a":2}}],"response":"r"}'
    t = parse_trajectory_line(line)
    assert t.actions[0].args == (("b", 1), ("a", 2))
    assert serialize_trajectory(t) == line.replace(" ", "")


def test_grey_box_view_projects_actions_and_response():
    steps = tuple(
        (f"think{i} [[HT:x{i}]]", Action.make(f"T{i}.Op", {"k": i}), f"obs{i} [[HO:y{i}]]")
        for i in range(3)
    )
    full = FullTrajectory("q9", steps, "final answer")
    grey = grey_box_view(full)
    assert len(grey.actions) == 3
    assert grey.response == "final answer"
    assert grey.query_id == "q9"
    # idempotent when lifted back through a trivial full trajectory
    relifted = FullTrajectory(
        grey.query_id, tuple(("", a, "") for a in grey.actions), grey.response
    )
    assert grey_box_view(relifted) == grey


def test_projection_never_leaks_hidden_fields():
    rng = random.Random(5)
    for idx in range(50):
        steps = tuple(
            (
                f"plan [[HT:{rng.randrange(10**9)}]]",
                Action.make("Tool.Op", {"k": f"v{i}"}),
                f"ok [[HO:{rng.randrange(10**9)}]]",
            )
            for i in range(rng.randint(1, 5))
        )
        full = FullTrajectory(f"q{idx}", steps, "done")
        line = serialize_trajectory(grey_box_view(full))
        assert "[[HT:" not in line and "[[HO:" not in line


def test_grey_box_strictly_smaller_than_full():
    rng = random.Random(6)
    for idx in range(50):
        steps = tuple(
            (
                f"plan step {i} [[HT:{rng.randrange(10**9)}]]",
                Action.make("Tool.Op", {"k": f"v{i}"}),
                f"ok Tool.Op [[HO:{rng.randrange(10**9)}]]",
            )
            for i in range(rng.randint(1, 5))
        )
        full = FullTrajectory(f"q{idx}", steps, "done")
        grey_tokens = len(serialize_trajectory(grey_box_view(full)).split())
        full_tokens = len(
            json.dumps(
                {
                    "query_id": full.query_id,
                    "steps": [
                        {"thought": t, "action": {"tool": a.tool, "args": dict(a.args)},
                         "observation": o}
                        for t, a, o in full.steps
                    ],
                    "response": full.response,
                }
            ).split()
        )
        assert grey_tokens < full_tokens


def test_action_validation():
    with pytest.raises(SchemaViolation):
        Action("bad tool!", ())
    with pytest.raises(SchemaViolation):
        Action("T", (("a", 1), ("a", 2)))
    with pytest.raises(SchemaViolation):
        GreyBoxTrajectory("q", (Action.make("T"),), "r", user_uid="XYZ")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_action_rejects_non_finite_float(value):
    # no JSON form exists, so such an action could be written but not read back
    with pytest.raises(SchemaViolation, match="finite"):
        Action.make("T", {"a": value})
