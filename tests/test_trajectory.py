"""Trajectory model: parsing, serialization, and grey-box projection."""

import gc
import inspect
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajmark.cli import main
from trajmark.errors import EmptyActions, MalformedLine, SchemaViolation, TrajmarkError
from trajmark.experiment import run_stage
from trajmark.injector import watermark_corpus, watermark_trajectory
from trajmark.pool import build_pool
from trajmark.registry import register_user
from trajmark.simkit.surrogate import sample_surrogate
from trajmark.trajectory import (
    Action,
    FullTrajectory,
    GreyBoxTrajectory,
    _gc_paused,
    grey_box_view,
    parse_trajectory_line,
    read_jsonl,
    serialize_trajectory,
)
from trajmark.verifier import localize_user


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


class _Str(str):
    def __repr__(self):
        return "not-json"


class _Int(int):
    def __repr__(self):
        return "not-json"

    __str__ = __repr__


class _Float(float):
    def __repr__(self):
        return "not-json"

    __str__ = __repr__


_TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028", "ünï\ud7ff🜁", ""])
_VALUES = st.one_of(
    _TEXT,
    _TEXT.map(_Str),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.integers(-(10**40), 10**40).map(_Int),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(_Float),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e16, 1e-7, 2.0**53 + 1, _Float(-0.0), _Int(-1)]),
)
_ACTIONS = st.builds(
    Action.make,
    st.from_regex(r"[A-Za-z0-9_.]+", fullmatch=True),
    st.dictionaries(_TEXT | _TEXT.map(_Str), _VALUES, max_size=4),
)
_TRAJECTORIES = st.builds(
    GreyBoxTrajectory,
    _TEXT,
    st.lists(_ACTIONS, min_size=1, max_size=4).map(tuple),
    _TEXT,
    st.none() | st.from_regex(r"[0-9a-f]{1,12}", fullmatch=True),
)


def _dict_form(t: GreyBoxTrajectory) -> dict:
    obj = {"query_id": t.query_id}
    if t.user_uid is not None:
        obj["user_uid"] = t.user_uid
    obj["actions"] = [{"tool": a.tool, "args": dict(a.args)} for a in t.actions]
    obj["response"] = t.response
    return obj


@settings(max_examples=300, deadline=None)
@given(_TRAJECTORIES)
def test_serialize_is_json_dumps_of_the_dict_form(t):
    line = serialize_trajectory(t)
    assert line == json.dumps(_dict_form(t), ensure_ascii=False, separators=(",", ":"))
    assert parse_trajectory_line(line) == t


# The parser before it checked each action in one pass: every action went
# through the checked ``Action`` constructor. Kept here, with that
# constructor's value rule, as the reference for what a line may hold.

def _reference_action(obj: object, where: str) -> Action:
    if not isinstance(obj, dict):
        raise SchemaViolation(f"{where}: action must be an object")
    extra = set(obj) - {"tool", "args"}
    if extra:
        raise SchemaViolation(f"{where}: unknown action keys {sorted(extra)}")
    tool = obj.get("tool")
    if not isinstance(tool, str):
        raise SchemaViolation(f"{where}: 'tool' must be a string")
    args = obj.get("args", {})
    if not isinstance(args, dict):
        raise SchemaViolation(f"{where}: 'args' must be an object")
    if not tool or not re.match(r"[A-Za-z0-9_.]+\Z", tool):
        raise SchemaViolation(f"bad tool name: {tool!r}")
    for name, value in args.items():
        if not isinstance(value, (str, int, bool)):
            if not isinstance(value, float):
                raise SchemaViolation(
                    f"argument {tool}.{name} must be a scalar, got {type(value).__name__}"
                )
            if not math.isfinite(value):
                raise SchemaViolation(
                    f"argument {tool}.{name} must be a finite number, got {value!r}"
                )
    return Action(tool, tuple(args.items()))


def _raise_constant(name):
    raise MalformedLine(f"non-standard JSON constant {name}")


def _reference_parse(line: str) -> GreyBoxTrajectory:
    try:
        obj = json.loads(line, parse_constant=_raise_constant)
    except ValueError as exc:
        raise MalformedLine(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaViolation("trajectory line must be a JSON object")
    extra = set(obj) - {"query_id", "user_uid", "actions", "response"}
    if extra:
        raise SchemaViolation(f"unknown trajectory keys {sorted(extra)}")
    for key, kind in (("query_id", str), ("response", str)):
        if not isinstance(obj.get(key), kind):
            raise SchemaViolation(f"'{key}' must be a {kind.__name__}")
    uid = obj.get("user_uid")
    if uid is not None and not isinstance(uid, str):
        raise SchemaViolation("'user_uid' must be a string when present")
    raw_actions = obj.get("actions")
    if not isinstance(raw_actions, list):
        raise SchemaViolation("'actions' must be an array")
    if not raw_actions:
        raise EmptyActions(f"trajectory {obj['query_id']!r} has no actions")
    actions = tuple(_reference_action(a, f"actions[{i}]") for i, a in enumerate(raw_actions))
    return GreyBoxTrajectory(obj["query_id"], actions, obj["response"], uid)


_INF = "__inf__"  # written as the bare token 1e999, which decodes to inf
_MUTATIONS = {
    "non_dict_action": lambda a: [a],
    "string_action": lambda a: "T.Op",
    "null_action": lambda a: None,
    "extra_action_key": lambda a: {**a, "extra": 1},
    "missing_tool": lambda a: {k: v for k, v in a.items() if k != "tool"},
    "missing_args": lambda a: {k: v for k, v in a.items() if k != "args"},
    "int_tool": lambda a: {**a, "tool": 7},
    "null_tool": lambda a: {**a, "tool": None},
    "empty_tool": lambda a: {**a, "tool": ""},
    "bad_tool": lambda a: {**a, "tool": "bad tool!"},
    "non_ascii_tool": lambda a: {**a, "tool": "Tööl.Op"},
    "newline_tool": lambda a: {**a, "tool": "T.Op\n"},
    "list_args": lambda a: {**a, "args": [1]},
    "null_args": lambda a: {**a, "args": None},
    "string_args": lambda a: {**a, "args": "a=1"},
    "null_value": lambda a: {**a, "args": {**a["args"], "z": None}},
    "list_value": lambda a: {**a, "args": {**a["args"], "z": [1]}},
    "object_value": lambda a: {**a, "args": {**a["args"], "z": {"k": 1}}},
    "overflow_value": lambda a: {**a, "args": {**a["args"], "z": _INF}},
    "valid_values": lambda a: {**a, "args": {**a["args"], "z": -0.0, "y": True, "x": 10**30}},
}


@settings(max_examples=300, deadline=None)
@given(
    t=_TRAJECTORIES,
    mutations=st.lists(
        st.tuples(st.sampled_from(sorted(_MUTATIONS)), st.integers(0, 3)), max_size=3
    ),
)
def test_parser_refuses_exactly_what_the_reference_refuses(t, mutations):
    obj = _dict_form(t)
    for name, pos in mutations:
        actions = obj["actions"]
        i = pos % len(actions)
        if isinstance(actions[i], dict) and isinstance(actions[i].get("args"), dict):
            actions[i] = _MUTATIONS[name](actions[i])
    line = json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
    line = line.replace(f'"{_INF}"', "1e999")
    outcomes = []
    for parse in (parse_trajectory_line, _reference_parse):
        try:
            outcomes.append(("ok", parse(line)))
        except TrajmarkError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# the collector pause around whole-corpus entry points
# ---------------------------------------------------------------------------

@_gc_paused
def _collector_state():
    return gc.isenabled()


@_gc_paused
def _raise_paused():
    raise ValueError("inside")


@_gc_paused
def _nested_paused():
    inner = _collector_state()
    return inner, gc.isenabled()


def test_gc_pause_reenables_after_return_and_after_raise():
    assert gc.isenabled()
    assert _collector_state() is False
    assert gc.isenabled()
    with pytest.raises(ValueError, match="inside"):
        _raise_paused()
    assert gc.isenabled()


def test_gc_pause_leaves_a_disabled_collector_disabled():
    gc.disable()
    try:
        assert _collector_state() is False
        with pytest.raises(ValueError):
            _raise_paused()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_gc_pause_reenables_only_at_the_outermost_exit():
    # the inner call returns inside the outer pause and must not end it
    assert _nested_paused() == (False, False)
    assert gc.isenabled()


@pytest.mark.parametrize("fn, name, params", [
    (build_pool, "build_pool",
     ["domain", "seed", "delta", "n_validation_cases", "calibration_size"]),
    (watermark_corpus, "watermark_corpus", ["corpus", "passes", "seed", "uid_hex", "stamp_uid"]),
    (sample_surrogate, "sample_surrogate", ["model", "domain", "n", "seed", "id_prefix"]),
    (run_stage, "run_stage", ["name", "config", "pools"]),
])
def test_paused_entry_points_keep_name_doc_and_signature(fn, name, params):
    # the bench and run_stage find these functions by name
    assert fn.__wrapped__.__name__ == fn.__name__ == name
    assert fn.__doc__ and fn.__doc__ == fn.__wrapped__.__doc__
    assert list(inspect.signature(fn).parameters) == params


@pytest.mark.parametrize("fn", [
    watermark_trajectory, parse_trajectory_line, register_user, localize_user,
])
def test_per_trajectory_functions_are_not_paused(fn):
    assert not hasattr(fn, "__wrapped__")


def test_watermark_corpus_reads_its_corpus_with_the_collector_paused():
    seen = []

    def corpus():
        seen.append(gc.isenabled())
        yield from ()

    assert watermark_corpus(corpus(), [], seed=1) == ([], [])
    assert seen == [False]
    assert gc.isenabled()
