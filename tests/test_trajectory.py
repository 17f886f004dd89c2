"""Trajectory model: parsing, serialization, and grey-box projection."""

import copy
import csv
import dataclasses
import gc
import inspect
import json
import math
import os
import pickle
import platform
import random
import re
import stat
import sys
import threading
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajmark import trajectory
from trajmark.cli import main
from trajmark.errors import EmptyActions, MalformedLine, SchemaViolation, TrajmarkError
from trajmark.experiment import ExperimentConfig, run_all, run_stage
from trajmark.injector import iter_watermarked, watermark_corpus, watermark_trajectory
from trajmark.pool import build_pool
from trajmark.registry import Registry, passes_for_uid, register_user
from trajmark.simkit.generator import generate_greybox_corpus, iter_greybox_corpus
from trajmark.trajectory import (
    Action,
    FullTrajectory,
    GreyBoxTrajectory,
    _gc_paused,
    _indented_json,
    grey_box_view,
    iter_jsonl,
    output_file,
    parse_trajectory_line,
    serialize_trajectory,
    write_csv,
    write_json,
    write_jsonl,
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
        list(iter_jsonl(str(path)))
    assert main(["validate", "--corpus", str(path), "--quiet"]) == 2


def test_output_file_replaces_its_path_only_when_the_block_succeeds(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text("old\n")

    def lines():
        yield GreyBoxTrajectory("q1", (Action.make("T.Op"),), "r")
        raise MalformedLine("late")

    with pytest.raises(MalformedLine, match="late"):
        write_jsonl(str(path), lines())
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]
    with output_file(str(path)) as handle:
        handle.write("new\n")
        assert path.read_text() == "old\n"
    assert path.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]


def test_output_file_keeps_a_files_mode_and_writes_through_a_symlink(tmp_path):
    target = tmp_path / "out.jsonl"
    target.write_text("old\n")
    target.chmod(0o640)
    link = tmp_path / "link.jsonl"
    link.symlink_to(target.name)
    # a file a killed run left behind does not block this one
    stale = tmp_path / f".out.jsonl.{os.getpid()}.tmp"
    stale.write_text("")
    with output_file(str(link)) as handle:
        handle.write("new\n")
    assert link.is_symlink() and target.read_text() == "new\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["link.jsonl", "out.jsonl", stale.name]
    )


@pytest.mark.parametrize("write", [
    lambda path: write_json(path, {"users": {1, 2}}),  # a set has no JSON form
    lambda path: write_csv(path, ["a", "b"], [[1, 2], 3]),  # a row must be a sequence
], ids=["json", "csv"])
def test_a_document_that_fails_to_encode_leaves_the_old_file(tmp_path, write):
    path = tmp_path / "out.json"
    path.write_bytes(b'{\n "domain": "data",\n "N": 39\n}\n')
    before = path.read_bytes()
    with pytest.raises((TypeError, csv.Error)):
        write(str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_write_csv_writes_the_bytes_of_a_csv_writer(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ("name", "value"), [["a,b", 1.5], ["line\nbreak", True]])
    assert path.read_bytes() == (
        b'name,value\r\n"a,b",1.5\r\n"line\nbreak",True\r\n'
    )


@pytest.mark.parametrize("argv", [
    ["simulate", "victim", "--domain", "data", "--n", "5", "--out", "{out}"],
    ["genpool", "--domain", "data", "--cases", "1", "--out", "{out}"],
], ids=["jsonl", "json"])
def test_an_output_in_a_missing_directory_names_the_path_given(tmp_path, capsys, argv):
    out = str(tmp_path / "nodir" / "out")
    assert main([a.replace("{out}", out) for a in argv] + ["--quiet"]) == 2
    assert capsys.readouterr() == (
        "", f"trajmark: FileNotFoundError: [Errno 2] No such file or directory: {out!r}\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_cli_writes_a_fifo_out_directly(tmp_path):
    # a path that is not a regular file cannot be replaced, only written
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(["simulate", "victim", "--domain", "data", "--n", "3", "--out", str(fifo),
                 "--seed", "3", "--quiet"]) == 0
    reader.join(timeout=60)
    assert len(received) == 1 and len(received[0].splitlines()) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.fifo"]


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


# values that compare equal across types, and non-ASCII text
_ARG_VALUES = st.one_of(
    st.sampled_from([1, True, "1", 1.0, 0, False, -0.0, "ünï", "名前", " "]),
    st.text(max_size=4),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
)
_ARGS = st.lists(
    st.tuples(st.text(max_size=3) | st.sampled_from(["a", "ü", "名"]), _ARG_VALUES),
    max_size=4,
    unique_by=lambda pair: pair[0],
)


@settings(max_examples=300, deadline=None)
@given(tool=st.sampled_from(["T.Op", "U.Op"]), args=_ARGS, data=st.data())
def test_an_action_reads_compares_and_hashes_as_its_pairs(tool, args, data):
    action = Action(tool, args)
    assert action.args == tuple(args) and type(action.args) is tuple
    assert action.names == tuple(name for name, _ in args)
    assert action.values == tuple(value for _, value in args)
    assert action.arg_map() == dict(args)
    # the same names with values kept or redrawn, so equal pairs come up often
    other_tool = data.draw(st.sampled_from([tool, "U.Op"]))
    other_args = [(name, data.draw(st.just(value) | _ARG_VALUES)) for name, value in args]
    other = Action(other_tool, other_args)
    assert (action == other) == ((tool, tuple(args)) == (other_tool, tuple(other_args)))
    if action == other:
        assert hash(action) == hash(other)
    # ``_trusted`` is the private constructor of the parser, the generator
    # and ``rewrite``: it takes the names and values apart
    trusted = Action._trusted(tool, action.names, action.values)
    assert trusted == action and hash(trusted) == hash(action)
    assert copy.copy(action) == action and pickle.loads(pickle.dumps(action)) == action
    for name in ("tool", "names", "values", "args", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(action, name, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(action, name)
    assert (action.tool, action.args) == (tool, tuple(args))


_HAND_LINES = [
    '{"query_id":"q","actions":[{"tool":"T.Op","args":{}}],"response":"r"}',
    '{"query_id":"q1","user_uid":"0a","actions":[{"tool":"A.b_2","args":{"b":1,"a":true,'
    '"c":"1","d":1.0,"e":-0.0,"f":false}},{"tool":"T","args":{"ünï":"名前 \\"q\\" \\\\  ",'
    '"x":1e-07,"y":12345678901234567890,"z":"\\n\\u0000"}}],"response":"ok ✓"}',
]


def test_parse_serialize_parse_is_byte_identical(data_domain):
    generated = [serialize_trajectory(t) for t in iter_greybox_corpus(data_domain, 200, seed=3)]
    for line in _HAND_LINES + generated:
        parsed = parse_trajectory_line(line)
        assert serialize_trajectory(parsed) == line
        assert parse_trajectory_line(serialize_trajectory(parsed)) == parsed


def test_actions_built_from_one_plan_row_share_its_names(data_domain):
    programs, _ = data_domain._programs
    rows = {id(names): names for _, steps in programs for _, _, plans in steps
            for plan in plans for _, names, _ in plan}
    corpus = generate_greybox_corpus(data_domain, 300, seed=1)
    # ``rows`` holds every names tuple alive, so an id names one object
    assert all(id(a.names) in rows for t in corpus for a in t.actions)
    for eqset in data_domain.eqsets:
        for src, source in enumerate(eqset.members):
            values = [f"v{i}" for i in range(len(source.slot_order))]
            for dst, plan in enumerate(eqset._plans[src]):
                first = eqset.rewrite(src, dst, values)
                again = eqset.rewrite(src, dst, [v + "x" for v in values])
                for a, b, (_, names, _) in zip(first, again, plan, strict=True):
                    assert a.names is names and b.names is names


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="object sizes are CPython's")
def test_a_held_corpus_costs_at_most_240_bytes_per_action(data_domain):
    # bound fixed before measuring: an action holding one (name, value)
    # tuple per argument and its own attribute storage took about 299 B
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = list(iter_greybox_corpus(data_domain, 2000, seed=1))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / sum(len(t.actions) for t in corpus) <= 240


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
    # unhashable: a tool-name lookup before the str check would raise TypeError
    "list_tool": lambda a: {**a, "tool": [1]},
    "object_tool": lambda a: {**a, "tool": {}},
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


def test_the_tool_name_memo_stays_within_its_bound(monkeypatch):
    memo = set()
    monkeypatch.setattr(trajectory, "_TOOL_NAMES", memo)
    bound = trajectory._TOOL_NAMES_MAX

    def line(tool):
        return json.dumps({"query_id": "q", "actions": [{"tool": tool, "args": {"a": "v"}}],
                           "response": "r"})

    for i in range(bound + 100):
        tool = f"Tool{i}.Op"
        assert parse_trajectory_line(line(tool)).actions[0].tool == tool
        assert len(memo) <= bound
    assert len(memo) == bound
    # a valid name the full memo has not seen is checked by the pattern
    assert "Unseen_1.Op" not in memo
    assert parse_trajectory_line(line("Unseen_1.Op")).actions[0].tool == "Unseen_1.Op"
    assert len(memo) == bound
    with pytest.raises(SchemaViolation) as refused:
        parse_trajectory_line(line("bad tool!"))
    assert str(refused.value) == "bad tool name: 'bad tool!'"


def test_threads_filling_the_tool_name_memo_do_not_pass_its_bound(monkeypatch):
    memo = set()
    monkeypatch.setattr(trajectory, "_TOOL_NAMES", memo)
    monkeypatch.setattr(trajectory, "_TOOL_NAMES_MAX", 64)
    lines = [[json.dumps({"query_id": "q", "actions": [{"tool": f"T{w}_{i}.Op", "args": {}}],
                          "response": "r"}) for i in range(300)] for w in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda own=own: [parse_trajectory_line(x) for x in own])
                   for own in lines]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(memo) == 64


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
    (generate_greybox_corpus, "generate_greybox_corpus", ["domain", "n", "seed", "id_prefix"]),
    (run_stage, "run_stage", ["name", "config", "pools"]),
    (run_all, "run_all", ["config"]),
])
def test_paused_entry_points_keep_name_doc_and_signature(fn, name, params):
    # the bench and run_stage find these functions by name
    assert fn.__wrapped__.__name__ == fn.__name__ == name
    assert fn.__doc__ and fn.__doc__ == fn.__wrapped__.__doc__
    assert list(inspect.signature(fn).parameters) == params


@pytest.mark.parametrize("fn", [
    watermark_trajectory, parse_trajectory_line, register_user, localize_user,
    iter_greybox_corpus, iter_watermarked,
])
def test_per_trajectory_functions_are_not_paused(fn):
    # a paused stream would end its pause when it is made, not when it is read
    assert not hasattr(fn, "__wrapped__")


def test_watermark_corpus_reads_its_corpus_with_the_collector_paused():
    seen = []

    def corpus():
        seen.append(gc.isenabled())
        yield from ()

    assert watermark_corpus(corpus(), [], seed=1) == ([], [])
    assert seen == [False]
    assert gc.isenabled()


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
_JSON_KEYS = st.one_of(st.text(), st.none(), st.booleans(), st.integers(), st.floats())
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_JSON_KEYS, inner, max_size=4),
), max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES)
def test_indented_json_writes_what_json_dumps_writes(value):
    assert _indented_json(value) == json.dumps(value, indent=1)


def test_indented_json_refuses_the_keys_json_refuses():
    with pytest.raises(TypeError, match="not tuple"):
        _indented_json({(1,): 1})


class _Node:
    pass


@_gc_paused
def _freeze_counts_around_a_nested_pause():
    before = gc.get_freeze_count()
    assert _collector_state() is False
    return before, gc.get_freeze_count()


def test_a_cycle_made_after_a_paused_call_is_still_collected():
    # the freeze takes what is alive at the exit, nothing made later
    _collector_state()
    died = []
    node = _Node()
    node.self = node
    ref = weakref.ref(node, lambda _: died.append(True))
    del node
    gc.collect()
    assert died and ref() is None


def test_a_corpus_built_in_a_paused_call_is_freed_by_reference_counting(mini_domain):
    corpus = generate_greybox_corpus(mini_domain, 50, seed=1)
    refs = [weakref.ref(corpus[0]), weakref.ref(corpus[-1].actions[0])]
    gc.disable()  # no collection may run: dropping the list must free them
    try:
        del corpus
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_a_nested_pause_exit_does_not_freeze():
    before, after = _freeze_counts_around_a_nested_pause()
    assert after == before
    assert gc.get_freeze_count() > after  # the outermost exit froze


def test_a_paused_call_under_a_disabled_collector_freezes_nothing():
    gc.disable()
    try:
        fresh = [[] for _ in range(10)]  # tracked objects a freeze would take
        before = gc.get_freeze_count()
        assert _collector_state() is False
        assert gc.get_freeze_count() == before
        del fresh
    finally:
        gc.enable()


def _paused_calls(domain, pool, tmp_path):
    """Each paused entry point with small inputs: ``name -> (fn, args, kwargs)``."""
    reg = Registry(domain.name, len(pool))
    uid = register_user(reg, rng_seed=1).uid_hex
    small = dataclasses.replace(domain, corpus_sizes={
        "calibration": 400, "fit": 200, "verify": 200, "verify_low": 100, "attack": 200,
    })
    small_file = tmp_path / "data.json"
    small.save(str(small_file))
    config = ExperimentConfig(
        seed=7, out_dir=str(tmp_path / "run"), domains=(str(small_file),), n_attackers=1,
        n_benign=1, localization_extra_users=(0,), localization_seeds=1, closed_loop_corpus=100,
    )
    corpus = generate_greybox_corpus(domain, 100, seed=1)
    return {
        "build_pool": (build_pool, (domain, 42),
                       {"n_validation_cases": 5, "calibration_size": 400}),
        "generate_greybox_corpus": (generate_greybox_corpus, (domain, 200, 1), {}),
        "watermark_corpus": (watermark_corpus, (corpus, passes_for_uid(uid, pool), 1),
                             {"uid_hex": uid, "stamp_uid": True}),
        "run_stage": (run_stage, ("closed-loop", config, lambda name: (small, pool)), {}),
        "run_all": (run_all, (config,), {}),
    }


@pytest.mark.parametrize("name", [
    "build_pool", "generate_greybox_corpus", "watermark_corpus", "run_stage", "run_all",
])
def test_paused_entry_points_leave_no_reference_cycle(tmp_path, data_domain, data_pool, name):
    # a pause's outermost exit freezes every live object, so a cycle that a
    # paused call leaves behind, in its garbage or in what it returns, would
    # never be collected
    fn, args, kwargs = _paused_calls(data_domain, data_pool, tmp_path)[name]
    gc.collect()
    gc.disable()
    try:
        result = fn.__wrapped__(*args, **kwargs)
        del result
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        kinds = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == 0, kinds
