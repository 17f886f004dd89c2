"""Canonical data model for actions and trajectories, plus JSON file I/O.

An action is a tool invocation with an ordered map of scalar arguments.
A grey-box trajectory is what a deployed agent service reveals to users:
the action sequence and the final response, with internal reasoning steps
withheld. It is the only trajectory form the pipeline builds, reads or
writes. ``FullTrajectory`` (thought/action/observation triples) and its
projection ``grey_box_view`` state the grey-box contract: projection keeps
actions and the response verbatim and drops every hidden step.

Wire format: one JSON object per line (JSONL), UTF-8, ``\\n`` line endings,
stable key order ``query_id, user_uid, actions, response``. The JSON
documents (pools, registries, domains, surrogates, verdicts, configs and
summaries) are read by ``read_json`` and written by ``write_json``.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, TypeVar, Union

from .errors import EmptyActions, MalformedLine, SchemaViolation

Scalar = Union[str, int, float, bool]
T = TypeVar("T")
F = TypeVar("F", bound=Callable)

_TOOL_RE = re.compile(r"[A-Za-z0-9_.]+\Z")
_UID_RE = re.compile(r"[0-9a-f]+\Z")


def _reject_constant(name: str):
    raise MalformedLine(f"non-standard JSON constant {name}")


# one decoder for every line; NaN and the infinities are not JSON
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
# the string encoder json.dumps(..., ensure_ascii=False) calls
_encode_str = json.encoder.encode_basestring

_TRAJECTORY_KEYS = frozenset({"query_id", "user_uid", "actions", "response"})
_ACTION_KEYS = frozenset({"tool", "args"})


def _is_scalar(value: object) -> bool:
    """The one rule for an argument value: a str, an int or bool, or a finite float.

    NaN and the infinities have no JSON form, so an action holding one
    could be written but never read back.
    """
    if isinstance(value, (str, int)):
        return True
    return isinstance(value, float) and math.isfinite(value)


def _bad_value(tool: str, name: str, value: object) -> SchemaViolation:
    if isinstance(value, float):
        return SchemaViolation(
            f"argument {tool}.{name} must be a finite number, got {value!r}"
        )
    return SchemaViolation(
        f"argument {tool}.{name} must be a scalar, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class Action:
    """One tool invocation: a tool name and its ordered scalar arguments."""

    tool: str
    args: tuple[tuple[str, Scalar], ...] = ()

    def __post_init__(self) -> None:
        if not self.tool or not _TOOL_RE.match(self.tool):
            raise SchemaViolation(f"bad tool name: {self.tool!r}")
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))
        names = [k for k, _ in self.args]
        if len(names) != len(set(names)):
            raise SchemaViolation(f"duplicate argument names in {self.tool}: {names}")
        for name, value in self.args:
            if not isinstance(name, str):
                raise SchemaViolation(f"argument name must be a string: {name!r}")
            if not _is_scalar(value):
                raise _bad_value(self.tool, name, value)

    @classmethod
    def make(cls, tool: str, args: Mapping[str, Scalar] | None = None) -> "Action":
        return cls(tool, tuple((args or {}).items()))

    @classmethod
    def _trusted(cls, tool: str, args: tuple[tuple[str, Scalar], ...]) -> "Action":
        """Build an action from parts that were validated already; no checks.

        For internal construction only: the tool name and argument names
        come from an equivalence set or template checked when it was
        built, and every value from a validated action, a checked literal
        or a generated token.
        """
        action = object.__new__(cls)
        object.__setattr__(action, "tool", tool)
        object.__setattr__(action, "args", args)
        return action

    def arg_map(self) -> dict[str, Scalar]:
        return dict(self.args)

    def get(self, name: str) -> Scalar | None:
        for key, value in self.args:
            if key == name:
                return value
        return None


def _gc_paused(fn: F) -> F:
    """Run ``fn`` with the cyclic garbage collector off; for whole-corpus entry points.

    ``build_pool``, ``watermark_corpus``, ``sample_surrogate`` and
    ``run_stage`` build corpora of frozen, acyclic actions, tuples and
    strings that reference counting alone frees; the full collections
    their allocations set off freed 0 objects. The pause is process-wide
    while it lasts, so other threads get no cycle collection either. If
    the collector is already off, the call leaves it off: only the
    outermost paused call turns it back on.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@dataclass(frozen=True)
class GreyBoxTrajectory:
    """User-visible trajectory: actions plus final response."""

    query_id: str
    actions: tuple[Action, ...]
    response: str
    user_uid: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.actions, tuple):
            object.__setattr__(self, "actions", tuple(self.actions))
        if self.user_uid is not None and not _UID_RE.match(self.user_uid):
            raise SchemaViolation(f"user_uid must be lowercase hex: {self.user_uid!r}")


@dataclass(frozen=True)
class FullTrajectory:
    """A trajectory as the agent runs it, hidden steps included.

    Each step is a (thought, action, observation) triple. The pipeline
    never builds or serializes one; ``grey_box_view`` maps it to what a
    user sees.
    """

    query_id: str
    steps: tuple[tuple[str, Action, str], ...]
    response: str
    user_uid: str | None = None


def grey_box_view(t: FullTrajectory) -> GreyBoxTrajectory:
    """Project a full trajectory to its user-visible form.

    Thoughts and observations are dropped; actions and the response are
    copied verbatim.
    """
    return GreyBoxTrajectory(
        query_id=t.query_id,
        actions=tuple(action for _, action, _ in t.steps),
        response=t.response,
        user_uid=t.user_uid,
    )


def decode_json_line(line: str) -> object:
    """Decode one JSON line; every decoding failure raises ``MalformedLine``."""
    try:
        return _DECODER.decode(line)
    except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
        raise MalformedLine(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedLine("JSON nested too deeply") from exc


def parse_trajectory_line(line: str) -> GreyBoxTrajectory:
    """Parse one JSONL line into a validated grey-box trajectory.

    Argument order inside ``args`` is preserved exactly as read. Each
    action is checked once, here, by the rules ``Action`` applies, then
    built without repeating them: a JSON object's keys are already
    distinct strings. A refused line raises what ``Action`` would.
    """
    obj = decode_json_line(line)
    if not isinstance(obj, dict):
        raise SchemaViolation("trajectory line must be a JSON object")
    if not obj.keys() <= _TRAJECTORY_KEYS:
        raise SchemaViolation(f"unknown trajectory keys {sorted(obj.keys() - _TRAJECTORY_KEYS)}")
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
    actions = []
    for raw in raw_actions:
        # the label names the action's index, len(actions), and is built
        # only for a refusal
        if not isinstance(raw, dict):
            raise SchemaViolation(f"actions[{len(actions)}]: action must be an object")
        if not raw.keys() <= _ACTION_KEYS:
            raise SchemaViolation(
                f"actions[{len(actions)}]: unknown action keys "
                f"{sorted(raw.keys() - _ACTION_KEYS)}"
            )
        tool = raw.get("tool")
        if not isinstance(tool, str):
            raise SchemaViolation(f"actions[{len(actions)}]: 'tool' must be a string")
        args = raw.get("args", {})
        if not isinstance(args, dict):
            raise SchemaViolation(f"actions[{len(actions)}]: 'args' must be an object")
        if not _TOOL_RE.match(tool):
            raise SchemaViolation(f"bad tool name: {tool!r}")
        for name, value in args.items():
            if not _is_scalar(value):
                raise _bad_value(tool, name, value)
        actions.append(Action._trusted(tool, tuple(args.items())))
    return GreyBoxTrajectory(obj["query_id"], tuple(actions), obj["response"], uid)


def _encode_scalar(value: Scalar) -> str:
    """An argument value as ``json.dumps`` writes it; bool is tested before int."""
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def serialize_trajectory(t: GreyBoxTrajectory) -> str:
    """Render a trajectory as a single compact JSON line (no newline).

    Key order is fixed (query_id, user_uid, actions, response) so that
    equal trajectories serialize byte-identically; ``user_uid`` is omitted
    when absent. The line is byte-identical to
    ``json.dumps(obj, ensure_ascii=False, separators=(",", ":"))`` of the
    trajectory's dict form, whose string encoder it uses.
    """
    head = '{"query_id":' + _encode_str(t.query_id)
    if t.user_uid is not None:
        head += ',"user_uid":' + _encode_str(t.user_uid)
    actions = ",".join([
        '{"tool":' + _encode_str(a.tool) + ',"args":{'
        + ",".join([_encode_str(k) + ":" + _encode_scalar(v) for k, v in a.args])
        + "}}"
        for a in t.actions
    ])
    return head + ',"actions":[' + actions + '],"response":' + _encode_str(t.response) + "}"


def read_jsonl(path: str) -> list[GreyBoxTrajectory]:
    """Load a whole trajectory corpus from a JSONL file."""
    return list(iter_jsonl(path))


def iter_jsonl(path: str) -> Iterator[GreyBoxTrajectory]:
    """Stream trajectories from a JSONL file one line at a time."""
    return iter_parsed_lines(path, parse_trajectory_line)


def iter_parsed_lines(path: str, parse: Callable[[str], T]) -> Iterator[T]:
    """Yield ``parse(line)`` for each non-blank line of a UTF-8 JSONL file.

    A ``MalformedLine`` or ``SchemaViolation`` from decoding or from
    ``parse`` is re-raised as the same type, prefixed with ``path:line``.
    """
    # bytes are decoded line by line so a bad UTF-8 sequence names its line
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise MalformedLine(f"{path}:{lineno}: not valid UTF-8: {exc}") from exc
            if not line:
                continue
            try:
                yield parse(line)
            except (MalformedLine, SchemaViolation) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc


def write_jsonl(path: str, trajectories: Iterable[GreyBoxTrajectory]) -> int:
    """Write a corpus to a JSONL file; returns the number of lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for t in trajectories:
            handle.write(serialize_trajectory(t))
            handle.write("\n")
            count += 1
    return count


def json_object(value: object, where: str) -> dict:
    """``value`` if it is a JSON object, else a ``SchemaViolation`` naming ``where``."""
    if not isinstance(value, dict):
        raise SchemaViolation(f"{where}: expected a JSON object, got {type(value).__name__}")
    return value


def read_json(path: str) -> object:
    """Decode the JSON document in a UTF-8 file."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: str, obj: object) -> None:
    """Write ``obj`` to a UTF-8 file as JSON indented by one space, plus a newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1)
        handle.write("\n")
