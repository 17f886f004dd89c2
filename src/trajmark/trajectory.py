"""Canonical data model for actions and trajectories, plus JSON file I/O.

An action is a tool invocation with an ordered map of scalar arguments.
It stores them as two tuples, ``names`` and ``values``, in argument
order, with no per-argument pair: ``args`` builds the ``(name, value)``
pairs when read. The generator and ``EquivalenceSet.rewrite`` hand every
action they build from one compiled plan row that row's ``names`` tuple,
so a generated corpus holds one names tuple per row, not per action. The
parser builds one per action it reads.

A grey-box trajectory is what a deployed agent service reveals to users:
the action sequence and the final response, with internal reasoning steps
withheld. It is the only trajectory form the pipeline builds, reads or
writes. ``FullTrajectory`` (thought/action/observation triples) and its
projection ``grey_box_view`` state the grey-box contract: projection keeps
actions and the response verbatim and drops every hidden step.

Wire format: one JSON object per line (JSONL), UTF-8, ``\\n`` line endings,
stable key order ``query_id, user_uid, actions, response``. The JSON
documents (pools, registries, domains, verdicts, configs and summaries)
are read by ``read_json``, checked by ``json_value``, written by ``write_json``;
every output, ``write_csv``'s reports too, goes through ``output_file``.
"""

from __future__ import annotations

import csv
import functools
import gc
import json
import math
import os
import re
import stat
import threading
from contextlib import contextmanager, suppress
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO, TypeVar, Union

from .errors import EmptyActions, MalformedLine, SchemaViolation, TrajmarkError

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


# tool names ``_TOOL_RE`` has accepted, so that a name already checked
# costs one set lookup; it stops growing at ``_TOOL_NAMES_MAX`` names, so
# input can never grow it further, and a name past the bound is checked
# by the pattern each time
_TOOL_NAMES: set[str] = set()
_TOOL_NAMES_MAX = 1024
_TOOL_NAMES_LOCK = threading.Lock()


def _check_tool(tool: str) -> None:
    """Refuse a tool name ``Action`` would refuse; remember one it accepts."""
    if tool in _TOOL_NAMES:
        return
    if not tool or not _TOOL_RE.match(tool):
        raise SchemaViolation(f"bad tool name: {tool!r}")
    with _TOOL_NAMES_LOCK:  # so that threads cannot add past the bound together
        if len(_TOOL_NAMES) < _TOOL_NAMES_MAX:
            _TOOL_NAMES.add(tool)


class Action:
    """One tool invocation: a tool name and its ordered scalar arguments.

    ``names`` holds the argument names and ``values`` their values, in the
    same order; ``args`` pairs them up on demand. Every action a compiled
    plan row builds shares that row's ``names`` tuple. Two actions are equal
    when their ``(tool, args)`` are, equal actions hash alike, and no field
    can be assigned after construction.
    """

    # ``__weakref__`` keeps actions weakly referable
    __slots__ = ("tool", "names", "values", "__weakref__")

    tool: str
    names: tuple[str, ...]
    values: tuple[Scalar, ...]

    def __init__(self, tool: str, args: Iterable[tuple[str, Scalar]] = ()) -> None:
        _check_tool(tool)
        args = tuple(args)
        names = tuple([k for k, _ in args])
        if len(names) != len(set(names)):
            raise SchemaViolation(f"duplicate argument names in {tool}: {list(names)}")
        for name, value in args:
            if not isinstance(name, str):
                raise SchemaViolation(f"argument name must be a string: {name!r}")
            if not _is_scalar(value):
                raise _bad_value(tool, name, value)
        _set_tool(self, tool)
        _set_names(self, names)
        _set_values(self, tuple([v for _, v in args]))

    @classmethod
    def make(cls, tool: str, args: Mapping[str, Scalar] | None = None) -> "Action":
        return cls(tool, tuple((args or {}).items()))

    @classmethod
    def _trusted(cls, tool: str, names: tuple[str, ...], values: tuple[Scalar, ...]) -> "Action":
        """Build an action from parts that were validated already; no checks.

        For internal construction only: the tool name and argument names
        come from an equivalence set or template checked when it was
        built, or from a parsed line, and every value from a validated
        action, a checked literal or a generated token.
        """
        action = _new(cls)
        _set_tool(action, tool)
        _set_names(action, names)
        _set_values(action, values)
        return action

    @property
    def args(self) -> tuple[tuple[str, Scalar], ...]:
        """The ``(name, value)`` pairs, in argument order."""
        return tuple(zip(self.names, self.values))

    def arg_map(self) -> dict[str, Scalar]:
        return dict(zip(self.names, self.values))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.tool == other.tool and self.names == other.names
                and self.values == other.values)

    def __hash__(self) -> int:
        return hash((self.tool, self.names, self.values))

    def __repr__(self) -> str:
        return f"Action(tool={self.tool!r}, args={self.args!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through ``_trusted``: their default
        # assigns the fields, which ``__setattr__`` refuses
        return Action._trusted, (self.tool, self.names, self.values)


# the slots' own setters: ``Action.__setattr__`` refuses every assignment,
# and these fill a new action's fields faster than ``object.__setattr__``
_new = object.__new__
_set_tool, _set_names, _set_values = (
    Action.__dict__[name].__set__ for name in ("tool", "names", "values")
)


def _gc_paused(fn: F) -> F:
    """Run ``fn`` with the cyclic garbage collector off; for whole-corpus entry points.

    ``build_pool``, ``watermark_corpus``, ``generate_greybox_corpus``,
    ``run_stage`` and ``run_all`` build corpora of frozen, acyclic
    actions, tuples and strings that reference counting alone frees; the
    full collections their allocations set off freed 0 objects. The pause
    is process-wide while it lasts, so other threads get no cycle
    collection either. If the collector is already off, the call leaves
    it off and freezes nothing: only the outermost paused call ends the
    pause.

    The outermost exit moves every object the collector tracks into its
    permanent generation (``gc.freeze``), so what the call built is never
    scanned again; without it the next unpaused calls would pay the
    collections the pause skipped. The freeze is process-wide and
    cumulative: it takes every live object, not only the call's, and a
    reference cycle alive at that moment is never collected. That is why
    the entry points must leave no cycle behind; reference counting still
    frees frozen objects. The full collection that follows scans nothing,
    since all was just frozen, but it empties the interpreter's free
    lists, which a freeze alone leaves pinning memory. ``run_all`` is
    paused as well as ``run_stage``, so a run ends its pause once: that
    collection at each stage's exit hands back memory the next stage maps
    again.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.freeze()
            gc.collect()
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
    distinct strings. A refused line raises what ``Action`` would. A tool
    name ``_check_tool`` has accepted before costs one set lookup, and
    only a value that is not a str is put to the scalar rule.
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
        if tool not in _TOOL_NAMES:
            _check_tool(tool)
        values = tuple(args.values())
        for value in values:
            # a str, what most values are, skips the scalar rule
            if value.__class__ is not str and not _is_scalar(value):
                # the item loop, so that the refusal names the argument
                for name, value in args.items():
                    if not _is_scalar(value):
                        raise _bad_value(tool, name, value)
        action = _new(Action)  # ``Action._trusted``, inlined
        _set_tool(action, tool)
        _set_names(action, tuple(args))
        _set_values(action, values)
        actions.append(action)
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
    # each f-string builds its result in one step, where ``+`` builds one
    # string per operator
    actions = []
    for a in t.actions:
        args = []
        for k, v in zip(a.names, a.values):
            # a str, what most values are, skips the scalar dispatch
            args.append(f"{_encode_str(k)}:"
                        f"{_encode_str(v) if v.__class__ is str else _encode_scalar(v)}")
        actions.append(f'{{"tool":{_encode_str(a.tool)},"args":{{{",".join(args)}}}}}')
    return f'{head},"actions":[{",".join(actions)}],"response":{_encode_str(t.response)}}}'


def iter_jsonl(path: str) -> Iterator[GreyBoxTrajectory]:
    """Stream trajectories from a JSONL file one line at a time."""
    return iter_parsed_lines(path, parse_trajectory_line)


def iter_parsed_lines(path: str, parse: Callable[[str], T]) -> Iterator[T]:
    """Yield ``parse(line)`` for each non-blank line of a UTF-8 JSONL file.

    A ``TrajmarkError`` from decoding or from ``parse`` is re-raised as
    the same type, prefixed with ``path:line``.
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
            with json_at(f"{path}:{lineno}"):
                yield parse(line)


@contextmanager
def output_file(path: str) -> Iterator[TextIO]:
    """A UTF-8 text handle on ``path`` whose contents appear only if the block succeeds.

    A missing path or a regular file is written as a temporary file beside
    it (beside its target, for a symlink), renamed onto it at the end with
    an existing file's mode and, where permitted, owner; a block that raises
    removes the temporary file and leaves the path as it was. So a command
    that reads its input as it writes leaves no partial output behind when
    a late input line is refused. A path that cannot be replaced, such as
    ``/dev/null``, a FIFO, a terminal or a file with other hard links, is
    opened and written directly. No directory is made; an error names ``path``.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle
        return
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    # a random name, so a file left by a killed run blocks no later run
    temporary = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        # 0o666 less the umask: the mode ``open`` gives a new file
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            if st is not None:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
                made = os.fstat(fd)
                if (st.st_uid, st.st_gid) != (made.st_uid, made.st_gid):
                    with suppress(PermissionError):
                        os.fchown(fd, st.st_uid, st.st_gid)
            yield handle
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def write_jsonl(path: str, trajectories: Iterable[GreyBoxTrajectory]) -> int:
    """Write a corpus to a JSONL file as it is read; returns the number of lines written.

    ``trajectories`` is read once, and ``path`` is replaced only when all of
    it was written (see ``output_file``).
    """
    count = 0
    with output_file(path) as handle:
        for t in trajectories:
            handle.write(serialize_trajectory(t))
            handle.write("\n")
            count += 1
    return count


_REQUIRED = object()
_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an int",
          float: "a number", bool: "a bool"}


def json_value(node, kind, where: str, key=None, default=_REQUIRED, minimum=None):
    """One node of a decoded JSON document, or a ``SchemaViolation`` naming its path.

    ``kind`` is ``dict``, ``list``, ``str``, ``int``, ``bool``, ``float``
    (any finite number) or ``[kind]`` (an array of that kind); a bool is
    never an int or a number, and a number or item below ``minimum`` is
    refused. ``where`` names the document, its file and the node's JSON
    path: ``"pool: pool.json: $.passes[0]"``. With ``key``, the node is that
    key of the object ``node``, read as ``default`` when missing, if given.
    """
    if key is not None:
        if key not in json_value(node, dict, where):
            if default is _REQUIRED:
                raise SchemaViolation(f"{where}: missing key {key!r}")
            return default
        node, where = node[key], f"{where}.{key}"
    of = kind[0] if isinstance(kind, list) else None
    base = kind if of is None else list
    if (type(node) is not base and (base, type(node)) != (float, int)
            or type(node) is float and not math.isfinite(node)):
        name = _KINDS[kind] if of is None else f"an array of {_KINDS[of].split()[1]}s"
        raise SchemaViolation(f"{where}: expected {name}, got {type(node).__name__}")
    if of is not None:
        for i, item in enumerate(node):
            json_value(item, of, f"{where}[{i}]", minimum=minimum)
    elif minimum is not None and node < minimum:
        raise SchemaViolation(f"{where}: expected at least {minimum}, got {node!r}")
    return node


@contextmanager
def json_at(where: str):
    """Prefix ``where`` to a ``TrajmarkError`` that does not already start with it."""
    try:
        yield
    except TrajmarkError as exc:
        if str(exc).startswith(where):
            raise
        raise type(exc)(f"{where}: {exc}") from exc


def read_json(path: str) -> object:
    """Decode a UTF-8 JSON file as strictly as a JSONL line; a refusal names ``path``."""
    with open(path, "rb") as handle, json_at(path):
        try:
            return decode_json_line(handle.read().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise MalformedLine(f"not valid UTF-8: {exc}") from exc


def _json_key(key: object) -> str:
    """An object key as ``json.dumps`` writes it: a string, or a scalar as its text."""
    if isinstance(key, str):
        return json.dumps(key)
    if key is None or isinstance(key, (int, float)):
        return json.dumps(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _indented_json(value: object, depth: int = 0) -> str:
    """``json.dumps(value, indent=1)``, built without the encoder's closures.

    With an indent, ``json`` encodes through nested functions that refer to
    one another, a reference cycle left behind as garbage on every call;
    ``run_all`` writes its summary inside a collector pause, whose exit
    would freeze that garbage for good. Scalars and keys go through the C
    encoder, so every byte is the one ``json.dumps`` writes.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = "\n" + " " * (depth + 1)
        items = ",".join(
            f"{pad}{_json_key(k)}: {_indented_json(v, depth + 1)}"
            for k, v in value.items()
        )
        return "{" + items + "\n" + " " * depth + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        pad = "\n" + " " * (depth + 1)
        items = ",".join(pad + _indented_json(v, depth + 1) for v in value)
        return "[" + items + "\n" + " " * depth + "]"
    return json.dumps(value)


def write_json(path: str, obj: object) -> None:
    """Write ``obj`` to a UTF-8 file as JSON indented by one space, plus a newline."""
    with output_file(path) as handle:
        handle.write(_indented_json(obj) + "\n")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as CSV, each line ended by ``\\r\\n``."""
    with output_file(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
