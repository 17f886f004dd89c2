"""Deterministic tool sandbox with canonical effect logging.

Tools are defined declaratively over a closed vocabulary of effects —
read a key, write a key, erase a key, append a log note, compute a derived
value — interpreted against a flat string-keyed environment. Because the
vocabulary is closed and every transition is deterministic and total over
valid environments, comparing two action segments reduces to comparing
their final environments and canonical effect logs, which is exactly the
decision procedure equivalence validation needs.

Log entries record effects, never tool names, so two vendors implementing
the same effect sequence are log-identical. Ancillary (read-only) tools are
flagged so their entries can be erased before comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..errors import ExecutionFailure, InvalidArguments, UnknownTool
from ..trajectory import Action, Scalar, _is_scalar, json_at, json_value

ABSENT = "<absent>"

_DERIVE_FNS = {
    "concat": lambda args: "".join(str(a) for a in args),
    "upper": lambda args: str(args[0]).upper(),
    "lower": lambda args: str(args[0]).lower(),
    "length": lambda args: len(str(args[0])),
}


def _eval(expr, arg_map: Mapping[str, Scalar], scratch: Mapping[str, Scalar]) -> Scalar:
    """Evaluate a value expression: ('arg',n) | ('lit',v) | ('var',n) | ('derive',fn,...)."""
    kind = expr[0]
    if kind == "arg":
        name = expr[1]
        if name not in arg_map:
            raise InvalidArguments(f"missing argument {name!r}")
        return arg_map[name]
    if kind == "lit":
        return expr[1]
    if kind == "var":
        name = expr[1]
        if name not in scratch:
            raise ExecutionFailure(f"derived value {name!r} not yet computed")
        return scratch[name]
    if kind == "derive":
        fn = _DERIVE_FNS.get(expr[1])
        if fn is None:
            raise ExecutionFailure(f"unknown derive function {expr[1]!r}")
        return fn([_eval(e, arg_map, scratch) for e in expr[2:]])
    raise ExecutionFailure(f"unknown value expression {expr!r}")


# The built-in domains nest value expressions at most 2 deep. The bound keeps
# _parse_expr, and _eval and _expr_json on the trees it returns, far from
# the interpreter's recursion limit.
MAX_EXPR_DEPTH = 32


def _parse_expr(raw, where: str, depth: int = 1) -> tuple:
    """A value expression read from JSON: every name a string, a literal a scalar."""
    if depth > MAX_EXPR_DEPTH:
        raise ExecutionFailure(f"{where}: value expression nested deeper than {MAX_EXPR_DEPTH}")
    kind = json_value(raw, list, where)[0] if raw else None
    if kind in ("arg", "var") and len(raw) == 2:
        return (kind, json_value(raw[1], str, f"{where}[1]"))
    if kind == "lit" and len(raw) == 2 and _is_scalar(raw[1]):
        return ("lit", raw[1])
    if kind == "derive" and len(raw) > 2 and type(raw[1]) is str and raw[1] in _DERIVE_FNS:
        args = enumerate(raw[2:], start=2)
        return ("derive", raw[1], *(_parse_expr(e, f"{where}[{i}]", depth + 1) for i, e in args))
    raise ExecutionFailure(f"{where}: bad value expression {raw!r}")


# each effect op's operands after the op: an expression (e) or a name (n)
_EFFECT_OPERANDS = {"read": "en", "write": "ee", "erase": "e", "note": "e", "derive": "ne"}


def _expr_json(expr) -> list:
    if expr[0] == "derive":
        return ["derive", expr[1], *[_expr_json(e) for e in expr[2:]]]
    return [expr[0], expr[1]]


@dataclass(frozen=True)
class LogEntry:
    """One raw effect record, tagged with its originating tool."""

    tool: str
    ancillary: bool
    op: str
    key: str | None
    value: Scalar | None


@dataclass(frozen=True)
class ToolSpec:
    """A declarative tool: argument names plus an effect program.

    Effect ops:
      ('read',  key_expr, var_name)   read env[key] into a scratch var
      ('write', key_expr, value_expr) set env[key]
      ('erase', key_expr)             drop env[key]
      ('note',  value_expr)           log-only entry
      ('derive', var_name, value_expr) compute a scratch var, no log

    Ancillary tools are read-only by contract; their log entries may be
    erased for auxiliary-equivalence comparison.
    """

    name: str
    args: tuple[str, ...]
    effects: tuple[tuple, ...]
    output: tuple | None = None
    ancillary: bool = False

    def __post_init__(self) -> None:
        if self.ancillary:
            for effect in self.effects:
                if effect[0] in ("write", "erase"):
                    raise ExecutionFailure(
                        f"ancillary tool {self.name} must be read-only, "
                        f"found {effect[0]!r} effect"
                    )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "args": list(self.args),
            "ancillary": self.ancillary,
            "effects": [
                [op, *(_expr_json(part) if code == "e" else part
                       for code, part in zip(_EFFECT_OPERANDS[op], operands))]
                for op, *operands in self.effects
            ],
            "output": _expr_json(self.output) if self.output else None,
        }

    @classmethod
    def from_json(cls, obj, where: str = "tool: $") -> "ToolSpec":
        effects = []
        for i, raw in enumerate(json_value(obj, list, where, "effects", [])):
            at = f"{where}.effects[{i}]"
            op = json_value(raw, list, at)[0] if raw else None
            operands = _EFFECT_OPERANDS.get(op) if type(op) is str else None
            if operands is None or len(raw) != len(operands) + 1:
                raise ExecutionFailure(f"{at}: bad effect {raw!r}")
            effects.append((op, *(
                _parse_expr(part, f"{at}[{j}]") if code == "e"
                else json_value(part, str, f"{at}[{j}]")
                for j, (code, part) in enumerate(zip(operands, raw[1:]), start=1)
            )))
        output = obj.get("output")  # null: no output
        with json_at(where):
            return cls(
                name=json_value(obj, str, where, "name"),
                args=tuple(json_value(obj, [str], where, "args", [])),
                effects=tuple(effects),
                output=None if output is None else _parse_expr(output, f"{where}.output"),
                ancillary=json_value(obj, bool, where, "ancillary", False),
            )


@dataclass
class SandboxSpec:
    """A tool library keyed by tool name."""

    tools: dict[str, ToolSpec] = field(default_factory=dict)

    def add(self, tool: ToolSpec) -> None:
        self.tools[tool.name] = tool

    def to_json(self) -> list:
        return [self.tools[name].to_json() for name in sorted(self.tools)]

    @classmethod
    def from_json(cls, items, where: str = "tools: $") -> "SandboxSpec":
        box = cls()
        for i, obj in enumerate(json_value(items, list, where)):
            box.add(ToolSpec.from_json(obj, f"{where}[{i}]"))
        return box


@dataclass
class ExecutionResult:
    """Final environment, raw effect log, and per-action outputs."""

    env: dict[str, Scalar]
    log: list[LogEntry]
    outputs: list[Scalar | None]


def apply_tool(
    spec: ToolSpec, action: Action, env: dict[str, Scalar], log: list[LogEntry]
) -> Scalar | None:
    """Run one tool's effect program in place; returns its output value."""
    arg_map = action.arg_map()
    provided = set(arg_map)
    declared = set(spec.args)
    if provided != declared:
        raise InvalidArguments(
            f"{spec.name}: expected args {sorted(declared)}, got {sorted(provided)}"
        )
    scratch: dict[str, Scalar] = {}
    for effect in spec.effects:
        op = effect[0]
        if op == "read":
            key = str(_eval(effect[1], arg_map, scratch))
            value = env.get(key, ABSENT)
            scratch[effect[2]] = value
            log.append(LogEntry(spec.name, spec.ancillary, "read", key, value))
        elif op == "write":
            key = str(_eval(effect[1], arg_map, scratch))
            value = _eval(effect[2], arg_map, scratch)
            env[key] = value
            log.append(LogEntry(spec.name, spec.ancillary, "write", key, value))
        elif op == "erase":
            key = str(_eval(effect[1], arg_map, scratch))
            env.pop(key, None)
            log.append(LogEntry(spec.name, spec.ancillary, "erase", key, None))
        elif op == "note":
            value = _eval(effect[1], arg_map, scratch)
            log.append(LogEntry(spec.name, spec.ancillary, "note", None, value))
        elif op == "derive":
            scratch[effect[1]] = _eval(effect[2], arg_map, scratch)
        else:
            raise ExecutionFailure(f"unknown effect op {op!r}")
    if spec.output is None:
        return None
    return _eval(spec.output, arg_map, scratch)


def execute_segment(
    actions: Sequence[Action],
    sandbox: SandboxSpec,
    env: dict[str, Scalar] | None = None,
) -> ExecutionResult:
    """Execute a concrete action list against a fresh or given environment.

    The caller's dict is not mutated; the result carries the final state.
    """
    state: dict[str, Scalar] = dict(env) if env else {}
    log: list[LogEntry] = []
    outputs: list[Scalar | None] = []
    for action in actions:
        spec = sandbox.tools.get(action.tool)
        if spec is None:
            raise UnknownTool(f"tool {action.tool!r} not in sandbox library")
        outputs.append(apply_tool(spec, action, state, log))
    return ExecutionResult(env=state, log=log, outputs=outputs)


def canonical_log(
    log: Sequence[LogEntry], erase_ancillary: bool = False
) -> tuple[tuple, ...]:
    """Strip tool identity from a raw log, optionally erasing ancillary entries."""
    return tuple(
        (entry.op, entry.key, entry.value)
        for entry in log
        if not (erase_ancillary and entry.ancillary)
    )


def segments_equivalent(
    left: Sequence[Action],
    right: Sequence[Action],
    sandbox: SandboxSpec,
    env: dict[str, Scalar],
    erase_ancillary: bool = False,
) -> bool:
    """Execute two segments from identical environments and compare outcomes.

    Equivalent means identical final environments and identical canonical
    logs; any execution error counts as non-equivalent.
    """
    try:
        a = execute_segment(left, sandbox, env)
        b = execute_segment(right, sandbox, env)
    except (UnknownTool, InvalidArguments, ExecutionFailure):
        return False
    return a.env == b.env and canonical_log(a.log, erase_ancillary) == canonical_log(
        b.log, erase_ancillary
    )
