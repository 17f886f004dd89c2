"""Sandbox execution and equivalence validation."""

import pytest

from trajmark.equivalence import (
    ActionPattern,
    EquivalenceSet,
    Segment,
    SlotRef,
    validate_equivalence,
)
from trajmark.errors import ExecutionFailure, InvalidArguments, UnknownTool
from trajmark.simkit.sandbox import (
    MAX_EXPR_DEPTH,
    SandboxSpec,
    ToolSpec,
    canonical_log,
    execute_segment,
    segments_equivalent,
)
from trajmark.trajectory import Action


def test_copy_delete_moves_value(file_sandbox):
    actions = [
        Action.make("Files.Copy", {"src": "a", "dst": "b"}),
        Action.make("Files.Delete", {"path": "a"}),
    ]
    result = execute_segment(actions, file_sandbox, {"a": "x"})
    assert result.env == {"b": "x"}
    ops = [(e.op, e.key) for e in result.log]
    assert ops == [("read", "a"), ("write", "b"), ("erase", "a")]


def test_move_matches_copy_delete_logs(file_sandbox):
    env = {"a": "x"}
    move = execute_segment([Action.make("Files.Move", {"src": "a", "dst": "b"})],
                           file_sandbox, env)
    pair = execute_segment(
        [Action.make("Files.Copy", {"src": "a", "dst": "b"}),
         Action.make("Files.Delete", {"path": "a"})],
        file_sandbox, env,
    )
    assert move.env == pair.env == {"b": "x"}
    assert canonical_log(move.log) == canonical_log(pair.log)


def test_empty_segment_is_identity(file_sandbox):
    result = execute_segment([], file_sandbox, {"k": "v"})
    assert result.env == {"k": "v"}
    assert result.log == [] and result.outputs == []


def test_execution_errors(file_sandbox):
    with pytest.raises(UnknownTool):
        execute_segment([Action.make("Nope.Tool", {})], file_sandbox)
    with pytest.raises(InvalidArguments):
        execute_segment([Action.make("Files.Move", {"src": "a"})], file_sandbox)
    with pytest.raises(InvalidArguments):
        execute_segment(
            [Action.make("Files.Delete", {"path": "a", "extra": 1})], file_sandbox
        )


def test_caller_env_not_mutated(file_sandbox):
    env = {"a": "x"}
    execute_segment([Action.make("Files.Delete", {"path": "a"})], file_sandbox, env)
    assert env == {"a": "x"}


def test_determinism(file_sandbox):
    actions = [
        Action.make("Files.Copy", {"src": "a", "dst": "b"}),
        Action.make("Files.Stat", {"path": "b"}),
    ]
    runs = [execute_segment(actions, file_sandbox, {"a": "x"}) for _ in range(3)]
    assert all(r.env == runs[0].env for r in runs)
    assert all(r.log == runs[0].log for r in runs)
    assert all(r.outputs == runs[0].outputs for r in runs)


def test_ancillary_erasure(file_sandbox):
    base = [Action.make("Files.Copy", {"src": "a", "dst": "b"})]
    extended = base + [Action.make("Files.Stat", {"path": "b"})]
    r1 = execute_segment(base, file_sandbox, {"a": "x"})
    r2 = execute_segment(extended, file_sandbox, {"a": "x"})
    assert canonical_log(r1.log) != canonical_log(r2.log)
    assert canonical_log(r1.log, erase_ancillary=True) == canonical_log(
        r2.log, erase_ancillary=True
    )
    assert r1.env == r2.env


def test_ancillary_tools_must_be_read_only():
    with pytest.raises(ExecutionFailure):
        ToolSpec(
            "Bad.Ancillary", ("k",),
            (("write", ("arg", "k"), ("lit", "v")),),
            ancillary=True,
        )


def test_toolspec_json_round_trip(file_sandbox):
    dumped = file_sandbox.to_json()
    reloaded = SandboxSpec.from_json(dumped)
    assert reloaded.to_json() == dumped
    actions = [Action.make("Files.Move", {"src": "a", "dst": "b"})]
    before = execute_segment(actions, file_sandbox, {"a": "x"})
    after = execute_segment(actions, reloaded, {"a": "x"})
    assert before.env == after.env and before.log == after.log



def _nested_output(depth: int) -> dict:
    expr = ["arg", "msg"]
    for _ in range(depth - 1):
        expr = ["derive", "upper", expr]
    return {"name": "Deep.Echo", "args": ["msg"], "output": expr}


def test_toolspec_expression_depth_is_bounded():
    # the deepest expression the bound admits still loads and evaluates
    tool = ToolSpec.from_json(_nested_output(MAX_EXPR_DEPTH))
    box = SandboxSpec({tool.name: tool})
    (out,) = execute_segment([Action.make("Deep.Echo", {"msg": "a"})], box).outputs
    assert out == "A"
    with pytest.raises(ExecutionFailure, match=r"^tool: \$\.output(\[2\]){%d}: " % MAX_EXPR_DEPTH):
        ToolSpec.from_json(_nested_output(MAX_EXPR_DEPTH + 1))

# --- validate_equivalence ----------------------------------------------------

def test_move_set_is_valid(file_sandbox, ce_set):
    report = validate_equivalence(ce_set, file_sandbox, n_cases=100, rng_seed=3)
    assert report.valid
    assert report.counterexample is None
    assert report.n_cases == 100


def test_broken_set_reports_counterexample(file_sandbox):
    delete = Segment((ActionPattern("Files.Delete", ("path",)),))
    self_copy = Segment((ActionPattern("Files.Copy", ("src", "dst")),))
    broken = EquivalenceSet(
        id="test.broken",
        scheme="CE",
        members=(delete, self_copy),
        cross_overrides={
            (0, 1): ((("src", SlotRef("path")), ("dst", SlotRef("path"))),),
            (1, 0): ((("path", SlotRef("src")),),),
        },
    )
    report = validate_equivalence(broken, file_sandbox, n_cases=20, rng_seed=3)
    assert not report.valid
    assert report.counterexample is not None
    assert report.counterexample["case"] == 0


def test_validation_deterministic_under_seed(file_sandbox, ce_set):
    a = validate_equivalence(ce_set, file_sandbox, n_cases=30, rng_seed=11)
    b = validate_equivalence(ce_set, file_sandbox, n_cases=30, rng_seed=11)
    assert a == b


def test_validation_unknown_tool(ce_set):
    empty = SandboxSpec()
    with pytest.raises(UnknownTool):
        validate_equivalence(ce_set, empty, n_cases=5, rng_seed=0)


def test_segments_equivalent_helper(file_sandbox):
    move = [Action.make("Files.Move", {"src": "a", "dst": "b"})]
    pair = [
        Action.make("Files.Copy", {"src": "a", "dst": "b"}),
        Action.make("Files.Delete", {"path": "a"}),
    ]
    wrong = [Action.make("Files.Copy", {"src": "a", "dst": "b"})]
    env = {"a": "x"}
    assert segments_equivalent(move, pair, file_sandbox, env)
    assert not segments_equivalent(move, wrong, file_sandbox, env)
