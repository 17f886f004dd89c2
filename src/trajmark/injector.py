"""Watermark insertion: scan visible action sequences and rewrite matches.

Passes are applied sequentially in ascending ``order_rank``; each pass
scans the action sequence as left by its predecessors, so a rewrite made
by an earlier pass can create or destroy matches for a later one. Every
matched span triggers an independent draw from the pass's biased
distribution; draws that select the already-present member are recorded
but rewrite nothing. Actions outside matched spans and the response string
are never touched.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .equivalence import WatermarkPass, scan_equivalence
from .errors import EmptyActions, SchemaViolation
from .seeds import derive_rng
from .trajectory import Action, GreyBoxTrajectory, decode_json_line, iter_parsed_lines


@dataclass
class EditRecord:
    """Ground truth for one biased draw over a matched span.

    ``start``/``length`` are coordinates at the time the owning pass ran;
    ``final_positions`` are the indices of the rewritten actions that
    survived all later passes, in the final trajectory.
    """

    pass_id: int
    start: int
    length: int
    original_index: int
    replacement_index: int
    original_actions: tuple[Action, ...]
    rewritten_actions: tuple[Action, ...]
    final_positions: tuple[int, ...] = ()

    @property
    def changed(self) -> bool:
        return self.replacement_index != self.original_index


def apply_pass(
    actions: Sequence[Action], wm_pass: WatermarkPass, rng: random.Random
) -> tuple[tuple[Action, ...], list[EditRecord]]:
    """Re-sample every matched span from the pass's biased distribution.

    Returns the rewritten action sequence and one edit record per span
    (including draws that kept the original member).
    """
    spans = scan_equivalence(actions, wm_pass.eqset)
    if not spans:
        return tuple(actions), []
    out: list[Action] = []
    edits: list[EditRecord] = []
    cursor = 0
    for member_index, start, length, bindings in spans:
        out.extend(actions[cursor:start])
        draw = wm_pass.biased.sample(rng)
        original = tuple(actions[start : start + length])
        if draw == member_index:
            rewritten = original
        else:
            rewritten = wm_pass.eqset.rewrite(member_index, draw, bindings)
        out.extend(rewritten)
        edits.append(
            EditRecord(
                pass_id=wm_pass.pass_id,
                start=start,
                length=length,
                original_index=member_index,
                replacement_index=draw,
                original_actions=original,
                rewritten_actions=rewritten,
            )
        )
        cursor = start + length
    out.extend(actions[cursor:])
    return tuple(out), edits


def _carry_positions(positions: list[int], edits: Sequence[EditRecord]) -> list[int]:
    """Map positions through one pass's edits, given in ascending ``start``.

    A position shifts by the length change of every span to its left; one
    inside a span survives only if that span's draw kept the original.
    """
    out = []
    for pos in positions:
        shift = 0
        for edit in edits:
            if pos < edit.start:
                break
            if pos < edit.start + edit.length:
                if edit.changed:
                    shift = None
                break
            shift += len(edit.rewritten_actions) - edit.length
        if shift is not None:
            out.append(pos + shift)
    return out


def watermark_trajectory(
    t: GreyBoxTrajectory,
    passes: Sequence[WatermarkPass],
    rng: random.Random,
) -> tuple[GreyBoxTrajectory, list[EditRecord]]:
    """Apply a user's passes in fixed order to one trajectory.

    Each pass scans the possibly already-rewritten sequence of its
    predecessors. Edit records come back with ``final_positions`` resolved
    against the returned trajectory.

    A pass none of whose members' first tools occurs in the current
    actions has no span, so it draws nothing and is skipped; the tools
    present change only when a draw changes a span.
    """
    if not t.actions:
        raise EmptyActions(f"trajectory {t.query_id!r} has no actions")
    actions: tuple[Action, ...] = t.actions
    present = {a.tool for a in actions}
    edits: list[EditRecord] = []
    # final positions come from span arithmetic, not object identity: one
    # Action object may sit at several indices of a trajectory
    positions: list[list[int]] = []
    for wm_pass in sorted(passes, key=lambda p: p.order_rank):
        if present.isdisjoint(wm_pass.eqset._first_tools):
            continue
        actions, new_edits = apply_pass(actions, wm_pass, rng)
        if not new_edits:
            continue
        positions = [_carry_positions(pos, new_edits) for pos in positions]
        shift = 0
        for edit in new_edits:
            start = edit.start + shift
            positions.append(list(range(start, start + len(edit.rewritten_actions))))
            shift += len(edit.rewritten_actions) - edit.length
        edits.extend(new_edits)
        if any(edit.changed for edit in new_edits):
            present = {a.tool for a in actions}
    for edit, pos in zip(edits, positions):
        edit.final_positions = tuple(pos)
    return replace(t, actions=actions), edits


def watermark_corpus(
    corpus: Iterable[GreyBoxTrajectory],
    passes: Sequence[WatermarkPass],
    seed: int,
    uid_hex: str | None = None,
    stamp_uid: bool = False,
) -> tuple[list[GreyBoxTrajectory], list[list[EditRecord]]]:
    """Watermark a whole corpus with per-trajectory derived RNG streams.

    The stream for each trajectory depends only on (seed, uid, query_id),
    so results are independent of processing order and safe to parallelize.
    """
    ordered = sorted(passes, key=lambda p: p.order_rank)
    out_trajs: list[GreyBoxTrajectory] = []
    out_edits: list[list[EditRecord]] = []
    for t in corpus:
        rng = derive_rng(seed, "inject", uid_hex or "", t.query_id)
        wm, edits = watermark_trajectory(t, ordered, rng)
        if stamp_uid and uid_hex is not None:
            wm = replace(wm, user_uid=uid_hex)
        out_trajs.append(wm)
        out_edits.append(edits)
    return out_trajs, out_edits


# ---------------------------------------------------------------------------
# edit-log persistence (ground truth for the attack bench)
# ---------------------------------------------------------------------------

def _action_json(a: Action) -> dict:
    return {"tool": a.tool, "args": dict(a.args)}


def edit_to_json(traj_index: int, query_id: str, edit: EditRecord) -> dict:
    return {
        "traj_index": traj_index,
        "query_id": query_id,
        "pass_id": edit.pass_id,
        "start": edit.start,
        "length": edit.length,
        "original_index": edit.original_index,
        "replacement_index": edit.replacement_index,
        "changed": edit.changed,
        "final_positions": list(edit.final_positions),
        "original_actions": [_action_json(a) for a in edit.original_actions],
        "rewritten_actions": [_action_json(a) for a in edit.rewritten_actions],
    }


def write_edits(
    path: str,
    corpus: Sequence[GreyBoxTrajectory],
    edits_by_traj: Sequence[Sequence[EditRecord]],
) -> int:
    """Write one JSON line per edit record; returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for idx, (traj, edits) in enumerate(zip(corpus, edits_by_traj)):
            for edit in edits:
                handle.write(
                    json.dumps(
                        edit_to_json(idx, traj.query_id, edit),
                        ensure_ascii=False,
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")
                count += 1
    return count


def _is_index(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _parse_edit_line(line: str) -> tuple[int, bool, list[int]]:
    """The ``traj_index``, ``changed`` and ``final_positions`` of one edit line."""
    obj = decode_json_line(line)
    if not isinstance(obj, dict):
        raise SchemaViolation("edit line must be a JSON object")
    traj_index = obj.get("traj_index")
    if not _is_index(traj_index):
        raise SchemaViolation("'traj_index' must be a non-negative integer")
    changed = obj.get("changed")
    if not isinstance(changed, bool):
        raise SchemaViolation("'changed' must be a boolean")
    final = obj.get("final_positions")
    if not isinstance(final, list) or not all(_is_index(p) for p in final):
        raise SchemaViolation("'final_positions' must be an array of non-negative integers")
    return traj_index, changed, final


def read_edit_positions(path: str) -> dict[int, set[int]]:
    """Load ground-truth watermark positions: traj_index -> changed indices.

    Only edits whose draw differed from the matched member count as true
    watermark positions; kept-original draws are invisible to an attacker.
    A malformed line raises a ``TrajmarkError`` naming ``path:line``.
    """
    positions: dict[int, set[int]] = {}
    for traj_index, changed, final in iter_parsed_lines(path, _parse_edit_line):
        if changed:
            positions.setdefault(traj_index, set()).update(final)
    return positions


def changed_positions(
    edits_by_traj: Sequence[Sequence[EditRecord]],
) -> dict[int, set[int]]:
    """In-memory equivalent of ``read_edit_positions``."""
    positions: dict[int, set[int]] = {}
    for idx, edits in enumerate(edits_by_traj):
        marked = {p for e in edits if e.changed for p in e.final_positions}
        if marked:
            positions[idx] = marked
    return positions
