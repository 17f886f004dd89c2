"""Watermark-removal attack bench: PK and FK adversaries plus metrics.

Strategies mirror the adversary ladder: random token deletion and a
synonym rephrase stub need no watermark knowledge, the partially
knowledgeable (PK) replacement attacker guesses by tool-name similarity,
and the fully knowledgeable (FK) attacker scans with the complete
candidate equivalence pool (a superset of whatever was activated) and
re-samples every match uniformly - it knows the schemes, but not which
passes any given user activated, so it must over-modify.

Identification metrics compare an attacker's *flagged positions* (the
action indices, in input-corpus coordinates, it believes carry watermark)
against ground truth: the injector's edit records whose draw actually
changed the matched member. Attacks never touch the response field.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Sequence

from .equivalence import EquivalenceSet, _bindings, _first_tool_index, _walk
from .errors import CorpusMismatch
from .seeds import derive_rng
from .trajectory import Action, GreyBoxTrajectory
from .verifier import precision_recall_f1

PK_NAME_SIMILARITY = 0.84
REPHRASE_RATE = 0.1
FK_SUSPICION_SHARE = 0.95
FK_MIN_COUNT = 20


@dataclass
class AttackOutcome:
    """An attacked corpus plus the attacker's identification claims.

    ``flagged`` and ``modified`` are keyed by input-corpus trajectory index
    with action indices into the input trajectory; ``kept_input_indices``
    maps output corpus order back to input order (deletion may drop
    trajectories that end up empty).
    """

    strategy: str
    attacked: list[GreyBoxTrajectory]
    kept_input_indices: list[int]
    flagged: dict[int, set[int]] = field(default_factory=dict)
    modified: dict[int, set[int]] = field(default_factory=dict)
    dropped: int = 0

    def flagged_count(self) -> int:
        return sum(len(v) for v in self.flagged.values())

    def modified_count(self) -> int:
        return sum(len(v) for v in self.modified.values())


@dataclass
class AttackMetrics:
    """Identification quality and collateral damage of one strategy."""

    strategy: str
    precision: float
    recall: float
    f1: float
    n_flagged: int
    n_true: int
    modification_rate: float
    true_edit_rate: float


def attack_random_deletion(
    corpus: Sequence[GreyBoxTrajectory], p: float, rng_seed: int
) -> AttackOutcome:
    """Delete each action independently with probability ``p``.

    Every deleted index counts as flagged; trajectories left without any
    action are dropped from the attacked corpus.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"deletion probability must lie in [0,1], got {p}")
    outcome = AttackOutcome("random-deletion", [], [])
    for idx, traj in enumerate(corpus):
        rng = derive_rng(rng_seed, "attack", "del", idx)
        kept_actions = []
        removed = set()
        for pos, action in enumerate(traj.actions):
            if rng.random() < p:
                removed.add(pos)
            else:
                kept_actions.append(action)
        if removed:
            outcome.flagged[idx] = removed
            outcome.modified[idx] = set(removed)
        if kept_actions:
            outcome.attacked.append(dc_replace(traj, actions=tuple(kept_actions)))
            outcome.kept_input_indices.append(idx)
        else:
            outcome.dropped += 1
    return outcome


_SYNONYMS = {"std": "default", "hit": "match", "ok": "fine", "all": "every"}


def attack_rephrase_stub(corpus: Sequence[GreyBoxTrajectory], rng_seed: int) -> AttackOutcome:
    """Synonym-table rephrase over tool argument strings.

    Stand-in for an LLM paraphrase attack; it perturbs argument surface
    forms (with probability ``REPHRASE_RATE`` per action) but cannot reach
    the tool-choice level where the watermark lives. Not semantics-preserving.
    """
    outcome = AttackOutcome("rephrase-stub", [], [])
    for idx, traj in enumerate(corpus):
        rng = derive_rng(rng_seed, "attack", "rephrase", idx)
        new_actions = []
        touched = set()
        for pos, action in enumerate(traj.actions):
            if rng.random() < REPHRASE_RATE and action.args:
                name, value = action.args[rng.randrange(len(action.args))]
                if isinstance(value, str):
                    new_value = _SYNONYMS.get(value, f"{value}bis")
                    new_args = tuple(
                        (k, new_value if k == name else v) for k, v in action.args
                    )
                    new_actions.append(Action(action.tool, new_args))
                    touched.add(pos)
                    continue
            new_actions.append(action)
        if touched:
            outcome.flagged[idx] = touched
            outcome.modified[idx] = set(touched)
        outcome.attacked.append(dc_replace(traj, actions=tuple(new_actions)))
        outcome.kept_input_indices.append(idx)
    return outcome


def near_duplicate_map(tool_names: Sequence[str]) -> dict[str, list[str]]:
    """Tools whose names are at least ``PK_NAME_SIMILARITY`` alike, by difflib ratio."""
    names = sorted(set(tool_names))
    neighbours: dict[str, list[str]] = {n: [] for n in names}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if difflib.SequenceMatcher(None, a, b).ratio() >= PK_NAME_SIMILARITY:
                neighbours[a].append(b)
                neighbours[b].append(a)
    return neighbours


def attack_pk_replacement(
    corpus: Sequence[GreyBoxTrajectory], tool_library: Sequence[str], rng_seed: int
) -> AttackOutcome:
    """Partially knowledgeable replacement via tool-name similarity.

    Flags every action whose tool has a near-duplicate name in the library
    and swaps it for a random near-duplicate, keeping the original
    arguments - no scheme structure, no param maps. Blind swaps routinely
    land on non-equivalent tools or wrong arities.
    """
    neighbours = near_duplicate_map(tool_library)
    outcome = AttackOutcome("pk-replace", [], [])
    for idx, traj in enumerate(corpus):
        rng = derive_rng(rng_seed, "attack", "pk", idx)
        new_actions = []
        touched = set()
        for pos, action in enumerate(traj.actions):
            options = neighbours.get(action.tool) or []
            if options:
                swap = rng.choice(options)
                new_actions.append(Action(swap, action.args))
                touched.add(pos)
            else:
                new_actions.append(action)
        if touched:
            outcome.flagged[idx] = touched
            outcome.modified[idx] = set(touched)
        outcome.attacked.append(dc_replace(traj, actions=tuple(new_actions)))
        outcome.kept_input_indices.append(idx)
    return outcome


def attack_fk_replacement(
    corpus: Sequence[GreyBoxTrajectory],
    full_scheme_pool: Sequence[EquivalenceSet],
    rng_seed: int,
    suspicion_share: float = FK_SUSPICION_SHARE,
    min_count: int = FK_MIN_COUNT,
) -> AttackOutcome:
    """Fully knowledgeable replacement over the candidate equivalence pool.

    The attacker scans with injector semantics against every candidate
    set and uniformly re-samples each matched segment - with scheme
    knowledge the rewrites themselves are well-formed, but since the
    activated pass subset is unknown, everything that matches gets
    re-rolled (over-modification). Its identification claim is narrower:
    it flags the matches of sets whose harvested member distribution looks
    suspiciously concentrated (majority share above ``suspicion_share``),
    the best available signal without knowing natural distributions.
    """
    corpus = list(corpus)
    ordered_sets = list(full_scheme_pool)
    index = _first_tool_index(ordered_sets)
    counts = [[0] * len(eqset.members) for eqset in ordered_sets]
    spans_by_traj = []
    for traj in corpus:
        spans: list[tuple[int, int, int, int]] = []
        _walk(traj.actions, index, counts, spans)
        # spans of different sets may overlap: at one start the shortest
        # wins, then the earliest set, and the spans it overlaps are skipped
        spans.sort(key=lambda span: (span[2], span[3], span[0]))
        spans_by_traj.append(spans)

    suspicious = [
        sum(row) >= min_count and max(row) / sum(row) > suspicion_share for row in counts
    ]

    outcome = AttackOutcome("fk-replace", [], [])
    for idx, (traj, spans) in enumerate(zip(corpus, spans_by_traj)):
        actions = traj.actions
        rng = derive_rng(rng_seed, "attack", "fk", idx)
        new_actions: list[Action] = []
        flagged: set[int] = set()
        modified: set[int] = set()
        cursor = 0
        for s_idx, m_idx, start, length in spans:
            if start < cursor:
                continue
            eqset = ordered_sets[s_idx]
            new_actions.extend(actions[cursor:start])
            draw = rng.randrange(len(eqset.members))
            if suspicious[s_idx]:
                flagged.update(range(start, start + length))
            if draw != m_idx:
                modified.update(range(start, start + length))
                bindings = _bindings(eqset.members[m_idx], actions, start)
                new_actions.extend(eqset.rewrite(m_idx, draw, bindings))
            else:
                new_actions.extend(actions[start : start + length])
            cursor = start + length
        new_actions.extend(actions[cursor:])
        if flagged:
            outcome.flagged[idx] = flagged
        if modified:
            outcome.modified[idx] = modified
        outcome.attacked.append(dc_replace(traj, actions=tuple(new_actions)))
        outcome.kept_input_indices.append(idx)
    return outcome


def attack_metrics(
    outcome: AttackOutcome,
    ground_truth: dict[int, set[int]],
    corpus: Sequence[GreyBoxTrajectory],
) -> AttackMetrics:
    """Score flagged positions against true watermark positions.

    Zero flagged yields the stated convention P -> 0, R = 0, F1 = 0.
    """
    n_trajs = len(corpus)
    for table in (ground_truth, outcome.flagged):
        for idx in table:
            if idx >= n_trajs:
                raise CorpusMismatch(
                    f"edit log references trajectory {idx}, corpus has {n_trajs}"
                )
    tp = fp = 0
    for idx, flags in outcome.flagged.items():
        truth = ground_truth.get(idx, set())
        tp += len(flags & truth)
        fp += len(flags - truth)
    n_true = sum(len(v) for v in ground_truth.values())
    fn = n_true - tp
    precision, recall, f1 = precision_recall_f1(tp, fp, fn)
    total_actions = sum(len(t.actions) for t in corpus)
    return AttackMetrics(
        strategy=outcome.strategy,
        precision=precision,
        recall=recall,
        f1=f1,
        n_flagged=outcome.flagged_count(),
        n_true=n_true,
        modification_rate=outcome.modified_count() / total_actions if total_actions else 0.0,
        true_edit_rate=n_true / total_actions if total_actions else 0.0,
    )


def semantic_breakage_rate(
    original: Sequence[GreyBoxTrajectory],
    outcome: AttackOutcome,
    sandbox,
    limit: int | None = None,
) -> float:
    """Fraction of attacked trajectories no longer sandbox-equivalent.

    Both versions run from identical environments seeded with every string
    argument value either version references; ancillary read-backs are
    erased before comparison since they are read-only by contract.
    """
    from .simkit.sandbox import segments_equivalent

    broken = 0
    checked = 0
    for out_idx, in_idx in enumerate(outcome.kept_input_indices):
        if limit is not None and checked >= limit:
            break
        before = original[in_idx].actions
        after = outcome.attacked[out_idx].actions
        checked += 1
        if before == after:
            continue
        env = {}
        for action in tuple(before) + tuple(after):
            for _, value in action.args:
                if isinstance(value, str):
                    env[value] = f"data:{value}"
        if not segments_equivalent(before, after, sandbox, env, erase_ancillary=True):
            broken += 1
    return broken / checked if checked else 0.0
