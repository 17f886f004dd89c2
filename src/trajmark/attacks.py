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

``STRATEGIES`` is the one table of strategies. Each takes ``(corpus,
rng_seed, knowledge)``, where ``Knowledge`` holds everything any of them
may use; deletion, rephrase and PK share one per-action loop.
"""

from __future__ import annotations

import difflib
import random
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Callable, NamedTuple, Sequence

from .equivalence import EquivalenceSet, _bindings, _first_tool_index, _walk
from .errors import CorpusMismatch, InvalidRange
from .seeds import seed_stream
from .trajectory import Action, GreyBoxTrajectory, _check_tool
from .verifier import precision_recall_f1

DELETION_P = 0.1
PK_NAME_SIMILARITY = 0.84
REPHRASE_RATE = 0.1
FK_SUSPICION_SHARE = 0.95
FK_MIN_COUNT = 20
BREAKAGE_SAMPLE = 500  # attacked trajectories that semantic_breakage_rate runs


@dataclass
class AttackOutcome:
    """An attacked corpus plus the attacker's identification claims.

    ``flagged`` and ``modified`` are keyed by input-corpus trajectory index
    with action indices into the input trajectory; ``kept_input_indices``
    maps output corpus order back to input order (deletion may drop
    trajectories that end up empty).
    """

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

    precision: float
    recall: float
    f1: float
    n_flagged: int
    n_true: int
    modification_rate: float
    true_edit_rate: float


@dataclass(frozen=True)
class Knowledge:
    """What the attackers are given: every strategy takes the same one.

    ``p`` is random deletion's per-action probability, ``tool_library``
    the tool names pk-replace guesses among, and ``candidate_sets`` the
    equivalence pool that fk-replace scans with.
    """

    p: float = DELETION_P
    tool_library: Sequence[str] = ()
    candidate_sets: Sequence[EquivalenceSet] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise InvalidRange(f"deletion probability must lie in [0,1], got {self.p}")


def _edit_each_action(
    corpus: Sequence[GreyBoxTrajectory], rng_seed: int, label: str, edit
) -> AttackOutcome:
    """Offer every action to ``edit(action, rng)``, one RNG per trajectory.

    ``edit`` returns ``None`` to keep the action, or the tuple of actions
    that replace it (empty to delete it). Every replaced position is
    flagged and modified; a trajectory left without actions is dropped.
    """
    outcome = AttackOutcome([], [])
    seed_of = seed_stream(rng_seed, "attack", label)
    for idx, traj in enumerate(corpus):
        rng = random.Random(seed_of(idx))
        actions: list[Action] = []
        touched = set()
        for pos, action in enumerate(traj.actions):
            replacement = edit(action, rng)
            if replacement is None:
                actions.append(action)
            else:
                actions.extend(replacement)
                touched.add(pos)
        if touched:
            outcome.flagged[idx] = touched
            outcome.modified[idx] = set(touched)
        if actions:
            outcome.attacked.append(dc_replace(traj, actions=tuple(actions)))
            outcome.kept_input_indices.append(idx)
        else:
            outcome.dropped += 1
    return outcome


def attack_random_deletion(
    corpus: Sequence[GreyBoxTrajectory], rng_seed: int, knowledge: Knowledge
) -> AttackOutcome:
    """Delete each action independently with probability ``knowledge.p``.

    Every deleted index counts as flagged; trajectories left without any
    action are dropped from the attacked corpus.
    """
    p = knowledge.p
    return _edit_each_action(
        corpus, rng_seed, "del", lambda action, rng: () if rng.random() < p else None
    )


_SYNONYMS = {"std": "default", "hit": "match", "ok": "fine", "all": "every"}


def _rephrase(action: Action, rng: random.Random):
    """At ``REPHRASE_RATE``, one string argument swapped for its synonym."""
    values = action.values
    if rng.random() < REPHRASE_RATE and values:
        i = rng.randrange(len(values))
        if isinstance(values[i], str):
            new_value = _SYNONYMS.get(values[i], f"{values[i]}bis")
            # a string argument for a string argument: the action stays valid
            return (Action._trusted(
                action.tool, action.names, values[:i] + (new_value,) + values[i + 1:]
            ),)
    return None


def attack_rephrase_stub(
    corpus: Sequence[GreyBoxTrajectory], rng_seed: int, knowledge: Knowledge
) -> AttackOutcome:
    """Synonym-table rephrase over tool argument strings.

    Stand-in for an LLM paraphrase attack; it perturbs argument surface
    forms (with probability ``REPHRASE_RATE`` per action) but cannot reach
    the tool-choice level where the watermark lives. Not semantics-preserving.
    """
    return _edit_each_action(corpus, rng_seed, "rephrase", _rephrase)


def near_duplicate_map(tool_names: Sequence[str]) -> dict[str, list[str]]:
    """Tools whose names are at least ``PK_NAME_SIMILARITY`` alike, by difflib ratio."""
    names = sorted(set(tool_names))
    neighbours: dict[str, list[str]] = {n: [] for n in names}
    # it keeps what it learns of its second name; both quick ratios bound ratio()
    matcher = difflib.SequenceMatcher(None)
    for j, b in enumerate(names):
        matcher.set_seq2(b)
        for a in names[:j]:
            matcher.set_seq1(a)
            if (matcher.real_quick_ratio() >= PK_NAME_SIMILARITY
                    and matcher.quick_ratio() >= PK_NAME_SIMILARITY
                    and matcher.ratio() >= PK_NAME_SIMILARITY):
                neighbours[a].append(b)
                neighbours[b].append(a)
    return neighbours


def attack_pk_replacement(
    corpus: Sequence[GreyBoxTrajectory], rng_seed: int, knowledge: Knowledge
) -> AttackOutcome:
    """Partially knowledgeable replacement via tool-name similarity.

    Flags every action whose tool has a near-duplicate name in
    ``knowledge.tool_library`` and swaps it for a random near-duplicate,
    keeping the original arguments - no scheme structure, no param maps.
    Blind swaps routinely land on non-equivalent tools or wrong arities.
    """
    neighbours = near_duplicate_map(knowledge.tool_library)

    def swap(action: Action, rng: random.Random):
        options = neighbours.get(action.tool)
        if not options:
            return None
        # the arguments were checked with the action; only the tool is new
        tool = rng.choice(options)
        _check_tool(tool)
        return (Action._trusted(tool, action.names, action.values),)

    return _edit_each_action(corpus, rng_seed, "pk", swap)


def attack_fk_replacement(
    corpus: Sequence[GreyBoxTrajectory], rng_seed: int, knowledge: Knowledge
) -> AttackOutcome:
    """Fully knowledgeable replacement over ``knowledge.candidate_sets``.

    The attacker scans with injector semantics against every candidate
    set and uniformly re-samples each matched segment - with scheme
    knowledge the rewrites themselves are well-formed, but since the
    activated pass subset is unknown, everything that matches gets
    re-rolled (over-modification). Its identification claim is narrower:
    it flags the matches of sets whose harvested member distribution looks
    suspiciously concentrated (at least ``FK_MIN_COUNT`` matches, with a
    majority share above ``FK_SUSPICION_SHARE``), the best available signal
    without knowing natural distributions.
    """
    corpus = list(corpus)
    ordered_sets = list(knowledge.candidate_sets)
    index, present = _first_tool_index(ordered_sets), {}
    counts = [[0] * len(eqset.members) for eqset in ordered_sets]
    spans_by_traj = []
    for traj in corpus:
        spans: list[tuple[int, int, int, int]] = []
        _walk(traj.actions, index, counts, spans, present)
        # spans of different sets may overlap: at one start the shortest
        # wins, then the earliest set, and the spans it overlaps are skipped
        spans.sort(key=lambda span: (span[2], span[3], span[0]))
        spans_by_traj.append(spans)

    suspicious = [
        sum(row) >= FK_MIN_COUNT and max(row) / sum(row) > FK_SUSPICION_SHARE for row in counts
    ]

    outcome = AttackOutcome([], [])
    seed_of = seed_stream(rng_seed, "attack", "fk")
    for idx, (traj, spans) in enumerate(zip(corpus, spans_by_traj)):
        actions = traj.actions
        rng = random.Random(seed_of(idx))
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


class Strategy(NamedTuple):
    """One row of ``STRATEGIES``: the experiment harness's seed label and the attack."""

    label: str
    attack: Callable[[Sequence[GreyBoxTrajectory], int, Knowledge], AttackOutcome]
    needs_candidate_sets: bool = False


# the adversary ladder, in report order; the CLI and the harness both run it
STRATEGIES = {
    "random-deletion": Strategy("del", attack_random_deletion),
    "rephrase-stub": Strategy("rephrase", attack_rephrase_stub),
    "pk-replace": Strategy("pk", attack_pk_replacement),
    "fk-replace": Strategy("fk", attack_fk_replacement, needs_candidate_sets=True),
}


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
        precision=precision,
        recall=recall,
        f1=f1,
        n_flagged=outcome.flagged_count(),
        n_true=n_true,
        modification_rate=outcome.modified_count() / total_actions if total_actions else 0.0,
        true_edit_rate=n_true / total_actions if total_actions else 0.0,
    )


def semantic_breakage_rate(
    original: Sequence[GreyBoxTrajectory], outcome: AttackOutcome, sandbox
) -> float:
    """Fraction of attacked trajectories no longer sandbox-equivalent.

    The first ``BREAKAGE_SAMPLE`` attacked trajectories are run. Both
    versions run from identical environments seeded with every string
    argument value either version references; ancillary read-backs are
    erased before comparison since they are read-only by contract.
    """
    from .simkit.sandbox import segments_equivalent

    broken = 0
    sample = outcome.kept_input_indices[:BREAKAGE_SAMPLE]
    for out_idx, in_idx in enumerate(sample):
        before = original[in_idx].actions
        after = outcome.attacked[out_idx].actions
        if before == after:
            continue
        env = {}
        for action in tuple(before) + tuple(after):
            for value in action.values:
                if isinstance(value, str):
                    env[value] = f"data:{value}"
        if not segments_equivalent(before, after, sandbox, env, erase_ancillary=True):
            broken += 1
    return broken / len(sample) if sample else 0.0
