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

``STRATEGIES`` is the one table of strategies. Each starts from
``(rng_seed, knowledge)``, where ``Knowledge`` holds everything any of
them may use, and then attacks one trajectory at a time, so several
strategies and their ``AttackTally`` scores can share one read of a
corpus; deletion, rephrase and PK share one per-action loop.
``Strategy.attack`` collects a whole corpus into an ``AttackOutcome``.
"""

from __future__ import annotations

import difflib
import random
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import AbstractSet, Callable, Collection, Iterable, NamedTuple, Sequence

from .equivalence import EquivalenceSet, MemberCounter, _bindings
from .errors import CorpusMismatch, InvalidRange
from .seeds import seed_stream
from .trajectory import Action, GreyBoxTrajectory, _check_tool
from .verifier import precision_recall_f1

DELETION_P = 0.1
PK_NAME_SIMILARITY = 0.84
REPHRASE_RATE = 0.1
FK_SUSPICION_SHARE = 0.95
FK_MIN_COUNT = 20
BREAKAGE_SAMPLE = 500  # kept attacked trajectories that a breakage check runs


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


class Attacked(NamedTuple):
    """What one strategy did to one trajectory.

    ``trajectory`` is the attacked trajectory, or None when no action is
    left, which drops it. ``modified`` holds the input positions changed.
    ``marks`` maps a flag key to input positions: the positions of a key
    are flagged when the run's ``flag_keys()`` holds it, which is known only
    once the whole corpus has been read.
    """

    trajectory: GreyBoxTrajectory | None
    modified: set[int]
    marks: dict[int, set[int]]


_ALWAYS = frozenset({0})  # the one flag key of a strategy that flags as it goes


class _EachAction:
    """The per-trajectory form of deletion, rephrase and pk: one per-action loop.

    ``step`` offers every action of trajectory ``idx`` to ``edit(action,
    rng)``, with one RNG per trajectory. ``edit`` returns ``None`` to keep
    the action, or the tuple of actions that replace it (empty to delete
    it). Every replaced position is flagged and modified.
    """

    __slots__ = ("_seed_of", "_edit")

    def __init__(self, rng_seed: int, label: str, edit) -> None:
        self._seed_of = seed_stream(rng_seed, "attack", label)
        self._edit = edit

    def step(self, idx: int, traj: GreyBoxTrajectory) -> Attacked:
        edit, rng = self._edit, random.Random(self._seed_of(idx))
        actions: list[Action] = []
        touched = set()
        for pos, action in enumerate(traj.actions):
            replacement = edit(action, rng)
            if replacement is None:
                actions.append(action)
            else:
                actions.extend(replacement)
                touched.add(pos)
        return Attacked(
            dc_replace(traj, actions=tuple(actions)) if actions else None,
            touched,
            {0: touched} if touched else {},
        )

    def flag_keys(self) -> frozenset[int]:
        return _ALWAYS


def _random_deletion(rng_seed: int, knowledge: Knowledge) -> _EachAction:
    """Delete each action independently with probability ``knowledge.p``.

    Every deleted index counts as flagged; trajectories left without any
    action are dropped from the attacked corpus.
    """
    p = knowledge.p
    return _EachAction(rng_seed, "del", lambda action, rng: () if rng.random() < p else None)


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


def _rephrase_stub(rng_seed: int, knowledge: Knowledge) -> _EachAction:
    """Synonym-table rephrase over tool argument strings.

    Stand-in for an LLM paraphrase attack; it perturbs argument surface
    forms (with probability ``REPHRASE_RATE`` per action) but cannot reach
    the tool-choice level where the watermark lives. Not semantics-preserving.
    """
    return _EachAction(rng_seed, "rephrase", _rephrase)


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


def _pk_replacement(rng_seed: int, knowledge: Knowledge) -> _EachAction:
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

    return _EachAction(rng_seed, "pk", swap)


class _FkReplacement:
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

    One pass draws and rewrites: ``step`` marks each taken span under its
    set's index, and ``flag_keys`` names the suspicious sets from the
    member counts of every trajectory stepped so far.
    """

    __slots__ = ("_sets", "_members", "_seed_of")

    def __init__(self, rng_seed: int, knowledge: Knowledge) -> None:
        self._sets = list(knowledge.candidate_sets)
        self._members = MemberCounter(self._sets)
        self._seed_of = seed_stream(rng_seed, "attack", "fk")

    def step(self, idx: int, traj: GreyBoxTrajectory) -> Attacked:
        actions = traj.actions
        spans: list[tuple[int, int, int, int]] = []
        self._members.add(traj, spans)
        # spans of different sets may overlap: at one start the shortest
        # wins, then the earliest set, and the spans it overlaps are skipped
        spans.sort(key=lambda span: (span[2], span[3], span[0]))
        rng = random.Random(self._seed_of(idx))
        new_actions: list[Action] = []
        marks: dict[int, set[int]] = {}
        modified: set[int] = set()
        cursor = 0
        for s_idx, m_idx, start, length in spans:
            if start < cursor:
                continue
            eqset = self._sets[s_idx]
            new_actions.extend(actions[cursor:start])
            draw = rng.randrange(len(eqset.members))
            marks.setdefault(s_idx, set()).update(range(start, start + length))
            if draw != m_idx:
                modified.update(range(start, start + length))
                bindings = _bindings(eqset.members[m_idx], actions, start)
                new_actions.extend(eqset.rewrite(m_idx, draw, bindings))
            else:
                new_actions.extend(actions[start : start + length])
            cursor = start + length
        new_actions.extend(actions[cursor:])
        return Attacked(dc_replace(traj, actions=tuple(new_actions)), modified, marks)

    def flag_keys(self) -> set[int]:
        return {
            s_idx for s_idx, row in enumerate(self._members.counts)
            if sum(row) >= FK_MIN_COUNT and max(row) / sum(row) > FK_SUSPICION_SHARE
        }


class Strategy(NamedTuple):
    """One row of ``STRATEGIES``: the experiment harness's seed label and the attack.

    ``start(rng_seed, knowledge)`` returns the strategy's per-trajectory
    form: a run whose ``step(idx, traj)`` attacks input trajectory ``idx``
    and returns its ``Attacked``, and whose ``flag_keys()`` says, once
    every trajectory has been stepped, which marks are flagged. Each
    trajectory's draws come from its own stream, ``seed_of(idx)``.
    """

    label: str
    start: Callable[[int, Knowledge], "_EachAction | _FkReplacement"]
    needs_candidate_sets: bool = False

    def attack(
        self, corpus: Iterable[GreyBoxTrajectory], rng_seed: int, knowledge: Knowledge
    ) -> AttackOutcome:
        """The whole-corpus form: ``start``'s run stepped over ``corpus`` and collected."""
        run = self.start(rng_seed, knowledge)
        outcome = AttackOutcome([], [])
        marks = {}
        for idx, traj in enumerate(corpus):
            step = run.step(idx, traj)
            if step.trajectory is None:
                outcome.dropped += 1
            else:
                outcome.attacked.append(step.trajectory)
                outcome.kept_input_indices.append(idx)
            if step.modified:
                outcome.modified[idx] = step.modified
            if step.marks:
                marks[idx] = step.marks
        keys = run.flag_keys()
        for idx, by_key in marks.items():
            flags = set().union(*(pos for key, pos in by_key.items() if key in keys))
            if flags:
                outcome.flagged[idx] = flags
        return outcome


# the adversary ladder, in report order; the CLI and the harness both run it
STRATEGIES = {
    "random-deletion": Strategy("del", _random_deletion),
    "rephrase-stub": Strategy("rephrase", _rephrase_stub),
    "pk-replace": Strategy("pk", _pk_replacement),
    "fk-replace": Strategy("fk", _FkReplacement, needs_candidate_sets=True),
}


def attack_random_deletion(corpus, rng_seed: int, knowledge: Knowledge) -> AttackOutcome:
    """``STRATEGIES["random-deletion"]`` over a whole corpus (see ``_random_deletion``)."""
    return STRATEGIES["random-deletion"].attack(corpus, rng_seed, knowledge)


def attack_rephrase_stub(corpus, rng_seed: int, knowledge: Knowledge) -> AttackOutcome:
    """``STRATEGIES["rephrase-stub"]`` over a whole corpus (see ``_rephrase_stub``)."""
    return STRATEGIES["rephrase-stub"].attack(corpus, rng_seed, knowledge)


def attack_pk_replacement(corpus, rng_seed: int, knowledge: Knowledge) -> AttackOutcome:
    """``STRATEGIES["pk-replace"]`` over a whole corpus (see ``_pk_replacement``)."""
    return STRATEGIES["pk-replace"].attack(corpus, rng_seed, knowledge)


def attack_fk_replacement(corpus, rng_seed: int, knowledge: Knowledge) -> AttackOutcome:
    """``STRATEGIES["fk-replace"]`` over a whole corpus (see ``_FkReplacement``)."""
    return STRATEGIES["fk-replace"].attack(corpus, rng_seed, knowledge)


def _breaks(before: Sequence[Action], after: Sequence[Action], sandbox) -> bool:
    """Whether ``after`` is no longer sandbox-equivalent to ``before``.

    Both run from identical environments seeded with every string argument
    value either version references; ancillary read-backs are erased
    before comparison since they are read-only by contract.
    """
    from .simkit.sandbox import segments_equivalent

    if before == after:
        return False
    env = {}
    for action in tuple(before) + tuple(after):
        for value in action.values:
            if isinstance(value, str):
                env[value] = f"data:{value}"
    return not segments_equivalent(before, after, sandbox, env, erase_ancillary=True)


class AttackTally:
    """One strategy's identification metrics and breakage, tallied as it attacks.

    ``add(traj, truth, step)`` takes an input trajectory, its true
    watermark positions and the strategy's ``Attacked`` for it. The true,
    flagged and hit positions are summed per flag key, since the marks of
    different keys in one trajectory are disjoint; ``metrics(flag_keys)``
    adds up the flagged keys once they are known. With a ``sandbox``, the
    first ``BREAKAGE_SAMPLE`` kept trajectories are checked for breakage as
    they arrive.
    """

    __slots__ = ("sandbox", "actions", "n_true", "modified", "kept", "broken", "_by_key")

    def __init__(self, sandbox=None) -> None:
        self.sandbox = sandbox
        self.actions = self.n_true = self.modified = self.kept = self.broken = 0
        self._by_key: dict[int, list[int]] = {}  # key -> [flagged, hits]

    def add(self, traj: GreyBoxTrajectory, truth: AbstractSet[int], step: Attacked) -> None:
        self.actions += len(traj.actions)
        self.n_true += len(truth)
        self.modified += len(step.modified)
        for key, flags in step.marks.items():
            tally = self._by_key.get(key)
            if tally is None:
                tally = self._by_key[key] = [0, 0]
            tally[0] += len(flags)
            tally[1] += len(flags & truth)
        if step.trajectory is not None:
            self.kept += 1
            if self.sandbox is not None and self.kept <= BREAKAGE_SAMPLE:
                self.broken += _breaks(traj.actions, step.trajectory.actions, self.sandbox)

    def metrics(self, flag_keys: Collection[int]) -> AttackMetrics:
        """Score the flagged keys' positions against the true ones.

        Zero flagged yields the stated convention P -> 0, R = 0, F1 = 0.
        """
        n_flagged = tp = 0
        for key, (flagged, hits) in self._by_key.items():
            if key in flag_keys:
                n_flagged += flagged
                tp += hits
        precision, recall, f1 = precision_recall_f1(tp, n_flagged - tp, self.n_true - tp)
        total = self.actions
        return AttackMetrics(
            precision=precision,
            recall=recall,
            f1=f1,
            n_flagged=n_flagged,
            n_true=self.n_true,
            modification_rate=self.modified / total if total else 0.0,
            true_edit_rate=self.n_true / total if total else 0.0,
        )

    def breakage_rate(self) -> float:
        """The share of the checked kept trajectories that broke."""
        sampled = min(self.kept, BREAKAGE_SAMPLE)
        return self.broken / sampled if sampled else 0.0


def attack_metrics(
    outcome: AttackOutcome,
    ground_truth: dict[int, set[int]],
    corpus: Sequence[GreyBoxTrajectory],
) -> AttackMetrics:
    """An ``AttackTally`` of a collected outcome over its input corpus.

    An index of ``ground_truth`` or of ``outcome.flagged`` past the corpus
    end raises ``CorpusMismatch``.
    """
    n_trajs = len(corpus)
    for table in (ground_truth, outcome.flagged):
        check_edit_log(table, n_trajs)
    tally = AttackTally()
    for idx, traj in enumerate(corpus):
        flags = outcome.flagged.get(idx)
        tally.add(traj, ground_truth.get(idx, frozenset()), Attacked(
            None, outcome.modified.get(idx, ()), {0: flags} if flags else {}
        ))
    return tally.metrics(_ALWAYS)


def check_edit_log(positions: dict[int, set[int]], n_trajs: int) -> None:
    """Refuse positions keyed by a trajectory index past a corpus of ``n_trajs``."""
    for idx in positions:
        if idx >= n_trajs:
            raise CorpusMismatch(f"edit log references trajectory {idx}, corpus has {n_trajs}")


def semantic_breakage_rate(
    original: Sequence[GreyBoxTrajectory], outcome: AttackOutcome, sandbox
) -> float:
    """Fraction of attacked trajectories no longer sandbox-equivalent.

    The first ``BREAKAGE_SAMPLE`` attacked trajectories are run, each as
    ``AttackTally`` runs it.
    """
    sample = outcome.kept_input_indices[:BREAKAGE_SAMPLE]
    broken = sum(
        _breaks(original[in_idx].actions, outcome.attacked[out_idx].actions, sandbox)
        for out_idx, in_idx in enumerate(sample)
    )
    return broken / len(sample) if sample else 0.0
