"""Watermark-pass schema, scheme taxonomy, and distribution algebra.

A watermark pass owns one *equivalence set*: two or more action segments
(sub-sequences of tool calls) that produce identical outputs and side
effects. The pass biases the natural occurrence distribution of those
segments toward a designated target member via exponential scaling, which
is the statistical signature later recovered during verification.

Five scheme tags classify how equivalence arises:

* ``VR``  vendor replacement (same operation, competing provider)
* ``PGR`` parameter granularity replacement (coarser vs. finer interface)
* ``IA``  interface aliasing (versioned/regional endpoint names)
* ``AE``  auxiliary equivalence (base vs. base + ancillary read-only call)
* ``CE``  compositional equivalence (atomic vs. decomposed multi-call form)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    InvalidDistribution,
    ManifestError,
    MappingGap,
    NoObservations,
    SchemaViolation,
    SupportMismatch,
    UnknownTool,
)
from .seeds import derive_rng
from .trajectory import Action, GreyBoxTrajectory, Scalar, json_object

SCHEMES = ("VR", "PGR", "IA", "AE", "CE")
ACTION_SCHEMES = ("VR", "PGR", "IA")
STRUCTURE_SCHEMES = ("AE", "CE")

_SUM_TOL = 1e-12


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Distribution:
    """A categorical distribution over the members of one equivalence set."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.weights, tuple):
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not self.weights:
            raise InvalidDistribution("empty weight vector")
        for w in self.weights:
            if not math.isfinite(w) or w < 0.0 or w > 1.0:
                raise InvalidDistribution(f"weight out of [0,1]: {w!r}")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > _SUM_TOL:
            raise InvalidDistribution(f"weights sum to {total!r}, not 1")

    def __len__(self) -> int:
        return len(self.weights)

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "Distribution":
        total = sum(counts)
        if total <= 0:
            raise NoObservations("cannot normalize zero counts")
        return cls(tuple(c / total for c in counts))

    def sample(self, rng) -> int:
        """Draw a member index using one uniform variate from ``rng``."""
        u = rng.random()
        acc = 0.0
        for i, w in enumerate(self.weights):
            acc += w
            if u < acc:
                return i
        return len(self.weights) - 1

    def l1_distance(self, other: "Distribution") -> float:
        if len(self) != len(other):
            raise ArityMismatch(f"arity {len(self)} vs {len(other)}")
        return math.fsum(abs(p - q) for p, q in zip(self.weights, other.weights))


def derive_target_distribution(
    natural: Distribution, target_index: int, delta: float
) -> Distribution:
    """Boost one member's probability via exponential scaling.

    The target member's mass is multiplied by ``e**delta`` and the whole
    vector renormalized, so non-target masses keep their mutual ratios.
    ``delta == 0`` is the exact identity.
    """
    if not isinstance(natural, Distribution):
        raise InvalidDistribution("natural must be a Distribution")
    if not 0 <= target_index < len(natural):
        raise IndexOutOfRange(
            f"target index {target_index} outside arity {len(natural)}"
        )
    if not math.isfinite(delta) or delta < 0.0:
        raise ValueError(f"delta must be a finite non-negative real, got {delta!r}")
    if delta == 0.0:
        # e^0 scaling leaves the vector untouched; return it bit-exactly
        return Distribution(natural.weights)
    p = natural.weights
    boosted = p[target_index] * math.exp(delta)
    denom = boosted + math.fsum(w for k, w in enumerate(p) if k != target_index)
    weights = tuple(
        (boosted if j == target_index else p[j]) / denom for j in range(len(p))
    )
    return Distribution(weights)


def _xlog2x_ratio(p: float, m: float) -> float:
    if p == 0.0:
        return 0.0
    return p * math.log2(p / m)


def js_divergence(P: Distribution, Q: Distribution) -> float:
    """Jensen-Shannon divergence with base-2 logarithms, bounded in [0, 1]."""
    if len(P) != len(Q):
        raise ArityMismatch(f"arity {len(P)} vs {len(Q)}")
    total = 0.0
    for p, q in zip(P.weights, Q.weights):
        if p == 0.0 and q == 0.0:
            continue
        m = 0.5 * (p + q)
        total += 0.5 * _xlog2x_ratio(p, m) + 0.5 * _xlog2x_ratio(q, m)
    return min(1.0, max(0.0, total))


def kl_divergence(P: Distribution, Q: Distribution) -> float:
    """Kullback-Leibler divergence in nats; requires supp(P) within supp(Q)."""
    if len(P) != len(Q):
        raise ArityMismatch(f"arity {len(P)} vs {len(Q)}")
    total = 0.0
    for p, q in zip(P.weights, Q.weights):
        if p == 0.0:
            continue
        if q == 0.0:
            raise SupportMismatch("P has mass where Q has none")
        total += p * math.log(p / q)
    return max(0.0, total)


# ---------------------------------------------------------------------------
# segments and param mappings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlotRef:
    """Argument source: the value bound to a slot of the source segment."""

    slot: str


@dataclass(frozen=True)
class Lit:
    """Argument source: a literal constant."""

    value: Scalar


ArgSource = Union[SlotRef, Lit]

# One entry per target action: ordered (arg_name, source) pairs.
ParamMapping = tuple[tuple[tuple[str, ArgSource], ...], ...]


@dataclass(frozen=True)
class ActionPattern:
    """Match unit for one action: a tool name plus the slots it binds.

    Each ``arg_slots`` entry is either a plain argument name (binding into
    a slot of the same name) or an ``(arg_name, slot_name)`` pair, which
    lets tools with differently named parameters share one slot - a
    delete's ``path`` can bind the same slot as a copy's ``src``, making
    the must-delete-what-was-copied constraint expressible.
    """

    tool: str
    arg_slots: tuple = ()

    def __post_init__(self) -> None:
        if not self.tool:
            raise ValueError("pattern tool must be non-empty")
        normalized = tuple(
            (entry, entry) if isinstance(entry, str) else (entry[0], entry[1])
            for entry in self.arg_slots
        )
        object.__setattr__(self, "arg_slots", normalized)
        arg_names = [arg for arg, _ in normalized]
        if len(set(arg_names)) != len(arg_names):
            raise ValueError(f"duplicate arguments in pattern {self.tool}: {arg_names}")


@dataclass(frozen=True)
class Segment:
    """An ordered sequence of action patterns forming one set member.

    Slot names are segment-scoped: if the same slot appears in several
    patterns, a candidate sub-sequence matches only when all occurrences
    bind the same value (a copy-then-delete pair must delete the copied
    source, not some other key).

    ``param_map`` states how to build the segment's concrete actions from a
    bindings dict over its own slots; by default every argument is filled
    from its same-named slot.
    """

    patterns: tuple[ActionPattern, ...]
    param_map: ParamMapping = ()

    def __post_init__(self) -> None:
        if not isinstance(self.patterns, tuple):
            object.__setattr__(self, "patterns", tuple(self.patterns))
        if not self.patterns:
            raise ValueError("segment needs at least one pattern")
        slots = [slot for pat in self.patterns for _, slot in pat.arg_slots]
        own = frozenset(slots)
        object.__setattr__(self, "_slots", own)
        if not self.param_map:
            # every argument from its same-named slot: all references resolve
            object.__setattr__(self, "param_map", tuple([
                tuple([(arg, SlotRef(slot)) for arg, slot in pat.arg_slots])
                for pat in self.patterns
            ]))
        else:
            if len(self.param_map) != len(self.patterns):
                raise MappingGap(
                    f"param_map covers {len(self.param_map)} actions, "
                    f"segment has {len(self.patterns)}"
                )
            for entry in self.param_map:
                for _, source in entry:
                    if isinstance(source, SlotRef) and source.slot not in own:
                        raise MappingGap(f"param_map references unknown slot {source.slot!r}")
        # the compiled shape every match is decided from: each
        # pattern's argument names, the tools after the first, and the pairs
        # (first, later) of argument positions, numbered across all
        # patterns, that bind the same slot
        names = tuple([tuple([arg for arg, _ in pat.arg_slots]) for pat in self.patterns])
        same_slot = []
        if len(own) != len(slots):
            first_position: dict[str, int] = {}
            for position, slot in enumerate(slots):
                if slot in first_position:
                    same_slot.append((first_position[slot], position))
                else:
                    first_position[slot] = position
        object.__setattr__(self, "_shape", (
            names, tuple([pat.tool for pat in self.patterns[1:]]), tuple(same_slot)
        ))
        # one pattern binding distinct slots matches an action of its tool
        # iff the action has every one of its argument names
        object.__setattr__(
            self,
            "_arg_names",
            frozenset(names[0]) if len(names) == 1 and not same_slot else None,
        )

    def slots(self) -> frozenset[str]:
        return self._slots

    def __len__(self) -> int:
        return len(self.patterns)


_MISSING = object()


def _shape_matches(shape: tuple, actions: Sequence[Action], start: int) -> bool:
    """Whether the segment compiled to ``shape`` matches at ``actions[start:]``.

    The caller has checked that ``actions[start]`` has the first pattern's
    tool. The later tools must follow in order, every argument a pattern
    binds must be present, and the arguments that bind one slot must hold
    equal (``==``) values. No bindings are built: the values are collected
    in argument order and the positions that share a slot are compared
    pairwise.
    """
    names, rest_tools, same_slot = shape
    if start + len(names) > len(actions):
        return False
    for pos, tool in enumerate(rest_tools, start + 1):
        if actions[pos].tool != tool:
            return False
    values = []
    for pos, arg_names in enumerate(names, start):
        arg_map = dict(actions[pos].args)
        for name in arg_names:
            value = arg_map.get(name, _MISSING)
            if value is _MISSING:
                return False
            values.append(value)
    for first, later in same_slot:
        if values[first] != values[later]:
            return False
    return True


def _bindings(segment: Segment, actions: Sequence[Action], start: int) -> dict[str, Scalar]:
    """The slot values of ``segment``'s match at ``actions[start:]``.

    Call it only on a span that ``_walk`` or ``_shape_matches`` has decided:
    nothing is checked again. A slot bound by several arguments takes the
    value of its first occurrence, which keeps its type where equal values
    differ in type (``1 == True``).
    """
    bindings: dict[str, Scalar] = {}
    for offset, pattern in enumerate(segment.patterns):
        arg_map = dict(actions[start + offset].args)
        for arg_name, slot in pattern.arg_slots:
            bindings.setdefault(slot, arg_map[arg_name])
    return bindings


def _compile(mapping: ParamMapping, target: Segment) -> tuple[tuple, list[str]]:
    """The plan that builds ``target``'s actions, and the slots it reads in order.

    The plan has one ``(tool, ((arg_name, slot, literal), ...))`` row per
    target action, ``slot`` None for a literal. ``mapping`` has been
    checked to cover every action of ``target``.
    """
    plan, reads = [], []
    for pattern, entry in zip(target.patterns, mapping):
        args = []
        for arg_name, source in entry:
            if isinstance(source, Lit):
                args.append((arg_name, None, source.value))
            else:
                args.append((arg_name, source.slot, None))
                reads.append(source.slot)
        plan.append((pattern.tool, tuple(args)))
    return tuple(plan), reads


# ---------------------------------------------------------------------------
# equivalence sets
# ---------------------------------------------------------------------------

# One member in a set's ``scan_index``: (member_index, length, argument names,
# shape). The names are the member's ``Segment._arg_names``, set for a
# single pattern binding distinct slots and None otherwise; the shape is its
# ``Segment._shape``, which ``_shape_matches`` reads.
_ScanEntry = tuple[int, int, Union[frozenset, None], tuple]


@dataclass(frozen=True)
class EquivalenceSet:
    """Two or more interchangeable segments plus their rewrite mappings.

    ``cross_overrides`` holds explicit mappings for ordered member pairs
    whose slot namespaces differ; every other pair defaults to the target
    member's own ``param_map`` resolved against the source bindings. It is
    stored as a read-only mapping, and the set is frozen: the checks below
    and the tables built from them hold for the life of the set.

    Construction checks every effective mapping the way ``Action`` checks
    an action: valid tool names, distinct string argument names, and
    literals that are finite scalars. Every slot it reads must be bound by
    the source member. Each effective mapping is then compiled once into a
    plan (see ``_compile``), and ``rewrite`` only reads the plan.

    It also builds ``base_slots``, member 0's slots sorted, and
    ``scan_index``, a read-only map from each first tool to the
    ``_ScanEntry`` rows of the members starting with it, in scan order.
    """

    id: str
    scheme: str
    members: tuple[Segment, ...]
    cross_overrides: Mapping[tuple[int, int], ParamMapping] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r} for set {self.id}")
        object.__setattr__(self, "members", tuple(self.members))
        # a private copy behind a read-only view: nobody else can change it
        overrides = dict(self.cross_overrides)
        object.__setattr__(self, "cross_overrides", MappingProxyType(overrides))
        if len(self.members) < 2:
            raise ValueError(f"equivalence set {self.id} needs k >= 2 members")
        # every ordered pair, a member onto itself included, must be
        # rewritable: each slot its effective mapping reads is bound by the
        # source member. A pair without an override shares the plan of its
        # target's own param_map, compiled once.
        own = [_compile(member.param_map, member) for member in self.members]
        plans = []
        for src, source in enumerate(self.members):
            src_slots = source.slots()
            row = []
            for dst, target in enumerate(self.members):
                mapping = overrides.get((src, dst))
                if mapping is None:
                    plan, reads = own[dst]
                else:
                    self._check_actions(mapping, dst, src)
                    plan, reads = _compile(mapping, target)
                if not src_slots.issuperset(reads):
                    slot = next(slot for slot in reads if slot not in src_slots)
                    raise MappingGap(
                        f"set {self.id}: mapping {src}->{dst} needs slot "
                        f"{slot!r} not bound by member {src}"
                    )
                row.append(plan)
            plans.append(tuple(row))
        # the actions each member's own param_map builds
        for dst, member in enumerate(self.members):
            self._check_actions(member.param_map, dst)
        # per first tool, the members starting with it as ``_ScanEntry``
        # rows in scan order (longest member first, ties by member index):
        # at an action, only the members starting with its tool can match
        by_tool: dict[str, list[_ScanEntry]] = {}
        for m_idx in sorted(range(len(self.members)), key=lambda i: (-len(self.members[i]), i)):
            seg = self.members[m_idx]
            by_tool.setdefault(seg.patterns[0].tool, []).append(
                (m_idx, len(seg.patterns), seg._arg_names, seg._shape)
            )
        for name, value in (
            # member 0's slot namespace, in the order bindings are drawn for it
            ("base_slots", tuple(sorted(self.members[0].slots()))),
            ("scan_index", MappingProxyType({t: tuple(row) for t, row in by_tool.items()})),
            ("_all_tools", frozenset(pat.tool for seg in self.members for pat in seg.patterns)),
            ("_plans", tuple(plans)),
        ):
            object.__setattr__(self, name, value)

    def _check_actions(self, mapping: ParamMapping, dst: int, src: int | None = None) -> None:
        """Refuse a mapping onto member ``dst`` that builds actions ``Action`` refuses.

        ``src`` names an explicit cross mapping; without it, ``mapping`` is
        the member's own. Each target action is built once through the
        public constructor, with an empty string standing in for every
        slot value: bound values come from validated actions, so only the
        tool name, the argument names and the literals can be wrong.
        """
        patterns = self.members[dst].patterns
        if len(mapping) != len(patterns):
            raise MappingGap(
                f"set {self.id}: mapping {src}->{dst} covers {len(mapping)} actions, "
                f"member {dst} has {len(patterns)}"
            )
        for pattern, entry in zip(patterns, mapping):
            try:
                Action(pattern.tool, tuple([
                    (name, source.value if isinstance(source, Lit) else "")
                    for name, source in entry
                ]))
            except SchemaViolation as exc:
                where = f"member {dst}" if src is None else f"mapping {src}->{dst}"
                raise ManifestError(f"set {self.id}: {where}: {exc}") from exc

    def rewrite(self, src: int, dst: int, bindings: dict[str, Scalar]) -> tuple[Action, ...]:
        """Produce member ``dst``'s actions from a match of member ``src``.

        ``bindings`` must bind every slot of member ``src``, as the bindings
        of a decided match or a draw over ``base_slots`` for member 0 do;
        a missing slot raises ``KeyError``. The actions are read off the
        plan compiled at build, from checked parts, and nothing is checked
        again.
        """
        return tuple([
            Action._trusted(tool, tuple([
                (arg_name, literal if slot is None else bindings[slot])
                for arg_name, slot, literal in args
            ]))
            for tool, args in self._plans[src][dst]
        ])

    def tools(self) -> frozenset[str]:
        return self._all_tools

    def match_at(
        self, actions: Sequence[Action], pos: int
    ) -> tuple[int, dict[str, Scalar]] | None:
        """The first member, in scan order, matching at ``actions[pos:]``.

        Returns ``(member_index, bindings)``, or None when no member
        matches or ``pos`` is at or past the end.
        """
        if pos >= len(actions):
            return None
        for m_idx, _, _, shape in self.scan_index.get(actions[pos].tool, ()):
            if _shape_matches(shape, actions, pos):
                return m_idx, _bindings(self.members[m_idx], actions, pos)
        return None


def scan_equivalence(
    actions: Sequence[Action], eqset: EquivalenceSet
) -> list[tuple[int, int, int, dict[str, Scalar]]]:
    """Greedy left-to-right scan for set members over an action sequence.

    Returns ``(member_index, start, length, bindings)`` tuples. Overlaps are
    resolved leftmost-first, then longest-member-first; matched regions are
    consumed, so the spans are pairwise disjoint. This is ``_walk`` for one
    set; ``_bindings`` reads the bindings off each reported span.
    """
    spans: list[tuple[int, int, int, int]] = []
    _walk(actions, _first_tool_index((eqset,)), [[0] * len(eqset.members)], spans)
    return [(m_idx, start, length, _bindings(eqset.members[m_idx], actions, start))
            for _, m_idx, start, length in spans]


# tool -> (set index, that set's scan entries for the tool) per set
_ToolIndex = dict[str, list[tuple[int, tuple[_ScanEntry, ...]]]]


def _first_tool_index(eqsets: Sequence[EquivalenceSet]) -> _ToolIndex:
    """Merge the ``scan_index`` of the sets of one walk, in set order."""
    index: _ToolIndex = {}
    for s_idx, eqset in enumerate(eqsets):
        for tool, entries in eqset.scan_index.items():
            candidates = index.get(tool)
            if candidates is None:
                index[tool] = [(s_idx, entries)]
            else:
                candidates.append((s_idx, entries))
    return index


def _walk(
    actions: Sequence[Action],
    index: _ToolIndex,
    counts: list[list[int]],
    spans: list[tuple[int, int, int, int]] | None = None,
) -> None:
    """The greedy scan of one trajectory for every set of ``index`` at once.

    Every set keeps a cursor, the first position its scan has not
    consumed. At each position only the sets with a member starting with
    that action's tool, and whose cursor has reached it, are tried, members
    in scan order; a hit moves that set's cursor past the matched span.
    That is a leftmost-first, longest-member-first greedy scan, run for
    every set side by side.

    Each hit is added to ``counts[set][member]`` and, when ``spans`` is a
    list, appended to it as ``(set, member, start, length)``.

    A candidate is decided from the shape its segment compiled when it was
    built, and no bindings are made. The index guarantees the first tool,
    so for a member of one pattern binding distinct slots ``_shape_matches``
    reduces to the action having all of its argument names, which is tested
    directly; every other member goes through ``_shape_matches``.
    """
    cursors = [0] * len(counts)
    for pos, action in enumerate(actions):
        candidates = index.get(action.tool)
        if candidates is None:
            continue
        present = dict(action.args).keys()
        for s_idx, entries in candidates:
            if cursors[s_idx] > pos:
                continue
            for m_idx, length, arg_names, shape in entries:
                if arg_names is not None:
                    if not present >= arg_names:
                        continue
                elif not _shape_matches(shape, actions, pos):
                    continue
                counts[s_idx][m_idx] += 1
                cursors[s_idx] = pos + length
                if spans is not None:
                    spans.append((s_idx, m_idx, pos, length))
                break


def count_members(
    corpus: Iterable[GreyBoxTrajectory], eqsets: Sequence[EquivalenceSet]
) -> list[list[int]]:
    """Tally non-overlapping member matches of each set over a corpus.

    Returns one member-indexed count vector per set, in set order: the
    per-set sums of ``scan_equivalence`` results. Each trajectory is walked
    once for all sets (see ``_walk``), and no bindings are built.
    """
    index = _first_tool_index(eqsets)
    counts = [[0] * len(eqset.members) for eqset in eqsets]
    for traj in corpus:
        _walk(traj.actions, index, counts)
    return counts


def count_members_by_trajectory(
    corpus: Iterable[GreyBoxTrajectory], eqsets: Sequence[EquivalenceSet]
) -> list[list[list[int]]]:
    """``count_members([traj], eqsets)`` for every trajectory of a corpus.

    The tool index is built once for the whole corpus instead of once per
    trajectory.
    """
    index = _first_tool_index(eqsets)
    out = []
    for traj in corpus:
        counts = [[0] * len(eqset.members) for eqset in eqsets]
        _walk(traj.actions, index, counts)
        out.append(counts)
    return out


def estimate_natural_distribution(
    corpus: Iterable[GreyBoxTrajectory], eqset: EquivalenceSet
) -> tuple[Distribution, int]:
    """Normalize one set's ``count_members`` tally into a distribution.

    Returns the distribution and the match count. Raises NoObservations
    when the corpus contains no match at all, since a natural distribution
    is undefined for an unobserved set.

    Not exported: nothing in the package calls it. It stays only while the
    benchmark's span table (``bench/spans.py``) still wraps it by name.
    """
    counts = count_members(corpus, [eqset])[0]
    total = sum(counts)
    if total == 0:
        raise NoObservations(f"no matches for set {eqset.id} in corpus")
    return Distribution.from_counts(counts), total


# ---------------------------------------------------------------------------
# watermark passes
# ---------------------------------------------------------------------------

@dataclass
class WatermarkPass:
    """One deployable watermark: an equivalence set plus its biased draw.

    ``order_rank`` totally orders the pool; interdependent passes must be
    applied in this fixed order during both injection and verification.
    """

    pass_id: int
    eqset: EquivalenceSet
    natural: Distribution
    target_index: int
    delta: float
    order_rank: int
    biased: Distribution | None = None

    def __post_init__(self) -> None:
        if self.pass_id < 1:
            raise ValueError("pass_id must be >= 1")
        if len(self.natural) != len(self.eqset.members):
            raise ArityMismatch(
                f"pass {self.pass_id}: distribution arity {len(self.natural)} "
                f"vs {len(self.eqset.members)} members"
            )
        expected = derive_target_distribution(self.natural, self.target_index, self.delta)
        if self.biased is None:
            self.biased = expected
        elif tuple(self.biased.weights) != tuple(expected.weights):
            raise InvalidDistribution(
                f"pass {self.pass_id}: stored biased distribution does not "
                f"equal the derived one"
            )


# ---------------------------------------------------------------------------
# JSON codecs (shared by domain-spec and pass-pool files)
# ---------------------------------------------------------------------------

def _source_to_json(source: ArgSource) -> list:
    if isinstance(source, Lit):
        return ["lit", source.value]
    return ["slot", source.slot]


def _source_from_json(raw) -> ArgSource:
    if raw[0] == "lit":
        return Lit(raw[1])
    if raw[0] == "slot":
        return SlotRef(raw[1])
    raise MappingGap(f"unknown arg source {raw!r}")


def mapping_to_json(mapping: ParamMapping) -> list:
    return [
        [[name, _source_to_json(src)] for name, src in entry] for entry in mapping
    ]


def mapping_from_json(raw) -> ParamMapping:
    return tuple(
        tuple((name, _source_from_json(src)) for name, src in entry) for entry in raw
    )


def segment_to_json(segment: Segment) -> dict:
    return {
        "patterns": [
            {
                "tool": p.tool,
                "slots": [
                    arg if arg == slot else [arg, slot] for arg, slot in p.arg_slots
                ],
            }
            for p in segment.patterns
        ],
        "param_map": mapping_to_json(segment.param_map),
    }


def segment_from_json(obj: dict) -> Segment:
    patterns = tuple(
        # the pattern is checked before ``p.get`` reads it
        ActionPattern(json_object(p, "pattern")["tool"], tuple(p.get("slots", [])))
        for p in json_object(obj, "segment")["patterns"]
    )
    raw_map = obj.get("param_map")
    return Segment(patterns, mapping_from_json(raw_map) if raw_map else ())


def eqset_to_json(eqset: EquivalenceSet) -> dict:
    return {
        "id": eqset.id,
        "scheme": eqset.scheme,
        "members": [segment_to_json(m) for m in eqset.members],
        "cross_maps": {
            f"{src}->{dst}": mapping_to_json(mapping)
            for (src, dst), mapping in sorted(eqset.cross_overrides.items())
        },
    }


def eqset_from_json(obj: dict) -> EquivalenceSet:
    raw_maps = json_object(obj, "set").get("cross_maps", {})
    overrides = {}
    for key, raw in json_object(raw_maps, f"set {obj.get('id')}: cross_maps").items():
        src, dst = key.split("->")
        overrides[(int(src), int(dst))] = mapping_from_json(raw)
    return EquivalenceSet(
        id=obj["id"],
        scheme=obj["scheme"],
        members=tuple(segment_from_json(m) for m in obj["members"]),
        cross_overrides=overrides,
    )


# ---------------------------------------------------------------------------
# sandbox-backed equivalence validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """Outcome of executing every member on generated environments."""

    eqset_id: str
    valid: bool
    n_cases: int
    counterexample: dict | None = None


def validate_equivalence(
    eqset: EquivalenceSet,
    sandbox,
    n_cases: int = 100,
    rng_seed: int = 0,
) -> ValidationReport:
    """Execute all members on ``n_cases`` generated environments and compare.

    The set is VALID iff every member yields an identical final environment
    and an identical canonical side-effect log on every case. For AE sets
    the comparison first erases log entries produced by ancillary
    (read-only) tools, which by declaration never alter state.

    Member 0's slots are instantiated with generated values, and every
    member, member 0 included, is built through the set's mapping from
    member 0, as the corpus generator builds it; a wrong mapping surfaces
    here as an inequivalence.
    """
    from .simkit.sandbox import canonical_log, execute_segment

    for tool in eqset.tools():
        if tool not in sandbox.tools:
            raise UnknownTool(f"set {eqset.id} uses unknown tool {tool!r}")

    erase_ancillary = eqset.scheme == "AE"
    rng = derive_rng(rng_seed, "validate", eqset.id)

    for case in range(n_cases):
        bindings = {
            slot: f"k{case}_{slot}_{rng.randrange(16**6):06x}" for slot in eqset.base_slots
        }
        env0 = {str(v): f"data:{v}" for v in bindings.values()}
        env0["const"] = "anchor"

        reference = None
        for m_idx in range(len(eqset.members)):
            actions = eqset.rewrite(0, m_idx, bindings)
            result = execute_segment(actions, sandbox, dict(env0))
            observed = (result.env, canonical_log(result.log, erase_ancillary))
            if m_idx == 0:
                reference = observed
            elif observed != reference:
                reason = "env" if observed[0] != reference[0] else "log"
                return ValidationReport(
                    eqset.id,
                    valid=False,
                    n_cases=n_cases,
                    counterexample={
                        "case": case,
                        "member_index": m_idx,
                        "differs_in": reason,
                        "bindings": bindings,
                    },
                )
    return ValidationReport(eqset.id, valid=True, n_cases=n_cases)
