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
from bisect import bisect
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, combinations
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    InvalidDistribution,
    InvalidRange,
    ManifestError,
    MappingGap,
    NoObservations,
    SchemaViolation,
    SupportMismatch,
    UnknownTool,
)
from .seeds import derive_rng
from .trajectory import Action, GreyBoxTrajectory, Scalar, json_at, json_value

SCHEMES = ("VR", "PGR", "IA", "AE", "CE")
ACTION_SCHEMES = ("VR", "PGR", "IA")
STRUCTURE_SCHEMES = ("AE", "CE")

_SUM_TOL = 1e-12


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Distribution:
    """A categorical distribution over the members of one equivalence set.

    ``cum_weights`` holds the running sums of ``weights``, computed once:
    ``sample`` bisects them, and so does the generator's slot step.
    """

    weights: tuple[float, ...]
    cum_weights: tuple[float, ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "cum_weights", tuple(accumulate(self.weights)))

    def __len__(self) -> int:
        return len(self.weights)

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "Distribution":
        total = sum(counts)
        if total <= 0:
            raise NoObservations("cannot normalize zero counts")
        return cls(tuple(c / total for c in counts))

    def sample(self, rng) -> int:
        """Draw a member index using one uniform variate from ``rng``.

        Member ``i`` is the first whose running sum exceeds the variate; the
        last member takes any variate that rounding leaves above them all.
        """
        return bisect(self.cum_weights, rng.random(), 0, len(self.weights) - 1)

    def l1_distance(self, other: "Distribution") -> float:
        if len(self) != len(other):
            raise ArityMismatch(f"arity {len(self)} vs {len(other)}")
        return math.fsum(abs(p - q) for p, q in zip(self.weights, other.weights))


def count_vectors(natural: Distribution, m: int) -> Iterator[tuple[tuple[int, ...], float]]:
    """Every count vector of ``m`` draws from ``natural``, with its multinomial probability.

    Arity k gives C(m+k-1, k-1) vectors, each summing to ``m``, in the
    order of their bar positions in a stars-and-bars layout. The
    probability of ``counts`` is m!/(c_1!...c_k!) * p_1**c_1 ... p_k**c_k.
    """
    k = len(natural)
    for bars in combinations(range(m + k - 1), k - 1):
        counts = tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, m + k - 1)))
        prob, left = 1.0, m
        for c, p in zip(counts, natural.weights):
            prob *= math.comb(left, c) * p**c
            left -= c
        yield counts, prob


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
        raise InvalidRange(f"delta must be a finite non-negative real, got {delta!r}")
    if delta == 0.0:
        # e^0 scaling leaves the vector untouched; return it bit-exactly
        return Distribution(natural.weights)
    try:
        scale = math.exp(delta)
    except OverflowError:
        raise InvalidRange(f"delta {delta!r} is too large: e**delta overflows") from None
    p = natural.weights
    boosted = p[target_index] * scale
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
            raise ManifestError("pattern tool must be non-empty")
        normalized = tuple(
            (entry, entry) if isinstance(entry, str) else tuple(entry) for entry in self.arg_slots
        )
        if any(len(pair) != 2 for pair in normalized):
            raise ManifestError(f"pattern {self.tool}: a slot is a name or an (arg, slot) pair")
        object.__setattr__(self, "arg_slots", normalized)
        arg_names = [arg for arg, _ in normalized]
        if len(set(arg_names)) != len(arg_names):
            raise ManifestError(f"duplicate arguments in pattern {self.tool}: {arg_names}")


@dataclass(frozen=True)
class Segment:
    """An ordered sequence of action patterns forming one set member.

    Slot names are segment-scoped: if the same slot appears in several
    patterns, a candidate sub-sequence matches only when all occurrences
    bind the same value (a copy-then-delete pair must delete the copied
    source, not some other key).

    ``param_map`` states how to build the segment's concrete actions from
    the values of its own slots; by default every argument is filled from
    its same-named slot. ``slot_order`` is the slots sorted: a match's
    bindings are the tuple of their values in that order.
    """

    patterns: tuple[ActionPattern, ...]
    param_map: ParamMapping = ()

    def __post_init__(self) -> None:
        if not isinstance(self.patterns, tuple):
            object.__setattr__(self, "patterns", tuple(self.patterns))
        if not self.patterns:
            raise ManifestError("segment needs at least one pattern")
        if not self.param_map:
            # every argument from its same-named slot: all references resolve
            object.__setattr__(self, "param_map", tuple([
                tuple([(arg, SlotRef(slot)) for arg, slot in pat.arg_slots])
                for pat in self.patterns
            ]))
        # an explicit param_map is checked by the set holding the segment
        # the compiled shape every match is decided from: each
        # pattern's argument names, the tools after the first, and the pairs
        # (first, later) of argument positions, numbered across all
        # patterns, that bind the same slot
        names = tuple([tuple([arg for arg, _ in pat.arg_slots]) for pat in self.patterns])
        position, first, same_slot = 0, {}, []  # slot -> (position, offset, arg) first bound
        for offset, pat in enumerate(self.patterns):
            for arg, slot in pat.arg_slots:
                if slot in first:
                    same_slot.append((first[slot][0], position))
                else:
                    first[slot] = (position, offset, arg)
                position += 1
        object.__setattr__(self, "slot_order", tuple(sorted(first)))
        # each slot's (pattern offset, argument name) of first binding, for ``_bindings``
        object.__setattr__(self, "_binds", tuple([first[s][1:] for s in self.slot_order]))
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

    def __len__(self) -> int:
        return len(self.patterns)


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
        action = actions[pos]
        has = action.names
        for name in arg_names:
            if name not in has:
                return False
            values.append(action.values[has.index(name)])
    for first, later in same_slot:
        if values[first] != values[later]:
            return False
    return True


def _bindings(segment: Segment, actions: Sequence[Action], start: int) -> tuple[Scalar, ...]:
    """The slot values of ``segment``'s match at ``actions[start:]``, in its ``slot_order``.

    Call it only on a span that ``_walk`` or ``_shape_matches`` has decided:
    nothing is checked again. A slot bound by several arguments takes the
    value of its first occurrence, which keeps its type where equal values
    differ in type (``1 == True``).
    """
    values = []
    for offset, arg in segment._binds:
        action = actions[start + offset]
        values.append(action.values[action.names.index(arg)])
    return tuple(values)


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

    Construction compiles every effective mapping once into a plan
    addressed by slot index, and checks it the way ``Action`` checks an
    action: valid tool names, distinct string argument names, and literals
    that are finite scalars. Every slot it reads must be bound by the
    source member (see ``_compile``). ``rewrite`` only reads the plans.

    It also builds ``base_slots``, member 0's ``slot_order``, and
    ``scan_index``, a read-only map from each first tool to the
    ``_ScanEntry`` rows of the members starting with it, in scan order.
    """

    id: str
    scheme: str
    members: tuple[Segment, ...]
    cross_overrides: Mapping[tuple[int, int], ParamMapping] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ManifestError(f"unknown scheme {self.scheme!r} for set {self.id}")
        object.__setattr__(self, "members", tuple(self.members))
        # a private copy behind a read-only view: nobody else can change it
        overrides = dict(self.cross_overrides)
        object.__setattr__(self, "cross_overrides", MappingProxyType(overrides))
        if len(self.members) < 2:
            raise ManifestError(f"equivalence set {self.id} needs k >= 2 members")
        # every ordered pair, a member onto itself included, must be
        # rewritable through its effective mapping: the pair's override, else
        # its target's own param_map. Sources with one slot order share the
        # plan of a mapping, compiled once.
        compiled: dict[tuple, tuple] = {}
        plans = []
        for src, source in enumerate(self.members):
            row = []
            for dst, target in enumerate(self.members):
                mapping = overrides.get((src, dst), target.param_map)
                key = (dst, id(mapping), source.slot_order)
                if key not in compiled:
                    compiled[key] = self._compile(src, dst, mapping)
                row.append(compiled[key])
            plans.append(tuple(row))
        # per first tool, the members starting with it as ``_ScanEntry``
        # rows in scan order (longest member first, ties by member index):
        # at an action, only the members starting with its tool can match
        by_tool: dict[str, list[_ScanEntry]] = {}
        for m_idx in sorted(range(len(self.members)), key=lambda i: (-len(self.members[i]), i)):
            seg = self.members[m_idx]
            by_tool.setdefault(seg.patterns[0].tool, []).append(
                (m_idx, len(seg.patterns), seg._arg_names, seg._shape)
            )
        scan_index = {t: tuple(row) for t, row in by_tool.items()}
        for name, value in (
            # member 0's slot namespace, in the order bindings are drawn for it
            ("base_slots", self.members[0].slot_order),
            ("scan_index", MappingProxyType(scan_index)),
            ("_all_tools", frozenset(pat.tool for seg in self.members for pat in seg.patterns)),
            ("_plans", tuple(plans)),
            # whether a walk keeps a cursor for the set (see ``_WalkPlan``)
            ("_positional", None in [seg._arg_names for seg in self.members]),
        ):
            object.__setattr__(self, name, value)

    @cached_property
    def _scan_walk(self) -> tuple[_WalkPlan, dict]:
        """This set's own ``_WalkPlan`` and the signature table its scans share.

        Built at the set's first ``scan_equivalence``, so building a set
        pays for neither. The table holds one resolution per distinct
        argument-name list that a scan has met on one of the set's first
        tools.
        """
        plan = _WalkPlan((self,))
        return plan, plan.table()

    def _compile(self, src: int, dst: int, mapping: ParamMapping) -> tuple:
        """The plan that builds member ``dst``'s actions from a match of member ``src``.

        One ``(tool, names, ((index, literal), ...))`` row per target
        action: the argument names, one tuple that every action built from
        the row shares, then per argument an ``index`` into member
        ``src``'s ``slot_order``, or None for a literal. A mapping that
        misses an action or a slot raises ``MappingGap``. Each row is built
        once through ``Action``, with an empty string for every bound value,
        which comes from a validated action: only the tool, the argument
        names and literals can be wrong.
        """
        patterns, order = self.members[dst].patterns, self.members[src].slot_order
        if len(mapping) != len(patterns):
            raise MappingGap(
                f"set {self.id}: mapping {src}->{dst} covers {len(mapping)} actions, "
                f"member {dst} has {len(patterns)}"
            )
        plan = []
        for pattern, entry in zip(patterns, mapping):
            args, sources = [], []
            for arg_name, source in entry:
                if isinstance(source, Lit):
                    args.append((arg_name, source.value))
                    sources.append((None, source.value))
                elif source.slot in order:
                    args.append((arg_name, ""))
                    sources.append((order.index(source.slot), None))
                else:
                    raise MappingGap(
                        f"set {self.id}: mapping {src}->{dst} needs slot "
                        f"{source.slot!r} not bound by member {src}"
                    )
            try:
                checked = Action(pattern.tool, args)
            except SchemaViolation as exc:
                raise ManifestError(f"set {self.id}: mapping {src}->{dst}: {exc}") from exc
            plan.append((pattern.tool, checked.names, tuple(sources)))
        return tuple(plan)

    def rewrite(self, src: int, dst: int, values: Sequence[Scalar]) -> tuple[Action, ...]:
        """Produce member ``dst``'s actions from a match of member ``src``.

        ``values`` holds one value per slot of member ``src``, in its
        ``slot_order``, as the bindings of a decided match or a draw over
        ``base_slots`` for member 0 do. The actions are read off the plan
        compiled at build, from checked parts, and nothing is checked
        again.
        """
        return tuple([
            Action._trusted(tool, names, tuple([
                literal if index is None else values[index] for index, literal in sources
            ]))
            for tool, names, sources in self._plans[src][dst]
        ])

    def tools(self) -> frozenset[str]:
        return self._all_tools

    def match_at(
        self, actions: Sequence[Action], pos: int
    ) -> tuple[int, tuple[Scalar, ...]] | None:
        """The first member, in scan order, matching at ``actions[pos:]``.

        Returns ``(member_index, bindings)``, the bindings in that member's
        ``slot_order``, or None when no member matches or ``pos`` is at or
        past the end.
        """
        if pos >= len(actions):
            return None
        for m_idx, _, _, shape in self.scan_index.get(actions[pos].tool, ()):
            if _shape_matches(shape, actions, pos):
                return m_idx, _bindings(self.members[m_idx], actions, pos)
        return None


def scan_equivalence(
    actions: Sequence[Action], eqset: EquivalenceSet
) -> list[tuple[int, int, int, tuple[Scalar, ...]]]:
    """Greedy left-to-right scan for set members over an action sequence.

    Returns ``(member_index, start, length, bindings)`` tuples, the bindings
    in the member's ``slot_order``, ready for ``rewrite``. Overlaps are
    resolved leftmost-first, then longest-member-first; matched regions are
    consumed, so the spans are pairwise disjoint. This is ``_walk`` for one
    set, with the set's own signature table, which every scan of the set
    shares; ``_bindings`` reads the bindings off each reported span.
    """
    plan, table = eqset._scan_walk
    spans: list[tuple[int, int, int, int]] = []
    _walk((actions,), plan, table, [0] * plan.slots, spans)
    return [(m_idx, start, length, _bindings(eqset.members[m_idx], actions, start))
            for _, m_idx, start, length in spans]


_ACTIONS = attrgetter("actions")


class _WalkPlan:
    """What a walk over the sets ``eqsets`` reads, built once per set list.

    Counts live in one flat list: set ``s``'s member ``m`` in slot
    ``starts[s] + m``, and one more slot, ``miss``, takes the hits of no
    member and is never read. ``where[slot]`` names a member slot's
    ``(set, member)``. ``index`` maps each first tool to one row per set with a
    member starting with it, in set order: ``(set, start, positional,
    scan entries)``. A set is positional when a member has several actions
    or binds one slot twice; every other set only has members of one
    action binding distinct slots, so a hit consumes only its own action
    and no cursor is read.
    """

    __slots__ = ("index", "starts", "where", "miss", "slots")

    def __init__(self, eqsets: Sequence[EquivalenceSet]) -> None:
        self.starts = list(accumulate([len(eqset.members) for eqset in eqsets], initial=0))
        self.miss = self.starts[-1]
        self.slots = self.miss + 1
        self.where = [(s_idx, m_idx) for s_idx, eqset in enumerate(eqsets)
                      for m_idx in range(len(eqset.members))]
        index: dict[str, list[tuple[int, int, bool, tuple[_ScanEntry, ...]]]] = {}
        for s_idx, eqset in enumerate(eqsets):
            for tool, entries in eqset.scan_index.items():
                index.setdefault(tool, []).append(
                    (s_idx, self.starts[s_idx], eqset._positional, entries)
                )
        self.index = index

    def table(self) -> dict[str, dict[tuple[str, ...], object]]:
        """An empty signature table: per first tool, argument names -> resolution."""
        return {tool: {} for tool in self.index}

    def rows(self, flat: list[int]) -> list[list[int]]:
        """The per-set count rows of a flat count list."""
        starts = self.starts
        return [flat[a:b] for a, b in zip(starts, starts[1:])]

    def resolve(self, table: dict, tool: str, names: tuple[str, ...]) -> object:
        """What a walk does at an action with ``tool`` and argument ``names``, kept in ``table``.

        Per set with a member starting with ``tool``: a set that is not
        positional resolves to the slot of its first member, in scan
        order, whose argument names ``names`` holds, and to nothing when
        there is none. A positional set resolves to ``(set, candidates)``,
        its members still possible in scan order as ``(slot, length,
        shape)``: a member of one action binding distinct slots is decided
        by the names and ends the list with shape None (a hit); any other
        member needs its first pattern's names and keeps its shape, for
        ``_shape_matches``. A set with no candidate drops out.

        The resolution is the one slot when that is all there is, the
        ``miss`` slot when there is nothing, and otherwise the tuple of
        the sets' entries in set order. It is stored as
        ``table[tool][names]`` and returned.
        """
        has = frozenset(names)
        hits: list = []
        for s_idx, start, positional, entries in self.index[tool]:
            if not positional:
                for m_idx, _, arg_names, _ in entries:
                    if has >= arg_names:
                        hits.append(start + m_idx)
                        break
                continue
            candidates = []
            for m_idx, length, arg_names, shape in entries:
                if arg_names is not None:
                    if has >= arg_names:
                        candidates.append((start + m_idx, 1, None))
                        break
                elif has.issuperset(shape[0][0]):
                    candidates.append((start + m_idx, length, shape))
            if candidates:
                hits.append((s_idx, tuple(candidates)))
        if not hits:
            resolution = self.miss
        elif len(hits) == 1 and hits[0].__class__ is int:
            resolution = hits[0]
        else:
            resolution = tuple(hits)
        table[tool][names] = resolution
        return resolution


def _walk(
    sequences: Iterable[Sequence[Action]],
    plan: _WalkPlan,
    table: dict[str, dict[tuple[str, ...], object]],
    flat: list[int],
    spans: list[tuple[int, int, int, int]] | None,
) -> None:
    """The greedy scan of each action sequence for every set of ``plan`` at once.

    Each candidate action's ``(tool, names)`` is resolved once per
    ``table`` (see ``_WalkPlan.resolve``): ``table[tool][names]`` keeps the
    resolution, so a counter that passes its one table to every walk
    decides an argument list shared by many actions once. A resolution
    that is one slot is a hit of a set that is not positional, or a miss:
    it adds one to that slot and reads no cursor.

    Every positional set keeps a cursor per sequence, the first position
    its scan has not consumed. At a position its candidates are tried only
    once its cursor has reached it, in scan order: shape None is a hit, and
    any other goes through ``_shape_matches``. A hit moves the cursor past
    the matched span. That is a leftmost-first, longest-member-first greedy
    scan, run for every set side by side.

    Each hit adds one to ``flat``, in the slot of its set and member, and,
    when ``spans`` is a list, is appended to it as ``(set, member, start,
    length)``.
    """
    for actions in sequences:
        cursors: dict[int, int] = {}
        for pos, action in enumerate(actions):
            by_names = table.get(action.tool)
            if by_names is None:
                continue
            hit = by_names.get(action.names)
            if hit is None:
                hit = plan.resolve(table, action.tool, action.names)
            if hit.__class__ is int:
                flat[hit] += 1
                if spans is not None and hit != plan.miss:
                    spans.append((*plan.where[hit], pos, 1))
                continue
            for entry in hit:
                if entry.__class__ is int:
                    flat[entry] += 1
                    if spans is not None:
                        spans.append((*plan.where[entry], pos, 1))
                    continue
                s_idx, candidates = entry
                if cursors.get(s_idx, 0) > pos:
                    continue
                for slot, length, shape in candidates:
                    if shape is None or _shape_matches(shape, actions, pos):
                        flat[slot] += 1
                        cursors[s_idx] = pos + length
                        if spans is not None:
                            spans.append((*plan.where[slot], pos, length))
                        break


class MemberCounter:
    """Member matches of each set of ``eqsets``, counted one trajectory at a time.

    ``add(traj)`` adds one trajectory's matches to ``counts``, one
    member-indexed count vector per set, in set order: the per-set sums of
    ``scan_equivalence`` results. Each trajectory is walked once for all
    sets (see ``_walk``), and no bindings are built. ``spans``, when a list,
    receives every hit as ``(set, member, start, length)``. ``of(traj)``
    returns one trajectory's matches as new count vectors and leaves
    ``counts`` alone. No trajectory is kept: the counter holds its walk
    plan, built once, its flat counts, which ``counts`` reads as new rows,
    and its signature table, one resolution per distinct ``(tool, names)``
    of a candidate action it has seen (see ``_WalkPlan.resolve``).
    """

    __slots__ = ("_plan", "_table", "_flat")

    def __init__(self, eqsets: Sequence[EquivalenceSet]) -> None:
        self._plan = _WalkPlan(eqsets)
        self._table = self._plan.table()
        self._flat = [0] * self._plan.slots

    @property
    def counts(self) -> list[list[int]]:
        return self._plan.rows(self._flat)

    def add(
        self, traj: GreyBoxTrajectory, spans: list[tuple[int, int, int, int]] | None = None
    ) -> None:
        _walk((traj.actions,), self._plan, self._table, self._flat, spans)

    def of(self, traj: GreyBoxTrajectory) -> list[list[int]]:
        flat = [0] * self._plan.slots
        _walk((traj.actions,), self._plan, self._table, flat, None)
        return self._plan.rows(flat)


def count_members(
    corpus: Iterable[GreyBoxTrajectory], eqsets: Sequence[EquivalenceSet]
) -> list[list[int]]:
    """``MemberCounter(eqsets).counts`` after adding every trajectory of a corpus, read once.

    The corpus is iterated once and no trajectory is kept, so a generator
    or a file stream is counted in constant memory. One walk takes the
    whole corpus over the counter's state, so a verdict's counting pays no
    call per trajectory.
    """
    counter = MemberCounter(eqsets)
    _walk(map(_ACTIONS, corpus), counter._plan, counter._table, counter._flat, None)
    return counter.counts


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
            raise InvalidRange("pass_id must be >= 1")
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

def _arg_from_json(raw, where: str) -> tuple[str, ArgSource]:
    """One ``[name, ["slot", slot]]`` or ``[name, ["lit", value]]`` of a mapping entry."""
    match json_value(raw, list, where):
        case [str() as name, ["lit", value]]:
            return name, Lit(value)
        case [str() as name, ["slot", str() as slot]]:
            return name, SlotRef(slot)
    raise MappingGap(f"{where}: expected [name, [\"slot\", slot]] or [name, [\"lit\", value]]")


def mapping_to_json(mapping: ParamMapping) -> list:
    return [
        [[name, ["lit", src.value] if isinstance(src, Lit) else ["slot", src.slot]]
         for name, src in entry]
        for entry in mapping
    ]


def mapping_from_json(raw, where: str) -> ParamMapping:
    return tuple(
        tuple(_arg_from_json(arg, f"{where}[{i}][{j}]")
              for j, arg in enumerate(json_value(entry, list, f"{where}[{i}]")))
        for i, entry in enumerate(json_value(raw, list, where))
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


def segment_from_json(obj, where: str = "segment: $") -> Segment:
    patterns = []
    for i, raw in enumerate(json_value(obj, list, where, "patterns")):
        at = f"{where}.patterns[{i}]"
        # a slot is a name or an [argument, slot] pair
        slots = tuple(
            slot if type(slot) is str else json_value(slot, [str], f"{at}.slots[{j}]")
            for j, slot in enumerate(json_value(raw, list, at, "slots", []))
        )
        with json_at(at):
            patterns.append(ActionPattern(json_value(raw, str, at, "tool"), slots))
    param_map = json_value(obj, list, where, "param_map", [])
    with json_at(where):
        return Segment(tuple(patterns), mapping_from_json(param_map, f"{where}.param_map"))


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


def eqset_from_json(obj, where: str = "set: $") -> EquivalenceSet:
    overrides = {}
    at = f"{where}.cross_maps"
    for key, raw in json_value(obj, dict, where, "cross_maps", {}).items():
        src, arrow, dst = key.partition("->")
        if not (arrow and src.isdecimal() and dst.isdecimal()):
            raise SchemaViolation(f"{at}: expected keys 'src->dst', got {key!r}")
        overrides[int(src), int(dst)] = mapping_from_json(raw, f"{at}.{key}")
    members = enumerate(json_value(obj, list, where, "members"))
    with json_at(where):
        return EquivalenceSet(
            id=json_value(obj, str, where, "id"),
            scheme=json_value(obj, str, where, "scheme"),
            members=tuple(segment_from_json(m, f"{where}.members[{i}]") for i, m in members),
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

    if n_cases < 1:
        raise InvalidRange(f"validation needs at least 1 case, got {n_cases}")
    for tool in eqset.tools():
        if tool not in sandbox.tools:
            raise UnknownTool(f"set {eqset.id} uses unknown tool {tool!r}")

    erase_ancillary = eqset.scheme == "AE"
    rng = derive_rng(rng_seed, "validate", eqset.id)

    for case in range(n_cases):
        values = tuple([
            f"k{case}_{slot}_{rng.randrange(16**6):06x}" for slot in eqset.base_slots
        ])
        env0 = {v: f"data:{v}" for v in values}
        env0["const"] = "anchor"

        reference = None
        for m_idx in range(len(eqset.members)):
            actions = eqset.rewrite(0, m_idx, values)
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
                        "bindings": dict(zip(eqset.base_slots, values)),
                    },
                )
    return ValidationReport(eqset.id, valid=True, n_cases=n_cases)
