"""Synthetic domain specifications.

A domain bundles a sandbox tool library, a pool of candidate equivalence
sets with configured natural distributions and designated bias targets,
and a fixed collection of query templates whose skeletons contain
equivalence-slot positions. Three builtin domains (data, business, social)
ship with pass pools shaped 39/28/34 across the five schemes.

Construction is deterministic: the same domain name always yields the same
tools, sets, distributions, and templates, so pool builds replay
byte-identically from a seed.

Design rules baked into the factories:

* every equivalence set appears in at least two templates, and no template
  repeats one set more than twice (keeps any single trajectory's per-set
  evidence inside natural sampling noise);
* two "weak" sets per domain carry a highly skewed natural distribution
  with the bias target on the majority member, so their biased target
  stays close to natural — the realistic nuisance case for loose
  detection thresholds;
* bias targets for the remaining sets are drawn uniformly over members,
  which leaves roughly half of the biased distributions looking
  unremarkable to a skew-hunting adversary;
* tool names are engineered so that versioned interface aliases (and a
  few decoy audit tools) are close string neighbours, while vendor,
  granularity, and composition variants are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Sequence

from ..equivalence import (
    SCHEMES,
    ActionPattern,
    Distribution,
    EquivalenceSet,
    Lit,
    Segment,
    SlotRef,
    eqset_from_json,
    eqset_to_json,
)
from ..errors import ArityMismatch, ManifestError, SchemaViolation
from ..seeds import derive_rng
from ..trajectory import Action, json_at, json_value, read_json, write_json
from .sandbox import SandboxSpec, ToolSpec

# Table of per-scheme pass counts for the builtin domains.
POOL_SHAPES = {
    "data": {"VR": 8, "PGR": 7, "IA": 11, "AE": 7, "CE": 6},
    "business": {"VR": 12, "PGR": 4, "IA": 5, "AE": 5, "CE": 2},
    "social": {"VR": 18, "PGR": 2, "IA": 6, "AE": 3, "CE": 5},
}

DEFAULT_DELTA = 3.0

DEFAULT_CORPUS_SIZES = {
    "calibration": 6000,
    "fit": 2500,
    "verify": 2000,
    "verify_low": 220,
    "attack": 4000,
}

_VENDORS = [
    "Acme", "Orbit", "Nimbus", "Vertex", "Zephyr", "Quill",
    "Harbor", "Lumen", "Drift", "Forge", "Atlas", "Pine",
]
_OPS = ["Send", "Publish", "Push", "Store", "Post", "Relay", "Queue", "Emit"]

# One distinct product word per family keeps tools from unrelated families
# out of each other's string neighbourhoods.
_PRODUCTS = [
    "Prism", "Ledger", "Vault", "Beacon", "Canvas", "Mosaic", "Anchor",
    "Lantern", "Compass", "Quarry", "Summit", "Harvest", "Meadow", "Cobalt",
    "Ember", "Falcon", "Garnet", "Willow", "Onyx", "Pylon", "Quartz",
    "Raven", "Saffron", "Timber", "Umber", "Velvet", "Walnut", "Xenon",
    "Yarrow", "Zinc", "Argon", "Basalt", "Cedar", "Dynamo", "Evergreen",
    "Fjord", "Glacier", "Hollow", "Indigo", "Juniper",
]

_BUILD_SEED = 0xD07A1


@dataclass(frozen=True)
class TemplateItem:
    """One skeleton position: a fixed filler action or an equivalence slot."""

    kind: str  # "action" | "slot"
    tool: str | None = None
    args: tuple[tuple[str, tuple], ...] = ()  # (arg_name, generator expr)
    set_id: str | None = None


@dataclass(frozen=True)
class Template:
    id: str
    items: tuple[TemplateItem, ...]
    weight: float = 1.0


@dataclass(frozen=True)
class DomainSpec:
    """Everything needed to generate corpora and build a pass pool.

    The spec is frozen and holds its sets and templates as tuples, so the
    checks made when it is built hold for its life; derive a changed spec
    with ``dataclasses.replace``, which checks it again. ``natural`` maps
    each set id to the distribution its slots draw members from: configured
    for a built-in domain, fitted for a surrogate. Each corpus size that
    ``corpus_sizes`` does not give is read from ``DEFAULT_CORPUS_SIZES``.

    Building the spec compiles each template for the generator into
    ``(template_id, steps)``, each step ``(cum, n_tokens, plans)``: the
    plans of a filler (``cum`` None, one plan) or of a slot's set from
    member 0, picked by ``cum``; each plan reads ``n_tokens`` drawn values
    by index (see ``EquivalenceSet._compile``).
    """

    name: str
    sandbox: SandboxSpec
    eqsets: tuple[EquivalenceSet, ...]
    natural: dict[str, Distribution]
    targets: dict[str, int]
    templates: tuple[Template, ...]
    delta: float = DEFAULT_DELTA
    corpus_sizes: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "corpus_sizes", {**DEFAULT_CORPUS_SIZES, **self.corpus_sizes})
        object.__setattr__(self, "eqsets", tuple(self.eqsets))
        object.__setattr__(self, "templates", tuple(self.templates))
        by_id = {e.id: e for e in self.eqsets}
        if len(by_id) != len(self.eqsets):
            raise ManifestError(f"domain {self.name}: duplicate set ids")
        cum_weights = list(accumulate(t.weight for t in self.templates))
        total = cum_weights[-1] if cum_weights else 0.0
        if not 0.0 < total < math.inf:
            raise ManifestError(
                f"domain {self.name}: template weights must have a positive finite total,"
                f" got {total!r}"
            )
        fillers: dict[int, tuple] = {}  # compiled once per filler shared by templates
        programs = []
        for template in self.templates:
            steps = []
            for item in template.items:
                if item.kind == "action":
                    if id(item) not in fillers:
                        fillers[id(item)] = self._compile_filler(template, item)
                    steps.append(fillers[id(item)])
                elif item.set_id in by_id:
                    eqset = by_id[item.set_id]
                    # bisecting all but the last running sum is ``Distribution.sample``
                    cum = self.natural[item.set_id].cum_weights[:-1]
                    steps.append((cum, len(eqset.base_slots), eqset._plans[0]))
                else:
                    raise ManifestError(
                        f"template {template.id} references unknown set {item.set_id}"
                    )
            programs.append((template.id, tuple(steps)))
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_programs", (tuple(programs), cum_weights))

    def _compile_filler(self, template: Template, item: TemplateItem) -> tuple:
        """The step generating a filler, refused if ``Action`` would refuse its actions.

        Generation builds filler actions without re-validation, so the tool
        name, the argument names and every ("lit", value) generator are
        checked here; a ("token",) generator always yields a string, the
        next token drawn.
        """
        where = f"domain {self.name}: template {template.id}"
        args, sources, n_tokens = [], [], 0
        for name, gen in item.args:
            kind = gen[0] if isinstance(gen, tuple) and gen else None
            if kind == "token":
                args.append((name, ""))
                sources.append((n_tokens, None))
                n_tokens += 1
            elif kind == "lit" and len(gen) > 1:
                args.append((name, gen[1]))
                sources.append((None, gen[1]))
            else:
                raise ManifestError(
                    f"{where}: unknown argument generator {gen!r} for {item.tool}.{name}"
                )
        try:
            checked = Action(item.tool, args)
        except SchemaViolation as exc:
            raise ManifestError(f"{where}: {exc}") from exc
        return None, n_tokens, (((item.tool, checked.names, tuple(sources)),),)

    def eqset(self, set_id: str) -> EquivalenceSet:
        return self._by_id[set_id]

    def scheme_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.eqsets:
            counts[e.scheme] = counts.get(e.scheme, 0) + 1
        return counts

    # -- persistence --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "delta": self.delta,
            "corpus_sizes": dict(self.corpus_sizes),
            "tools": self.sandbox.to_json(),
            "equivalence_sets": [
                {
                    "set": eqset_to_json(e),
                    "natural": list(self.natural[e.id].weights),
                    "target": self.targets[e.id],
                }
                for e in self.eqsets
            ],
            "templates": [
                {
                    "id": t.id,
                    "weight": t.weight,
                    "items": [
                        {"kind": "slot", "set": item.set_id}
                        if item.kind == "slot"
                        else {
                            "kind": "action",
                            "tool": item.tool,
                            "args": {name: list(gen) for name, gen in item.args},
                        }
                        for item in t.items
                    ],
                }
                for t in self.templates
            ],
        }

    @classmethod
    def from_json(cls, obj, where: str = "domain: $") -> "DomainSpec":
        """The domain a document describes; a refused node names ``where`` and its path."""
        eqsets, natural, targets = [], {}, {}
        for i, entry in enumerate(json_value(obj, list, where, "equivalence_sets")):
            at = f"{where}.equivalence_sets[{i}]"
            eqset = eqset_from_json(json_value(entry, dict, at, "set"), f"{at}.set")
            with json_at(at):
                weights = Distribution(tuple(json_value(entry, [float], at, "natural")))
                if len(weights) != len(eqset.members):
                    raise ArityMismatch(f"{len(weights)} weights for {len(eqset.members)} members")
            eqsets.append(eqset)
            natural[eqset.id] = weights
            targets[eqset.id] = json_value(entry, int, at, "target")
        templates = []
        for i, raw in enumerate(json_value(obj, list, where, "templates")):
            at = f"{where}.templates[{i}]"
            items = json_value(raw, list, at, "items")
            templates.append(Template(
                json_value(raw, str, at, "id"),
                tuple(_item_from_json(item, f"{at}.items[{j}]") for j, item in enumerate(items)),
                json_value(raw, float, at, "weight", 1.0, minimum=0),
            ))
        sizes = json_value(obj, dict, where, "corpus_sizes", {})
        tools = json_value(obj, list, where, "tools")
        with json_at(where):
            return cls(
                name=json_value(obj, str, where, "name"),
                sandbox=SandboxSpec.from_json(tools, f"{where}.tools"),
                eqsets=eqsets,
                natural=natural,
                targets=targets,
                templates=templates,
                delta=json_value(obj, float, where, "delta", DEFAULT_DELTA, minimum=0),
                corpus_sizes={
                    key: json_value(sizes, int, f"{where}.corpus_sizes", key, minimum=1)
                    for key in sizes
                },
            )

    def save(self, path: str) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "DomainSpec":
        return cls.from_json(read_json(path), f"domain: {path}: $")


def _item_from_json(item, where: str) -> TemplateItem:
    kind = json_value(item, str, where, "kind")
    if kind == "slot":
        return TemplateItem(kind="slot", set_id=json_value(item, str, where, "set"))
    if kind != "action":
        raise SchemaViolation(f"{where}.kind: expected 'slot' or 'action', got {kind!r}")
    args = json_value(item, dict, where, "args")
    return TemplateItem("action", json_value(item, str, where, "tool"), tuple(
        (name, tuple(json_value(args, list, f"{where}.args", name))) for name in args
    ))


# ---------------------------------------------------------------------------
# scheme family factories
# ---------------------------------------------------------------------------

def _write_tool(name: str, args: Sequence[str], key_expr, value_expr) -> ToolSpec:
    return ToolSpec(
        name=name,
        args=tuple(args),
        effects=(("write", key_expr, value_expr),),
        output=value_expr,
    )


def _vr_family(tag: str, i: int, prod: str, rng) -> tuple[list[ToolSpec], EquivalenceSet]:
    """Vendor replacement: the same write, offered by competing providers."""
    k = 3 if i % 4 == 0 else 2
    vendors = rng.sample(_VENDORS, k)
    op = _OPS[i % len(_OPS)]
    key = ("derive", "concat", ("lit", f"vr{tag}{i}:"), ("arg", "chan"))
    tools = [
        _write_tool(f"{vendor}{prod}_{tag}{i}.{op}", ("chan", "msg"), key, ("arg", "msg"))
        for vendor in vendors
    ]
    members = tuple(
        Segment((ActionPattern(t.name, ("chan", "msg")),)) for t in tools
    )
    return tools, EquivalenceSet(f"{tag}.vr.{i}", "VR", members)


def _pgr_family(tag: str, i: int, prod: str, rng) -> tuple[list[ToolSpec], EquivalenceSet]:
    """Granularity replacement: coarse call vs. fine call with a defaulted knob."""
    base = rng.choice(_VENDORS)
    key = ("derive", "concat", ("lit", f"pgr{tag}{i}:"), ("arg", "dest"))
    coarse = _write_tool(f"{base}{prod}_{tag}{i}.Quick", ("dest",), key, ("lit", "std"))
    fine = _write_tool(f"{base}{prod}_{tag}{i}.Exact", ("dest", "mode"), key, ("arg", "mode"))
    coarse_seg = Segment((ActionPattern(coarse.name, ("dest",)),))
    fine_seg = Segment((ActionPattern(fine.name, ("dest", "mode")),))
    cross = {
        # coarse -> fine: the extra knob pins the coarse default
        (0, 1): ((("dest", SlotRef("dest")), ("mode", Lit("std"))),),
        # fine -> coarse: the knob is dropped
        (1, 0): ((("dest", SlotRef("dest")),),),
    }
    return [coarse, fine], EquivalenceSet(
        f"{tag}.pgr.{i}", "PGR", (coarse_seg, fine_seg), cross
    )


def _ia_family(tag: str, i: int, prod: str, rng) -> tuple[list[ToolSpec], EquivalenceSet]:
    """Interface aliasing: co-referencing endpoint names for one backend.

    Even families use versioned aliases (near-identical names), odd
    families use a full legacy rename (distant names).
    """
    key = ("derive", "concat", ("lit", f"ia{tag}{i}:"), ("arg", "res"))
    if i % 2 == 0:
        base = rng.choice(_VENDORS)
        names = [f"{base}{prod}_{tag}{i}.Call", f"{base}{prod}_{tag}{i}.CallV2"]
    else:
        a, b = rng.sample(_VENDORS, 2)
        names = [f"{a}{prod}_{tag}{i}.Read", f"{b}{prod}X_{tag}{i}.Get"]
    tools = [_write_tool(n, ("res",), key, ("lit", "hit")) for n in names]
    members = tuple(Segment((ActionPattern(t.name, ("res",)),)) for t in tools)
    return tools, EquivalenceSet(f"{tag}.ia.{i}", "IA", members)


def _ae_family(tag: str, i: int, prod: str, rng) -> tuple[list[ToolSpec], EquivalenceSet]:
    """Auxiliary equivalence: base call vs. base plus ancillary read-back."""
    base_name = rng.choice(_VENDORS)
    key = ("derive", "concat", ("lit", f"ae{tag}{i}:"), ("arg", "item"))
    commit = _write_tool(
        f"{base_name}{prod}_{tag}{i}.Commit", ("item", "val"), key, ("arg", "val")
    )
    receipt = ToolSpec(
        name=f"{base_name}{prod}_{tag}{i}.Receipt",
        args=("item",),
        effects=(("read", key, "v"),),
        output=("var", "v"),
        ancillary=True,
    )
    plain = Segment((ActionPattern(commit.name, ("item", "val")),))
    extended = Segment(
        (
            ActionPattern(commit.name, ("item", "val")),
            ActionPattern(receipt.name, ("item",)),
        )
    )
    return [commit, receipt], EquivalenceSet(f"{tag}.ae.{i}", "AE", (plain, extended))


def _ce_family(tag: str, i: int, prod: str, rng) -> tuple[list[ToolSpec], EquivalenceSet]:
    """Compositional equivalence: atomic relocation vs. copy-then-delete."""
    base = rng.choice(_VENDORS)
    move = ToolSpec(
        name=f"{base}{prod}_{tag}{i}.Relocate",
        args=("src", "dst"),
        effects=(
            ("read", ("arg", "src"), "v"),
            ("write", ("arg", "dst"), ("var", "v")),
            ("erase", ("arg", "src")),
        ),
        output=("var", "v"),
    )
    copy = ToolSpec(
        name=f"{base}{prod}_{tag}{i}.Duplicate",
        args=("src", "dst"),
        effects=(
            ("read", ("arg", "src"), "v"),
            ("write", ("arg", "dst"), ("var", "v")),
        ),
        output=("var", "v"),
    )
    drop = ToolSpec(
        name=f"{base}{prod}_{tag}{i}.Purge",
        args=("src",),
        effects=(("erase", ("arg", "src")),),
    )
    atomic = Segment((ActionPattern(move.name, ("src", "dst")),))
    decomposed = Segment(
        (
            ActionPattern(copy.name, ("src", "dst")),
            ActionPattern(drop.name, ("src",)),
        )
    )
    return [move, copy, drop], EquivalenceSet(
        f"{tag}.ce.{i}", "CE", (atomic, decomposed)
    )


_FAMILY_FACTORIES: dict[str, Callable] = {
    "VR": _vr_family,
    "PGR": _pgr_family,
    "IA": _ia_family,
    "AE": _ae_family,
    "CE": _ce_family,
}


def _filler_tools(tag: str, rng) -> tuple[list[ToolSpec], list[str]]:
    """Plain fillers plus decoy near-name pairs with non-equivalent effects."""
    tools: list[ToolSpec] = []
    # decoy pairs: string-similar names, different effects; bait for
    # name-similarity attackers, and a semantic tripwire for blind swaps
    for i in (1, 2, 3):
        key = ("derive", "concat", ("lit", f"aud{tag}{i}:"), ("arg", "key"))
        tools.append(_write_tool(f"Audit_{tag}{i}.Log", ("key",), key, ("lit", "1")))
        tools.append(
            ToolSpec(
                name=f"Audit_{tag}{i}.LogAll",
                args=("key",),
                effects=(
                    ("write", key, ("lit", "all")),
                    ("write", ("lit", f"aud{tag}{i}:count"), ("lit", "n")),
                ),
                output=("lit", "all"),
            )
        )
    for i, (stem, op) in enumerate(
        [("Probe", "Scan"), ("Emit", "Note"), ("Calc", "Len"),
         ("Cache", "Put"), ("Trace", "Mark"), ("Fold", "Sum")],
        start=1,
    ):
        name = f"{stem}_{tag}{i}.{op}"
        if stem == "Probe":
            tools.append(
                ToolSpec(name, ("path",), (("read", ("arg", "path"), "v"),), ("var", "v"))
            )
        elif stem == "Emit":
            tools.append(ToolSpec(name, ("msg",), (("note", ("arg", "msg")),)))
        elif stem == "Calc":
            tools.append(
                ToolSpec(
                    name,
                    ("text",),
                    (("derive", "n", ("derive", "length", ("arg", "text"))),
                     ("note", ("var", "n"))),
                    ("var", "n"),
                )
            )
        else:
            key = ("derive", "concat", ("lit", f"{stem.lower()}{tag}{i}:"), ("arg", "key"))
            tools.append(_write_tool(name, ("key",), key, ("lit", "ok")))
    return tools, [t.name for t in tools]


def _natural_for(
    arity: int, weak: bool, minority_target: bool, rng
) -> tuple[Distribution, int]:
    """Configured natural distribution and bias target for one set.

    Targets alternate between the majority and the minority member across
    families. A biased majority member turns near-degenerate (an obvious
    concentration), while a biased minority member lands mid-range and
    blends in with naturally skewed sets; a pool needs both kinds.
    """
    if weak:
        # heavy natural skew with the target on the majority member: the
        # biased target barely moves, the nuisance case for loose thresholds
        weights = [0.9] + [0.1 / (arity - 1)] * (arity - 1)
        return Distribution(tuple(weights)), 0
    if arity == 2:
        major = rng.choice([0.65, 0.70, 0.75])
        weights = [major, round(1.0 - major, 10)]
    else:
        weights = list(rng.choice([(0.60, 0.25, 0.15), (0.62, 0.22, 0.16), (0.58, 0.24, 0.18)]))
    rng.shuffle(weights)
    pick = min if minority_target else max
    target = weights.index(pick(weights))
    return Distribution(tuple(weights)), target


def build_domain(name: str, shape: dict[str, int] | None = None) -> DomainSpec:
    """Construct a synthetic domain deterministically from its name."""
    shape = shape or POOL_SHAPES.get(name)
    if shape is None:
        raise ManifestError(
            f"unknown domain {name!r}; builtin: {sorted(POOL_SHAPES)}"
        )
    tag = name[0]
    rng = derive_rng(_BUILD_SEED, "domain", name)
    sandbox = SandboxSpec()
    eqsets: list[EquivalenceSet] = []
    natural: dict[str, Distribution] = {}
    targets: dict[str, int] = {}

    weak_ids = {f"{tag}.vr.2", f"{tag}.vr.5"}
    family_counter = 0
    for scheme in SCHEMES:
        factory = _FAMILY_FACTORIES[scheme]
        for i in range(1, shape[scheme] + 1):
            prod = _PRODUCTS[family_counter % len(_PRODUCTS)]
            family_counter += 1
            tools, eqset = factory(tag, i, prod, rng)
            for tool in tools:
                sandbox.add(tool)
            eqsets.append(eqset)
            dist, target = _natural_for(
                len(eqset.members),
                eqset.id in weak_ids,
                minority_target=(family_counter % 2 == 0),
                rng=rng,
            )
            natural[eqset.id] = dist
            targets[eqset.id] = target

    fillers, filler_names = _filler_tools(tag, rng)
    for tool in fillers:
        sandbox.add(tool)
    # one immutable item per filler tool, shared by every template using it
    filler_items = {
        tool.name: TemplateItem(
            kind="action", tool=tool.name, args=tuple((arg, ("token",)) for arg in tool.args)
        )
        for tool in fillers
    }

    # slot pool: every set twice, weak sets four times, shuffled and dealt
    # into templates of 3-5 slots each
    slot_pool: list[str] = []
    for eqset in eqsets:
        repeats = 4 if eqset.id in weak_ids else 2
        slot_pool.extend([eqset.id] * repeats)
    rng.shuffle(slot_pool)

    templates: list[Template] = []
    cursor = 0
    t_index = 0
    while cursor < len(slot_pool):
        take = min(rng.randint(3, 5), len(slot_pool) - cursor)
        chunk = slot_pool[cursor : cursor + take]
        cursor += take
        t_index += 1
        items: list[TemplateItem] = [
            TemplateItem(kind="slot", set_id=set_id) for set_id in chunk
        ]
        n_fillers = rng.randint(8, 12)
        for _ in range(n_fillers):
            items.append(filler_items[rng.choice(filler_names)])
        rng.shuffle(items)
        templates.append(Template(f"{name}-t{t_index:02d}", tuple(items)))

    return DomainSpec(
        name=name,
        sandbox=sandbox,
        eqsets=eqsets,
        natural=natural,
        targets=targets,
        templates=templates,
    )


_BUILTIN_CACHE: dict[str, DomainSpec] = {}


def builtin_domain(name: str) -> DomainSpec:
    """Cached deterministic builtin domain (data, business, or social)."""
    if name not in _BUILTIN_CACHE:
        _BUILTIN_CACHE[name] = build_domain(name)
    return _BUILTIN_CACHE[name]


def load_domain(ref: str) -> DomainSpec:
    """Resolve a domain reference: a builtin name or a JSON file path."""
    if ref in POOL_SHAPES:
        return builtin_domain(ref)
    return DomainSpec.load(ref)
