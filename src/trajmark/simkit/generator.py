"""Grey-box corpus generation from a domain spec.

Each trajectory instantiates one query template: filler positions become
concrete actions with fresh token arguments, equivalence slots draw a
member from the slot's distribution and instantiate it through the set's
canonical bindings. Trajectories are built in the form a service reveals,
actions plus the final response, so no hidden reasoning is ever produced.
"""

from __future__ import annotations

import random
from typing import Callable

from ..equivalence import Distribution
from ..seeds import derive_rng
from ..trajectory import Action, GreyBoxTrajectory
from .domains import DomainSpec, Template


def _token(rng: random.Random) -> str:
    return f"x{rng.getrandbits(32):08x}"


def _gen_value(gen: tuple, rng: random.Random):
    # ``DomainSpec`` admits only ("token",) and ("lit", value) generators
    return _token(rng) if gen[0] == "token" else gen[1]


def generate_trajectory(
    domain: DomainSpec,
    template: Template,
    query_id: str,
    rng: random.Random,
    slot_dist: Callable[[str], Distribution] | None = None,
) -> GreyBoxTrajectory:
    """Instantiate one template into a grey-box trajectory.

    ``slot_dist`` overrides the member distribution per set id; the default
    is the domain's configured natural distribution. Actions are built
    without re-validation: the domain checked its templates and sets when
    it was built, and every generated value is a token or a checked literal.
    """
    actions: list[Action] = []
    for item in template.items:
        if item.kind == "action":
            args = tuple((name, _gen_value(gen, rng)) for name, gen in item.args)
            emitted: tuple[Action, ...] = (Action._trusted(item.tool, args),)
        else:
            eqset = domain.eqset(item.set_id)
            dist = slot_dist(item.set_id) if slot_dist else domain.natural[item.set_id]
            member = dist.sample(rng)
            # bindings are drawn for member 0's slots and routed through the
            # set's mapping, so the injector can rewrite any member it emits
            emitted = eqset.rewrite(0, member, {slot: _token(rng) for slot in eqset.base_slots})
        for action in emitted:
            # one discarded draw per action keeps the per-trajectory RNG
            # stream, and so every seeded corpus, unchanged
            rng.getrandbits(32)
            actions.append(action)
    return GreyBoxTrajectory(
        query_id=query_id,
        actions=tuple(actions),
        response=f"completed {template.id} for {query_id}",
    )


def generate_greybox_corpus(
    domain: DomainSpec,
    n: int,
    seed: int,
    id_prefix: str = "q",
    slot_dist: Callable[[str], Distribution] | None = None,
    template_weights: dict[str, float] | None = None,
) -> list[GreyBoxTrajectory]:
    """Generate ``n`` grey-box trajectories, what a service would emit.

    Each trajectory's RNG stream depends only on (seed, prefix, index), so
    generation is order-independent and safe to parallelize.
    """
    if n < 1:
        raise ValueError("corpus size must be >= 1")
    templates = domain.templates
    weights = [
        template_weights.get(t.id, 0.0) if template_weights else t.weight
        for t in templates
    ]
    if template_weights and not any(weights):
        weights = [t.weight for t in templates]
    corpus = []
    for idx in range(n):
        rng = derive_rng(seed, "gen", id_prefix, idx)
        template = rng.choices(templates, weights=weights, k=1)[0]
        corpus.append(
            generate_trajectory(domain, template, f"{id_prefix}{idx:06d}", rng, slot_dist)
        )
    return corpus


def template_for_trajectory(
    domain: DomainSpec, traj: GreyBoxTrajectory
) -> str | None:
    """Recover which template produced a trajectory, if any.

    Walks each template's skeleton against the action sequence: filler
    positions must match tools exactly, slot positions must match one of
    the set's members (longest first). Watermark rewrites stay inside the
    slot's member space, so watermarked trajectories still resolve.
    """
    actions = traj.actions
    for template in domain.templates:
        pos = 0
        ok = True
        for item in template.items:
            if item.kind == "action":
                if pos >= len(actions) or actions[pos].tool != item.tool:
                    ok = False
                    break
                pos += 1
            else:
                eqset = domain.eqset(item.set_id)
                hit = eqset.match_at(actions, pos)
                if hit is None:
                    ok = False
                    break
                pos += len(eqset.members[hit[0]])
        if ok and pos == len(actions):
            return template.id
    return None
