"""Grey-box corpus generation from a domain spec.

Each trajectory instantiates one query template, drawn by template
weight: filler positions become concrete actions with fresh token
arguments, equivalence slots draw a member from the domain's natural
distribution for the set and instantiate it through the set's plan from
member 0. A surrogate is a domain derived with fitted distributions and
template weights, so its samples come from here too. Trajectories are
built in the form a service reveals, actions plus the final response, so
no hidden reasoning is ever produced.
"""

from __future__ import annotations

import random
from bisect import bisect
from typing import Iterator

from ..errors import InvalidRange
from ..seeds import seed_stream
from ..trajectory import (
    Action, GreyBoxTrajectory, _gc_paused, _new, _set_names, _set_tool, _set_values,
)
from .domains import DomainSpec


def iter_greybox_corpus(
    domain: DomainSpec,
    n: int,
    seed: int,
    id_prefix: str = "q",
) -> Iterator[GreyBoxTrajectory]:
    """Yield ``n`` grey-box trajectories, what a service would emit, one at a time.

    Each trajectory's RNG stream depends only on (seed, prefix, index), so
    generation is order-independent and safe to parallelize. The stream
    picks a template by weight and runs the steps its domain compiled: a
    slot draws its member from ``domain.natural``, every step one token per
    value its plan reads and one discarded value per action it emits, which
    keeps every seeded corpus unchanged. Actions are built without checks:
    the domain checked its templates and sets when it was built. ``n < 1``
    is refused before the first draw.
    """
    if n < 1:
        raise InvalidRange(f"corpus size must be >= 1, got {n}")
    programs, weights = domain._programs
    seed_of = seed_stream(seed, "gen", id_prefix)
    for idx in range(n):
        rng = random.Random(seed_of(idx))
        getrandbits, uniform = rng.getrandbits, rng.random
        template_id, steps = rng.choices(programs, cum_weights=weights)[0]
        actions = []
        for cum, n_tokens, plans in steps:
            # bindings are drawn for member 0's slots and routed through the
            # set's plan, so the injector can rewrite any member it emits
            plan = plans[0] if cum is None else plans[bisect(cum, uniform())]
            values = ["x%08x" % getrandbits(32) for _ in range(n_tokens)]
            for tool, names, sources in plan:
                getrandbits(32)
                action = _new(Action)  # ``Action._trusted``, inlined
                _set_tool(action, tool)
                _set_names(action, names)
                _set_values(action, tuple([
                    literal if index is None else values[index] for index, literal in sources
                ]))
                actions.append(action)
        query_id = f"{id_prefix}{idx:06d}"
        response = f"completed {template_id} for {query_id}"
        yield GreyBoxTrajectory(query_id, tuple(actions), response)


@_gc_paused
def generate_greybox_corpus(
    domain: DomainSpec,
    n: int,
    seed: int,
    id_prefix: str = "q",
) -> list[GreyBoxTrajectory]:
    """Generate ``n`` grey-box trajectories, what a service would emit.

    The list form of ``iter_greybox_corpus``, which draws them: the same
    trajectories from the same per-trajectory seed streams, held at once.
    """
    return list(iter_greybox_corpus(domain, n, seed, id_prefix))


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
